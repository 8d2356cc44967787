package autonetkit

import (
	"errors"
	"testing"

	"autonetkit/internal/cache"
	"autonetkit/internal/compile"
	"autonetkit/internal/deploy"
	"autonetkit/internal/design"
	"autonetkit/internal/emul"
	"autonetkit/internal/obs"
	"autonetkit/internal/topogen"
)

// TestLenientBootDoesNotPoisonCache drives the resilient-boot path against
// a warm build cache: a device whose rendered config is corrupted after
// rendering gets quarantined by a lenient deployment, but neither the
// corruption nor the boot diagnostics may leak into the cache — a rebuild
// from the same store must serve the healthy artifacts, all hits. Fixing
// the quarantined device's model afterwards must rebuild it as a miss.
func TestLenientBootDoesNotPoisonCache(t *testing.T) {
	store := cache.NewMemory()
	net := buildCached(t, topogen.SmallInternet(), store)
	refHash := fileSetHash(t, net.Files)
	n := int64(net.DB.Len())

	const victim = "as100r2"
	confPath := "localhost/netkit/" + victim + "/etc/quagga/bgpd.conf"
	healthy, ok := net.Files.Read(confPath)
	if !ok {
		t.Fatalf("no %s in rendered tree", confPath)
	}

	// Corrupt the rendered artifact (post-render, as an operator editing the
	// tree would) and boot leniently: the victim is quarantined with
	// diagnostics, the other 13 devices come up.
	net.Files.Write(confPath, "router bgp 100\n  bgp router-id junk\n  network nonsense\n")
	dep, err := net.Deploy(deploy.Options{Lenient: true})
	if !errors.Is(err, emul.ErrPartialBoot) {
		t.Fatalf("lenient deploy error = %v, want emul.ErrPartialBoot", err)
	}
	lab := dep.Lab()
	if q := lab.Quarantined(); len(q) != 1 || q[0] != victim {
		t.Fatalf("quarantined = %v, want [%s]", q, victim)
	}
	if len(lab.Diagnostics().Sorted()) == 0 {
		t.Fatal("quarantine produced no diagnostics")
	}

	// Rebuild the same model from the same store: every device hits both
	// caches and the tree is the healthy one — the corruption and the
	// diagnostics never entered the content-addressed store.
	rebuilt := buildCached(t, topogen.SmallInternet(), store)
	c := rebuilt.Stats().Counters
	if c[obs.CounterCompileCacheHits] != n || c[obs.CounterCompileCacheMisses] != 0 {
		t.Errorf("rebuild compile hits/misses = %d/%d, want %d/0",
			c[obs.CounterCompileCacheHits], c[obs.CounterCompileCacheMisses], n)
	}
	if c[obs.CounterRenderCacheHits] != n || c[obs.CounterRenderCacheMisses] != 0 {
		t.Errorf("rebuild render hits/misses = %d/%d, want %d/0",
			c[obs.CounterRenderCacheHits], c[obs.CounterRenderCacheMisses], n)
	}
	if got, _ := rebuilt.Files.Read(confPath); got != healthy {
		t.Errorf("rebuild served a poisoned %s:\n%s", confPath, got)
	}
	if fileSetHash(t, rebuilt.Files) != refHash {
		t.Error("rebuild from warm store differs from the original healthy tree")
	}

	// "Fixing" the quarantined device — any model change on it — must
	// invalidate exactly the victim, never be papered over by a stale hit.
	ospf := rebuilt.ANM.Overlay(design.OverlayOSPF)
	nd := ospf.Node(victim)
	before := compileDigests(rebuilt)
	if err := nd.Set(design.AttrBackbone, !nd.GetBool(design.AttrBackbone)); err != nil {
		t.Fatal(err)
	}
	if moved := movedDevices(before, compileDigests(rebuilt)); len(moved) != 1 || moved[0] != victim {
		t.Fatalf("victim fix moved digests of %v, want exactly [%s]", moved, victim)
	}
	col := obs.NewCollector()
	if _, err := compile.Compile(rebuilt.ANM, rebuilt.Alloc, compile.Options{Cache: store, Obs: col}); err != nil {
		t.Fatal(err)
	}
	fc := col.Snapshot().Counters
	if fc[obs.CounterCompileCacheMisses] != 1 || fc[obs.CounterCompileCacheHits] != n-1 {
		t.Errorf("post-fix compile hits/misses = %d/%d, want %d/1",
			fc[obs.CounterCompileCacheHits], fc[obs.CounterCompileCacheMisses], n-1)
	}
	if fc[obs.CounterDevicesCompiled] != 1 {
		t.Errorf("post-fix compiled %d devices, want exactly the fixed one", fc[obs.CounterDevicesCompiled])
	}
}
