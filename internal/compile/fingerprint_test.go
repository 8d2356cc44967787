package compile

import (
	"net/netip"
	"testing"

	"autonetkit/internal/cache"
	"autonetkit/internal/core"
	"autonetkit/internal/design"
	"autonetkit/internal/graph"
	"autonetkit/internal/ipalloc"
	"autonetkit/internal/obs"
)

// digestAll computes every device's compile digest for the fig5 pipeline.
func digestAll(t *testing.T, anm *core.ANM, alloc *ipalloc.Result) map[graph.ID]cache.Digest {
	t.Helper()
	out := map[graph.ID]cache.Digest{}
	for _, n := range anm.Overlay(core.OverlayPhy).Routers() {
		out[n.ID()] = DeviceDigest(anm, alloc, Options{}, n.ID())
	}
	return out
}

func TestDeviceDigestStableAcrossRebuilds(t *testing.T) {
	anm1, alloc1, _ := pipeline(t, nil, Options{}, design.Options{})
	anm2, alloc2, _ := pipeline(t, nil, Options{}, design.Options{})
	d1 := digestAll(t, anm1, alloc1)
	d2 := digestAll(t, anm2, alloc2)
	if len(d1) == 0 {
		t.Fatal("no devices digested")
	}
	for id, dig := range d1 {
		if d2[id] != dig {
			t.Errorf("digest of %s drifted between identical builds", id)
		}
	}
}

// changedSet diffs two digest maps into the set of moved devices.
func changedSet(a, b map[graph.ID]cache.Digest) map[graph.ID]bool {
	out := map[graph.ID]bool{}
	for id, dig := range a {
		if b[id] != dig {
			out[id] = true
		}
	}
	return out
}

func TestDeviceDigestSelectiveInvalidation(t *testing.T) {
	anm, alloc, _ := pipeline(t, nil, Options{}, design.Options{})
	base := digestAll(t, anm, alloc)

	// A post-design OSPF edge-cost edit moves exactly the two endpoints.
	ospf := anm.Overlay(design.OverlayOSPF)
	ospf.Edge("r1", "r2").Set(design.AttrCost, 42)
	after := digestAll(t, anm, alloc)
	changed := changedSet(base, after)
	if len(changed) != 2 || !changed["r1"] || !changed["r2"] {
		t.Errorf("ospf cost edit moved %v, want exactly {r1 r2}", changed)
	}

	// An OSPF node attribute moves exactly that device (flip the backbone
	// flag — design may already have set it either way).
	base = after
	ospf.Node("r3").Set(design.AttrBackbone, !ospf.Node("r3").GetBool(design.AttrBackbone))
	after = digestAll(t, anm, alloc)
	changed = changedSet(base, after)
	if len(changed) != 1 || !changed["r3"] {
		t.Errorf("ospf node edit moved %v, want exactly {r3}", changed)
	}

	// Different compile options move every device.
	for _, n := range anm.Overlay(core.OverlayPhy).Routers() {
		if DeviceDigest(anm, alloc, Options{ZebraPassword: "sekrit"}, n.ID()) == after[n.ID()] {
			t.Errorf("option change did not move %s", n.ID())
		}
	}
}

func TestCompileCacheHitProducesIdenticalDB(t *testing.T) {
	store := cache.NewMemory()
	colCold := obs.NewCollector()
	_, _, dbCold := pipeline(t, nil, Options{Cache: store, Obs: colCold}, design.Options{})
	cold := colCold.Snapshot().Counters
	if cold[obs.CounterCompileCacheMisses] != int64(dbCold.Len()) {
		t.Errorf("cold misses = %d, want %d", cold[obs.CounterCompileCacheMisses], dbCold.Len())
	}
	if cold[obs.CounterCompileCacheHits] != 0 {
		t.Errorf("cold hits = %d, want 0", cold[obs.CounterCompileCacheHits])
	}

	colWarm := obs.NewCollector()
	_, _, dbWarm := pipeline(t, nil, Options{Cache: store, Obs: colWarm}, design.Options{})
	warm := colWarm.Snapshot().Counters
	if warm[obs.CounterCompileCacheHits] != int64(dbWarm.Len()) {
		t.Errorf("warm hits = %d, want %d", warm[obs.CounterCompileCacheHits], dbWarm.Len())
	}
	if warm[obs.CounterCompileCacheMisses] != 0 {
		t.Errorf("warm misses = %d, want 0", warm[obs.CounterCompileCacheMisses])
	}
	if warm[obs.CounterDevicesCompiled] != 0 {
		t.Errorf("warm compiled %d devices, want 0", warm[obs.CounterDevicesCompiled])
	}

	jc, err := dbCold.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	jw, err := dbWarm.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(jc) != string(jw) {
		t.Error("cached compile produced a different Resource Database")
	}
}

// TestCorruptDeviceEntryDegradesToRecompile poisons one device's stored
// record: the store's checksum cannot see a payload that was written
// wrong, so the decode failure must read as a miss, recompile that device
// alone and give the database a cold compile gives.
func TestCorruptDeviceEntryDegradesToRecompile(t *testing.T) {
	store := cache.NewMemory()
	anm, alloc, dbCold := pipeline(t, nil, Options{Cache: store}, design.Options{})
	store.Put(DeviceDigest(anm, alloc, Options{}, "r3"), []byte("not a device record"))

	col := obs.NewCollector()
	dbWarm, err := Compile(anm, alloc, Options{Cache: store, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	c := col.Snapshot().Counters
	if hits, misses := c[obs.CounterCompileCacheHits], c[obs.CounterCompileCacheMisses]; hits != int64(dbWarm.Len())-1 || misses != 1 {
		t.Errorf("hits/misses = %d/%d, want %d/1", hits, misses, dbWarm.Len()-1)
	}
	if c[obs.CounterDevicesCompiled] != 1 {
		t.Errorf("compiled %d devices, want the corrupt one only", c[obs.CounterDevicesCompiled])
	}
	wantJSON, _ := dbCold.MarshalJSON()
	gotJSON, _ := dbWarm.MarshalJSON()
	if string(wantJSON) != string(gotJSON) {
		t.Error("build over a corrupt entry serialises differently from the cold build")
	}
}

// streamHasher is the sink the reference digest writes to: every attribute
// map is sorted and encoded where it is read, as DeviceDigest did before
// the per-build table.
type streamHasher struct{ *cache.Hasher }

func (h streamHasher) Node(n *graph.Node) { h.Attrs(n.Attrs()) }
func (h streamHasher) Edge(e *graph.Edge) { h.Attrs(e.Attrs()) }

// streamedSliceDigest is the test-only reference for DeviceDigest: the
// same slice — own node and incident edges per overlay, directed-overlay
// peers and their loopbacks, the two-hop collision-domain closure — read
// straight off the model with no table.
func streamedSliceDigest(anm *core.ANM, alloc *ipalloc.Result, opts Options, id graph.ID) cache.Digest {
	opts.fill()
	h := streamHasher{cache.NewHasher(compileDigestTag)}
	h.Str(opts.ZebraPassword, opts.DefaultPlatform, opts.DefaultSyntax, opts.DefaultHost)
	h.Int(opts.OSPFProcessID)
	h.Str(string(id))
	phy := anm.Overlay(core.OverlayPhy)
	asn := phy.Node(id).ASN()
	h.Int(asn)
	if block, ok := alloc.InfraBlocks[asn]; ok {
		h.Str("infra")
		h.Value(block)
	}
	ipg := alloc.Overlay.Graph()
	names := anm.OverlayNames()
	for _, name := range names {
		g := anm.Overlay(name).Graph()
		h.Str("overlay", name)
		h.Bool(g.Directed())
		h.Attrs(g.Attrs())
		graph.WriteNodeSignature(h, g, id)
		if !g.Directed() {
			continue
		}
		for _, peer := range g.Neighbors(id) {
			h.Str("peer", string(peer))
			if pn := g.Node(peer); pn != nil {
				h.Attrs(pn.Attrs())
			}
			if lo := ipg.Node(peer); lo != nil {
				h.Str("peer-lo")
				h.Value(lo.Attrs()[ipalloc.AttrLoopback])
			}
		}
	}
	h.Str("overlay", "ipv4-alloc")
	h.Attrs(ipg.Attrs())
	graph.WriteNodeSignature(h, ipg, id)
	for _, cdID := range ipg.Neighbors(id) {
		cdNode := ipg.Node(cdID)
		if cdNode == nil {
			continue
		}
		if dt, _ := cdNode.Get(core.AttrDeviceType).(string); dt != core.DeviceCollisionDomain {
			continue
		}
		h.Str("cd", string(cdID))
		h.Attrs(cdNode.Attrs())
		for _, m := range ipg.Neighbors(cdID) {
			if m == id {
				continue
			}
			h.Str("member", string(m))
			if e := ipg.Edge(cdID, m); e != nil {
				h.Attrs(e.Attrs())
			}
			if mn := ipg.Node(m); mn != nil {
				h.Attrs(mn.Attrs())
			}
			if pn := phy.Graph().Node(m); pn != nil {
				h.Value(pn.Attrs()[core.AttrASN])
				h.Value(pn.Attrs()[core.AttrDeviceType])
			}
			for _, name := range names {
				og := anm.Overlay(name).Graph()
				if e := og.Edge(id, m); e != nil {
					h.Str("cd-edge", name)
					h.Attrs(e.Attrs())
				}
				if og.Directed() {
					if e := og.Edge(m, id); e != nil {
						h.Str("cd-edge-in", name)
						h.Attrs(e.Attrs())
					}
				}
			}
		}
	}
	return h.Sum()
}

// TestDeviceDigestMatchesSliceReference walks the mutation classes of the
// root TestCacheInvalidationMatrix (node, edge, IP block, overlay
// attribute) plus a peer loopback and a compile option, and after each one
// requires the table-folded digest of every device to equal the streamed
// reference's: the table may change what a digest costs, never which
// devices an edit moves.
func TestDeviceDigestMatchesSliceReference(t *testing.T) {
	anm, alloc, _ := pipeline(t, nil, Options{}, design.Options{})
	opts := Options{}
	routers := anm.Overlay(core.OverlayPhy).Routers()
	snapshot := func() (folded, streamed map[graph.ID]cache.Digest) {
		folded, streamed = map[graph.ID]cache.Digest{}, map[graph.ID]cache.Digest{}
		filled := opts
		filled.fill()
		dg := newDigester(anm, alloc, filled) // one table for every device, as the compile stage has
		for _, n := range routers {
			folded[n.ID()] = dg.device(n.ID())
			streamed[n.ID()] = streamedSliceDigest(anm, alloc, opts, n.ID())
		}
		return folded, streamed
	}
	ospf := anm.Overlay(design.OverlayOSPF)
	ibgp := anm.Overlay(design.OverlayIBGP)
	steps := []struct {
		name   string
		mutate func()
		moves  int // devices whose digest must move
	}{
		{"nothing", func() {}, 0},
		{"node-attribute", func() { ospf.Node("r3").Set("probe", 1) }, 1},
		{"edge-attribute", func() { ospf.Edge("r1", "r2").Set(design.AttrCost, 42) }, 2},
		{"directed-peer-attribute", func() { ibgp.Node("r2").Set("probe", 1) }, 4},
		{"peer-loopback", func() {
			alloc.Overlay.Graph().Node("r4").Set(ipalloc.AttrLoopback, netip.MustParseAddr("192.0.2.99"))
		}, 5},
		{"ip-block", func() { alloc.InfraBlocks[2] = netip.MustParsePrefix("172.16.0.0/16") }, 1},
		{"overlay-attribute", func() { ospf.Set("probe", 1) }, len(routers)},
		{"option", func() { opts.ZebraPassword = "sekrit" }, len(routers)},
	}
	prevFolded, prevStreamed := snapshot()
	for _, step := range steps {
		step.mutate()
		folded, streamed := snapshot()
		for id, d := range folded {
			if d != streamed[id] {
				t.Errorf("%s: folded digest of %s differs from the streamed slice's", step.name, id)
			}
		}
		moved, movedRef := changedSet(prevFolded, folded), changedSet(prevStreamed, streamed)
		if len(moved) != step.moves || len(movedRef) != step.moves {
			t.Errorf("%s moved %v (reference %v), want %d devices", step.name, moved, movedRef, step.moves)
		}
		prevFolded, prevStreamed = folded, streamed
	}
}
