package autonetkit

import (
	"context"
	"net/netip"
	"sort"
	"testing"

	"autonetkit/internal/cache"
	"autonetkit/internal/compile"
	"autonetkit/internal/core"
	"autonetkit/internal/design"
	"autonetkit/internal/graph"
	"autonetkit/internal/obs"
	"autonetkit/internal/render"
	"autonetkit/internal/tmpl"
	"autonetkit/internal/topogen"
)

// movedDevices diffs two digest snapshots into the sorted list of devices
// whose compile digest moved.
func movedDevices(before, after map[graph.ID]cache.Digest) []string {
	var out []string
	for id, d := range after {
		if before[id] != d {
			out = append(out, string(id))
		}
	}
	sort.Strings(out)
	return out
}

// TestCacheInvalidationMatrix mutates one attribute of each model layer —
// a node, an edge, an overlay, a template, an allocated IP block — and
// asserts via the obs counters that exactly the dependent devices miss the
// compile (or render) cache while everything else hits.
func TestCacheInvalidationMatrix(t *testing.T) {
	store := cache.NewMemory()
	net := buildCached(t, topogen.SmallInternet(), store)
	n := int64(net.DB.Len())
	digests := compileDigests(net)

	// recompile reruns the compile stage against the warm store and returns
	// the counters of just that run.
	recompile := func(t *testing.T) map[string]int64 {
		t.Helper()
		col := obs.NewCollector()
		_, err := compile.Compile(net.ANM, net.Alloc, compile.Options{Cache: store, Obs: col})
		if err != nil {
			t.Fatal(err)
		}
		return col.Snapshot().Counters
	}

	// Each step mutates the current model state; the store stays warm for
	// whatever the previous step produced, so every run's misses are
	// attributable to exactly one mutation.
	steps := []struct {
		name   string
		mutate func(t *testing.T)
		want   []string // exact set of devices that must miss
	}{
		{
			name: "node-attribute",
			mutate: func(t *testing.T) {
				ospf := net.ANM.Overlay(design.OverlayOSPF)
				nd := ospf.Node("as100r2")
				if err := nd.Set(design.AttrBackbone, !nd.GetBool(design.AttrBackbone)); err != nil {
					t.Fatal(err)
				}
			},
			want: []string{"as100r2"},
		},
		{
			name: "edge-attribute",
			mutate: func(t *testing.T) {
				ospf := net.ANM.Overlay(design.OverlayOSPF)
				if err := ospf.Edge("as20r1", "as20r2").Set(design.AttrCost, 77); err != nil {
					t.Fatal(err)
				}
			},
			want: []string{"as20r1", "as20r2"},
		},
		{
			name: "ip-block",
			mutate: func(t *testing.T) {
				net.Alloc.InfraBlocks[100] = netip.MustParsePrefix("172.16.0.0/16")
			},
			want: []string{"as100r1", "as100r2", "as100r3"},
		},
		{
			name: "overlay-attribute",
			mutate: func(t *testing.T) {
				net.ANM.Overlay(design.OverlayOSPF).Set("matrix_probe", 1)
			},
			want: nil, // nil means "every device"
		},
	}

	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
			step.mutate(t)
			after := compileDigests(net)
			moved := movedDevices(digests, after)
			digests = after

			want := step.want
			if want == nil {
				for _, nd := range net.ANM.Overlay(core.OverlayPhy).Routers() {
					want = append(want, string(nd.ID()))
				}
				sort.Strings(want)
			}
			if len(moved) != len(want) {
				t.Fatalf("digest oracle moved %v, want %v", moved, want)
			}
			for i := range want {
				if moved[i] != want[i] {
					t.Fatalf("digest oracle moved %v, want %v", moved, want)
				}
			}

			c := recompile(t)
			if c[obs.CounterCompileCacheMisses] != int64(len(want)) {
				t.Errorf("compile misses = %d, want %d (%v)",
					c[obs.CounterCompileCacheMisses], len(want), want)
			}
			if c[obs.CounterCompileCacheHits] != n-int64(len(want)) {
				t.Errorf("compile hits = %d, want %d", c[obs.CounterCompileCacheHits], n-int64(len(want)))
			}
		})
	}

	// Template identity: a compile-side no-op that must invalidate every
	// rendered device of the affected syntax, and only the render layer.
	t.Run("template", func(t *testing.T) {
		// Warm the render store for the current (post-mutation) model state.
		db, err := compile.Compile(net.ANM, net.Alloc, compile.Options{Cache: store})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := render.RenderWith(context.Background(), db, render.Options{Cache: store}); err != nil {
			t.Fatal(err)
		}

		prev := render.ReplaceDeviceTemplates("quagga", append(
			[]render.DeviceTemplate{{RelPath: "etc/quagga/zebra.conf", When: "zebra",
				Template: tmpl.MustParse("quagga/zebra.conf", "! matrix\nhostname ${node.zebra.hostname}\n")}},
			render.DeviceTemplates("quagga")[1:]...))
		defer render.ReplaceDeviceTemplates("quagga", prev)

		col := obs.NewCollector()
		if _, err := render.RenderWith(context.Background(), db, render.Options{Cache: store, Obs: col}); err != nil {
			t.Fatal(err)
		}
		c := col.Snapshot().Counters
		if c[obs.CounterRenderCacheMisses] != n || c[obs.CounterRenderCacheHits] != 0 {
			t.Errorf("post-template-edit render hits/misses = %d/%d, want 0/%d",
				c[obs.CounterRenderCacheHits], c[obs.CounterRenderCacheMisses], n)
		}
		// The compile digests must not have moved: template identity is a
		// render-only input.
		if moved := movedDevices(digests, compileDigests(net)); len(moved) != 0 {
			t.Errorf("template edit moved compile digests of %v", moved)
		}
	})
}
