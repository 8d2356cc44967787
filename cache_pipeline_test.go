package autonetkit

import (
	"context"
	"fmt"
	"testing"

	"autonetkit/internal/cache"
	"autonetkit/internal/compile"
	"autonetkit/internal/core"
	"autonetkit/internal/design"
	"autonetkit/internal/graph"
	"autonetkit/internal/obs"
	"autonetkit/internal/render"
	"autonetkit/internal/topogen"
)

// buildCached runs the design-through-render chain over g with the given
// store (nil disables caching), returning the built network. Counters are
// read back through net.Stats().
func buildCached(t *testing.T, g *graph.Graph, store *cache.Store) *Network {
	t.Helper()
	net, err := LoadGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Build(BuildOptions{Cache: store}); err != nil {
		t.Fatal(err)
	}
	return net
}

// compileDigests snapshots every router's compile digest, the oracle for
// which devices a model edit is allowed to invalidate.
func compileDigests(net *Network) map[graph.ID]cache.Digest {
	out := map[graph.ID]cache.Digest{}
	for _, n := range net.ANM.Overlay(core.OverlayPhy).Routers() {
		out[n.ID()] = compile.DeviceDigest(net.ANM, net.Alloc, compile.Options{}, n.ID())
	}
	return out
}

// TestCachePipelineProperty is the property-based regression harness over
// the incremental build cache: for a table of bounded random topologies
// (seeded generators), a cold cached build, a fully warm cached build and
// a post-single-edit partial rebuild must all be byte-for-byte identical
// to the cache-disabled build of the same model, with the obs counters
// proving exactly which devices were reused. Failures log the
// generator/seed row that produced them.
func TestCachePipelineProperty(t *testing.T) {
	type tcase struct {
		name string
		seed int64
		gen  func(seed int64) (*graph.Graph, error)
	}
	gens := []struct {
		name  string
		seeds []int64
		gen   func(seed int64) (*graph.Graph, error)
	}{
		{"nren", []int64{3, 11}, func(s int64) (*graph.Graph, error) {
			return topogen.NREN(topogen.NRENConfig{ASes: 4, Routers: 48, Links: 60, Seed: s})
		}},
		{"waxman", []int64{3, 11}, func(s int64) (*graph.Graph, error) {
			return topogen.Waxman(24, 0.6, 0.4, s)
		}},
		{"preferential", []int64{3, 11}, func(s int64) (*graph.Graph, error) {
			return topogen.Preferential(20, 2, s)
		}},
		{"grid", []int64{0}, func(int64) (*graph.Graph, error) {
			return topogen.Grid(4, 4)
		}},
		{"small-internet", []int64{0}, func(int64) (*graph.Graph, error) {
			return topogen.SmallInternet(), nil
		}},
	}
	var cases []tcase
	for _, g := range gens {
		for _, s := range g.seeds {
			cases = append(cases, tcase{name: g.name, seed: s, gen: g.gen})
		}
	}

	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s/seed=%d", tc.name, tc.seed), func(t *testing.T) {
			row := fmt.Sprintf("generator=%s seed=%d", tc.name, tc.seed)
			g, err := tc.gen(tc.seed)
			if err != nil {
				t.Fatal(err)
			}

			baseline := buildCached(t, g.Copy(), nil)
			refHash := fileSetHash(t, baseline.Files)
			n := int64(baseline.DB.Len())
			if n == 0 {
				t.Fatalf("%s: empty build", row)
			}

			store := cache.NewMemory()
			cold := buildCached(t, g.Copy(), store)
			cc := cold.Stats().Counters
			if cc[obs.CounterCompileCacheMisses] != n || cc[obs.CounterCompileCacheHits] != 0 {
				t.Errorf("%s: cold compile hits/misses = %d/%d, want 0/%d",
					row, cc[obs.CounterCompileCacheHits], cc[obs.CounterCompileCacheMisses], n)
			}
			if h := fileSetHash(t, cold.Files); h != refHash {
				t.Errorf("%s: cold cached build differs from cache-disabled build", row)
			}

			// A fully warm build: zero misses, zero devices compiled, bytes
			// reused, identical tree.
			warm := buildCached(t, g.Copy(), store)
			wc := warm.Stats().Counters
			if wc[obs.CounterCompileCacheHits] != n || wc[obs.CounterCompileCacheMisses] != 0 {
				t.Errorf("%s: warm compile hits/misses = %d/%d, want %d/0",
					row, wc[obs.CounterCompileCacheHits], wc[obs.CounterCompileCacheMisses], n)
			}
			if wc[obs.CounterRenderCacheHits] != n || wc[obs.CounterRenderCacheMisses] != 0 {
				t.Errorf("%s: warm render hits/misses = %d/%d, want %d/0",
					row, wc[obs.CounterRenderCacheHits], wc[obs.CounterRenderCacheMisses], n)
			}
			if wc[obs.CounterDevicesCompiled] != 0 {
				t.Errorf("%s: warm build compiled %d devices", row, wc[obs.CounterDevicesCompiled])
			}
			if wc[obs.CounterCacheBytes] == 0 {
				t.Errorf("%s: warm build reused zero cached bytes", row)
			}
			if h := fileSetHash(t, warm.Files); h != refHash {
				t.Errorf("%s: warm cached build differs from cache-disabled build", row)
			}

			// Post-single-edit partial rebuild: bump the cost of the first
			// OSPF adjacency. The digest diff is the oracle for exactly
			// which devices may recompile.
			edit := buildCached(t, g.Copy(), store)
			ospf := edit.ANM.Overlay(design.OverlayOSPF)
			edges := ospf.Edges()
			if len(edges) == 0 {
				t.Fatalf("%s: no OSPF adjacency to edit", row)
			}
			before := compileDigests(edit)
			if err := edges[0].Set(design.AttrCost, 99); err != nil {
				t.Fatal(err)
			}
			after := compileDigests(edit)
			affected := int64(0)
			for id, d := range after {
				if before[id] != d {
					affected++
				}
			}
			if affected == 0 || affected == n {
				t.Fatalf("%s: cost edit on %s moved %d/%d digests — not a partial rebuild",
					row, edges[0], affected, n)
			}

			// The cache-disabled rebuild of the edited model is ground truth.
			dbRef, err := compile.Compile(edit.ANM, edit.Alloc, compile.Options{})
			if err != nil {
				t.Fatal(err)
			}
			fsRef, err := render.RenderWith(context.Background(), dbRef, render.Options{})
			if err != nil {
				t.Fatal(err)
			}
			editHash := fileSetHash(t, fsRef)

			// First edited rebuild: exactly the affected devices miss.
			// Second: the store is warm for the new state.
			for i := range 2 {
				col := obs.NewCollector()
				db, err := compile.Compile(edit.ANM, edit.Alloc,
					compile.Options{Cache: store, Obs: col})
				if err != nil {
					t.Fatal(err)
				}
				fs, err := render.RenderWith(context.Background(), db,
					render.Options{Cache: store, Obs: col})
				if err != nil {
					t.Fatal(err)
				}
				c := col.Snapshot().Counters
				wantMiss := affected
				if i > 0 {
					wantMiss = 0
				}
				if c[obs.CounterCompileCacheMisses] != wantMiss ||
					c[obs.CounterCompileCacheHits] != n-wantMiss {
					t.Errorf("%s: edited rebuild #%d compile hits/misses = %d/%d, want %d/%d",
						row, i+1, c[obs.CounterCompileCacheHits],
						c[obs.CounterCompileCacheMisses], n-wantMiss, wantMiss)
				}
				// Render may reuse more than compile (an invalidated device
				// can compile to unchanged data) but never less.
				if c[obs.CounterRenderCacheMisses] > wantMiss {
					t.Errorf("%s: edited rebuild #%d render misses = %d > %d affected",
						row, i+1, c[obs.CounterRenderCacheMisses], wantMiss)
				}
				if h := fileSetHash(t, fs); h != editHash {
					t.Errorf("%s: edited cached rebuild differs from cache-disabled rebuild", row)
				}
			}
		})
	}
}
