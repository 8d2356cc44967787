package graph

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestAddNodeAndAttrs(t *testing.T) {
	g := New()
	n := g.AddNode("r1", Attrs{"asn": 1})
	if !g.HasNode("r1") || g.NumNodes() != 1 {
		t.Fatalf("node not added")
	}
	if n.Get("asn") != 1 {
		t.Errorf("attr asn = %v, want 1", n.Get("asn"))
	}
	// Re-adding merges attributes.
	g.AddNode("r1", Attrs{"device_type": "router"})
	if n.Get("device_type") != "router" || n.Get("asn") != 1 {
		t.Errorf("merge failed: %v", n.Attrs())
	}
	if g.NumNodes() != 1 {
		t.Errorf("duplicate add created node")
	}
}

func TestAddEdgeImplicitNodes(t *testing.T) {
	g := New()
	e := g.AddEdge("a", "b", Attrs{"weight": 10})
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("got %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge("a", "b") || !g.HasEdge("b", "a") {
		t.Errorf("undirected edge not visible in both directions")
	}
	if g.Edge("b", "a") != e {
		t.Errorf("reverse lookup returned a different edge")
	}
	// Re-add merges attrs, does not duplicate.
	g.AddEdge("b", "a", Attrs{"area": 0})
	if g.NumEdges() != 1 {
		t.Errorf("duplicate edge created")
	}
	if e.Get("area") != 0 || e.Get("weight") != 10 {
		t.Errorf("attrs not merged: %v", e.Attrs())
	}
}

func TestDirectedEdges(t *testing.T) {
	g := NewDirected()
	g.AddEdge("a", "b")
	if !g.HasEdge("a", "b") {
		t.Fatal("missing forward edge")
	}
	if g.HasEdge("b", "a") {
		t.Fatal("directed graph has spurious reverse edge")
	}
	g.AddEdge("b", "a")
	if g.NumEdges() != 2 {
		t.Errorf("want 2 directed edges, got %d", g.NumEdges())
	}
	if got := g.Neighbors("a"); !reflect.DeepEqual(got, []ID{"b"}) {
		t.Errorf("successors of a = %v", got)
	}
	if got := len(g.InEdgesOf("a")); got != 1 {
		t.Errorf("in-edges of a = %d, want 1", got)
	}
}

func TestRemoveNodeCascades(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	g.AddEdge("a", "c")
	g.RemoveNode("b")
	if g.HasNode("b") {
		t.Fatal("node still present")
	}
	if g.NumEdges() != 1 || !g.HasEdge("a", "c") {
		t.Errorf("incident edges not removed: %d edges", g.NumEdges())
	}
	if got := g.Neighbors("a"); !reflect.DeepEqual(got, []ID{"c"}) {
		t.Errorf("neighbors after removal = %v", got)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	g.RemoveEdge("b", "a") // reverse orientation must also work
	if g.NumEdges() != 0 || g.HasEdge("a", "b") {
		t.Fatal("edge not removed")
	}
	g.RemoveEdge("a", "b") // no-op on absent
}

func TestDeterministicOrder(t *testing.T) {
	build := func() *Graph {
		g := New()
		for _, id := range []ID{"r5", "r1", "r3", "r2", "r4"} {
			g.AddNode(id)
		}
		g.AddEdge("r5", "r1")
		g.AddEdge("r3", "r2")
		g.AddEdge("r1", "r4")
		return g
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a.NodeIDs(), b.NodeIDs()) {
		t.Errorf("node order differs across identical builds")
	}
	want := []ID{"r5", "r1", "r3", "r2", "r4"}
	if !reflect.DeepEqual(a.NodeIDs(), want) {
		t.Errorf("node order = %v, want insertion order %v", a.NodeIDs(), want)
	}
	es := a.Edges()
	if es[0].Src() != "r5" || es[1].Src() != "r3" || es[2].Src() != "r1" {
		t.Errorf("edge order not insertion order")
	}
	if !reflect.DeepEqual(a.SortedNodeIDs(), []ID{"r1", "r2", "r3", "r4", "r5"}) {
		t.Errorf("sorted ids wrong: %v", a.SortedNodeIDs())
	}
}

func TestCopyIsDeep(t *testing.T) {
	g := New()
	g.Set("infra", "10.0.0.0/8")
	g.AddEdge("a", "b", Attrs{"w": 1})
	c := g.Copy()
	c.AddNode("z")
	c.Node("a").Set("w", 99)
	c.Edge("a", "b").Set("w", 99)
	if g.HasNode("z") {
		t.Error("copy shares node storage")
	}
	if g.Node("a").Has("w") {
		t.Error("copy shares node attrs")
	}
	if g.Edge("a", "b").Get("w") != 1 {
		t.Error("copy shares edge attrs")
	}
	if c.Get("infra") != "10.0.0.0/8" {
		t.Error("graph attrs not copied")
	}
}

func TestSubgraph(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	g.AddEdge("c", "a")
	s := g.Subgraph([]ID{"a", "b"})
	if s.NumNodes() != 2 || s.NumEdges() != 1 || !s.HasEdge("a", "b") {
		t.Fatalf("subgraph wrong: %v", s)
	}
}

func TestSelfLoopDegree(t *testing.T) {
	g := New()
	g.AddEdge("a", "a")
	if d := g.Degree("a"); d != 2 {
		t.Errorf("self-loop degree = %d, want 2 (NetworkX convention)", d)
	}
}

func TestEdgeOther(t *testing.T) {
	g := New()
	e := g.AddEdge("a", "b")
	if e.Other("a") != "b" || e.Other("b") != "a" {
		t.Fatal("Other wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Other on non-endpoint should panic")
		}
	}()
	e.Other("z")
}

// Property: adding N distinct nodes then M distinct edges gives exactly
// those counts, and every edge is visible from both endpoints (undirected).
func TestPropertyEdgeSymmetry(t *testing.T) {
	f := func(pairs [][2]uint8) bool {
		g := New()
		for _, p := range pairs {
			u := ID(rune('a' + p[0]%26))
			v := ID(rune('a' + p[1]%26))
			g.AddEdge(u, v)
		}
		for _, e := range g.Edges() {
			if !g.HasEdge(e.Src(), e.Dst()) || !g.HasEdge(e.Dst(), e.Src()) {
				return false
			}
		}
		// Sum of degrees equals 2 * #edges.
		sum := 0
		for _, n := range g.Nodes() {
			sum += g.Degree(n.ID())
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Copy is observationally identical.
func TestPropertyCopyEqual(t *testing.T) {
	f := func(pairs [][2]uint8) bool {
		g := New()
		for _, p := range pairs {
			g.AddEdge(ID(rune('a'+p[0]%16)), ID(rune('a'+p[1]%16)))
		}
		c := g.Copy()
		if !reflect.DeepEqual(g.NodeIDs(), c.NodeIDs()) {
			return false
		}
		if g.NumEdges() != c.NumEdges() {
			return false
		}
		for _, e := range g.Edges() {
			if !c.HasEdge(e.Src(), e.Dst()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBFSOrder(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	g.AddEdge("a", "c")
	g.AddEdge("b", "d")
	got := g.BFSOrder("a")
	if !reflect.DeepEqual(got, []ID{"a", "b", "c", "d"}) {
		t.Errorf("BFS order = %v", got)
	}
	if g.BFSOrder("zz") != nil {
		t.Error("BFS from absent node should be nil")
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	g.AddEdge("c", "d")
	g.AddNode("e")
	comps := g.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	if g.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
	g.AddEdge("b", "c")
	g.AddEdge("d", "e")
	if !g.IsConnected() {
		t.Error("connected graph reported disconnected")
	}
}

func TestWeaklyConnectedDirected(t *testing.T) {
	g := NewDirected()
	g.AddEdge("a", "b")
	g.AddEdge("c", "b") // weakly connects c
	if !g.IsConnected() {
		t.Error("weak connectivity should ignore direction")
	}
}

func TestDijkstraAndShortestPath(t *testing.T) {
	g := New()
	g.AddEdge("a", "b", Attrs{"cost": 1})
	g.AddEdge("b", "c", Attrs{"cost": 1})
	g.AddEdge("a", "c", Attrs{"cost": 5})
	path, d, err := g.ShortestPath("a", "c", AttrWeight("cost", 1))
	if err != nil {
		t.Fatal(err)
	}
	if d != 2 || !reflect.DeepEqual(path, []ID{"a", "b", "c"}) {
		t.Errorf("path=%v dist=%v", path, d)
	}
	// Raising the via-b cost flips the choice.
	g.Edge("a", "b").Set("cost", 10)
	path, d, _ = g.ShortestPath("a", "c", AttrWeight("cost", 1))
	if d != 5 || !reflect.DeepEqual(path, []ID{"a", "c"}) {
		t.Errorf("after reweight path=%v dist=%v", path, d)
	}
	if _, _, err := g.ShortestPath("a", "zz", UnitWeight); err == nil {
		t.Error("expected unreachable error")
	}
}

func TestDijkstraDirected(t *testing.T) {
	g := NewDirected()
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	g.AddEdge("c", "a")
	if _, _, err := g.ShortestPath("a", "c", UnitWeight); err != nil {
		t.Fatalf("a->c should be reachable: %v", err)
	}
	dist, _ := g.Dijkstra("c", UnitWeight)
	if dist["b"] != 2 {
		t.Errorf("c->b dist = %v, want 2 (respecting direction)", dist["b"])
	}
}

func TestDegreeCentrality(t *testing.T) {
	g := New()
	// star: hub connected to 3 leaves
	g.AddEdge("hub", "l1")
	g.AddEdge("hub", "l2")
	g.AddEdge("hub", "l3")
	c := g.DegreeCentrality()
	if c["hub"] != 1.0 {
		t.Errorf("hub centrality = %v, want 1", c["hub"])
	}
	if math.Abs(c["l1"]-1.0/3.0) > 1e-9 {
		t.Errorf("leaf centrality = %v", c["l1"])
	}
	top := TopKByCentrality(c, 1)
	if len(top) != 1 || top[0] != "hub" {
		t.Errorf("top-1 = %v", top)
	}
	// Deterministic ties: l1 < l2 < l3.
	top3 := TopKByCentrality(c, 3)
	if !reflect.DeepEqual(top3, []ID{"hub", "l1", "l2"}) {
		t.Errorf("top-3 = %v", top3)
	}
	if got := TopKByCentrality(c, 100); len(got) != 4 {
		t.Errorf("overlong k should clamp, got %d", len(got))
	}
}

func TestClosenessCentrality(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	c := g.ClosenessCentrality()
	if c["b"] <= c["a"] {
		t.Errorf("middle node should have highest closeness: %v", c)
	}
}

func TestDiameter(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	g.AddEdge("c", "d")
	if d := g.Diameter(); d != 3 {
		t.Errorf("path diameter = %v, want 3", d)
	}
	g.AddNode("island")
	if d := g.Diameter(); !math.IsInf(d, 1) {
		t.Errorf("disconnected diameter = %v, want +Inf", d)
	}
}

func TestToFloat(t *testing.T) {
	cases := []struct {
		in   any
		want float64
		ok   bool
	}{
		{1, 1, true}, {int64(2), 2, true}, {3.5, 3.5, true},
		{float32(4), 4, true}, {uint(5), 5, true}, {"x", 0, false}, {nil, 0, false},
	}
	for _, c := range cases {
		got, ok := ToFloat(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("ToFloat(%v) = %v,%v", c.in, got, ok)
		}
	}
}

func TestBetweennessCentrality(t *testing.T) {
	// Path a-b-c-d-e: middle node c has the highest betweenness.
	g := New()
	for _, e := range [][2]ID{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "e"}} {
		g.AddEdge(e[0], e[1])
	}
	cb := g.BetweennessCentrality()
	if cb["c"] <= cb["b"] || cb["b"] <= cb["a"] {
		t.Errorf("ordering wrong: %v", cb)
	}
	if cb["a"] != 0 || cb["e"] != 0 {
		t.Errorf("endpoints should be 0: %v", cb)
	}
	// Exact value for the path graph's centre (normalised):
	// c lies on shortest paths of pairs {a,b}x{d,e} -> raw 2*4=8 halved by
	// pair double-count -> 4; normalised by (n-1)(n-2)/... = 8/12.
	if math.Abs(cb["c"]-8.0/12.0) > 1e-9 {
		t.Errorf("cb[c] = %v, want %v", cb["c"], 8.0/12.0)
	}
	// Star: hub carries everything.
	star := New()
	for _, l := range []ID{"l1", "l2", "l3", "l4"} {
		star.AddEdge("hub", l)
	}
	cbs := star.BetweennessCentrality()
	if cbs["hub"] != 1.0 {
		t.Errorf("hub betweenness = %v, want 1", cbs["hub"])
	}
	for _, l := range []ID{"l1", "l2", "l3", "l4"} {
		if cbs[l] != 0 {
			t.Errorf("leaf %s = %v", l, cbs[l])
		}
	}
	// Tiny graphs don't normalise (n <= 2).
	tiny := New()
	tiny.AddEdge("x", "y")
	_ = tiny.BetweennessCentrality()
}

// TestIndexTracksInsertionOrderAcrossRemovals: Node.Index and Edge.Index
// are the element's position in Nodes() and Edges(), also after elements
// before it were removed — per-element tables are sized by NumNodes and
// NumEdges and indexed by these.
func TestIndexTracksInsertionOrderAcrossRemovals(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := newGraph(directed)
		for _, e := range [][2]ID{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "a"}, {"b", "d"}, {"e", "a"}} {
			g.AddEdge(e[0], e[1])
		}
		check := func(when string) {
			t.Helper()
			for i, n := range g.Nodes() {
				if n.Index() != i {
					t.Errorf("directed=%v %s: node %s has index %d at position %d", directed, when, n.ID(), n.Index(), i)
				}
			}
			for i, e := range g.Edges() {
				if e.Index() != i {
					t.Errorf("directed=%v %s: edge %s-%s has index %d at position %d", directed, when, e.Src(), e.Dst(), e.Index(), i)
				}
			}
		}
		check("as built")
		g.RemoveEdge("b", "c")
		check("after removing an edge")
		g.RemoveNode("a") // takes three edges with it
		check("after removing a node")
		g.AddEdge("c", "f")
		check("after adding again")
		sub := g.Subgraph([]ID{"b", "d", "f"})
		g = sub
		check("in a subgraph")
	}
}
