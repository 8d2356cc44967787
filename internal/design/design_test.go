package design

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"autonetkit/internal/core"
	"autonetkit/internal/graph"
)

// fig5 builds the paper's Fig. 5 input: 5 routers, ASN {1,1,1,1,2}.
func fig5(t *testing.T) *core.ANM {
	t.Helper()
	anm := core.NewANM()
	in, err := anm.AddOverlay(core.OverlayInput)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []struct {
		id  graph.ID
		asn int
	}{{"r1", 1}, {"r2", 1}, {"r3", 1}, {"r4", 1}, {"r5", 2}} {
		in.AddNode(n.id, graph.Attrs{core.AttrASN: n.asn, core.AttrDeviceType: core.DeviceRouter})
	}
	for _, e := range [][2]graph.ID{{"r1", "r2"}, {"r1", "r3"}, {"r2", "r4"}, {"r3", "r4"}, {"r3", "r5"}, {"r4", "r5"}} {
		in.AddEdge(e[0], e[1], graph.Attrs{"type": "physical"})
	}
	return anm
}

func edgeSet(o *core.Overlay) map[string]bool {
	out := map[string]bool{}
	for _, e := range o.Edges() {
		out[string(e.SrcID())+"-"+string(e.DstID())] = true
	}
	return out
}

// E1 (part): eq. (1) — exact OSPF edge set from Fig. 5a.
func TestFig5OSPFRule(t *testing.T) {
	anm := fig5(t)
	ospf, err := OSPF(anm)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"r1-r2", "r1-r3", "r2-r4", "r3-r4"}
	got := edgeSet(ospf)
	if len(got) != len(want) {
		t.Fatalf("ospf edges = %v, want %v", got, want)
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing ospf edge %s", w)
		}
	}
	// Defaults.
	for _, e := range ospf.Edges() {
		if e.GetInt(AttrCost, 0) != 1 || e.GetInt(AttrArea, -1) != 0 {
			t.Errorf("edge %v defaults wrong: cost=%v area=%v", e, e.Get(AttrCost), e.Get(AttrArea))
		}
	}
	// All AS1 routers are backbone (area 0 edges); r5 has no ospf edge.
	for _, id := range []graph.ID{"r1", "r2", "r3", "r4"} {
		if !ospf.Node(id).GetBool(AttrBackbone) {
			t.Errorf("%s not marked backbone", id)
		}
	}
	if ospf.Node("r5").GetBool(AttrBackbone) {
		t.Error("isolated r5 marked backbone")
	}
}

// E1 (part): eq. (2) — exact iBGP session set from Fig. 5c.
func TestFig5IBGPFullMeshRule(t *testing.T) {
	anm := fig5(t)
	ibgp, err := IBGPFullMesh(anm)
	if err != nil {
		t.Fatal(err)
	}
	// Paper lists 5 undirected pairs plus r3-r4 implied by N x N; the
	// directed overlay holds both directions of each of the 6 AS1 pairs.
	if ibgp.NumEdges() != 12 {
		t.Fatalf("ibgp sessions = %d, want 12 directed", ibgp.NumEdges())
	}
	undirected := map[string]bool{}
	for _, e := range ibgp.Edges() {
		a, b := string(e.SrcID()), string(e.DstID())
		if a > b {
			a, b = b, a
		}
		undirected[a+"-"+b] = true
		if e.GetString(AttrSessionType, "") != SessionPeer {
			t.Errorf("session %v type = %q", e, e.Get(AttrSessionType))
		}
	}
	var got []string
	for k := range undirected {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{"r1-r2", "r1-r3", "r1-r4", "r2-r3", "r2-r4", "r3-r4"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("ibgp pairs = %v, want %v", got, want)
	}
}

// E1 (part): eq. (3) — exact eBGP session set from Fig. 5d.
func TestFig5EBGPRule(t *testing.T) {
	anm := fig5(t)
	ebgp, err := EBGP(anm)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"r3-r5", "r4-r5", "r5-r3", "r5-r4"}
	got := edgeSet(ebgp)
	if len(got) != len(want) {
		t.Fatalf("ebgp edges = %v", got)
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing ebgp session %s", w)
		}
	}
	if !ebgp.Directed() {
		t.Error("ebgp overlay must be directed")
	}
}

func TestBuildPhy(t *testing.T) {
	anm := fig5(t)
	in := anm.Overlay(core.OverlayInput)
	in.AddNode("virt", graph.Attrs{core.AttrDeviceType: core.DeviceRouter})
	in.AddEdge("r1", "virt", graph.Attrs{"type": "virtual"})
	phy, err := BuildPhy(anm)
	if err != nil {
		t.Fatal(err)
	}
	if phy.NumNodes() != 6 {
		t.Errorf("phy nodes = %d", phy.NumNodes())
	}
	if phy.NumEdges() != 6 {
		t.Errorf("phy edges = %d, want 6 (virtual excluded)", phy.NumEdges())
	}
	if phy.HasEdge("r1", "virt") {
		t.Error("virtual edge copied to phy")
	}
}

func TestOSPFRespectsInputCostsAndAreas(t *testing.T) {
	anm := fig5(t)
	in := anm.Overlay(core.OverlayInput)
	in.Edge("r1", "r2").Set(AttrCost, 20)
	in.Edge("r1", "r2").Set(AttrArea, 1)
	ospf, err := OSPF(anm)
	if err != nil {
		t.Fatal(err)
	}
	e := ospf.Edge("r1", "r2")
	if e.GetInt(AttrCost, 0) != 20 || e.GetInt(AttrArea, 0) != 1 {
		t.Errorf("input attrs not retained: cost=%v area=%v", e.Get(AttrCost), e.Get(AttrArea))
	}
}

func TestOSPFExcludesServers(t *testing.T) {
	anm := fig5(t)
	in := anm.Overlay(core.OverlayInput)
	in.AddNode("srv", graph.Attrs{core.AttrASN: 1, core.AttrDeviceType: core.DeviceServer})
	in.AddEdge("srv", "r1", graph.Attrs{"type": "physical"})
	ospf, err := OSPF(anm)
	if err != nil {
		t.Fatal(err)
	}
	if ospf.HasNode("srv") || ospf.HasEdge("srv", "r1") {
		t.Error("server leaked into routing overlay (device_type selector broken)")
	}
}

// E8: attribute-based route reflectors.
func TestRouteReflectorAttributeBased(t *testing.T) {
	anm := fig5(t)
	in := anm.Overlay(core.OverlayInput)
	in.Node("r1").MustSet(AttrRR, true)
	in.Node("r4").MustSet(AttrRR, true)
	ibgp, err := IBGPRouteReflectors(anm, RROptions{})
	if err != nil {
		t.Fatal(err)
	}
	// AS1: rr={r1,r4}, clients={r2,r3}: rr-rr 2 + rr-client 2*2*2=8 -> 10.
	if ibgp.NumEdges() != 10 {
		t.Fatalf("sessions = %d, want 10", ibgp.NumEdges())
	}
	if ibgp.Edge("r1", "r4").GetString(AttrSessionType, "") != SessionPeer {
		t.Error("rr-rr session type wrong")
	}
	if ibgp.Edge("r1", "r2").GetString(AttrSessionType, "") != SessionDown {
		t.Error("rr->client should be down")
	}
	if ibgp.Edge("r2", "r1").GetString(AttrSessionType, "") != SessionUp {
		t.Error("client->rr should be up")
	}
	if ibgp.HasEdge("r2", "r3") {
		t.Error("client-client session created")
	}
}

// E8: centrality-based auto-selection (§7.1's degree_centrality pattern).
func TestRouteReflectorAutoSelection(t *testing.T) {
	anm := core.NewANM()
	in, _ := anm.AddOverlay(core.OverlayInput)
	// Star: hub has highest degree, must be selected.
	for _, id := range []graph.ID{"hub", "l1", "l2", "l3", "l4"} {
		in.AddNode(id, graph.Attrs{core.AttrASN: 1, core.AttrDeviceType: core.DeviceRouter})
	}
	for _, l := range []graph.ID{"l1", "l2", "l3", "l4"} {
		in.AddEdge("hub", l)
	}
	ibgp, err := IBGPRouteReflectors(anm, RROptions{PerAS: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !ibgp.Node("hub").GetBool(AttrRR) {
		t.Fatal("hub not auto-selected as rr")
	}
	for _, l := range []graph.ID{"l1", "l2", "l3", "l4"} {
		if ibgp.Node(l).GetBool(AttrRR) {
			t.Errorf("leaf %s selected as rr", l)
		}
	}
	// 1 rr, 4 clients -> 8 directed sessions.
	if ibgp.NumEdges() != 8 {
		t.Errorf("sessions = %d, want 8", ibgp.NumEdges())
	}
}

// E8: session-count reduction vs full mesh.
func TestRouteReflectorSessionReduction(t *testing.T) {
	build := func(n int) *core.ANM {
		anm := core.NewANM()
		in, _ := anm.AddOverlay(core.OverlayInput)
		var prev graph.ID
		for i := 0; i < n; i++ {
			id := graph.ID(strings.Repeat("x", 1) + string(rune('a'+i%26)) + string(rune('0'+i/26)))
			in.AddNode(id, graph.Attrs{core.AttrASN: 1, core.AttrDeviceType: core.DeviceRouter})
			if prev != "" {
				in.AddEdge(prev, id)
			}
			prev = id
		}
		return anm
	}
	n := 20
	anmMesh := build(n)
	mesh, err := IBGPFullMesh(anmMesh)
	if err != nil {
		t.Fatal(err)
	}
	anmRR := build(n)
	rr, err := IBGPRouteReflectors(anmRR, RROptions{PerAS: 2})
	if err != nil {
		t.Fatal(err)
	}
	if mesh.NumEdges() != n*(n-1) {
		t.Errorf("mesh sessions = %d, want %d", mesh.NumEdges(), n*(n-1))
	}
	// RR: 2 rrs -> 2 peer + 2*18 clients *2 dirs = 74 << 380.
	if rr.NumEdges() >= mesh.NumEdges()/2 {
		t.Errorf("rr sessions = %d, not a reduction vs %d", rr.NumEdges(), mesh.NumEdges())
	}
}

// E7: IS-IS overlay built by the two-line rule.
func TestE7_ISISRule(t *testing.T) {
	anm := fig5(t)
	isis, err := ISIS(anm)
	if err != nil {
		t.Fatal(err)
	}
	// Intra-AS edges, both directions (directed overlay).
	if isis.NumEdges() != 8 {
		t.Errorf("isis edges = %d, want 8", isis.NumEdges())
	}
	if isis.HasEdge("r3", "r5") {
		t.Error("inter-AS edge leaked into IS-IS")
	}
}

func TestBuildAll(t *testing.T) {
	anm := fig5(t)
	if err := BuildAll(anm, Options{ISIS: true}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{core.OverlayPhy, OverlayOSPF, OverlayEBGP, OverlayIBGP, OverlayISIS} {
		if !anm.HasOverlay(name) {
			t.Errorf("overlay %s missing", name)
		}
	}
	// With route reflectors instead.
	anm2 := fig5(t)
	if err := BuildAll(anm2, Options{RouteReflectors: true, RROptions: RROptions{PerAS: 1}}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range anm2.Overlay(OverlayIBGP).Nodes() {
		if n.GetBool(AttrRR) {
			found = true
		}
	}
	if !found {
		t.Error("no route reflectors selected")
	}
}

func TestMissingInputErrors(t *testing.T) {
	anm := core.NewANM() // no input overlay
	if _, err := OSPF(anm); err == nil {
		t.Error("OSPF without input accepted")
	}
	if _, err := EBGP(anm); err == nil {
		t.Error("EBGP without input accepted")
	}
	if _, err := IBGPFullMesh(anm); err == nil {
		t.Error("IBGP without input accepted")
	}
	if _, err := IBGPRouteReflectors(anm, RROptions{}); err == nil {
		t.Error("RR without input accepted")
	}
	if _, err := ISIS(anm); err == nil {
		t.Error("ISIS without input accepted")
	}
	if _, err := BuildPhy(anm); err == nil {
		t.Error("BuildPhy without input accepted")
	}
	if err := BuildAll(anm, Options{}); err == nil {
		t.Error("BuildAll without input accepted")
	}
}

// Rules are idempotent: rebuilding replaces the overlay rather than
// erroring or duplicating (experimentation requires re-running with changed
// parameters, §2).
func TestRebuildIdempotent(t *testing.T) {
	anm := fig5(t)
	if _, err := OSPF(anm); err != nil {
		t.Fatal(err)
	}
	ospf2, err := OSPF(anm)
	if err != nil {
		t.Fatalf("rebuild failed: %v", err)
	}
	if ospf2.NumEdges() != 4 {
		t.Errorf("rebuild edges = %d", ospf2.NumEdges())
	}
}

// E13: the same rules applied to a different input topology with zero code
// change.
func TestE13_RuleReuse(t *testing.T) {
	anm := core.NewANM()
	in, _ := anm.AddOverlay(core.OverlayInput)
	// A ring of 3 ASes with 3 routers each.
	for asn := 1; asn <= 3; asn++ {
		var prev graph.ID
		for i := 0; i < 3; i++ {
			id := graph.ID(string(rune('a'+asn-1)) + string(rune('0'+i)))
			in.AddNode(id, graph.Attrs{core.AttrASN: asn, core.AttrDeviceType: core.DeviceRouter})
			if prev != "" {
				in.AddEdge(prev, id)
			}
			prev = id
		}
	}
	in.AddEdge("a2", "b0")
	in.AddEdge("b2", "c0")
	in.AddEdge("c2", "a0")
	if err := BuildAll(anm, Options{}); err != nil {
		t.Fatal(err)
	}
	ospf := anm.Overlay(OverlayOSPF)
	ebgp := anm.Overlay(OverlayEBGP)
	ibgp := anm.Overlay(OverlayIBGP)
	if ospf.NumEdges() != 6 { // 2 intra edges per AS
		t.Errorf("ospf edges = %d, want 6", ospf.NumEdges())
	}
	if ebgp.NumEdges() != 6 { // 3 inter-AS links x 2 directions
		t.Errorf("ebgp sessions = %d, want 6", ebgp.NumEdges())
	}
	if ibgp.NumEdges() != 18 { // 3 ASes x 3*2 directed pairs
		t.Errorf("ibgp sessions = %d, want 18", ibgp.NumEdges())
	}
}

// §7.1 with the alternative centrality: betweenness also selects the hub
// of a barbell (where degree alone would tie everything).
func TestRouteReflectorBetweennessSelection(t *testing.T) {
	anm := core.NewANM()
	in, _ := anm.AddOverlay(core.OverlayInput)
	// Two triangles joined through "mid": every node has degree 2 except
	// the triangle corners touching mid (degree 3)... use a barbell where
	// mid is the cut vertex with maximal betweenness but NOT maximal
	// degree: corners have degree 3, mid has degree 2.
	for _, id := range []graph.ID{"a1", "a2", "a3", "mid", "b1", "b2", "b3"} {
		in.AddNode(id, graph.Attrs{core.AttrASN: 1, core.AttrDeviceType: core.DeviceRouter})
	}
	for _, e := range [][2]graph.ID{
		{"a1", "a2"}, {"a2", "a3"}, {"a1", "a3"},
		{"b1", "b2"}, {"b2", "b3"}, {"b1", "b3"},
		{"a3", "mid"}, {"mid", "b1"},
	} {
		in.AddEdge(e[0], e[1])
	}
	ibgp, err := IBGPRouteReflectors(anm, RROptions{PerAS: 1, Centrality: "betweenness"})
	if err != nil {
		t.Fatal(err)
	}
	if !ibgp.Node("mid").GetBool(AttrRR) {
		t.Error("betweenness did not select the cut vertex")
	}
	// Degree centrality would pick a3 or b1 (degree 3) instead.
	anm2 := core.NewANM()
	in2, _ := anm2.AddOverlay(core.OverlayInput)
	for _, n := range in.Nodes() {
		in2.AddNode(n.ID(), graph.Attrs{core.AttrASN: 1, core.AttrDeviceType: core.DeviceRouter})
	}
	for _, e := range in.Edges() {
		in2.AddEdge(e.SrcID(), e.DstID())
	}
	ibgp2, err := IBGPRouteReflectors(anm2, RROptions{PerAS: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ibgp2.Node("mid").GetBool(AttrRR) {
		t.Error("degree centrality unexpectedly selected the cut vertex")
	}
}

// TestIBGPFullMeshMatchesQuadraticReference holds IBGPFullMesh to eq. (2)
// read literally — scan N×N, keep i != j with asn(i) == asn(j) — on a
// seeded input whose router order interleaves the ASes, with a
// single-router AS, routers carrying no asn at all (they read as AS 0 and
// mesh with each other) and servers scattered between them. The edge
// *sequence* must match, not just the set: it fixes neighbor order in
// every rendered bgpd.conf.
func TestIBGPFullMeshMatchesQuadraticReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	anm := core.NewANM()
	in, err := anm.AddOverlay(core.OverlayInput)
	if err != nil {
		t.Fatal(err)
	}
	in.AddNode("lonely", graph.Attrs{core.AttrASN: 99, core.AttrDeviceType: core.DeviceRouter})
	for i := 0; i < 60; i++ {
		attrs := graph.Attrs{core.AttrDeviceType: core.DeviceRouter}
		if asn := rng.Intn(5); asn > 0 { // 0: no asn attribute
			attrs[core.AttrASN] = asn
		}
		if rng.Intn(6) == 0 {
			attrs[core.AttrDeviceType] = core.DeviceServer
		}
		in.AddNode(graph.ID(fmt.Sprintf("n%02d", i)), attrs)
	}
	ibgp, err := IBGPFullMesh(anm)
	if err != nil {
		t.Fatal(err)
	}
	var want [][2]graph.ID
	rtrs := in.Routers()
	for _, s := range rtrs {
		for _, d := range rtrs {
			if s.ID() != d.ID() && s.ASN() == d.ASN() {
				want = append(want, [2]graph.ID{s.ID(), d.ID()})
			}
		}
	}
	edges := ibgp.Edges()
	if len(edges) != len(want) || len(want) == 0 {
		t.Fatalf("ibgp sessions = %d, reference has %d", len(edges), len(want))
	}
	for i, e := range edges {
		if got := [2]graph.ID{e.SrcID(), e.DstID()}; got != want[i] {
			t.Fatalf("session %d = %v, reference has %v", i, got, want[i])
		}
	}
	if ibgp.Graph().Degree("lonely") != 0 {
		t.Error("single-router AS got a session")
	}
	unnumbered := 0
	for _, n := range rtrs {
		if n.ASN() == 0 {
			unnumbered++
		}
	}
	if unnumbered < 2 {
		t.Fatalf("seed gives %d routers without an asn; the AS-0 mesh is not exercised", unnumbered)
	}
}
