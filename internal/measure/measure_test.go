package measure

import (
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"autonetkit/internal/compile"
	"autonetkit/internal/core"
	"autonetkit/internal/design"
	"autonetkit/internal/emul"
	"autonetkit/internal/graph"
	"autonetkit/internal/ipalloc"
	"autonetkit/internal/render"
)

// lab builds and starts the Fig. 5 network, returning lab + allocation +
// the design-time ANM.
func lab(t *testing.T) (*emul.Lab, *ipalloc.Result, *core.ANM) {
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
	if err := design.BuildAll(anm, design.Options{}); err != nil {
		t.Fatal(err)
	}
	alloc, err := ipalloc.NewDefault().Allocate(anm)
	if err != nil {
		t.Fatal(err)
	}
	db, err := compile.Compile(anm, alloc, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := render.Render(db)
	if err != nil {
		t.Fatal(err)
	}
	l, err := emul.Load(fs, "localhost", "netkit")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Start(0); err != nil {
		t.Fatal(err)
	}
	return l, alloc, anm
}

func client(t *testing.T) (*Client, *ipalloc.Result, *core.ANM, *emul.Lab) {
	t.Helper()
	l, alloc, anm := lab(t)
	c := NewClient(l, func(a netip.Addr) string { return string(alloc.Table.HostForIP(a)) })
	return c, alloc, anm, l
}

func TestRunAllParallel(t *testing.T) {
	c, _, _, l := client(t)
	results := c.RunAll(l.VMNames(), "show ip ospf neighbor")
	if len(results) != 5 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("%s: %v", r.Machine, r.Err)
		}
	}
	// Sorted by machine.
	for i := 1; i < len(results); i++ {
		if results[i-1].Machine > results[i].Machine {
			t.Fatal("results not sorted")
		}
	}
}

// E6: the §6.1 measurement flow — run a traceroute, parse it, translate
// each hop back into router names.
func TestE6_TracerouteNameMapping(t *testing.T) {
	c, alloc, _, _ := client(t)
	var dst netip.Addr
	for _, e := range alloc.Table.Entries() {
		if e.Node == "r5" && !e.Loopback {
			dst = e.Addr
			break
		}
	}
	tr, err := c.RunTraceroute("r1", dst)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Reached {
		t.Fatalf("traceroute failed: %+v", tr)
	}
	path := tr.Path()
	if path[0] != "r1" {
		t.Errorf("path[0] = %s", path[0])
	}
	if path[len(path)-1] != "r5" {
		t.Errorf("path end = %s", path[len(path)-1])
	}
	// Every hop resolved to a hostname, not a raw address.
	for _, p := range path {
		if strings.Contains(p, ".") {
			t.Errorf("unresolved hop %q in %v", p, path)
		}
	}
}

// §6.1: the hop path collapses to the AS path.
func TestTracerouteASPath(t *testing.T) {
	c, alloc, anm, _ := client(t)
	phy := anm.Overlay(core.OverlayPhy)
	var dst netip.Addr
	for _, e := range alloc.Table.Entries() {
		if e.Node == "r5" && !e.Loopback {
			dst = e.Addr
			break
		}
	}
	tr, err := c.RunTraceroute("r1", dst)
	if err != nil || !tr.Reached {
		t.Fatalf("%v %+v", err, tr)
	}
	asPath := tr.ASPath(func(host string) int {
		return phy.Node(graph.ID(host)).ASN()
	})
	if !reflect.DeepEqual(asPath, []int{1, 2}) {
		t.Errorf("AS path = %v, want [1 2]", asPath)
	}
	// Unknown hosts are skipped.
	empty := tr.ASPath(func(string) int { return 0 })
	if len(empty) != 0 {
		t.Errorf("unknown-only AS path = %v", empty)
	}
}

func TestParseTracerouteText(t *testing.T) {
	c := NewClient(stubTarget{}, func(a netip.Addr) string {
		if a == netip.MustParseAddr("192.168.1.34") {
			return "as300r2"
		}
		return ""
	})
	// The paper's §6.1 output snippet shape.
	text := " 1  192.168.1.34  0 ms\n 2  192.168.1.25  0 ms\n"
	tr, err := c.ParseTraceroute("as300r3", netip.MustParseAddr("192.168.1.25"), text)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Hops) != 2 || !tr.Reached {
		t.Fatalf("tr = %+v", tr)
	}
	if tr.Hops[0].Host != "as300r2" {
		t.Errorf("hop host = %q", tr.Hops[0].Host)
	}
	if got := tr.Path(); !reflect.DeepEqual(got, []string{"as300r3", "as300r2", "192.168.1.25"}) {
		t.Errorf("path = %v", got)
	}
}

type stubTarget struct{}

func (stubTarget) Exec(machine, command string) (string, error) { return "", nil }
func (stubTarget) VMNames() []string                            { return nil }

func TestOSPFAdjacencies(t *testing.T) {
	c, _, _, _ := client(t)
	adjs, err := c.OSPFAdjacencies("r1")
	if err != nil {
		t.Fatal(err)
	}
	if len(adjs) != 2 {
		t.Fatalf("adjacencies = %+v", adjs)
	}
	remotes := map[string]bool{}
	for _, a := range adjs {
		remotes[a.Remote] = true
		if a.Interface == "" {
			t.Error("interface missing")
		}
	}
	if !remotes["r2"] || !remotes["r3"] {
		t.Errorf("remotes = %v", remotes)
	}
}

// E12: design-vs-measured validation — the measured OSPF graph equals the
// design overlay; a sabotaged lab is detected.
func TestE12_Validation(t *testing.T) {
	c, _, anm, l := client(t)
	measured, err := c.MeasuredOSPFGraph(l.VMNames())
	if err != nil {
		t.Fatal(err)
	}
	designed := anm.Overlay(design.OverlayOSPF).Graph()
	diff := Compare(designed, measured)
	if !diff.OK() {
		t.Fatalf("validation failed: %v", diff)
	}
	if diff.String() != "measured topology matches design" {
		t.Errorf("diff string = %q", diff.String())
	}
}

func TestValidationDetectsMissingAdjacency(t *testing.T) {
	c, _, anm, l := client(t)
	measured, err := c.MeasuredOSPFGraph(l.VMNames())
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage the measurement: drop one adjacency.
	measured.RemoveEdge("r1", "r2")
	measured.AddEdge("r1", "r4") // and add a phantom one
	diff := Compare(anm.Overlay(design.OverlayOSPF).Graph(), measured)
	if diff.OK() {
		t.Fatal("sabotage undetected")
	}
	if len(diff.MissingEdges) != 1 || diff.MissingEdges[0] != [2]graph.ID{"r1", "r2"} {
		t.Errorf("missing = %v", diff.MissingEdges)
	}
	if len(diff.ExtraEdges) != 1 || diff.ExtraEdges[0] != [2]graph.ID{"r1", "r4"} {
		t.Errorf("extra = %v", diff.ExtraEdges)
	}
	if !strings.Contains(diff.String(), "1 missing edges") {
		t.Errorf("diff string = %q", diff.String())
	}
}

func TestCompareMissingNodes(t *testing.T) {
	a := graph.New()
	a.AddEdge("x", "y")
	b := graph.New()
	b.AddNode("x")
	d := Compare(a, b)
	if len(d.MissingNodes) != 1 || d.MissingNodes[0] != "y" {
		t.Errorf("missing nodes = %v", d.MissingNodes)
	}
}

func TestNilResolver(t *testing.T) {
	c := NewClient(stubTarget{}, nil)
	tr, err := c.ParseTraceroute("src", netip.MustParseAddr("10.0.0.1"), " 1  10.0.0.1  0 ms\n")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Hops[0].Host != "" {
		t.Error("nil resolver should yield empty hosts")
	}
	if got := tr.Path(); got[1] != "10.0.0.1" {
		t.Errorf("path falls back to address: %v", got)
	}
}

func TestBGPTableParsing(t *testing.T) {
	c, _, _, _ := client(t)
	entries, err := c.BGPTable("r5")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no entries")
	}
	foundAS1 := false
	for _, e := range entries {
		if len(e.ASPath) == 1 && e.ASPath[0] == 1 {
			foundAS1 = true
			if !e.NextHop.IsValid() {
				t.Error("next hop missing")
			}
		}
	}
	if !foundAS1 {
		t.Errorf("AS1 routes missing from r5's table: %+v", entries)
	}
}

// AS-level validation: the measured AS graph (from BGP tables) is a
// subgraph of the designed eBGP AS adjacency, and covers the ASes that
// actually carry routes.
func TestMeasuredASGraph(t *testing.T) {
	c, _, anm, l := client(t)
	phy := anm.Overlay(core.OverlayPhy)
	asnOf := func(host string) int { return phy.Node(graph.ID(host)).ASN() }
	measured, err := c.MeasuredASGraph(l.VMNames(), asnOf)
	if err != nil {
		t.Fatal(err)
	}
	// Design-side AS adjacency from the ebgp overlay.
	designed := graph.New()
	for _, e := range anm.Overlay(design.OverlayEBGP).Edges() {
		designed.AddEdge(
			graph.ID(strconv.Itoa(e.Src().ASN())),
			graph.ID(strconv.Itoa(e.Dst().ASN())))
	}
	// Measured edges must be designed edges (no phantom AS adjacency).
	for _, e := range measured.Edges() {
		if !designed.HasEdge(e.Src(), e.Dst()) {
			t.Errorf("measured AS edge %v-%v not in design", e.Src(), e.Dst())
		}
	}
	// The single inter-AS link is used in both directions.
	if !measured.HasEdge("1", "2") {
		t.Errorf("AS1-AS2 adjacency missing: %v", measured)
	}
}

// IS-IS lab validation: measured IS-IS adjacencies equal the design
// IS-IS overlay (the §7 extension closed through the §8 loop).
func TestMeasuredISISGraph(t *testing.T) {
	anm := core.NewANM()
	in, err := anm.AddOverlay(core.OverlayInput)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []struct {
		id  graph.ID
		asn int
	}{{"r1", 1}, {"r2", 1}, {"r3", 1}} {
		in.AddNode(n.id, graph.Attrs{core.AttrASN: n.asn, core.AttrDeviceType: core.DeviceRouter})
	}
	in.AddEdge("r1", "r2", graph.Attrs{"type": "physical"})
	in.AddEdge("r2", "r3", graph.Attrs{"type": "physical"})
	if err := design.BuildAll(anm, design.Options{IGP: design.IGPISIS}); err != nil {
		t.Fatal(err)
	}
	alloc, err := ipalloc.NewDefault().Allocate(anm)
	if err != nil {
		t.Fatal(err)
	}
	db, err := compile.Compile(anm, alloc, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := render.Render(db)
	if err != nil {
		t.Fatal(err)
	}
	l, err := emul.Load(fs, "localhost", "netkit")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Start(0); err != nil {
		t.Fatal(err)
	}
	c := NewClient(l, nil)
	measured, err := c.MeasuredISISGraph(l.VMNames())
	if err != nil {
		t.Fatal(err)
	}
	if measured.NumEdges() != 2 || !measured.HasEdge("r1", "r2") || !measured.HasEdge("r2", "r3") {
		t.Errorf("measured isis graph wrong: %v", measured)
	}
	// The design IS-IS overlay (directed, bidirected) agrees after
	// folding to undirected form.
	designed := graph.New()
	for _, e := range anm.Overlay(design.OverlayISIS).Edges() {
		designed.AddEdge(e.SrcID(), e.DstID())
	}
	if diff := Compare(designed, measured); !diff.OK() {
		t.Errorf("isis validation failed: %v", diff)
	}
}

func loopbacks(alloc *ipalloc.Result) func(string) netip.Addr {
	byNode := map[string]netip.Addr{}
	for _, e := range alloc.Table.Entries() {
		if e.Loopback {
			byNode[string(e.Node)] = e.Addr
		}
	}
	return func(name string) netip.Addr { return byNode[name] }
}

func TestReachable(t *testing.T) {
	c, alloc, _, l := client(t)
	addrOf := loopbacks(alloc)
	ok, err := c.Reachable("r1", addrOf("r5"))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("r1 -> r5 unreachable in healthy lab")
	}
	if err := l.FailNode("r5"); err != nil {
		t.Fatal(err)
	}
	ok, err = c.Reachable("r1", addrOf("r5"))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("r1 -> dead r5 reachable")
	}
	if _, err := c.Reachable("ghost", addrOf("r5")); err == nil {
		t.Error("probe from unknown machine accepted")
	}
}

func TestReachabilityMatrixAndDiff(t *testing.T) {
	c, alloc, _, l := client(t)
	addrOf := loopbacks(alloc)
	names := l.VMNames()
	before, err := c.ReachabilityMatrix(names, addrOf)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(before.Nodes); got != 5 {
		t.Fatalf("nodes = %v", before.Nodes)
	}
	if before.Pairs() != 20 || before.Reachable() != 20 {
		t.Errorf("baseline %d/%d reachable", before.Reachable(), before.Pairs())
	}
	if !sort.StringsAreSorted(before.Nodes) {
		t.Errorf("nodes not sorted: %v", before.Nodes)
	}

	// Nodes without a probe address are excluded, not failed.
	partial, err := c.ReachabilityMatrix(names, func(name string) netip.Addr {
		if name == "r5" {
			return netip.Addr{}
		}
		return addrOf(name)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(partial.Nodes) != 4 || partial.Pairs() != 12 {
		t.Errorf("partial matrix = %v (%d pairs)", partial.Nodes, partial.Pairs())
	}

	if err := l.FailNode("r5"); err != nil {
		t.Fatal(err)
	}
	after, err := c.ReachabilityMatrix(names, addrOf)
	if err != nil {
		t.Fatal(err)
	}
	diff := DiffReachability(before, after)
	if diff.OK() {
		t.Fatal("diff missed the outage")
	}
	// Every ordered pair touching r5 is lost: 4 sources + 4 destinations.
	if len(diff.Lost) != 8 || len(diff.Gained) != 0 {
		t.Errorf("diff = %+v", diff)
	}
	for _, p := range diff.Lost {
		if p[0] != "r5" && p[1] != "r5" {
			t.Errorf("lost pair %v does not involve r5", p)
		}
	}
	if !sort.SliceIsSorted(diff.Lost, func(i, j int) bool {
		if diff.Lost[i][0] != diff.Lost[j][0] {
			return diff.Lost[i][0] < diff.Lost[j][0]
		}
		return diff.Lost[i][1] < diff.Lost[j][1]
	}) {
		t.Errorf("lost pairs not sorted: %v", diff.Lost)
	}
	if s := diff.String(); !strings.Contains(s, "8 pairs lost") {
		t.Errorf("diff string = %q", s)
	}
	// Self-diff is clean and says so.
	if d := DiffReachability(after, after); !d.OK() || d.String() != "reachability unchanged" {
		t.Errorf("self diff = %+v (%q)", d, d.String())
	}
	// Reach answers per pair; a pair that was not probed did not answer.
	for _, tc := range []struct {
		m        Reachability
		src, dst string
		want     bool
	}{
		{before, "r1", "r5", true}, {before, "r5", "r1", true}, {before, "r1", "r1", false},
		{after, "r1", "r5", false}, {after, "r5", "r1", false}, {after, "r1", "r4", true},
		{partial, "r1", "r4", true}, {partial, "r1", "r5", false},
		{before, "ghost", "r1", false}, {before, "r1", "ghost", false}, {Reachability{}, "r1", "r2", false},
	} {
		if got := tc.m.Reach(tc.src, tc.dst); got != tc.want {
			t.Errorf("Reach(%s, %s) = %v, want %v", tc.src, tc.dst, got, tc.want)
		}
	}
	// Over different node sets only the first matrix's pairs are compared,
	// and a pair the second did not probe counts as lost.
	if d := DiffReachability(before, partial); len(d.Lost) != 8 || len(d.Gained) != 0 {
		t.Errorf("full vs partial = %+v", d)
	}
	if d := DiffReachability(partial, before); !d.OK() {
		t.Errorf("partial vs full = %+v", d)
	}
	if d := DiffReachability(Reachability{}, before); !d.OK() {
		t.Errorf("empty vs full = %+v", d)
	}
}

// flakyTarget answers every ping except those from the machines in fail,
// which error from the named destination address on (every destination when
// the address is invalid). It records each probe it was asked for.
type flakyTarget struct {
	fail map[string]netip.Addr
	mu   sync.Mutex
	seen map[[2]string]bool
}

func (f *flakyTarget) VMNames() []string { return nil }

func (f *flakyTarget) Exec(machine, command string) (string, error) {
	dst := command[strings.LastIndexByte(command, ' ')+1:]
	f.mu.Lock()
	f.seen[[2]string{machine, dst}] = true
	f.mu.Unlock()
	runtime.Gosched()
	if from, bad := f.fail[machine]; bad && (!from.IsValid() || from.String() == dst) {
		return "", fmt.Errorf("%s is down", machine)
	}
	return "PING " + dst + ": 1 packets transmitted, 1 received, 0% packet loss\n", nil
}

// TestReachabilityMatrixErrorIsDeterministic: with two failing rows the
// error names the first failed probe in (src, dst) order on every run,
// whichever worker got there first, and a failed row is abandoned.
func TestReachabilityMatrixErrorIsDeterministic(t *testing.T) {
	nodes := []string{"f", "d", "b", "a", "e", "c"}
	addrOf := func(name string) netip.Addr {
		return netip.AddrFrom4([4]byte{10, 0, 0, name[0] - 'a' + 1})
	}
	for run := 0; run < 50; run++ {
		target := &flakyTarget{
			fail: map[string]netip.Addr{"b": addrOf("e"), "d": {}},
			seen: map[[2]string]bool{},
		}
		_, err := NewClient(target, nil).ReachabilityMatrix(nodes, addrOf)
		if err == nil || err.Error() != "measure: probing b -> e: b is down" {
			t.Fatalf("run %d: err = %v", run, err)
		}
		for pair := range target.seen {
			if pair == [2]string{"b", addrOf("f").String()} || (pair[0] == "d" && pair[1] != addrOf("a").String()) {
				t.Fatalf("run %d: probe %v ran after its row had failed", run, pair)
			}
		}
		if !target.seen[[2]string{"a", addrOf("f").String()}] || !target.seen[[2]string{"b", addrOf("d").String()}] {
			t.Fatalf("run %d: healthy probes missing: %v", run, target.seen)
		}
	}
}
