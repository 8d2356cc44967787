package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"autonetkit/internal/graph"
	"autonetkit/internal/topogen"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is a number")
	}
	// The values statistics.quantiles(xs, n=4) returns.
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 5}, 1, 10},
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1 (5.5 over 5.5)", got)
	}
}

func TestSelfTime(t *testing.T) {
	// root 0..100 holds a (10..40) and b (30..60), which overlap by 10, and
	// c (90..120), which runs past the root; a holds d (15..25).
	spans := []span{
		{ID: 1, Parent: 0, Name: "flow.iter", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "x.a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "x.b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "x.c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "y.d", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 40, 2: 20, 3: 30, 4: 30, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	if got := layerSelfSeconds(spans, "flow.iter"); len(got) != 1 || !near(got[0], 90e-9) {
		t.Errorf("layers under the root = %v, want [9e-08]", got)
	}
}

func TestTracerNestsAndNilIsSilent(t *testing.T) {
	var none *tracer
	none.start("a.b")()
	none.count("c", 1)
	none.nextIter()

	tr := newTracer("w")
	tr.nextIter()
	endRoot := tr.start("flow.iter")
	tr.start("x.a")()
	endRoot()
	tr.start("x.a")()
	if len(tr.spans) != 3 || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[2].Parent != 0 || tr.spans[1].Iter != 1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if got := tr.under("flow.iter", "x.a"); len(got) != 1 {
		t.Errorf("under found %d spans, want the nested one only", len(got))
	}
	if got := tr.named("x.a"); len(got) != 2 {
		t.Errorf("named found %d spans, want 2", len(got))
	}
}

// chain builds the graph 1-2-3-4 plus the triangle 4-5-6, all in AS 1
// except node 1 in AS 2.
func chain() *graph.Graph {
	g := graph.New()
	for _, id := range []graph.ID{"n1", "n2", "n3", "n4", "n5", "n6"} {
		asn := 1
		if id == "n1" {
			asn = 2
		}
		g.AddNode(id, graph.Attrs{"asn": asn})
	}
	for _, e := range [][2]graph.ID{{"n1", "n2"}, {"n2", "n3"}, {"n3", "n4"}, {"n4", "n5"}, {"n5", "n6"}, {"n4", "n6"}} {
		g.AddEdge(e[0], e[1])
	}
	return g
}

func TestCutsAndCandidates(t *testing.T) {
	topo := newTopology(chain())
	bridges, artics := topo.cuts(func(string) bool { return true })
	wantBridges := map[[2]string]bool{{"n1", "n2"}: true, {"n2", "n3"}: true, {"n3", "n4"}: true}
	wantArtics := map[string]bool{"n2": true, "n3": true, "n4": true}
	if !reflect.DeepEqual(bridges, wantBridges) || !reflect.DeepEqual(artics, wantArtics) {
		t.Errorf("bridges %v artics %v, want %v and %v", bridges, artics, wantBridges, wantArtics)
	}
	intra, inter, routers := topo.incidentCandidates()
	if len(intra) != 3 { // the triangle's three sides
		t.Errorf("redundant intra-AS links = %v, want the triangle", intra)
	}
	// n1-n2 is a bridge between {n1} and the other five: 2·1·5 pairs.
	if len(inter) != 1 || inter[0].wantLost != 10 {
		t.Errorf("inter-AS links = %+v, want one costing 10 pairs", inter)
	}
	// n5 and n6 have two links and cut nothing; each costs 2·(6−1) pairs.
	if len(routers) != 2 || routers[0].node != "n5" || routers[0].wantLost != 10 {
		t.Errorf("routers = %+v, want n5 and n6 costing 10 pairs", routers)
	}
}

func TestCandidatesOnSmallInternet(t *testing.T) {
	_, inter, routers := newTopology(topogen.SmallInternet()).incidentCandidates()
	found := false
	for _, tg := range inter {
		if tg.link == edgeKey("as1r1", "as20r3") {
			// The committed link_outage golden loses 98 pairs on this link.
			found = tg.wantLost == 98
		}
	}
	if !found {
		t.Errorf("as1r1-as20r3 should be a bridge costing 98 pairs: %+v", inter)
	}
	for _, tg := range routers {
		if tg.node == "as1r1" {
			t.Error("as1r1 joins three ASes and cannot be a safe router to fail")
		}
	}
}

func TestVerdicts(t *testing.T) {
	lower := metric{name: "x_s", unit: "s", better: "lower", bound: 0.10}
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c} }
	noisy := func(c float64) []float64 { return []float64{c * 0.7, c * 0.9, c, c * 1.1, c * 1.3} }
	for _, tc := range []struct {
		name     string
		m        metric
		old, new []float64
		want     string
	}{
		{"same", lower, steady(1), steady(1.02), "ok"},
		{"slower beyond the bound", lower, steady(1), steady(1.2), "regressed"},
		{"faster", lower, steady(1), steady(0.5), "ok"},
		{"noise wider than the bound", lower, noisy(1), noisy(1.02), "unresolved"},
		{"noisy but every run better", lower, noisy(1), noisy(0.4), "ok"},
		{"noisy and slower beyond the bound", lower, noisy(1), noisy(1.5), "regressed"},
		{"higher is better, lower is a regression", metric{name: "r", better: "higher", bound: 0.10}, steady(1), steady(0.8), "regressed"},
	} {
		if got := verdict(tc.m, tc.old, tc.new); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareSets(t *testing.T) {
	set := func(build float64, failed int) resultSet {
		ws := workloadSet{Name: "w"}
		for i := 0; i < 3; i++ {
			r := seededResult{Seed: int64(i), result: result{Correct: failed == 0, Attempted: 10, Failed: failed, Metrics: map[string]value{}}}
			for _, m := range endToEnd {
				r.Metrics[m.name] = value{1, m.unit}
			}
			r.Metrics["build_s"] = value{build, "s"}
			ws.Runs = append(ws.Runs, r)
		}
		return resultSet{Workloads: []workloadSet{ws}}
	}
	var out bytes.Buffer
	if compareSets(&out, set(1, 0), set(1.05, 0)) {
		t.Errorf("a 5%% move within a 15%% bound regressed:\n%s", out.String())
	}
	out.Reset()
	if !compareSets(&out, set(1, 0), set(2, 0)) || !strings.Contains(out.String(), "regressed") {
		t.Errorf("a doubled build_s did not regress:\n%s", out.String())
	}
	if !compareSets(io.Discard, set(1, 0), set(1, 1)) {
		t.Error("a failed check in the new set did not regress failed_share")
	}
}

// smoke runs every stage at a size that fits a test: a 50-router build,
// the Small-Internet lab, a 4-host cluster.
var smoke = workload{
	name:    "smoke",
	stage:   "lab",
	build:   topo{nren: topogen.NRENConfig{ASes: 3, Routers: 50, Links: 62, Seed: 7}},
	lab:     topo{file: "testdata/small_internet.graphml"},
	drill:   topo{file: "testdata/small_internet.graphml"},
	cluster: cluster{topo{nren: topogen.NRENConfig{ASes: 3, Routers: 50, Links: 62, Seed: 7}}, 4, 30, []string{"h02"}, "h03"},
	n:       counts{build: 2, warm: 2, lab: 2, verify: 1, pairs: 4, cli: 1, cycles: 2, durable: 2},
}

func runSmoke(t *testing.T, seed int64, traced bool) (result, string) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	res, err := runWorkload(&smoke, seed, runSeconds, traced, root, &out)
	if err != nil {
		t.Fatalf("seed %d: %v\n%s", seed, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("seed %d: %d of %d checks failed:\n%s", seed, res.Failed, res.Attempted, out.String())
	}
	return res, out.String()
}

func TestSmokeUntraced(t *testing.T) {
	res, out := runSmoke(t, 7, false)
	for _, m := range endToEnd {
		if v, ok := res.Metrics[m.name]; !ok || !(v.Value > 0) || v.Unit != m.unit {
			t.Errorf("%s = %+v, want a positive value in %s\n%s", m.name, v, m.unit, out)
		}
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
}

// The counts a traced run reports are functions of the seed alone; a
// second seed passes every check too.
func TestSmokeTracedRepeatsItsCounts(t *testing.T) {
	first, out := runSmoke(t, 11, true)
	if len(first.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want %d", len(first.Metrics), len(perLayer))
	}
	for _, name := range []string{"design.build_s", "emul.boot_s", "routing.bgp_s", "measure.matrix_s", "emul.reconverge_link_s",
		"emul.reconverge_node_s", "chaos.run_s", "sched.reserve_ms", "journal.append_us", "sched.replay_ms", "trace.lab_layers_s",
		"go.alloc_mb_per_op", "go.gc_cpu_share"} {
		if !(first.Metrics[name].Value > 0) {
			t.Errorf("%s = %v, want a positive time\n%s", name, first.Metrics[name].Value, out)
		}
	}
	second, _ := runSmoke(t, 11, true)
	if first.Attempted != second.Attempted {
		t.Errorf("attempted %d then %d on the same seed", first.Attempted, second.Attempted)
	}
	for _, name := range []string{"routing.bgp_rounds", "routing.bgp_routes", "dataplane.fib_entries", "compile.devices",
		"render.files", "render.bytes", "deploy.bundle_bytes", "sched.moves", "journal.records", "journal.bytes"} {
		if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b || a == 0 {
			t.Errorf("%s = %v then %v on the same seed, want equal and non-zero", name, a, b)
		}
	}
}

func TestFailedCheckDropsTimingAndFailsRun(t *testing.T) {
	r := newRun(&smoke, 7, runSeconds, false, "", "")
	it := r.begin()
	it.same("n", 1)
	it.same("n", 2)
	it.record("build_s", 1)
	ok := r.begin()
	ok.record("build_s", 2)
	if r.attempted != 2 || r.failed != 1 || !reflect.DeepEqual(r.samples["build_s"], []float64{2}) {
		t.Errorf("attempted %d failed %d samples %v", r.attempted, r.failed, r.samples["build_s"])
	}
}

func TestArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such"}, {"-trace", "2"}, {"-seconds", "0"}, {"-compare", "only-one.json"}, {"stray"},
	} {
		if code := realMain(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
	}
	if c := (counts{build: 20, lab: 3, pairs: 2}).scaled(12); c.build != 10 || c.lab != 2 || c.pairs != 1 || c.cli != 1 {
		t.Errorf("scaled to half = %+v", c)
	}
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// BENCHMARK.json at the repository root is written from the tables in
// this package (UPDATE_MANIFEST=1 go test -run TestManifest) and must not
// drift from them.
func TestManifestMatchesTables(t *testing.T) {
	want := manifest{Command: []string{"go", "run", "-C", "bench", "-buildvcs=false", "."}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
		if !slices.Contains([]string{"incident", "build", "lab", "cluster"}, w.stage) {
			t.Errorf("%s: no stage is called %q", w.name, w.stage)
		}
		want.Workloads = append(want.Workloads, manifestLoad{w.name, w.why})
	}
	for _, m := range endToEnd {
		bound := m.bound
		if bound <= 0 || bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, bound)
		}
		want.EndToEnd = append(want.EndToEnd, manifestMetric{m.name, m.unit, m.better, &bound})
	}
	for _, m := range perLayer {
		want.PerLayer = append(want.PerLayer, manifestMetric{Name: m.name, Unit: m.unit, Better: m.better})
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "BENCHMARK.json")
	if os.Getenv("UPDATE_MANIFEST") != "" {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in bench/; regenerate with UPDATE_MANIFEST=1")
	}
}
