package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"autonetkit"
	"autonetkit/internal/core"
	"autonetkit/internal/emul"
	"autonetkit/internal/graph"
	"autonetkit/internal/measure"
	"autonetkit/internal/topogen"
	"autonetkit/internal/topoio"
)

// run is one execution of one workload: set-up, then every stage in a
// fixed order, strictly one iteration after another (a closed loop with
// one client; the program's own worker pools are the system under test).
type run struct {
	w    *workload
	seed int64
	n    counts
	tr   *tracer // nil unless this is the traced run
	root string  // repository root
	dir  string  // scratch directory of this process

	samples   map[string][]float64 // end-to-end samples by metric
	floor     time.Duration        // wall time one sample of a short stage fills; 0 in a traced run
	fill      map[string][]float64 // the sample being filled; nil outside sampled
	fixed     map[string]float64   // counts that must repeat exactly
	attempted int
	failed    int
	problems  []string
	took      []string             // wall time of each stage, as printed
	current   string               // the stage running now
	peaks     map[string][]float64 // per stage, the resident set's high-water mark over each sample, MB
	named     goStats              // the allocator over the stage the workload is named for
	// Wall time of the untraced and traced passes of the flows a traced run
	// makes both ways; their ratio is the tracing overhead.
	untracedS, tracedS float64

	in inputs

	// The lab the incident and chaos stages work on, booted in set-up.
	drillNet  *autonetkit.Network
	drillLab  *emul.Lab
	drillBase measure.Reachability
	drillAddr func(string) netip.Addr
	fileToLab float64 // seconds set-up took from the drill file to its booted lab

	// The last lab the lab stage booted; the verify stage measures it.
	lastNet *autonetkit.Network
	lastLab *emul.Lab

	buildSums []pathSum // the uncached tree every build must reproduce
}

// inputs is everything a run derives from -seed before timing starts.
type inputs struct {
	buildFile, labFile, drillFile string
	buildGraph                    *graph.Graph
	labNodes                      []string
	tracePairs                    [][2]string // sampled traceroutes
	forwardPairs                  [][2]string // sampled data-plane lookups
	targets                       []target    // incident order: intra link, router, inter link, intra link
	cliTarget                     target      // the inter-AS link ankchaos fails
	scenarioFile                  string
	ankchaos                      string
	reservations                  [][]string // VM names per reservation
}

const (
	traceSamples   = 200
	forwardSamples = 10000
)

func newRun(w *workload, seed int64, seconds int, traced bool, root, dir string) *run {
	r := &run{
		w: w, seed: seed, n: w.n.scaled(seconds), root: root, dir: dir,
		samples: map[string][]float64{}, floor: sampleFloor, fixed: map[string]float64{}, peaks: map[string][]float64{},
	}
	if traced {
		r.tr = newTracer(w.name)
		r.n = r.n.traced()
		r.floor = 0
	}
	return r
}

// iteration is one checked unit of work: a build, a boot, an incident, a
// cycle. A failed check makes the iteration count as failed and drops its
// timing, so a wrong answer can never read as a fast one.
type iteration struct {
	r   *run
	bad bool
}

func (r *run) begin() *iteration {
	r.attempted++
	r.tr.nextIter()
	return &iteration{r: r}
}

func (it *iteration) failf(format string, args ...any) {
	if !it.bad {
		it.bad = true
		it.r.failed++
	}
	it.r.problems = append(it.r.problems, fmt.Sprintf(format, args...))
}

// ok reports whether err is nil, failing the iteration otherwise.
func (it *iteration) ok(what string, err error) bool {
	if err != nil {
		it.failf("%s: %v", what, err)
	}
	return err == nil
}

func (it *iteration) record(metric string, v float64) {
	switch {
	case it.bad:
	case it.r.fill != nil:
		it.r.fill[metric] = append(it.r.fill[metric], v)
	default:
		it.r.samples[metric] = append(it.r.samples[metric], v)
	}
}

// sampleFloor is the wall time one sample of a short stage fills. An
// iteration shorter than a collector cycle reads as one of two modes
// (collector running or not), and the median of such readings jumps between
// the modes from run to run; the mean over 100 ms sees the mix. Iterations
// longer than the floor are one sample each.
const sampleFloor = 100 * time.Millisecond

// sampled takes n samples of a stage: per metric, the mean of what
// consecutive iterations recorded until they filled r.floor. iter is
// handed the iteration's index in the stage.
func (r *run) sampled(n int, iter func(i int)) {
	i := 0
	for s := 0; s < n; s++ {
		r.fill = map[string][]float64{}
		for t0 := time.Now(); ; {
			iter(i)
			i++
			if time.Since(t0) >= r.floor {
				break
			}
		}
		for metric, xs := range r.fill {
			r.samples[metric] = append(r.samples[metric], mean(xs))
		}
		r.fill = nil
		r.peakSample()
	}
}

// peakSample notes the resident set's high-water mark since the last call
// and restarts the mark (writing 5 to clear_refs; where the kernel refuses,
// every reading is the process's maximum so far). The process's one mark is
// the largest of many peaks, each set by where the collector happened to be,
// and spreads 10 % from run to run; the median over a stage's samples does
// not.
func (r *run) peakSample() {
	if mb, err := peakRSSMB(); err == nil {
		r.peaks[r.current] = append(r.peaks[r.current], mb)
	}
	resetPeak()
}

func resetPeak() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSS is the typical peak of the hungriest stage.
func (r *run) peakRSS() float64 {
	most := 0.0
	for _, xs := range r.peaks {
		most = max(most, median(xs))
	}
	return most
}

// same asserts a count that must not move between iterations (and, the
// inputs being a function of -seed, between runs of one seed).
func (it *iteration) same(name string, v float64) {
	if prev, seen := it.r.fixed[name]; seen && prev != v {
		it.failf("%s = %v, was %v in an earlier iteration", name, v, prev)
	}
	it.r.fixed[name] = v
}

// pass picks how iteration i of a flow runs. An untraced run records
// every iteration. A traced run makes, over the flows whose traced form
// takes other entry points, a discarded warm-up and then untraced and
// traced passes in turn, and compares the two kinds.
func (r *run) pass(i int) (tr *tracer, keep func(seconds float64)) {
	switch {
	case r.tr == nil || i == 0:
		return nil, func(float64) {}
	case i%2 == 1:
		return nil, func(s float64) { r.untracedS += s }
	}
	return r.tr, func(s float64) { r.tracedS += s }
}

// rng derives an independent stream per purpose, so that drawing more of
// one thing never shifts another.
func (r *run) rng(purpose string) *rand.Rand {
	h := int64(0)
	for _, c := range purpose {
		h = h*131 + int64(c)
	}
	return rand.New(rand.NewSource(r.seed*1000003 + h))
}

// readTopo returns a topology's graph: generated, or read from a fixture.
func (r *run) readTopo(t topo) (*graph.Graph, error) {
	if t.file == "" {
		return topogen.NREN(t.nren)
	}
	net, err := autonetkit.Load(filepath.Join(r.root, t.file))
	if err != nil {
		return nil, err
	}
	return net.ANM.Overlay(core.OverlayInput).Graph(), nil
}

func writeGraphML(g *graph.Graph, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := topoio.WriteGraphML(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func draw[T any](rng *rand.Rand, from []T, what string) (T, error) {
	if len(from) == 0 {
		var zero T
		return zero, fmt.Errorf("topology has no %s", what)
	}
	return from[rng.Intn(len(from))], nil
}

func samplePairs(rng *rand.Rand, nodes []string, n int) [][2]string {
	out := make([][2]string, 0, n)
	for len(out) < n {
		a, b := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
		if a != b {
			out = append(out, [2]string{a, b})
		}
	}
	return out
}

// makeInputs writes the topology files and draws everything else the
// stages need from the seed.
func (r *run) makeInputs() error {
	in := &r.in
	files := []struct {
		t    topo
		path *string
		name string
	}{
		{r.w.build, &in.buildFile, "build.graphml"},
		{r.w.lab, &in.labFile, "lab.graphml"},
		{r.w.drill, &in.drillFile, "drill.graphml"},
	}
	graphs := make([]*graph.Graph, len(files))
	for i, f := range files {
		g, err := r.readTopo(f.t)
		if err != nil {
			return err
		}
		graphs[i] = g
		*f.path = filepath.Join(r.dir, f.name)
		if err := writeGraphML(g, *f.path); err != nil {
			return err
		}
	}
	in.buildGraph = graphs[0]

	in.labNodes = newTopology(graphs[1]).nodes
	in.tracePairs = samplePairs(r.rng("traceroute"), in.labNodes, traceSamples)
	in.forwardPairs = samplePairs(r.rng("forward"), in.labNodes, forwardSamples)

	intra, inter, routers := newTopology(graphs[2]).incidentCandidates()
	rng := r.rng("incident")
	var tg [4]target
	var err error
	if tg[0], err = draw(rng, intra, "redundant intra-AS link"); err != nil {
		return err
	}
	if tg[1], err = draw(rng, routers, "non-articulation router"); err != nil {
		return err
	}
	if tg[2], err = draw(rng, inter, "inter-AS link"); err != nil {
		return err
	}
	if tg[3], err = draw(rng, intra, "redundant intra-AS link"); err != nil {
		return err
	}
	in.targets, in.cliTarget = tg[:], tg[2]

	in.scenarioFile = filepath.Join(r.dir, "drill.chaos")
	a, b := in.cliTarget.link[0], in.cliTarget.link[1]
	scenario := fmt.Sprintf("name bench drill\nfail-link %s %s\ncheck\nrestore-link %s %s\ncheck baseline\n", a, b, a, b)
	if err := os.WriteFile(in.scenarioFile, []byte(scenario), 0o644); err != nil {
		return err
	}

	names, err := r.readTopo(r.w.cluster.names)
	if err != nil {
		return err
	}
	vms := newTopology(names).nodes
	r.rng("cluster").Shuffle(len(vms), func(i, j int) { vms[i], vms[j] = vms[j], vms[i] })
	in.reservations = make([][]string, reservationCount)
	for i, vm := range vms {
		in.reservations[i%reservationCount] = append(in.reservations[i%reservationCount], vm)
	}
	return nil
}

// buildCLI compiles cmd/ankchaos, the one binary the benchmark runs as a
// user would, and proves it against the committed golden report.
func (r *run) buildCLI() error {
	r.in.ankchaos = filepath.Join(r.dir, "bin", "ankchaos")
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", r.in.ankchaos, "./cmd/ankchaos")
	cmd.Dir = r.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/ankchaos: %v\n%s", err, out)
	}
	got, err := r.ankchaos(filepath.Join(r.root, "testdata/small_internet.graphml"),
		filepath.Join(r.root, "testdata/chaos/link_outage.chaos"))
	if err != nil {
		return err
	}
	want, err := os.ReadFile(filepath.Join(r.root, "testdata/chaos/link_outage.report"))
	if err != nil {
		return err
	}
	if got != string(want) {
		return fmt.Errorf("ankchaos on testdata/chaos/link_outage.chaos differs from its golden report:\n%s", got)
	}
	return nil
}

// ankchaos runs the built binary with no mode flags and returns its
// standard output.
func (r *run) ankchaos(topology, scenario string) (string, error) {
	cmd := exec.Command(r.in.ankchaos, "-in", topology, "-scenario", scenario)
	cmd.Dir = r.dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return string(out), fmt.Errorf("ankchaos -in %s -scenario %s: %w", topology, scenario, err)
	}
	return string(out), nil
}

// bootDrillLab takes the drill topology file to a booted lab with its
// baseline reachability matrix, as the chaos engine does before step one.
func (r *run) bootDrillLab() error {
	t0 := time.Now()
	net, err := buildTree(r.in.drillFile, nil, nil, false)
	if err != nil {
		return err
	}
	lab, err := bootLab(net, nil)
	if err != nil {
		return err
	}
	r.fileToLab = time.Since(t0).Seconds()
	r.drillNet, r.drillLab, r.drillAddr = net, lab, loopbacks(net)
	r.drillBase, err = net.Measure(lab).ReachabilityMatrix(lab.VMNames(), r.drillAddr)
	if err != nil {
		return err
	}
	if n := len(lab.VMNames()); r.drillBase.Reachable() != n*(n-1) {
		return fmt.Errorf("drill lab reaches %d of %d pairs before any incident", r.drillBase.Reachable(), n*(n-1))
	}
	return nil
}

// setUp does everything that precedes timing: inputs from the seed, the
// CLI binary, the drill lab. It repeats, because a short set-up is a
// noisy one, unless the first pass was long enough to be steady by itself;
// the last pass's products are the ones the stages use.
func (r *run) setUp() error {
	const repeats, steadyAfter = 5, 3 * time.Second
	var took []float64
	for i := 0; i < repeats; i++ {
		// A pass starts as the first did, not on the previous pass's lab.
		r.drillNet, r.drillLab, r.drillBase = nil, nil, measure.Reachability{}
		debug.FreeOSMemory()
		t0 := time.Now()
		for _, step := range []func() error{r.makeInputs, r.buildCLI, r.bootDrillLab} {
			if err := step(); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
		}
		d := time.Since(t0)
		took = append(took, d.Seconds())
		if i == 0 && d > steadyAfter {
			break
		}
	}
	r.samples["setup_s"] = took
	return nil
}

// goStats is what the Go runtime did over a stage. The collections the
// benchmark forces between iterations are left out of cycles, but not of
// the collector's share of CPU time.
type goStats struct {
	allocMB, cycles, gcCPU, cpu float64
}

func readGoStats() goStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	cpu := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(cpu)
	return goStats{
		allocMB: float64(m.TotalAlloc) / (1 << 20), cycles: float64(m.NumGC - m.NumForcedGC),
		gcCPU: cpu[0].Value.Float64(), cpu: cpu[1].Value.Float64(),
	}
}

// since is the movement from an earlier reading, allocation per iteration.
func (g goStats) since(before goStats, iterations int) goStats {
	return goStats{
		allocMB: (g.allocMB - before.allocMB) / float64(iterations), cycles: g.cycles - before.cycles,
		gcCPU: g.gcCPU - before.gcCPU, cpu: g.cpu - before.cpu,
	}
}

// measure runs every stage once. The stages that work on a lab drop it
// when they are done with it, and between stages the heap is collected and
// handed back to the system, off the clock, so that every stage starts as a
// fresh process would and one stage's heap is not marked on another's time:
// a 240-router lab holds 1.5 GB, and a collection cycle over it costs more
// than a whole 60-router iteration. In a traced run the probes of a layer
// follow the stage that leaves its state behind.
func (r *run) measure(layer map[string]float64) {
	stage := func(name string, fn func()) {
		debug.FreeOSMemory()
		r.current = name
		resetPeak()
		before, iters := readGoStats(), r.attempted
		t0 := time.Now()
		fn()
		d := time.Since(t0).Seconds()
		if name == r.w.stage {
			r.named = readGoStats().since(before, r.attempted-iters)
		}
		if len(r.peaks[name]) == 0 {
			r.peakSample()
		}
		r.took = append(r.took, fmt.Sprintf("%s %.1f s %.0f MB", name, d, median(r.peaks[name])))
	}
	stage("incident", r.stageIncident)
	stage("chaos-cli", r.stageCLI)
	if r.tr != nil {
		stage("chaos probe", r.probeChaos)
	}
	r.drillNet, r.drillLab, r.drillBase = nil, nil, measure.Reachability{}
	if r.tr != nil {
		stage("incremental probe", func() { r.probeIncremental(layer) })
	}
	stage("build", r.stageBuild)
	stage("rebuild", r.stageRebuild)
	stage("lab", r.stageLab)
	stage("verify", r.stageVerify)
	if r.tr != nil {
		stage("lab probes", func() { r.probeLab(layer) })
	}
	r.lastNet, r.lastLab = nil, nil
	stage("cluster", r.stageCluster)
	stage("durable", r.stageDurable)
	stage("cluster drill", r.stageClusterDrill)
	if r.tr != nil {
		stage("sched probes", func() { r.probeSched(); r.probeJournal() })
	}
}
