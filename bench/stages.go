package main

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"autonetkit"
	"autonetkit/internal/cache"
	"autonetkit/internal/chaos"
	"autonetkit/internal/deploy"
	"autonetkit/internal/design"
	"autonetkit/internal/emul"
	"autonetkit/internal/journal"
	"autonetkit/internal/measure"
	"autonetkit/internal/obs"
	"autonetkit/internal/sched"
)

// buildTree takes a topology file to a statically verified configuration
// tree in memory, stage by stage as cmd/ankbuild does, with every flag at
// its default. store is the -cache store, nil for an uncached build; warm
// only renames the compile and render spans of a rebuild against a warm
// store.
func buildTree(path string, store *cache.Store, tr *tracer, warm bool) (*autonetkit.Network, error) {
	end := tr.start("topoio.read")
	net, err := autonetkit.Load(path)
	end()
	if err != nil {
		return nil, err
	}
	var opts autonetkit.BuildOptions
	opts.Compile.Cache, opts.Render.Cache = store, store
	compileSpan, renderSpan := "compile.compile", "render.render"
	if warm {
		compileSpan, renderSpan = "compile.warm", "render.warm"
	}
	steps := []struct {
		span string
		fn   func() error
	}{
		{"design.build", func() error { return net.Design(opts.Design) }},
		{"ipalloc.allocate", func() error { return net.Allocate(opts.IP) }},
		{compileSpan, func() error { return net.Compile(opts.Compile) }},
		{renderSpan, func() error { return net.RenderWith(opts.Render) }},
		{"verify.static", func() error {
			report, err := net.Verify()
			if err == nil && !report.OK() {
				err = fmt.Errorf("static verification found errors:\n%s", report)
			}
			return err
		}},
	}
	for _, s := range steps {
		end := tr.start(s.span)
		err := s.fn()
		end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.span, err)
		}
	}
	return net, nil
}

// bootLab deploys a built network with the CLIs' defaults. The traced run
// takes deploy.Run's four steps itself, so each gets a span.
func bootLab(net *autonetkit.Network, tr *tracer) (*emul.Lab, error) {
	if tr == nil {
		dep, err := net.Deploy(deploy.Options{Shards: runtime.NumCPU()})
		if err != nil {
			return nil, err
		}
		return dep.Lab(), nil
	}
	end := tr.start("deploy.archive")
	bundle, err := deploy.Archive(net.Files)
	end()
	if err != nil {
		return nil, err
	}
	tr.count("deploy.bundle_bytes", float64(len(bundle)))
	end = tr.start("deploy.extract")
	files, err := deploy.Extract(bundle)
	end()
	if err != nil {
		return nil, err
	}
	end = tr.start("emul.load")
	lab, err := emul.Load(files, "localhost", "netkit")
	end()
	if err != nil {
		return nil, err
	}
	end = tr.start("emul.boot")
	err = lab.Boot(emul.BootOptions{Shards: runtime.NumCPU()})
	end()
	return lab, err
}

// loopbacks resolves a machine name to its loopback, the address every
// probe targets (what Network.Chaos hands the chaos engine).
func loopbacks(net *autonetkit.Network) func(string) netip.Addr {
	byName := map[string]netip.Addr{}
	for _, e := range net.Alloc.Table.Entries() {
		if e.Loopback {
			byName[string(e.Node)] = e.Addr
		}
	}
	return func(name string) netip.Addr { return byName[name] }
}

// verifyLab measures a running lab: a fresh N×N reachability matrix, then
// the measured OSPF adjacency graph compared against the design overlay.
func verifyLab(net *autonetkit.Network, lab *emul.Lab, addrOf func(string) netip.Addr, tr *tracer) (measure.Reachability, error) {
	client := net.Measure(lab)
	end := tr.start("measure.matrix")
	matrix, err := client.ReachabilityMatrix(lab.VMNames(), addrOf)
	end()
	if err != nil {
		return matrix, err
	}
	end = tr.start("measure.ospf_compare")
	measured, err := client.MeasuredOSPFGraph(lab.VMNames())
	var diff measure.Diff
	if err == nil {
		diff = measure.Compare(net.ANM.Overlay(design.OverlayOSPF).Graph(), measured)
	}
	end()
	if err != nil {
		return matrix, err
	}
	if !diff.OK() {
		return matrix, fmt.Errorf("measured OSPF graph differs from design: %s", diff)
	}
	return matrix, nil
}

// wantFull fails the iteration unless every ordered pair is reachable.
func (it *iteration) wantFull(m measure.Reachability, machines int) {
	if want := machines * (machines - 1); m.Pairs() != want || m.Reachable() != want {
		it.failf("matrix reaches %d of %d probed pairs, want all %d", m.Reachable(), m.Pairs(), want)
	}
}

// stageBuild: topology file -> verified tree, uncached. Every tree must
// equal the first byte for byte. Each build starts from a clean heap, as an
// ankbuild process does, not from the previous build's garbage.
func (r *run) stageBuild() {
	r.sampled(r.n.build, func(i int) {
		debug.FreeOSMemory()
		it := r.begin()
		tr, keep := r.pass(i)
		end := tr.start("build.iter")
		t0 := time.Now()
		net, err := buildTree(r.in.buildFile, nil, tr, false)
		d := time.Since(t0).Seconds()
		end()
		if !it.ok("build", err) {
			return
		}
		keep(d)
		sums := treeSums(net.Files)
		if r.buildSums == nil {
			r.buildSums = sums
		} else if p := treeDiff(r.buildSums, sums); p != "" {
			it.failf("build %d renders %s differently from the first build", i, p)
		}
		c := net.Stats().Counters
		it.same("compile.devices", float64(c[obs.CounterDevicesCompiled]))
		it.same("render.files", float64(net.Files.Len()))
		it.same("render.bytes", float64(net.Files.TotalBytes()))
		it.record("build_s", d)
	})
}

// stageRebuild: one build into an empty on-disk store, then rebuilds of
// the topology with one seeded node edited, against the warm store. The
// populate (cache writes) sits beside the warm edits (cache reads) so a
// gain for one at the cost of the other shows.
func (r *run) stageRebuild() {
	store, err := cache.Open(filepath.Join(r.dir, "ankcache"), cache.Options{})
	it := r.begin()
	if !it.ok("cache.Open", err) {
		return
	}
	defer os.RemoveAll(store.Dir())
	end := r.tr.start("cache.populate")
	net, err := buildTree(r.in.buildFile, store, r.tr, false)
	end()
	if it.ok("populating build", err) {
		if p := treeDiff(r.buildSums, treeSums(net.Files)); p != "" {
			it.failf("populating build renders %s differently from an uncached build", p)
		}
	}

	edited := filepath.Join(r.dir, "edited.graphml")
	ids := r.in.buildGraph.SortedNodeIDs()
	rng := r.rng("edit")
	r.sampled(r.n.warm, func(i int) {
		it := r.begin()
		node := ids[rng.Intn(len(ids))]
		g := r.in.buildGraph.Copy()
		g.Node(node).Set("note", fmt.Sprintf("bench-edit-%d", i))
		if !it.ok("writing the edited topology", writeGraphML(g, edited)) {
			return
		}
		ref, err := buildTree(edited, nil, nil, false)
		if !it.ok("uncached build of the edited topology", err) {
			return
		}
		g = nil
		debug.FreeOSMemory()
		end := r.tr.start("rebuild.iter")
		t0 := time.Now()
		net, err := buildTree(edited, store, r.tr, true)
		d := time.Since(t0).Seconds()
		end()
		if !it.ok("warm rebuild", err) {
			return
		}
		if p := treeDiff(treeSums(ref.Files), treeSums(net.Files)); p != "" {
			it.failf("warm rebuild after editing %s renders %s differently from an uncached build", node, p)
		}
		// The edited attribute is local to one device: its compile and its
		// render miss, every other lookup hits.
		c := net.Stats().Counters
		hits, misses := c[obs.CounterCacheHits], c[obs.CounterCacheMisses]
		if lookups := 2 * int64(net.DB.Len()); misses != 2 || hits+misses != lookups {
			it.failf("warm rebuild after editing %s: %d hits, %d misses, want %d and 2", node, hits, misses, lookups-2)
		}
		r.tr.count("cache.hits", float64(hits))
		r.tr.count("cache.misses", float64(misses))
		r.tr.count("cache.bytes_read", float64(c[obs.CounterCacheBytes]))
		it.record("rebuild_warm_s", d)
	})
}

// stageLab: cold topology file -> built -> booted and converged -> fully
// probed -> design-vs-measured clean. North-star number one.
func (r *run) stageLab() {
	addrOf := func(string) netip.Addr { return netip.Addr{} }
	for i := 0; i < r.n.lab; i++ {
		// Each boot starts from a clean heap, as a CLI process does, not
		// from the previous lab's garbage.
		r.lastNet, r.lastLab = nil, nil
		debug.FreeOSMemory()
		resetPeak()
		it := r.begin()
		tr, keep := r.pass(i)
		end := tr.start("lab.iter")
		t0 := time.Now()
		net, err := buildTree(r.in.labFile, nil, tr, false)
		var lab *emul.Lab
		if err == nil {
			lab, err = bootLab(net, tr)
		}
		var matrix measure.Reachability
		if err == nil {
			addrOf = loopbacks(net)
			matrix, err = verifyLab(net, lab, addrOf, tr)
		}
		d := time.Since(t0).Seconds()
		end()
		r.peakSample()
		if !it.ok("file to verified lab", err) {
			continue
		}
		keep(d)
		it.wantFull(matrix, len(r.in.labNodes))
		res := lab.BGPResult()
		if !res.Converged {
			it.failf("lab did not converge: %+v", res)
		}
		it.same("routing.bgp_rounds", float64(res.Rounds))
		it.record("lab_ready_s", d)
		r.lastNet, r.lastLab = net, lab
	}
}

// stageVerify: re-verification of the last running lab, the phase
// measure and dataplane dominate, then sampled traceroutes.
func (r *run) stageVerify() {
	if r.lastLab == nil {
		r.begin().failf("verify: no lab survived the lab stage")
		return
	}
	addrOf := loopbacks(r.lastNet)
	r.sampled(r.n.verify, func(int) {
		it := r.begin()
		end := r.tr.start("verify.iter")
		t0 := time.Now()
		matrix, err := verifyLab(r.lastNet, r.lastLab, addrOf, r.tr)
		d := time.Since(t0).Seconds()
		end()
		if !it.ok("verify", err) {
			return
		}
		it.wantFull(matrix, len(r.in.labNodes))
		it.record("verify_s", d)
	})
	it := r.begin()
	client := r.lastNet.Measure(r.lastLab)
	for _, p := range r.in.tracePairs {
		end := r.tr.start("measure.traceroute")
		trace, err := client.RunTraceroute(p[0], addrOf(p[1]))
		end()
		if !it.ok("traceroute", err) {
			break
		}
		if path := trace.Path(); !trace.Reached || path[len(path)-1] != p[1] {
			it.failf("traceroute %s -> %s ended at %v", p[0], p[1], path)
		}
	}
}

// inject fails or restores one incident target on a lab.
func inject(lab *emul.Lab, tg target, restore bool, tr *tracer) error {
	switch {
	case tg.node != "" && restore:
		defer tr.start("emul.restore_node")()
		return lab.RestoreNode(tg.node)
	case tg.node != "":
		defer tr.start("emul.fail_node")()
		return lab.FailNode(tg.node)
	case restore:
		defer tr.start("emul.restore_link")()
		return lab.RestoreLink(tg.link[0], tg.link[1])
	}
	defer tr.start("emul.fail_link")()
	return lab.FailLink(tg.link[0], tg.link[1])
}

// stageIncident: inject -> reconverged -> fresh matrix -> diff against the
// baseline, on the lab set-up booted. North-star number two. Each failure
// must lose exactly the pairs the oracle derived; each restore must diff
// clean.
func (r *run) stageIncident() {
	client := r.drillNet.Measure(r.drillLab)
	for _, tg := range r.in.targets[:min(r.n.pairs, len(r.in.targets))] {
		for _, restore := range []bool{false, true} {
			it := r.begin()
			end := r.tr.start("incident.iter")
			t0 := time.Now()
			err := inject(r.drillLab, tg, restore, r.tr)
			var diff measure.ReachabilityDiff
			if err == nil {
				endM := r.tr.start("measure.matrix")
				var after measure.Reachability
				after, err = client.ReachabilityMatrix(r.drillLab.VMNames(), r.drillAddr)
				endM()
				endD := r.tr.start("measure.diff")
				diff = measure.DiffReachability(r.drillBase, after)
				endD()
			}
			d := time.Since(t0).Seconds()
			end()
			r.peakSample()
			if !it.ok(tg.String(), err) {
				continue
			}
			want := tg.wantLost
			if restore {
				want = 0
			}
			if len(diff.Lost) != want || len(diff.Gained) != 0 {
				it.failf("%s (restore=%v): %d pairs lost, %d gained, want %d and 0", tg, restore, len(diff.Lost), len(diff.Gained), want)
			}
			if res := r.drillLab.BGPResult(); !res.Converged {
				it.failf("%s (restore=%v): did not reconverge: %+v", tg, restore, res)
			}
			it.record("incident_s", d)
		}
	}
}

var lostGained = regexp.MustCompile(`\((\d+) lost, (\d+) gained vs baseline\)`)

// checkDrillReport holds a report of the generated drill (fail, check,
// restore, check baseline) to the oracle's counts.
func (it *iteration) checkDrillReport(report string, tg target) {
	checks := lostGained.FindAllStringSubmatch(report, -1)
	want := [][2]int{{tg.wantLost, 0}, {0, 0}}
	if len(checks) != len(want) {
		it.failf("drill report has %d check lines, want %d:\n%s", len(checks), len(want), report)
		return
	}
	for i, c := range checks {
		lost, _ := strconv.Atoi(c[1])
		gained, _ := strconv.Atoi(c[2])
		if lost != want[i][0] || gained != want[i][1] {
			it.failf("drill check %d: %d lost, %d gained, want %d and %d", i+1, lost, gained, want[i][0], want[i][1])
		}
	}
}

// stageCLI wall-clocks the built ankchaos binary, default flags, topology
// file to report: the one number that cannot drift from what users get
// when a flag default flips.
func (r *run) stageCLI() {
	for i := 0; i < r.n.cli; i++ {
		it := r.begin()
		end := r.tr.start("chaos.cli")
		t0 := time.Now()
		report, err := r.ankchaos(r.in.drillFile, r.in.scenarioFile)
		d := time.Since(t0).Seconds()
		end()
		if !it.ok("ankchaos", err) {
			continue
		}
		it.checkDrillReport(report, r.in.cliTarget)
		r.tr.note("chaos.cli_report", report)
		it.record("chaos_cli_s", d)
	}
}

const reservationCount = 8

// specs are the cluster's reservations: alternating pack and spread,
// three tenants (the P7/P8/P10 shape).
func (r *run) specs(weight int) []sched.Spec {
	out := make([]sched.Spec, len(r.in.reservations))
	for i, vms := range r.in.reservations {
		out[i] = sched.Spec{Name: fmt.Sprintf("as-shard-%d", i), Tenant: fmt.Sprintf("team%d", i%3), VMs: vms, Weight: weight}
		if i%2 == 1 {
			out[i].Policy = sched.PolicySpread
		}
	}
	return out
}

func (r *run) backend() sched.Backend { return sched.Uniform(r.w.cluster.hosts, r.w.cluster.cap) }

func (r *run) vmCount() int {
	n := 0
	for _, vms := range r.in.reservations {
		n += len(vms)
	}
	return n
}

// place admits every reservation and returns the time the Reserve calls
// took in ms.
func (r *run) place(it *iteration, c *sched.Cluster) float64 {
	total := time.Duration(0)
	for _, sp := range r.specs(0) {
		end := r.tr.start("sched.reserve")
		t0 := time.Now()
		st, err := c.Reserve(sp)
		total += time.Since(t0)
		end()
		if it.ok("reserve "+sp.Name, err) && st.State != sched.ResActive {
			it.failf("reservation %s is %s, want active", sp.Name, st.State)
		}
	}
	if used := c.Capacity().UsedSlots; used != r.vmCount() {
		it.failf("%d VMs placed, want %d", used, r.vmCount())
	}
	return float64(total) / float64(time.Millisecond)
}

// maintain drains the shape's hosts and fails one more on the loaded
// cluster, and returns the time the calls took in ms. Each call must move
// exactly the VMs that were on its host and strand none.
func (r *run) maintain(it *iteration, c *sched.Cluster) float64 {
	total := time.Duration(0)
	moves := 0
	step := func(span, host string, op func(string) (sched.DrainResult, error)) {
		want := len(c.VMsOn(host))
		end := r.tr.start(span)
		t0 := time.Now()
		res, err := op(host)
		total += time.Since(t0)
		end()
		moves += len(res.Moves)
		if it.ok(span+" "+host, err) && (len(res.Moves) != want || len(res.Stranded) != 0 || len(c.VMsOn(host)) != 0) {
			it.failf("%s %s: %d moved, %d stranded, %d left, want %d moved", span, host, len(res.Moves), len(res.Stranded), len(c.VMsOn(host)), want)
		}
	}
	for _, h := range r.w.cluster.drains {
		step("sched.drain", h, c.Drain)
	}
	step("sched.failhost", r.w.cluster.fail, c.FailHost)
	if used := c.Capacity().UsedSlots; used != r.vmCount() {
		it.failf("%d VMs placed after maintenance, want %d", used, r.vmCount())
	}
	it.same("sched.moves", float64(moves))
	return float64(total) / float64(time.Millisecond)
}

// stageCluster: place then maintain, in memory.
func (r *run) stageCluster() {
	r.sampled(r.n.cycles, func(int) {
		it := r.begin()
		c, err := sched.New(r.backend(), sched.Options{Seed: 2013})
		if !it.ok("sched.New", err) {
			return
		}
		place, maintain := r.place(it, c), r.maintain(it, c)
		it.record("place_ms", place)
		it.record("maintain_ms", maintain)
	})
}

// stageDurable: the same operations under a journal (write), then a
// recovery from it (read) that must restore the pre-crash status byte for
// byte.
func (r *run) stageDurable() {
	dir := filepath.Join(r.dir, "sched-state")
	defer os.RemoveAll(dir)
	r.sampled(r.n.durable, func(int) {
		it := r.begin()
		if !it.ok("clearing the state directory", os.RemoveAll(dir)) {
			return
		}
		c, _, err := sched.Open(dir, r.backend(), sched.Options{Seed: 2013})
		if !it.ok("sched.Open", err) {
			return
		}
		r.place(it, c)
		r.maintain(it, c)
		want := c.Status().JSON()
		if !it.ok("closing the cluster", c.Close()) {
			return
		}
		r.tr.count("journal.bytes", float64(dirBytes(dir)))

		end := r.tr.start("sched.open")
		t0 := time.Now()
		rc, info, err := sched.Open(dir, r.backend(), sched.Options{Seed: 2013})
		d := time.Since(t0)
		end()
		if !it.ok("recovery", err) {
			return
		}
		if !info.Recovered || rc.Status().JSON() != want {
			it.failf("recovered cluster status differs from the pre-crash status (%s)", info)
		}
		it.same("journal.records", float64(info.Records))
		it.ok("closing the recovered cluster", rc.Close())
		if r.tr != nil {
			// What of the recovery is the log alone.
			end := r.tr.start("journal.open")
			log, _, err := journal.Open(dir, journal.Options{})
			end()
			if it.ok("journal.Open", err) {
				it.ok("closing the journal", log.Close())
			}
		}
		it.record("recover_ms", float64(d)/float64(time.Millisecond))
	})
}

// stageClusterDrill deploys the Small-Internet fixture through the
// scheduler and drains a host under the running lab; the report must equal
// the committed golden. It guards the RunCluster glue.
func (r *run) stageClusterDrill() {
	it := r.begin()
	defer r.tr.start("deploy.cluster_drill")()
	net, err := buildTree(filepath.Join(r.root, "testdata/small_internet.graphml"), nil, nil, false)
	if !it.ok("building the fixture", err) {
		return
	}
	dep, err := net.DeployCluster(sched.Uniform(4, 5), deploy.ClusterOptions{Seed: 2013})
	if !it.ok("DeployCluster", err) {
		return
	}
	report, err := runScenario(net, dep.Lab(), chaos.Options{Hosts: dep}, filepath.Join(r.root, "testdata/sched/drain_drill.chaos"))
	if !it.ok("drain drill", err) {
		return
	}
	golden, err := os.ReadFile(filepath.Join(r.root, "testdata/sched/drain_drill.report"))
	if it.ok("reading the golden report", err) && report.String()+"\n" != string(golden) {
		it.failf("drain drill report differs from testdata/sched/drain_drill.report:\n%s", report)
	}
}

// runScenario runs a scenario file through the chaos engine on a lab.
func runScenario(net *autonetkit.Network, lab *emul.Lab, opts chaos.Options, path string) (chaos.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return chaos.Report{}, err
	}
	scenario, diags := chaos.ParseScenarioFile(f, filepath.Base(path))
	f.Close()
	if diags.HasErrors() {
		return chaos.Report{}, fmt.Errorf("%s", diags)
	}
	engine, err := net.Chaos(lab, opts)
	if err != nil {
		return chaos.Report{}, err
	}
	return engine.Run(scenario)
}

func dirBytes(dir string) int64 {
	var total int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !info.IsDir() {
			total += info.Size()
		}
	}
	return total
}
