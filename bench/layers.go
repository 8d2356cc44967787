package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"

	"autonetkit/internal/chaos"
	"autonetkit/internal/deploy"
	"autonetkit/internal/journal"
	"autonetkit/internal/obs"
	"autonetkit/internal/routing"
	"autonetkit/internal/sched"
)

// perLayer lists what the traced run reports, layer = package name. Each
// comes from a span the benchmark records around a call into that layer,
// or from a count taken at the same boundary; README.md says which
// end-to-end metric each should move.
var perLayer = []metric{
	// build_s, on the build topology.
	{name: "topoio.read_s", unit: "s", better: "lower"},
	{name: "design.build_s", unit: "s", better: "lower"},
	{name: "ipalloc.allocate_s", unit: "s", better: "lower"},
	{name: "compile.compile_s", unit: "s", better: "lower"},
	{name: "compile.devices", unit: "count", better: "lower"},
	{name: "render.render_s", unit: "s", better: "lower"},
	{name: "render.files", unit: "count", better: "lower"},
	{name: "render.bytes", unit: "count", better: "lower"},
	{name: "verify.static_s", unit: "s", better: "lower"},
	// rebuild_warm_s.
	{name: "cache.populate_s", unit: "s", better: "lower"},
	{name: "cache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "cache.bytes_read", unit: "count", better: "lower"},
	{name: "compile.warm_s", unit: "s", better: "lower"},
	{name: "render.warm_s", unit: "s", better: "lower"},
	// lab_ready_s, on the lab topology.
	{name: "deploy.archive_s", unit: "s", better: "lower"},
	{name: "deploy.extract_s", unit: "s", better: "lower"},
	{name: "deploy.bundle_bytes", unit: "count", better: "lower"},
	{name: "emul.load_s", unit: "s", better: "lower"},
	{name: "emul.boot_s", unit: "s", better: "lower"},
	{name: "emul.boot_self_s", unit: "s", better: "lower"},
	{name: "routing.igp_s", unit: "s", better: "lower"},
	{name: "routing.bgp_s", unit: "s", better: "lower"},
	{name: "routing.bgp_rounds", unit: "count", better: "lower"},
	{name: "routing.bgp_round_s", unit: "s", better: "lower"},
	{name: "routing.bgp_routes", unit: "count", better: "lower"},
	{name: "routing.bgp_serial_s", unit: "s", better: "lower"},
	{name: "routing.shard_speedup", unit: "ratio", better: "higher"},
	// verify_s.
	{name: "dataplane.fib_entries", unit: "count", better: "lower"},
	{name: "dataplane.forward_us", unit: "us", better: "lower"},
	{name: "measure.matrix_s", unit: "s", better: "lower"},
	{name: "measure.probes_per_s", unit: "1/s", better: "higher"},
	{name: "measure.ospf_compare_s", unit: "s", better: "lower"},
	{name: "measure.traceroute_us", unit: "us", better: "lower"},
	// incident_s, on the drill topology.
	{name: "emul.reconverge_link_s", unit: "s", better: "lower"},
	{name: "emul.reconverge_node_s", unit: "s", better: "lower"},
	{name: "emul.reconverge_incr_s", unit: "s", better: "lower"},
	{name: "emul.incr_speedup", unit: "ratio", better: "higher"},
	{name: "routing.rounds_skipped", unit: "count", better: "higher"},
	{name: "routing.speakers_restored", unit: "count", better: "higher"},
	{name: "dataplane.fib_reuse_ratio", unit: "ratio", better: "higher"},
	// chaos_cli_s.
	{name: "chaos.run_s", unit: "s", better: "lower"},
	{name: "chaos.cli_overhead_s", unit: "s", better: "lower"},
	// place_ms, maintain_ms.
	{name: "sched.reserve_ms", unit: "ms", better: "lower"},
	{name: "sched.drain_ms", unit: "ms", better: "lower"},
	{name: "sched.failhost_ms", unit: "ms", better: "lower"},
	{name: "sched.moves", unit: "count", better: "lower"},
	{name: "sched.preempt_cycle_ms", unit: "ms", better: "lower"},
	{name: "sched.lease_round_us", unit: "us", better: "lower"},
	// recover_ms.
	{name: "journal.append_us", unit: "us", better: "lower"},
	{name: "journal.records", unit: "count", better: "lower"},
	{name: "journal.bytes", unit: "count", better: "lower"},
	{name: "journal.open_ms", unit: "ms", better: "lower"},
	{name: "sched.replay_ms", unit: "ms", better: "lower"},
	{name: "deploy.cluster_drill_s", unit: "s", better: "lower"},
	// The process, and the trace itself.
	{name: "go.alloc_mb_per_op", unit: "MB", better: "lower"},
	{name: "go.gc_cycles", unit: "count", better: "lower"},
	{name: "go.gc_cpu_share", unit: "ratio", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "trace.build_layers_s", unit: "s", better: "lower"},
	{name: "trace.lab_layers_s", unit: "s", better: "lower"},
	{name: "trace.incident_layers_s", unit: "s", better: "lower"},
}

// probeRouting runs the control plane by itself on the configurations the
// last lab booted from, the way emul.Lab.converge drives it: IGP domains,
// then the BGP engine sharded over every CPU, then the same engine on one
// shard. Boot time less these is what boot itself costs (parse, snapshot,
// FIB install); sharded against serial is what the shards buy here. Only
// the configurations outlive the lab: each engine run starts from a clean
// heap, as the one inside a boot does.
func (r *run) probeRouting(layer map[string]float64) error {
	var devices []*routing.DeviceConfig
	for _, name := range r.lastLab.VMNames() {
		if vm, ok := r.lastLab.VM(name); ok && vm.Config != nil {
			devices = append(devices, vm.Config)
		}
	}
	booted := r.lastLab.BGPResult().Rounds
	r.lastNet, r.lastLab = nil, nil
	debug.FreeOSMemory()
	end := r.tr.start("routing.igp")
	ospf, isis := routing.NewOSPFDomain(devices), routing.NewISISDomain(devices)
	err := ospf.Converge()
	if err == nil {
		err = isis.Converge()
	}
	end()
	if err != nil {
		return err
	}
	igp := routing.NewCompositeIGP()
	for _, dc := range devices {
		switch {
		case dc.OSPF != nil:
			igp.AddDevice(dc, ospf)
		case dc.ISIS != nil:
			igp.AddDevice(dc, isis)
		default:
			igp.AddDevice(dc, nil)
		}
	}
	profile := routing.ProfileFor("quagga")
	bgp := func(span string, shards int) (routing.BGPResult, int, error) {
		debug.FreeOSMemory()
		defer r.tr.start(span)()
		engine, err := routing.NewBGPEngine(devices, func(string) routing.VendorProfile { return profile }, igp)
		if err != nil {
			return routing.BGPResult{}, 0, err
		}
		engine.SetSequential(true)
		engine.SetShards(shards)
		res := engine.RunContext(context.Background(), 0)
		routes := 0
		for _, host := range engine.Speakers() {
			routes += len(engine.BestRoutes(host))
		}
		return res, routes, nil
	}
	sharded, routes, err := bgp("routing.bgp", runtime.NumCPU())
	if err != nil {
		return err
	}
	serial, serialRoutes, err := bgp("routing.bgp_serial", 1)
	if err != nil {
		return err
	}
	if !sharded.Converged || sharded.Rounds != serial.Rounds || routes != serialRoutes {
		return fmt.Errorf("sharded BGP (%d rounds, %d routes, converged %v) disagrees with serial (%d rounds, %d routes)",
			sharded.Rounds, routes, sharded.Converged, serial.Rounds, serialRoutes)
	}
	if sharded.Rounds != booted {
		return fmt.Errorf("standalone BGP took %d rounds, the lab's boot took %d", sharded.Rounds, booted)
	}
	layer["routing.bgp_rounds"] = float64(sharded.Rounds)
	layer["routing.bgp_routes"] = float64(routes)
	return nil
}

// probeDataplane sizes the FIBs and times raw forwarding, below the
// measurement client.
func (r *run) probeDataplane(layer map[string]float64) error {
	net := r.lastLab.Network()
	entries := 0
	for _, name := range net.NodeNames() {
		if node, ok := net.Node(name); ok {
			entries += node.FIB.Len()
		}
	}
	layer["dataplane.fib_entries"] = float64(entries)
	addrOf := loopbacks(r.lastNet)
	defer r.tr.start("dataplane.forward")()
	for _, p := range r.in.forwardPairs {
		if res := net.Forward(p[0], addrOf(p[1]), 30); !res.Reached {
			return fmt.Errorf("forwarding %s -> %s: %s", p[0], p[1], res.Reason)
		}
	}
	return nil
}

// probeIncremental repeats the incidents on a second drill lab deployed
// with Incremental: true and reads its counters: what the knob would buy
// if its default flipped.
func (r *run) probeIncremental(layer map[string]float64) {
	it := r.begin()
	net, err := buildTree(r.in.drillFile, nil, nil, false)
	if !it.ok("building the incremental lab", err) {
		return
	}
	dep, err := net.Deploy(deploy.Options{Shards: runtime.NumCPU(), Incremental: true})
	if !it.ok("deploying the incremental lab", err) {
		return
	}
	lab := dep.Lab()
	before := net.Stats().Counters
	injected := 0
	for _, tg := range r.in.targets[:min(r.n.pairs, len(r.in.targets))] {
		for _, restore := range []bool{false, true} {
			end := r.tr.start("emul.reconverge_incr")
			err := inject(lab, tg, restore, nil)
			end()
			if !it.ok("incremental "+tg.String(), err) {
				return
			}
			injected++
		}
	}
	// The incremental lab must end where the full one does.
	after, err := net.Measure(lab).ReachabilityMatrix(lab.VMNames(), loopbacks(net))
	if it.ok("incremental lab matrix", err) {
		it.wantFull(after, len(lab.VMNames()))
	}
	c := net.Stats().Counters
	delta := func(name string) float64 { return float64(c[name] - before[name]) }
	layer["routing.rounds_skipped"] = delta(obs.CounterRoundsSkipped)
	layer["routing.speakers_restored"] = delta(obs.CounterBGPSpeakersRestored)
	layer["dataplane.fib_reuse_ratio"] = delta(obs.CounterFIBNodesReused) / float64(injected*len(lab.VMNames()))
}

// probeChaos runs the CLI's drill through chaos.Engine in process, on the
// drill lab, with the options cmd/ankchaos passes by default. The report
// must be the one the binary printed.
func (r *run) probeChaos() {
	it := r.begin()
	end := r.tr.start("chaos.run")
	report, err := runScenario(r.drillNet, r.drillLab, chaos.Options{}, r.in.scenarioFile)
	end()
	if !it.ok("chaos.Engine.Run", err) {
		return
	}
	it.checkDrillReport(report.String(), r.in.cliTarget)
	if cli := r.tr.notes["chaos.cli_report"]; report.String()+"\n" != cli {
		it.failf("in-process drill report differs from the ankchaos binary's:\n%s\n--- binary ---\n%s", report, cli)
	}
}

// probeSched prices deterministic preemption and a lease round on the
// loaded cluster (the P10 shape): a weight-5 reservation that only fits by
// evicting the youngest weight-1 one, released again so the victim
// re-admits.
func (r *run) probeSched() {
	it := r.begin()
	load := func(opts sched.Options) *sched.Cluster {
		opts.Seed = 2013
		c, err := sched.New(r.backend(), opts)
		if !it.ok("sched.New", err) {
			return nil
		}
		for _, sp := range r.specs(1) {
			if _, err := c.Reserve(sp); !it.ok("reserve "+sp.Name, err) {
				return nil
			}
		}
		return c
	}
	const rounds = 20
	if c := load(sched.Options{Preempt: true}); c != nil {
		victim := r.specs(1)[reservationCount-1]
		demand := c.Capacity().FreeSlots + (len(victim.VMs)+1)/2
		for i := 0; i < rounds; i++ {
			end := r.tr.start("sched.preempt_cycle")
			st, err := c.Reserve(sched.Spec{Name: "prod", Tenant: "prod", Count: demand, Weight: 5})
			if err == nil {
				err = c.Release("prod")
			}
			end()
			vs, _ := c.Reservation(victim.Name)
			if !it.ok("preempt cycle", err) || st.State != sched.ResActive || vs.State != sched.ResActive {
				it.failf("preempt cycle %d: prod %s, victim %s after release", i, st.State, vs.State)
				break
			}
		}
	}
	if c := load(sched.Options{Lease: sched.LeasePolicy{Enabled: true}}); c != nil {
		for i := 0; i < 50*rounds; i++ {
			end := r.tr.start("sched.lease_round")
			renewed, moved := c.HeartbeatAll(), c.CheckLeases()
			end()
			if len(renewed) != r.w.cluster.hosts || len(moved) != 0 {
				it.failf("lease round %d renewed %d hosts with %d transitions", i, len(renewed), len(moved))
				break
			}
		}
	}
}

// probeJournal times the log by itself under the deployed fsync policy,
// at the record size the scheduler writes.
func (r *run) probeJournal() {
	it := r.begin()
	dir := filepath.Join(r.dir, "journal-probe")
	defer os.RemoveAll(dir)
	log, _, err := journal.Open(dir, journal.Options{Sync: journal.SyncAlways})
	if !it.ok("journal.Open", err) {
		return
	}
	record := make([]byte, 1536)
	for i := range record {
		record[i] = 'a' + byte(i%26)
	}
	for i := 0; i < 50; i++ {
		end := r.tr.start("journal.append")
		err := log.Append(record)
		end()
		if !it.ok("journal append", err) {
			break
		}
	}
	it.ok("closing the journal", log.Close())
}

// probeLab measures the layers under the last lab the lab stage booted.
func (r *run) probeLab(layer map[string]float64) {
	it := r.begin()
	if r.lastLab == nil {
		it.failf("no lab survived the lab stage")
		return
	}
	it.ok("dataplane probe", r.probeDataplane(layer))
	it.ok("routing probe", r.probeRouting(layer))
}

// layers turns the traced run's spans and counts into the per-layer
// metrics.
func (r *run) layers(layer map[string]float64) map[string]float64 {
	tr := r.tr
	sec := func(name string) float64 { return median(tr.named(name)) }
	ms := func(name string) float64 { return 1e3 * sec(name) }
	us := func(name string) float64 { return 1e6 * sec(name) }
	for span, name := range map[string]string{
		"topoio.read": "topoio.read_s", "design.build": "design.build_s", "ipalloc.allocate": "ipalloc.allocate_s",
		"compile.compile": "compile.compile_s", "render.render": "render.render_s", "verify.static": "verify.static_s",
	} {
		layer[name] = median(tr.under("build.iter", span))
	}
	for _, name := range []string{"compile.devices", "render.files", "render.bytes", "sched.moves", "journal.records"} {
		layer[name] = r.fixed[name]
	}
	layer["cache.populate_s"] = sec("cache.populate")
	layer["cache.hit_ratio"] = tr.counts["cache.hits"] / (tr.counts["cache.hits"] + tr.counts["cache.misses"])
	layer["cache.bytes_read"] = tr.counts["cache.bytes_read"]
	layer["compile.warm_s"] = sec("compile.warm")
	layer["render.warm_s"] = sec("render.warm")

	layer["deploy.archive_s"] = sec("deploy.archive")
	layer["deploy.extract_s"] = sec("deploy.extract")
	layer["deploy.bundle_bytes"] = tr.counts["deploy.bundle_bytes"]
	layer["emul.load_s"] = sec("emul.load")
	layer["emul.boot_s"] = sec("emul.boot")
	layer["routing.igp_s"] = sec("routing.igp")
	layer["routing.bgp_s"] = sec("routing.bgp")
	layer["routing.bgp_serial_s"] = sec("routing.bgp_serial")
	layer["emul.boot_self_s"] = layer["emul.boot_s"] - layer["routing.igp_s"] - layer["routing.bgp_s"]
	layer["routing.bgp_round_s"] = layer["routing.bgp_s"] / layer["routing.bgp_rounds"]
	layer["routing.shard_speedup"] = layer["routing.bgp_serial_s"] / layer["routing.bgp_s"] // base: one shard

	layer["dataplane.forward_us"] = us("dataplane.forward") / forwardSamples
	layer["measure.matrix_s"] = median(tr.under("verify.iter", "measure.matrix"))
	n := float64(len(r.in.labNodes))
	layer["measure.probes_per_s"] = n * (n - 1) / layer["measure.matrix_s"]
	layer["measure.ospf_compare_s"] = median(tr.under("verify.iter", "measure.ospf_compare"))
	layer["measure.traceroute_us"] = us("measure.traceroute")

	layer["emul.reconverge_link_s"] = median(append(tr.named("emul.fail_link"), tr.named("emul.restore_link")...))
	layer["emul.reconverge_node_s"] = median(append(tr.named("emul.fail_node"), tr.named("emul.restore_node")...))
	layer["emul.reconverge_incr_s"] = sec("emul.reconverge_incr")
	full := append(append(append(tr.named("emul.fail_link"), tr.named("emul.restore_link")...), tr.named("emul.fail_node")...), tr.named("emul.restore_node")...)
	layer["emul.incr_speedup"] = median(full) / layer["emul.reconverge_incr_s"] // base: full recompute

	layer["chaos.run_s"] = sec("chaos.run")
	// The CLI does in its own process what set-up did for the drill lab
	// (file -> booted lab) and what chaos.run did; the rest is overhead.
	layer["chaos.cli_overhead_s"] = sec("chaos.cli") - r.fileToLab - layer["chaos.run_s"]

	layer["sched.reserve_ms"] = ms("sched.reserve")
	layer["sched.drain_ms"] = ms("sched.drain")
	layer["sched.failhost_ms"] = ms("sched.failhost")
	layer["sched.preempt_cycle_ms"] = ms("sched.preempt_cycle")
	layer["sched.lease_round_us"] = us("sched.lease_round")
	layer["journal.append_us"] = us("journal.append")
	layer["journal.bytes"] = tr.counts["journal.bytes"]
	layer["journal.open_ms"] = ms("journal.open")
	layer["sched.replay_ms"] = ms("sched.open") - layer["journal.open_ms"]
	layer["deploy.cluster_drill_s"] = sec("deploy.cluster_drill")

	layer["go.alloc_mb_per_op"] = r.named.allocMB
	layer["go.gc_cycles"] = r.named.cycles
	layer["go.gc_cpu_share"] = r.named.gcCPU / r.named.cpu
	layer["trace.overhead_pct"] = 100 * (r.tracedS/r.untracedS - 1)
	layer["trace.build_layers_s"] = median(layerSelfSeconds(tr.spans, "build.iter"))
	layer["trace.lab_layers_s"] = median(layerSelfSeconds(tr.spans, "lab.iter"))
	layer["trace.incident_layers_s"] = median(layerSelfSeconds(tr.spans, "incident.iter"))
	return layer
}

// writeSpans leaves the traced run's spans beside the other scratch
// output, for a reader who wants more than the table.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeJSON(f, t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
