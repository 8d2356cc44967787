package main

import (
	"math"

	"autonetkit/internal/topogen"
)

// runSeconds is the measuring time, on the reference host, the iteration
// counts below are sized for; -seconds scales them. It matches run_seconds
// in BENCHMARK.json.
const runSeconds = 24

// metric names one reported number. bound is the share of the baseline's
// median by which an end-to-end metric may get worse before the comparer
// calls it regressed; per-layer metrics carry none. Every bound is 0.25,
// the widest the contract allows: it wants spreads below a third of the
// bound, and over the two committed ten-seed sets the worst spread of a
// metric on any workload is 6-12 % (README.md, "Bounds").
type metric struct {
	name, unit, better string
	bound              float64
}

// endToEnd lists what a user of the system sees, in the order printed.
// Every workload reports every one of them: the stages a workload is named
// for run at the named scale, the others at the companion scale, so a
// change shows at two sizes. failed_share, the twelfth metric of the
// design, is always 0 on a healthy run and so cannot carry a relative
// bound; it is printed, and travels as attempted/failed in the result line.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"build_s", "s", "lower", 0.25},
	{"rebuild_warm_s", "s", "lower", 0.25},
	{"lab_ready_s", "s", "lower", 0.25},
	{"verify_s", "s", "lower", 0.25},
	{"incident_s", "s", "lower", 0.25},
	{"chaos_cli_s", "s", "lower", 0.25},
	{"place_ms", "ms", "lower", 0.25},
	{"maintain_ms", "ms", "lower", 0.25},
	{"recover_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// topo is an input topology: a seeded NREN-shaped model, or a committed
// fixture file relative to the repository root.
type topo struct {
	nren topogen.NRENConfig
	file string
}

var (
	// The §3.2 headline scale for the front end.
	nren1158 = topo{nren: topogen.NRENConfig{ASes: 42, Routers: 1158, Links: 1470, Seed: 7}}
	// The P6/P9 lab shape (ASes = n/20, links = 1.25n): the largest lab
	// whose boot fits a run.
	nren240 = topo{nren: topogen.NRENConfig{ASes: 12, Routers: 240, Links: 300, Seed: 7}}
	// The companion scale of the same shape, for the stages a workload is
	// not named for.
	nren60 = topo{nren: topogen.NRENConfig{ASes: 3, Routers: 60, Links: 75, Seed: 7}}
)

// The topogen seed is fixed: across topogen seeds the same shape converges
// in 6 or 7 BGP rounds and a boot moves by ±20 %, which is variance of the
// input, not of the system. -seed draws everything else (edited nodes,
// incident targets, probe samples, VM-to-reservation order), none of
// which changes how much work a stage does.

// cluster is a substrate shape: the VM names of a topology in eight
// reservations on uniform hosts, then maintenance on the loaded cluster.
type cluster struct {
	names      topo
	hosts, cap int
	drains     []string
	fail       string
}

var (
	// The P7/P8/P10 shape.
	cluster1158 = cluster{nren1158, 36, 40, []string{"h05", "h17", "h29"}, "h11"}
	// The companion scale: the same fill (about 0.8) and the same share of
	// hosts lost, a quarter of the VMs. A 60-VM cluster places in 0.1 ms,
	// too short to time steadily.
	cluster240 = cluster{nren240, 18, 18, []string{"h03", "h09", "h15"}, "h06"}
)

// counts is how many samples each stage takes in runSeconds. A sample of
// the build, rebuild, verify, cluster and durable stages is the mean of the
// consecutive iterations that fill sampleFloor; of the others, one
// iteration.
type counts struct {
	build   int // uncached file -> verified tree
	warm    int // one-node edit against the warm disk cache
	lab     int // cold file -> verified running lab
	verify  int // fresh matrix + adjacency compare on the last lab
	pairs   int // incident targets, each failed then restored
	cli     int // ankchaos runs
	cycles  int // in-memory place + maintain cycles
	durable int // journaled cycles, each recovered once
}

// scaled sizes the counts for another measuring time, never below one.
func (c counts) scaled(seconds int) counts {
	f := func(n int) int {
		return max(1, int(math.Round(float64(n)*float64(seconds)/runSeconds)))
	}
	return counts{f(c.build), f(c.warm), f(c.lab), f(c.verify), f(c.pairs), f(c.cli), f(c.cycles), f(c.durable)}
}

// traced is the single pass a traced run makes, one iteration a sample.
// The two flows whose traced form takes different entry points (build,
// lab) get a discarded warm-up and then up to five untraced/traced pairs;
// the rest get traced iterations only.
func (c counts) traced() counts {
	pairs := func(n int) int { return 1 + 2*min(5, max(1, n/2)) }
	return counts{build: pairs(c.build), warm: 1, lab: pairs(c.lab), verify: 1, pairs: c.pairs, cli: 1, cycles: 3, durable: 3}
}

// workload is one set of inputs. build, lab and drill are the topologies
// of the build/rebuild, lab/verify and incident/chaos-cli stages; stage is
// the one the workload is named for, whose iterations the traced run's go.*
// metrics cover.
type workload struct {
	name, why, stage  string
	build, lab, drill topo
	cluster           cluster
	n                 counts
}

var workloads = []workload{
	{
		name: "build-nren1158", stage: "build",
		why: "42 ASes/1158 routers through topoio, design, ipalloc, compile, render, tmpl and cache; routing does no work at this scale. " +
			"n: build 16, warm edit 5; other stages at the companion scale",
		build: nren1158, lab: nren60, drill: nren60, cluster: cluster240,
		n: counts{build: 16, warm: 5, lab: 6, verify: 10, pairs: 3, cli: 3, cycles: 15, durable: 20},
	},
	{
		name: "lab-nren240", stage: "lab",
		why: "cold file to verified running 240-router lab: routing BGP is about 0.9 of it and the front end under 0.02, the mirror of build-nren1158. " +
			"n: lab 4, verify 10; other stages at the companion scale",
		build: nren240, lab: nren240, drill: nren60, cluster: cluster240,
		n: counts{build: 12, warm: 8, lab: 4, verify: 10, pairs: 2, cli: 2, cycles: 15, durable: 20},
	},
	{
		name: "incident-nren240", stage: "incident",
		why: "fail and restore on a live 240-router lab, and ankchaos with default flags: reconvergence over live state, not a cold boot. " +
			"n: 4 incidents, 1 CLI run; other stages at the companion scale",
		build: nren240, lab: nren60, drill: nren240, cluster: cluster240,
		n: counts{build: 10, warm: 5, lab: 4, verify: 5, pairs: 2, cli: 1, cycles: 10, durable: 10},
	},
	{
		name: "cluster-nren1158", stage: "cluster",
		why: "1158 VMs in 8 reservations on 36 hosts: placement, drains, host failure, journal append and recovery, with no routing at scale. " +
			"n: 50 samples in memory, 40 durable; other stages at the companion scale",
		build: nren240, lab: nren60, drill: nren60, cluster: cluster1158,
		n: counts{build: 20, warm: 8, lab: 6, verify: 10, pairs: 3, cli: 3, cycles: 50, durable: 40},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
