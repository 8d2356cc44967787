package autonetkit

import (
	"fmt"
	"net/netip"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"autonetkit/internal/chaos"
	"autonetkit/internal/deploy"
	"autonetkit/internal/emul"
	"autonetkit/internal/obs"
	"autonetkit/internal/routing"
)

// Byte-identity harness for parallel sharded BGP convergence: the per-AS
// sharded round driver (internal/routing/shard.go) must reproduce the
// sequential Gauss–Seidel sweep exactly — reports, event logs, RIBs and
// FIBs — at any shard worker count, any build worker count, under any
// perturbation seed, through incidents, a partition and a watchdog
// quarantine.

// shardTestCounts returns the shard worker counts the parity tests sweep:
// 1 (the sequential baseline), 4, and NumCPU — the last overridable with
// ANK_SHARDS, the knob for pinning a specific width.
func shardTestCounts(t *testing.T) []int {
	t.Helper()
	wide := runtime.NumCPU()
	if env := os.Getenv("ANK_SHARDS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n < 1 {
			t.Fatalf("bad ANK_SHARDS=%q", env)
		}
		wide = n
	}
	counts := []int{1, 4}
	if wide != 1 && wide != 4 {
		counts = append(counts, wide)
	}
	return counts
}

// shardParityScenario mixes incidents with seeded perturbation storms: link
// and machine failures, a delay, a partition round (AS200's single router
// is cut from every neighbour, then re-attached) and a non-recoverable
// flap storm that drives the watchdog ladder all the way to quarantine —
// so the oracle covers incident, partition and quarantine reconvergences,
// perturbed and clean alike.
func shardParityScenario(seed uint64) string {
	return fmt.Sprintf(`name shard parity
seed %d

fail-link as20r2 as20r3
check
restore-link as20r2 as20r3
check baseline

perturb delay 2 on as1r1:as20r3
check converged
perturb clear

fail-node as300r1
check
restore-node as300r1
check baseline

partition as200r1
check
restore-node as200r1
check baseline

perturb flap as30r1:as300r1 every 1
perturb clear
`, seed)
}

// runShardScenario builds the Small-Internet fixture, deploys it with the
// given shard worker count, runs the scenario, and returns the rendered
// report, the lab event log, a combined RIB+FIB dump of every machine, and
// the network's counters.
func runShardScenario(t *testing.T, shards int, scenario string) (report, events, tables string, stats obs.Stats) {
	t.Helper()
	net, err := Load(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Build(BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	dep, err := net.Deploy(deploy.Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	sc, diags := chaos.ParseScenarioFile(strings.NewReader(scenario), "shard-parity.chaos")
	if diags.HasErrors() {
		t.Fatalf("scenario diagnostics:\n%s", diags)
	}
	eng, err := net.Chaos(dep.Lab(), chaos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("scenario produced error findings:\n%s", rep)
	}
	return rep.String() + "\n", strings.Join(dep.Lab().Events(), "\n"),
		ribFibDump(dep.Lab()), net.Stats()
}

// ribFibDump renders every machine's BGP RIB and forwarding table (the
// emulated `show ip bgp` / `show ip route`) into one deterministic blob.
// Quarantined machines render their (deterministic) exec error instead.
func ribFibDump(lab *emul.Lab) string {
	var sb strings.Builder
	for _, name := range lab.VMNames() {
		for _, cmd := range []string{"show ip bgp", "show ip route"} {
			out, err := lab.Exec(name, cmd)
			if err != nil {
				out = "error: " + err.Error()
			}
			fmt.Fprintf(&sb, "=== %s: %s ===\n%s\n", name, cmd, out)
		}
	}
	return sb.String()
}

// The tentpole's correctness bar: sharded ≡ sequential, byte for byte, on
// reports, event logs, RIBs and FIBs, across the full cross-product
// Shards∈{1,4,NumCPU} × three perturbation seeds. Obs counters prove the
// parallel path actually ran (and stayed off for shards=1).
func TestShardedConvergenceParity(t *testing.T) {
	shardCounts := shardTestCounts(t)
	for _, seed := range []uint64{1337, 2024, 777} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			scenario := shardParityScenario(seed)
			wantReport, wantEvents, wantTables, seqStats := runShardScenario(t, 1, scenario)
			if n := seqStats.Counters[obs.CounterShardRoundsParallel]; n != 0 {
				t.Errorf("shards=1: sequential run evaluated %d parallel rounds", n)
			}
			for _, shards := range shardCounts {
				if shards == 1 {
					continue // the baseline itself
				}
				label := fmt.Sprintf("shards=%d", shards)
				report, events, tables, stats := runShardScenario(t, shards, scenario)
				if report != wantReport {
					t.Errorf("%s: report differs from sequential baseline:\n--- got ---\n%s--- want ---\n%s",
						label, report, wantReport)
				}
				if events != wantEvents {
					t.Errorf("%s: lab events differ from sequential baseline:\n--- got ---\n%s\n--- want ---\n%s",
						label, events, wantEvents)
				}
				if tables != wantTables {
					t.Errorf("%s: RIB/FIB dump differs from sequential baseline:\n--- got ---\n%s\n--- want ---\n%s",
						label, tables, wantTables)
				}
				// The parity would hold vacuously if the parallel driver
				// never engaged.
				for _, c := range []string{obs.CounterBGPShards, obs.CounterShardRoundsParallel, obs.CounterCrossShardAdverts} {
					if stats.Counters[c] == 0 {
						t.Errorf("%s: counter %s = 0, sharded path never ran", label, c)
					}
				}
			}
		})
	}
}

// Shard partitioning must be a true partition of the speakers — every
// speaker in exactly one shard (multiset equality against Speakers()),
// shards grouped by ASN — and the cut edges must be exactly the eBGP
// sessions: every cut pair crosses ASes, and no established inter-AS
// session is missing from the cut set.
func TestShardPartitionProperty(t *testing.T) {
	net, err := Load(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Build(BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	dep, err := net.Deploy(deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lab := dep.Lab()
	var devices []*routing.DeviceConfig
	asnOf := map[string]int{}
	for _, name := range lab.VMNames() {
		vm, ok := lab.VM(name)
		if !ok || vm.Config == nil {
			continue
		}
		devices = append(devices, vm.Config)
		if vm.Config.BGP != nil {
			asnOf[name] = vm.Config.BGP.ASN
		}
	}
	eng, err := routing.NewBGPEngine(devices, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	shards, cuts := eng.ShardLayout()
	if len(shards) != eng.ShardCount() {
		t.Fatalf("ShardLayout returned %d shards, ShardCount says %d", len(shards), eng.ShardCount())
	}
	if len(shards) < 2 {
		t.Fatalf("fixture should shard into multiple ASes, got %d", len(shards))
	}
	// Multiset equality: the shards' speakers, concatenated and sorted,
	// are exactly Speakers() (which is sorted and duplicate-free).
	var all []string
	seenASN := map[int]bool{}
	for _, sh := range shards {
		if seenASN[sh.ASN] {
			t.Errorf("ASN %d appears in two shards", sh.ASN)
		}
		seenASN[sh.ASN] = true
		if len(sh.Speakers) == 0 {
			t.Errorf("shard AS%d is empty", sh.ASN)
		}
		for _, host := range sh.Speakers {
			if asnOf[host] != sh.ASN {
				t.Errorf("speaker %s (AS%d) landed in shard AS%d", host, asnOf[host], sh.ASN)
			}
		}
		all = append(all, sh.Speakers...)
	}
	sort.Strings(all)
	want := eng.Speakers()
	if strings.Join(all, ",") != strings.Join(want, ",") {
		t.Errorf("shard speakers %v are not a partition of %v", all, want)
	}
	// Cut edges are eBGP-only, and cover every inter-AS adjacency that the
	// reachability of the fixture depends on.
	if len(cuts) == 0 {
		t.Fatal("no cut edges on a multi-AS fixture")
	}
	for _, pair := range cuts {
		if asnOf[pair[0]] == asnOf[pair[1]] {
			t.Errorf("cut edge %s--%s is intra-AS (AS%d)", pair[0], pair[1], asnOf[pair[0]])
		}
	}
}

// Sharded convergence must be safe against concurrent watchdog supervision
// and measurement reads: the mirror of TestWatchdogMeasureRace with the
// parallel round driver active, followed by fail/restore incidents under the
// same readers. Run under -race.
func TestShardWatchdogMeasureRace(t *testing.T) {
	// At least four workers on any host, so every reconvergence below builds
	// its data plane on several goroutines while the readers probe.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	net, err := Load(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Build(BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	dep, err := net.Deploy(deploy.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	lab := dep.Lab()
	lab.SetPerturber(routing.NewScheduledPerturber(5, []routing.PerturbRule{
		{Kind: routing.PerturbFlap, A: "as1r1", B: "as20r3", Every: 1, Recover: true},
	}))
	if res, err := lab.Apply(emul.Change{}); err != nil || res.Converged {
		t.Fatalf("perturbed reconverge: res=%+v err=%v", res, err)
	}

	client := net.Measure(lab)
	loopbacks := map[string]netip.Addr{}
	for _, e := range net.Alloc.Table.Entries() {
		if e.Loopback {
			loopbacks[string(e.Node)] = e.Addr
		}
	}
	addrOf := func(name string) netip.Addr { return loopbacks[name] }
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				// Reads may observe a mid-supervision lab while sharded
				// rounds evaluate on the worker pool; they must never race
				// or panic.
				_, _ = client.ReachabilityMatrix(lab.VMNames(), addrOf)
				_ = lab.Verdict()
				_ = lab.TotalChurn()
				_ = lab.UnstableSpeakers(2)
				_ = lab.Events()
				_ = lab.BGPShardCount()
			}
		}()
	}

	w := &emul.Watchdog{}
	rep, err := w.Supervise(lab)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Final != emul.VerdictConverged || !rep.Recovered {
		t.Fatalf("watchdog did not recover the lab:\n%s", rep.Describe())
	}
	for i := 0; i < 2; i++ {
		if rep, err = w.Supervise(lab); err != nil || rep.Escalations() != 0 {
			t.Fatalf("re-supervise: %+v, %v", rep, err)
		}
	}
	// The readers keep probing while incidents replace the network, and
	// with it the hop trees their pings are answered from, under them.
	link := lab.Links()[0]
	for i := 0; i < 3; i++ {
		if err := lab.FailLink(link[0], link[1]); err != nil {
			t.Fatal(err)
		}
		if err := lab.RestoreLink(link[0], link[1]); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if lab.Verdict() != emul.VerdictConverged {
		t.Errorf("final verdict = %s", lab.Verdict())
	}
	if m, err := client.ReachabilityMatrix(lab.VMNames(), addrOf); err != nil || m.Reachable() != m.Pairs() {
		t.Errorf("restored lab reaches %d of %d pairs, err %v", m.Reachable(), m.Pairs(), err)
	}
}

// runShardDrill runs testdata/shards/drill.chaos end-to-end at the given
// shard worker count and returns the rendered report.
func runShardDrill(t *testing.T, shards int) string {
	t.Helper()
	data, err := os.ReadFile("testdata/shards/drill.chaos")
	if err != nil {
		t.Fatal(err)
	}
	report, _, _, stats := runShardScenario(t, shards, string(data))
	if shards > 1 && stats.Counters[obs.CounterShardRoundsParallel] == 0 {
		t.Fatalf("shards=%d: parallel driver never ran", shards)
	}
	// The baseline and the five reachability checks are six matrices over
	// 14 machines, each on a network of its own: 13 probes share every walk.
	if probes, trees := stats.Counters[obs.CounterPingProbes], stats.Counters[obs.CounterHopTreesBuilt]; probes != 6*14*13 || trees != 6*14 {
		t.Errorf("shards=%d: %d ping probes answered from %d hop trees, want %d from %d", shards, probes, trees, 6*14*13, 6*14)
	}
	return report
}

// Golden sharded drill: a seeded perturbation scenario run at -shards 4 is
// byte-identical to -shards 1 and matches testdata/shards/drill.report
// (regenerate deliberately with UPDATE_SHARD_GOLDEN=1 go test -run
// TestGoldenShardDrill). The report header pins the structural shard count
// of the fixture, which no worker knob may change.
func TestGoldenShardDrill(t *testing.T) {
	report := runShardDrill(t, 4)
	if seq := runShardDrill(t, 1); seq != report {
		t.Fatalf("report differs between shards=4 and shards=1:\n--- 4 ---\n%s--- 1 ---\n%s", report, seq)
	}

	// Structural assertions first, so a stale golden cannot mask a broken
	// drill: the header pins the fixture's AS count, the storm climbs the
	// watchdog ladder, and the lab heals back to full reachability.
	for _, want := range []string{
		"[7 shards]",
		"recovered after 2 escalations",
		"182/182 pairs reachable",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}

	goldenPath := "testdata/shards/drill.report"
	if os.Getenv("UPDATE_SHARD_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, []byte(report), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if report != string(golden) {
		t.Errorf("drill report differs from golden:\n--- got ---\n%s--- want ---\n%s", report, golden)
	}
}
