package autonetkit

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"autonetkit/internal/chaos"
	"autonetkit/internal/deploy"
	"autonetkit/internal/obs"
)

// End-to-end determinism harness for incremental reconvergence: the PR 5
// byte-oracle (scenario reports and lab event logs) must be identical
// whether the lab recomputes every BGP round or replays the recorded
// trajectory, at any build worker count and under any perturbation seed.
// Delta SPF runs on both sides (its oracle is TestDeltaSPFMatchesFreshDomain
// in internal/emul), so its counters must agree across the modes.

// incrementalParityScenario mixes incidents (replay-eligible reconverges)
// with seeded perturbation storms (replay-ineligible, watchdog-supervised)
// so the parity check covers both regimes and the transitions between them.
func incrementalParityScenario(seed uint64) string {
	return fmt.Sprintf(`name incremental parity
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

perturb flap as1r1:as20r3 every 1 recover
perturb clear
check baseline
`, seed)
}

// runIncrementalScenario builds the Small-Internet fixture, deploys it
// with or without incremental reconvergence, runs the scenario text, and
// returns the rendered report, the lab's full event log, and the
// network's counters.
func runIncrementalScenario(t *testing.T, incremental bool, scenario string) (string, string, obs.Stats) {
	t.Helper()
	net, err := Load(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Build(BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	dep, err := net.Deploy(deploy.Options{Incremental: incremental})
	if err != nil {
		t.Fatal(err)
	}
	sc, diags := chaos.ParseScenarioFile(strings.NewReader(scenario), "parity.chaos")
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
	return rep.String() + "\n", strings.Join(dep.Lab().Events(), "\n"), net.Stats()
}

// The tentpole's correctness bar: incremental ≡ full, byte for byte, on
// reports and event logs, across three perturbation seeds.
func TestIncrementalConvergenceParity(t *testing.T) {
	for _, seed := range []uint64{1337, 2024, 777} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			scenario := incrementalParityScenario(seed)
			wantReport, wantEvents, wantStats := runIncrementalScenario(t, false, scenario)
			if wantStats.Counters[obs.CounterSPFSourcesSkipped] == 0 {
				t.Error("spf_sources_skipped = 0, delta SPF never engaged")
			}
			if restored := wantStats.Counters[obs.CounterBGPSpeakersRestored]; restored != 0 {
				t.Errorf("full mode restored %d speaker-rounds", restored)
			}
			report, events, stats := runIncrementalScenario(t, true, scenario)
			if report != wantReport {
				t.Errorf("incremental report differs from full baseline:\n--- got ---\n%s--- want ---\n%s",
					report, wantReport)
			}
			if events != wantEvents {
				t.Errorf("incremental lab events differ from full baseline:\n--- got ---\n%s\n--- want ---\n%s",
					events, wantEvents)
			}
			for _, c := range []string{obs.CounterSPFDeltaRecomputes, obs.CounterSPFSourcesSkipped} {
				if got, want := stats.Counters[c], wantStats.Counters[c]; got != want {
					t.Errorf("incremental: %s = %d, the baseline's is %d", c, got, want)
				}
			}
			// Replay must actually engage: the parity would hold vacuously
			// if it never armed.
			if stats.Counters[obs.CounterBGPSpeakersRestored] == 0 {
				t.Error("incremental: bgp_speakers_restored = 0, replay never engaged")
			}
		})
	}
}

// runIncrementalDrill runs testdata/incremental/drill.chaos end-to-end and
// returns the rendered report.
func runIncrementalDrill(t *testing.T, incremental bool) string {
	t.Helper()
	data, err := os.ReadFile("testdata/incremental/drill.chaos")
	if err != nil {
		t.Fatal(err)
	}
	report, _, _ := runIncrementalScenario(t, incremental, string(data))
	return report
}

// Golden incremental drill: the supervised incident sequence's report is
// byte-reproducible across runs and convergence modes, and
// matches testdata/incremental/drill.report (regenerate deliberately with
// UPDATE_INCREMENTAL_GOLDEN=1 go test -run TestGoldenIncrementalDrill).
func TestGoldenIncrementalDrill(t *testing.T) {
	report := runIncrementalDrill(t, true)
	if full := runIncrementalDrill(t, false); full != report {
		t.Fatalf("incremental report differs from full recompute:\n--- incremental ---\n%s--- full ---\n%s", report, full)
	}

	// Structural assertions first, so a stale golden cannot mask a broken
	// drill: the incidents converge under supervision, the flap storm climbs
	// the ladder, and every watchdog rung cites the triggering incident.
	for _, want := range []string{
		"watchdog observe [incident #4]: oscillating",
		"watchdog soft-reset [incident #4]",
		"recovered after 2 escalations",
		"(incident #4)",
		"182/182 pairs reachable",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}

	goldenPath := "testdata/incremental/drill.report"
	if os.Getenv("UPDATE_INCREMENTAL_GOLDEN") != "" {
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
