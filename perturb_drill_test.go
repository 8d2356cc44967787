package autonetkit

import (
	"net/netip"
	"os"
	"strings"
	"sync"
	"testing"

	"autonetkit/internal/chaos"
	"autonetkit/internal/deploy"
	"autonetkit/internal/emul"
	"autonetkit/internal/routing"
)

// runPerturbDrill builds the Small-Internet fixture, deploys it, runs
// testdata/perturb/drill.chaos and returns the rendered report.
func runPerturbDrill(t *testing.T) string {
	t.Helper()
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
	f, err := os.Open("testdata/perturb/drill.chaos")
	if err != nil {
		t.Fatal(err)
	}
	sc, diags := chaos.ParseScenarioFile(f, "drill.chaos")
	f.Close()
	if diags.HasErrors() {
		t.Fatalf("scenario diagnostics:\n%s", diags)
	}
	if !sc.Seeded {
		t.Fatal("drill scenario carries no seed")
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
		t.Fatalf("drill produced error findings:\n%s", rep)
	}
	return rep.String() + "\n"
}

// Golden perturbation drill: a seeded scenario's schedule, verdicts and
// watchdog ladder are byte-reproducible across runs and match
// testdata/perturb/drill.report (regenerate deliberately with
// UPDATE_PERTURB_GOLDEN=1 go test -run TestGoldenPerturbDrill).
func TestGoldenPerturbDrill(t *testing.T) {
	report := runPerturbDrill(t)

	// Structural assertions first, so a stale golden cannot mask a broken
	// ladder: the flap step must show the full heal sequence and close with
	// a recovery warning, not an error.
	for _, want := range []string{
		"watchdog observe: oscillating",
		"watchdog escalate-budget: oscillating",
		"watchdog soft-reset [as1r1, as20r3]: converged",
		"[watchdog: 2 escalations, final converged]",
		"recovered after 2 escalations",
		"182/182 pairs reachable",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}

	goldenPath := "testdata/perturb/drill.report"
	if os.Getenv("UPDATE_PERTURB_GOLDEN") != "" {
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

// The watchdog's supervision (budget escalation, soft resets, data-plane
// rebuilds) must be safe against concurrent measurement reads — the
// measurement client and the lab's metric accessors run from other
// goroutines in real deployments. Run under -race.
func TestWatchdogMeasureRace(t *testing.T) {
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
				// Reads may observe a mid-supervision lab (and may error
				// while the data plane is being rebuilt); they must never
				// race or panic.
				_, _ = client.ReachabilityMatrix(lab.VMNames(), addrOf)
				_ = lab.Verdict()
				_ = lab.TotalChurn()
				_ = lab.UnstableSpeakers(2)
				_ = lab.Events()
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
	// Supervising an already-healthy lab concurrently with the readers is a
	// cheap no-op ladder.
	for i := 0; i < 2; i++ {
		if rep, err = w.Supervise(lab); err != nil || rep.Escalations() != 0 {
			t.Fatalf("re-supervise: %+v, %v", rep, err)
		}
	}
	close(done)
	wg.Wait()
	if lab.Verdict() != emul.VerdictConverged {
		t.Errorf("final verdict = %s", lab.Verdict())
	}
}
