package emul

import (
	"strings"
	"testing"

	"autonetkit/internal/obs"
	"autonetkit/internal/routing"
)

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		res        routing.BGPResult
		components int
		want       Verdict
	}{
		{routing.BGPResult{Converged: true}, 1, VerdictConverged},
		{routing.BGPResult{Converged: true}, 0, VerdictConverged},
		{routing.BGPResult{Converged: true}, 2, VerdictPartitioned},
		{routing.BGPResult{Oscillating: true, CycleLen: 2}, 1, VerdictOscillating},
		{routing.BGPResult{Oscillating: true, CycleLen: -1}, 1, VerdictStarved},
		{routing.BGPResult{Cancelled: true}, 1, VerdictCancelled},
		// Cancellation dominates even a nominally converged result.
		{routing.BGPResult{Cancelled: true, Converged: true}, 1, VerdictCancelled},
	} {
		if got := Classify(tc.res, tc.components); got != tc.want {
			t.Errorf("Classify(%+v, %d) = %s, want %s", tc.res, tc.components, got, tc.want)
		}
	}
}

func TestVerdictRecoverable(t *testing.T) {
	want := map[Verdict]bool{
		VerdictConverged:   false,
		VerdictOscillating: true,
		VerdictStarved:     true,
		VerdictPartitioned: false,
		VerdictCancelled:   false,
	}
	for v, expect := range want {
		if got := v.Recoverable(); got != expect {
			t.Errorf("%s.Recoverable() = %v, want %v", v, got, expect)
		}
	}
}

func TestEscalationStepString(t *testing.T) {
	s := EscalationStep{Action: "observe", Verdict: VerdictOscillating, Detail: "oscillating (cycle length 2 after 12 rounds)"}
	if got := s.String(); got != "observe: oscillating (oscillating (cycle length 2 after 12 rounds))" {
		t.Errorf("String() = %q", got)
	}
	s = EscalationStep{Action: "soft-reset", Targets: []string{"r1", "r2"}, Verdict: VerdictConverged, Detail: "converged in 9 rounds"}
	if got := s.String(); got != "soft-reset [r1, r2]: converged (converged in 9 rounds)" {
		t.Errorf("String() = %q", got)
	}
}

func TestSupervisionReportShape(t *testing.T) {
	rep := SupervisionReport{}
	if rep.Escalations() != 0 {
		t.Errorf("empty report escalations = %d", rep.Escalations())
	}
	rep.Steps = []EscalationStep{
		{Action: "observe", Verdict: VerdictOscillating, Detail: "a"},
		{Action: "escalate-budget", Verdict: VerdictConverged, Detail: "b"},
	}
	if rep.Escalations() != 1 {
		t.Errorf("escalations = %d, want 1", rep.Escalations())
	}
	text := rep.Describe()
	if !strings.Contains(text, "watchdog observe: oscillating (a)") ||
		!strings.Contains(text, "watchdog escalate-budget: converged (b)") {
		t.Errorf("Describe:\n%s", text)
	}
}

// A healthy lab costs the watchdog one observation and zero escalations.
func TestWatchdogHealthyLabNoEscalation(t *testing.T) {
	lab, _ := startedLab(t, "netkit", "quagga")
	col := obs.NewCollector()
	w := &Watchdog{Obs: col}
	rep, err := w.Supervise(lab)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Final != VerdictConverged || rep.Recovered || rep.Escalations() != 0 {
		t.Fatalf("report = %+v", rep)
	}
	stats := col.Snapshot()
	if stats.Counters[obs.CounterWatchdogRuns] != 1 {
		t.Errorf("runs counter = %d", stats.Counters[obs.CounterWatchdogRuns])
	}
	for _, c := range []string{
		obs.CounterWatchdogRecovered,
		obs.CounterWatchdogBudgetEscalations,
		obs.CounterWatchdogSoftResets,
		obs.CounterWatchdogQuarantines,
	} {
		if stats.Counters[c] != 0 {
			t.Errorf("%s = %d on a healthy lab", c, stats.Counters[c])
		}
	}
}

// A recoverable fault (session-state-local flap) climbs exactly two rungs:
// the budget escalation re-confirms the oscillation, the soft reset heals
// it, and the ladder stops there with Recovered set.
func TestWatchdogRecoversFromFlap(t *testing.T) {
	lab, _ := startedLab(t, "netkit", "quagga")
	lab.SetPerturber(routing.NewScheduledPerturber(21, []routing.PerturbRule{
		{Kind: routing.PerturbFlap, A: "r1", B: "r2", Every: 1, Recover: true},
	}))
	if res, err := lab.Apply(Change{}); err != nil || res.Converged {
		t.Fatalf("perturbed reconverge: res=%+v err=%v", res, err)
	}

	col := obs.NewCollector()
	var actions []string
	w := &Watchdog{Obs: col, OnEvent: func(action, detail string) { actions = append(actions, action) }}
	rep, err := w.Supervise(lab)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Final != VerdictConverged || !rep.Recovered {
		t.Fatalf("report not recovered:\n%s", rep.Describe())
	}
	if rep.Escalations() != 2 || len(rep.Quarantined) != 0 {
		t.Fatalf("escalations = %d, quarantined = %v:\n%s", rep.Escalations(), rep.Quarantined, rep.Describe())
	}
	wantActions := []string{"observe", "escalate-budget", "soft-reset"}
	if len(actions) != len(wantActions) {
		t.Fatalf("actions = %v", actions)
	}
	for i := range wantActions {
		if actions[i] != wantActions[i] {
			t.Fatalf("actions = %v, want %v", actions, wantActions)
		}
	}
	// The soft-reset rung targeted the flapping session's endpoints.
	reset := rep.Steps[2]
	if len(reset.Targets) != 2 || reset.Targets[0] != "r1" || reset.Targets[1] != "r2" {
		t.Errorf("soft-reset targets = %v, want [r1 r2]", reset.Targets)
	}
	stats := col.Snapshot()
	for counter, want := range map[string]int64{
		obs.CounterWatchdogRuns:              1,
		obs.CounterWatchdogRecovered:         1,
		obs.CounterWatchdogBudgetEscalations: 1,
		obs.CounterWatchdogSoftResets:        1,
		obs.CounterWatchdogQuarantines:       0,
	} {
		if got := stats.Counters[counter]; got != want {
			t.Errorf("%s = %d, want %d", counter, got, want)
		}
	}
	if lab.Verdict() != VerdictConverged {
		t.Errorf("lab verdict = %s after recovery", lab.Verdict())
	}
	// The escalated budget did not leak.
	if lab.Budget() != (routing.ConvergenceBudget{}) {
		t.Errorf("budget leaked: %+v", lab.Budget())
	}
	// The ladder is visible in the lab's event log.
	events := strings.Join(lab.Events(), "\n")
	for _, want := range []string{"WATCHDOG: budget escalated", "WATCHDOG: soft reset of r1, r2"} {
		if !strings.Contains(events, want) {
			t.Errorf("lab events missing %q", want)
		}
	}
}

// A persistent flap defeats every repair rung; the ladder ends by
// quarantining one endpoint, after which the survivors converge.
func TestWatchdogQuarantinesPersistentFlap(t *testing.T) {
	lab, _ := startedLab(t, "netkit", "quagga")
	lab.SetPerturber(routing.NewScheduledPerturber(21, []routing.PerturbRule{
		{Kind: routing.PerturbFlap, A: "r1", B: "r2", Every: 1}, // no Recover
	}))
	if res, err := lab.Apply(Change{}); err != nil || res.Converged {
		t.Fatalf("perturbed reconverge: res=%+v err=%v", res, err)
	}

	col := obs.NewCollector()
	w := &Watchdog{Obs: col}
	rep, err := w.Supervise(lab)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Final != VerdictConverged || !rep.Recovered {
		t.Fatalf("survivors did not converge:\n%s", rep.Describe())
	}
	if rep.Escalations() != 3 {
		t.Fatalf("escalations = %d, want the full ladder:\n%s", rep.Escalations(), rep.Describe())
	}
	// Greedy cover of the single flapping session r1:r2 picks one endpoint
	// (tie broken lexicographically -> r1).
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != "r1" {
		t.Fatalf("quarantined = %v, want [r1]", rep.Quarantined)
	}
	if q := lab.Quarantined(); len(q) != 1 || q[0] != "r1" {
		t.Errorf("lab quarantine list = %v", q)
	}
	stats := col.Snapshot()
	if stats.Counters[obs.CounterWatchdogQuarantines] != 1 {
		t.Errorf("quarantine counter = %d", stats.Counters[obs.CounterWatchdogQuarantines])
	}
	events := strings.Join(lab.Events(), "\n")
	if !strings.Contains(events, "machine r1 QUARANTINED by watchdog (persistent oscillation)") {
		t.Errorf("no quarantine event:\n%s", events)
	}
	// The quarantined machine is out of the live set but still a VM record.
	live := strings.Join(lab.LiveVMNames(), ",")
	if strings.Contains(live, "r1") {
		t.Errorf("r1 still live: %s", live)
	}
	if len(lab.VMNames()) != 5 {
		t.Errorf("VM records = %v", lab.VMNames())
	}
}

// Supervising an unstarted lab errors cleanly at the first mutating rung.
func TestWatchdogLabGuards(t *testing.T) {
	lab, _ := buildLab(t, "netkit", "quagga")
	for _, c := range []Change{{}, {SoftReset: []string{"r1"}}, {Quarantine: []string{"r1"}, Reason: "test"}} {
		if _, err := lab.Apply(c); err == nil {
			t.Errorf("Apply(%+v) on unstarted lab succeeded", c)
		}
	}
}

// The last rung refuses to quarantine the whole lab, and refuses unknown or
// already-quarantined machines.
func TestQuarantineSpeakersGuards(t *testing.T) {
	lab, _ := startedLab(t, "netkit", "quagga")
	quarantine := func(names ...string) error {
		_, err := lab.Apply(Change{Quarantine: names, Reason: "test"})
		return err
	}
	if err := quarantine(lab.LiveVMNames()...); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Errorf("quarantine-all err = %v", err)
	}
	if err := quarantine("nosuch"); err == nil {
		t.Error("unknown machine accepted")
	}
	if err := quarantine("r5"); err != nil {
		t.Fatalf("first quarantine: %v", err)
	}
	if err := quarantine("r5"); err == nil {
		t.Error("double quarantine accepted")
	}
}
