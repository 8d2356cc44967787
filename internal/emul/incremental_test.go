package emul

import (
	"reflect"
	"strings"
	"testing"

	"autonetkit/internal/dataplane"
	"autonetkit/internal/obs"
	"autonetkit/internal/routing"
)

// Incremental-reconvergence parity tests: a lab booted with
// BootOptions.Incremental (BGP trajectory replay) must be observably
// byte-identical to a lab booted without it across every incident and
// supervision sequence — events, verdicts, routes, adjacency tables and
// FIBs. These are the emul-layer half of the determinism bar; the
// engine-level equivalence lives in internal/routing/incremental_test.go.

// labState is everything a converge produces that callers can observe.
type labState struct {
	events    []string
	result    routing.BGPResult
	verdict   Verdict
	neighbors map[string][]routing.OSPFNeighbor
	isis      map[string][]routing.OSPFNeighbor
	bgp       map[string][]routing.BGPRoute
	fibs      map[string][]dataplane.FIBEntry
	churn     int
	unstable  []string
}

func captureLab(lab *Lab) labState {
	s := labState{
		events:    lab.Events(),
		result:    lab.BGPResult(),
		verdict:   lab.Verdict(),
		neighbors: map[string][]routing.OSPFNeighbor{},
		isis:      map[string][]routing.OSPFNeighbor{},
		bgp:       map[string][]routing.BGPRoute{},
		fibs:      map[string][]dataplane.FIBEntry{},
		churn:     lab.TotalChurn(),
		unstable:  lab.UnstableSpeakers(2),
	}
	for _, name := range lab.VMNames() {
		s.neighbors[name] = lab.OSPFNeighbors(name)
		s.isis[name] = lab.ISISNeighbors(name)
		s.bgp[name] = lab.BGPRoutes(name)
		if net := lab.Network(); net != nil {
			if node, ok := net.Node(name); ok {
				s.fibs[name] = node.FIB.Entries()
			}
		}
	}
	return s
}

func checkLabsIdentical(t *testing.T, stage string, full, inc *Lab) {
	t.Helper()
	fs, is := captureLab(full), captureLab(inc)
	if !reflect.DeepEqual(fs.events, is.events) {
		t.Fatalf("%s: events differ:\n--- full ---\n%s\n--- incremental ---\n%s",
			stage, strings.Join(fs.events, "\n"), strings.Join(is.events, "\n"))
	}
	if fs.result != is.result {
		t.Fatalf("%s: BGP result differs: full %+v, incremental %+v", stage, fs.result, is.result)
	}
	if fs.verdict != is.verdict {
		t.Fatalf("%s: verdict differs: full %s, incremental %s", stage, fs.verdict, is.verdict)
	}
	if fs.churn != is.churn {
		t.Fatalf("%s: total churn differs: full %d, incremental %d", stage, fs.churn, is.churn)
	}
	if !reflect.DeepEqual(fs.unstable, is.unstable) {
		t.Fatalf("%s: unstable speakers differ: full %v, incremental %v", stage, fs.unstable, is.unstable)
	}
	for _, field := range []struct {
		name string
		a, b any
	}{
		{"ospf neighbors", fs.neighbors, is.neighbors},
		{"isis neighbors", fs.isis, is.isis},
		{"bgp routes", fs.bgp, is.bgp},
		{"fib entries", fs.fibs, is.fibs},
	} {
		if !reflect.DeepEqual(field.a, field.b) {
			t.Fatalf("%s: %s differ:\nfull: %+v\nincremental: %+v", stage, field.name, field.a, field.b)
		}
	}
}

// twinLabs boots two labs from the same fixture: one full-recompute, one
// incremental (with a collector for the incremental counters).
func twinLabs(t *testing.T) (full, inc *Lab, col *obs.Collector) {
	t.Helper()
	full, _ = buildLab(t, "netkit", "quagga")
	if err := full.Boot(BootOptions{}); err != nil {
		t.Fatal(err)
	}
	inc, _ = buildLab(t, "netkit", "quagga")
	col = obs.NewCollector()
	if err := inc.Boot(BootOptions{Incremental: true, Obs: col}); err != nil {
		t.Fatal(err)
	}
	checkLabsIdentical(t, "boot", full, inc)
	return full, inc, col
}

// A no-op reconverge is the best case for delta SPF and replay: no config
// changed, so delta SPF recomputes nothing and every speaker-round restores
// from the trajectory — while the result stays identical to a full
// recompute.
func TestIncrementalNoopReconvergeParity(t *testing.T) {
	full, inc, col := twinLabs(t)
	if _, err := full.Apply(Change{}); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Apply(Change{}); err != nil {
		t.Fatal(err)
	}
	checkLabsIdentical(t, "noop reconverge", full, inc)

	if rec := col.Counter(obs.CounterSPFDeltaRecomputes); rec != 0 {
		t.Errorf("spf_delta_recomputes = %d, want 0 for a no-op", rec)
	}
	if skipped := col.Counter(obs.CounterSPFSourcesSkipped); skipped == 0 {
		t.Error("spf_sources_skipped = 0, want every source skipped")
	}
	rounds := inc.BGPResult().Rounds
	speakers := len(inc.LiveVMNames())
	if got := col.Counter(obs.CounterBGPSpeakersRestored); got != int64(rounds*speakers) {
		t.Errorf("bgp_speakers_restored = %d, want %d (%d rounds x %d speakers)",
			got, rounds*speakers, rounds, speakers)
	}
	if got := col.Counter(obs.CounterRoundsSkipped); got != int64(rounds) {
		t.Errorf("rounds_skipped = %d, want %d", got, rounds)
	}
}

// Link incidents: fail, restore, fail a different link — each reconverge
// replays the previous trajectory where admissible and must land on the
// exact state the full-recompute lab reaches.
func TestIncrementalLinkIncidentParity(t *testing.T) {
	full, inc, _ := twinLabs(t)
	steps := []struct {
		name string
		run  func(l *Lab) error
	}{
		{"fail r1-r3", func(l *Lab) error { return l.FailLink("r1", "r3") }},
		{"restore r1-r3", func(l *Lab) error { return l.RestoreLink("r1", "r3") }},
		{"fail r3-r5", func(l *Lab) error { return l.FailLink("r3", "r5") }},
		{"restore r3-r5", func(l *Lab) error { return l.RestoreLink("r3", "r5") }},
		{"fail node r2", func(l *Lab) error { return l.FailNode("r2") }},
		{"restore node r2", func(l *Lab) error { return l.RestoreNode("r2") }},
	}
	for _, st := range steps {
		if err := st.run(full); err != nil {
			t.Fatalf("%s (full): %v", st.name, err)
		}
		if err := st.run(inc); err != nil {
			t.Fatalf("%s (incremental): %v", st.name, err)
		}
		checkLabsIdentical(t, st.name, full, inc)
	}
}

// Partition heal: isolate a machine, then restore it. The partition cuts
// the inter-AS session, so both the IGP dirty set and the BGP static-dirty
// set are exercised; the heal must return both labs to identical states.
func TestIncrementalPartitionHealParity(t *testing.T) {
	full, inc, _ := twinLabs(t)
	for _, lab := range []*Lab{full, inc} {
		if _, err := lab.Apply(Change{Partition: []string{"r5"}}); err != nil {
			t.Fatal(err)
		}
	}
	checkLabsIdentical(t, "partition", full, inc)
	for _, lab := range []*Lab{full, inc} {
		if err := lab.RestoreNode("r5"); err != nil {
			t.Fatal(err)
		}
	}
	checkLabsIdentical(t, "heal", full, inc)
}

// Flap storm: a per-round session flap defeats replay entirely (perturbed
// runs neither record nor replay), and the watchdog's ladder — budget
// escalation, soft reset — must climb identically in both modes, including
// the soft reset's replay invalidation.
func TestIncrementalFlapStormParity(t *testing.T) {
	full, inc, _ := twinLabs(t)
	for _, lab := range []*Lab{full, inc} {
		lab.SetPerturber(routing.NewScheduledPerturber(7, []routing.PerturbRule{
			{Kind: routing.PerturbFlap, A: "r1", B: "r2", Every: 1, Recover: true},
		}))
		if res, err := lab.Apply(Change{}); err != nil || res.Converged {
			t.Fatalf("perturbed reconverge: res=%+v err=%v", res, err)
		}
	}
	checkLabsIdentical(t, "flap storm", full, inc)

	fullRep, err := (&Watchdog{}).Supervise(full)
	if err != nil {
		t.Fatal(err)
	}
	incRep, err := (&Watchdog{}).Supervise(inc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fullRep, incRep) {
		t.Fatalf("supervision reports differ:\n--- full ---\n%s--- incremental ---\n%s",
			fullRep.Describe(), incRep.Describe())
	}
	checkLabsIdentical(t, "supervised recovery", full, inc)

	// After the storm heals, the next clean incident round-trips identically
	// again (the soft reset discarded the stale trajectory).
	for _, lab := range []*Lab{full, inc} {
		lab.SetPerturber(nil)
		if err := lab.FailLink("r1", "r3"); err != nil {
			t.Fatal(err)
		}
		if err := lab.RestoreLink("r1", "r3"); err != nil {
			t.Fatal(err)
		}
	}
	checkLabsIdentical(t, "post-storm incident", full, inc)
}

// Quarantined speakers: a persistent flap makes the ladder quarantine an
// endpoint. The survivor reconvergence — speakers vanishing from the
// engine's order — must be identical in both modes.
func TestIncrementalQuarantineParity(t *testing.T) {
	full, inc, _ := twinLabs(t)
	for _, lab := range []*Lab{full, inc} {
		lab.SetPerturber(routing.NewScheduledPerturber(21, []routing.PerturbRule{
			{Kind: routing.PerturbFlap, A: "r1", B: "r2", Every: 1}, // no Recover
		}))
		if res, err := lab.Apply(Change{}); err != nil || res.Converged {
			t.Fatalf("perturbed reconverge: res=%+v err=%v", res, err)
		}
	}
	fullRep, err := (&Watchdog{}).Supervise(full)
	if err != nil {
		t.Fatal(err)
	}
	incRep, err := (&Watchdog{}).Supervise(inc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fullRep, incRep) {
		t.Fatalf("supervision reports differ:\n--- full ---\n%s--- incremental ---\n%s",
			fullRep.Describe(), incRep.Describe())
	}
	if len(incRep.Quarantined) == 0 {
		t.Fatalf("expected a quarantine rung:\n%s", incRep.Describe())
	}
	checkLabsIdentical(t, "post-quarantine", full, inc)
}

// Incident ids: every injection numbers itself, watchdog events cite the
// triggering incident, and escalation steps carry it for reports.
func TestIncidentIDThreading(t *testing.T) {
	lab, _ := startedLab(t, "netkit", "quagga")
	if lab.LastIncidentID() != 0 {
		t.Fatalf("fresh lab LastIncidentID = %d", lab.LastIncidentID())
	}
	if err := lab.FailLink("r1", "r3"); err != nil {
		t.Fatal(err)
	}
	if got := lab.LastIncidentID(); got != 1 {
		t.Fatalf("after first incident LastIncidentID = %d", got)
	}
	if err := lab.RestoreLink("r1", "r3"); err != nil {
		t.Fatal(err)
	}
	if got := lab.LastIncidentID(); got != 2 {
		t.Fatalf("after second incident LastIncidentID = %d", got)
	}

	// A flap storm after the incidents: the watchdog's lab events and
	// escalation steps must name incident #2 as the trigger.
	lab.SetPerturber(routing.NewScheduledPerturber(7, []routing.PerturbRule{
		{Kind: routing.PerturbFlap, A: "r1", B: "r2", Every: 1, Recover: true},
	}))
	if res, err := lab.Apply(Change{}); err != nil || res.Converged {
		t.Fatalf("perturbed reconverge: res=%+v err=%v", res, err)
	}
	rep, err := (&Watchdog{}).Supervise(lab)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Recovered {
		t.Fatalf("not recovered:\n%s", rep.Describe())
	}
	for i, step := range rep.Steps {
		if step.Incident != 2 {
			t.Errorf("step %d incident = %d, want 2", i, step.Incident)
		}
		if !strings.Contains(step.String(), "[incident #2]") {
			t.Errorf("step %d string missing incident tag: %s", i, step)
		}
	}
	events := strings.Join(lab.Events(), "\n")
	for _, want := range []string{
		"INCIDENT #1: link r1 -- r3",
		"INCIDENT #2: link r1 -- r3",
		"(incident #2)", // watchdog escalation suffix
	} {
		if !strings.Contains(events, want) {
			t.Errorf("events missing %q:\n%s", want, events)
		}
	}
}
