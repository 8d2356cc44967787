package emul

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"autonetkit/internal/design"
	"autonetkit/internal/obs"
	"autonetkit/internal/routing"
)

// The lab's BGP engine lives as long as the lab: every converge after Boot
// rebinds it to the edited configs and runs on from the state it holds, so
// comparing two labs no longer tests it. Its oracle is an engine built from
// nothing over the same configs, IGP, profile and perturber.

// checkAgainstFreshEngine holds the lab's persisted BGP engine to a fresh
// one: the same verdict, the same sessions down and the same selection at
// every speaker. An oscillation stops wherever in its cycle it was
// detected, which depends on where the run started, so there the cycle
// length must agree and only the speakers neither engine saw move in the
// last cycle must select alike.
func checkAgainstFreshEngine(t *testing.T, label string, l *Lab) {
	t.Helper()
	profile := routing.ProfileFor(PlatformSyntax(l.Platform))
	fresh, err := routing.NewBGPEngine(l.liveDevices(), func(string) routing.VendorProfile { return profile }, l.igp)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	fresh.SetSequential(true)
	fresh.SetPerturber(l.pert)
	got, want := l.bgpResult, fresh.Run(l.budget.MaxBGPRounds)
	if got.Converged != want.Converged || got.Oscillating != want.Oscillating || got.Cancelled != want.Cancelled {
		t.Fatalf("%s: verdict %+v, a fresh engine's %+v", label, got, want)
	}
	if got, want := l.bgp.SessionsDown(), fresh.SessionsDown(); !slices.Equal(got, want) {
		t.Fatalf("%s: sessions down %v, a fresh engine's %v", label, got, want)
	}
	if got, want := l.bgp.Speakers(), fresh.Speakers(); !slices.Equal(got, want) {
		t.Fatalf("%s: speakers %v, a fresh engine's %v", label, got, want)
	}
	moving := map[string]bool{}
	if got.Oscillating {
		if got.CycleLen != want.CycleLen {
			t.Fatalf("%s: cycle length %d, a fresh engine's %d", label, got.CycleLen, want.CycleLen)
		}
		for _, host := range slices.Concat(l.bgp.UnstableSpeakers(got.CycleLen+1), fresh.UnstableSpeakers(want.CycleLen+1)) {
			moving[host] = true
		}
		if len(moving) == len(fresh.Speakers()) {
			t.Fatalf("%s: every speaker oscillates, so no selection is compared", label)
		}
	}
	for _, host := range fresh.Speakers() {
		if moving[host] {
			continue
		}
		if got, want := l.bgp.Selected(host), fresh.Selected(host); !slices.EqualFunc(got, want, func(a, b routing.BGPRoute) bool { return reflect.DeepEqual(a, b) }) {
			t.Fatalf("%s: %s selects %d routes, a fresh engine %d:\n got %v\nwant %v", label, host, len(got), len(want), got, want)
		}
	}
}

// walkAgainstFreshEngine runs each step and holds the lab to a fresh engine
// after it.
func walkAgainstFreshEngine(t *testing.T, lab *Lab, steps []labStep) {
	t.Helper()
	for _, st := range steps {
		if err := st.do(); err != nil {
			t.Fatalf("%s: %v", st.label, err)
		}
		checkAgainstFreshEngine(t, st.label, lab)
	}
}

// perturbSteps are the rules of testdata/perturb/drill.chaos on one IGP
// adjacency, a loss that takes it down, and the clear that ends them.
func perturbSteps(lab *Lab) []labStep {
	adjacent := func(l [2]string) bool {
		to := func(n routing.OSPFNeighbor) bool { return n.Hostname == l[1] }
		return slices.ContainsFunc(lab.OSPFNeighbors(l[0]), to) || slices.ContainsFunc(lab.ISISNeighbors(l[0]), to)
	}
	links := lab.Links()
	lossy := links[slices.IndexFunc(links, adjacent)]
	perturb := func(rules ...routing.PerturbRule) func() error {
		return func() error {
			lab.SetPerturber(routing.NewScheduledPerturber(1337, rules))
			_, err := lab.Apply(Change{})
			return err
		}
	}
	return []labStep{
		{"perturb-loss", perturb(routing.PerturbRule{Kind: routing.PerturbLoss, A: lossy[0], B: lossy[1], Pct: 100})},
		{"perturb-delay", perturb(routing.PerturbRule{Kind: routing.PerturbDelay, A: lossy[0], B: lossy[1], Rounds: 2})},
		{"perturb-flap", perturb(routing.PerturbRule{Kind: routing.PerturbFlap, A: lossy[0], B: lossy[1], Every: 1, Recover: true})},
		{"perturb-clear", func() error {
			lab.SetPerturber(nil)
			_, err := lab.Apply(Change{})
			return err
		}},
	}
}

// TestPersistedBGPMatchesFreshEngine: after boot and after every incident,
// restore and perturbation, the lab's persisted BGP engine holds the
// verdict, sessions and selections of an engine that never saw the
// previous state.
func TestPersistedBGPMatchesFreshEngine(t *testing.T) {
	for _, tc := range append(slices.Clone(nrenShapes), nrenShape{240, "netkit", "quagga", design.IGPOSPF}) {
		t.Run(fmt.Sprintf("%s%d", tc.platform, tc.routers), func(t *testing.T) {
			lab := nrenLab(t, tc.routers, tc.platform, tc.syntax, tc.igp)
			if err := lab.Boot(BootOptions{}); err != nil {
				t.Fatal(err)
			}
			walkAgainstFreshEngine(t, lab, append(incidentSteps(lab), perturbSteps(lab)...))
		})
	}
}

// The scenarios below are the supervision sequences the persisted engine
// has to survive, each walked against a fresh engine after every step.

// startedLabWith boots the netkit fixture with a collector for the
// reconvergence counters.
func startedLabWith(t *testing.T, col *obs.Collector) *Lab {
	t.Helper()
	lab, _ := buildLab(t, "netkit", "quagga")
	if err := lab.Boot(BootOptions{Obs: col}); err != nil {
		t.Fatal(err)
	}
	return lab
}

// A no-op reconverge is the best case: no config changed, so delta SPF
// recomputes nothing and the engine's single round finds nothing to decide
// — while the result stays a fresh engine's.
func TestIncrementalNoopReconvergeParity(t *testing.T) {
	col := obs.NewCollector()
	lab := startedLabWith(t, col)
	decided := col.Counter(obs.CounterBGPPrefixesDecided)
	walkAgainstFreshEngine(t, lab, []labStep{{"noop reconverge", func() error { _, err := lab.Apply(Change{}); return err }}})
	if rec := col.Counter(obs.CounterSPFDeltaRecomputes); rec != 0 {
		t.Errorf("spf_delta_recomputes = %d, want 0 for a no-op", rec)
	}
	if skipped := col.Counter(obs.CounterSPFSourcesSkipped); skipped == 0 {
		t.Error("spf_sources_skipped = 0, want every source skipped")
	}
	if res := lab.BGPResult(); !res.Converged || res.Rounds != 1 {
		t.Errorf("no-op reconverge = %+v, want convergence in one quiet round", res)
	}
	if got := col.Counter(obs.CounterBGPPrefixesDecided) - decided; got != 0 {
		t.Errorf("a no-op reconverge decided %d prefixes", got)
	}
}

// Link incidents: fail, restore, fail a different link, then a machine —
// each reconverge continues the engine and must land where a fresh one does.
func TestIncrementalLinkIncidentParity(t *testing.T) {
	lab, _ := startedLab(t, "netkit", "quagga")
	walkAgainstFreshEngine(t, lab, []labStep{
		{"fail r1-r3", func() error { return lab.FailLink("r1", "r3") }},
		{"restore r1-r3", func() error { return lab.RestoreLink("r1", "r3") }},
		{"fail r3-r5", func() error { return lab.FailLink("r3", "r5") }},
		{"restore r3-r5", func() error { return lab.RestoreLink("r3", "r5") }},
		{"fail node r2", func() error { return lab.FailNode("r2") }},
		{"restore node r2", func() error { return lab.RestoreNode("r2") }},
	})
}

// Partition heal: isolate a machine, then restore it. The partition cuts
// the inter-AS session, so both the IGP-changed set and the dropped
// sessions are exercised.
func TestIncrementalPartitionHealParity(t *testing.T) {
	lab, _ := startedLab(t, "netkit", "quagga")
	walkAgainstFreshEngine(t, lab, []labStep{
		{"partition", func() error { _, err := lab.Apply(Change{Partition: []string{"r5"}}); return err }},
		{"heal", func() error { return lab.RestoreNode("r5") }},
	})
}

// superviseStep runs the watchdog and checks the ladder it climbed.
func superviseStep(lab *Lab, check func(SupervisionReport) error) labStep {
	return labStep{"supervise", func() error {
		rep, err := (&Watchdog{}).Supervise(lab)
		if err != nil {
			return err
		}
		return check(rep)
	}}
}

// Flap storm: a per-round session flap, the watchdog's ladder (budget
// escalation, then a soft reset that heals it), and a clean incident after
// the storm.
func TestIncrementalFlapStormParity(t *testing.T) {
	lab, _ := startedLab(t, "netkit", "quagga")
	walkAgainstFreshEngine(t, lab, []labStep{
		{"flap storm", func() error {
			lab.SetPerturber(routing.NewScheduledPerturber(7, []routing.PerturbRule{
				{Kind: routing.PerturbFlap, A: "r1", B: "r2", Every: 1, Recover: true},
			}))
			if res, err := lab.Apply(Change{}); err != nil || res.Converged {
				return fmt.Errorf("perturbed reconverge: res=%+v err=%v", res, err)
			}
			return nil
		}},
		superviseStep(lab, func(rep SupervisionReport) error {
			if !rep.Recovered || rep.Escalations() != 2 {
				return fmt.Errorf("want recovery by soft reset:\n%s", rep.Describe())
			}
			return nil
		}),
		{"clear", func() error { lab.SetPerturber(nil); _, err := lab.Apply(Change{}); return err }},
		{"fail r1-r3", func() error { return lab.FailLink("r1", "r3") }},
		{"restore r1-r3", func() error { return lab.RestoreLink("r1", "r3") }},
	})
}

// Quarantined speakers: a persistent flap makes the ladder quarantine an
// endpoint, and the survivors' reconvergence — a speaker vanishing from the
// engine — must land where a fresh engine over the survivors does.
func TestIncrementalQuarantineParity(t *testing.T) {
	lab, _ := startedLab(t, "netkit", "quagga")
	walkAgainstFreshEngine(t, lab, []labStep{
		{"flap storm", func() error {
			lab.SetPerturber(routing.NewScheduledPerturber(21, []routing.PerturbRule{
				{Kind: routing.PerturbFlap, A: "r1", B: "r2", Every: 1}, // no Recover
			}))
			if res, err := lab.Apply(Change{}); err != nil || res.Converged {
				return fmt.Errorf("perturbed reconverge: res=%+v err=%v", res, err)
			}
			return nil
		}},
		superviseStep(lab, func(rep SupervisionReport) error {
			if len(rep.Quarantined) == 0 || rep.Final != VerdictConverged {
				return fmt.Errorf("want a quarantine rung that converges the survivors:\n%s", rep.Describe())
			}
			return nil
		}),
	})
}

// A flap rule with any half-period never lets a run read as converged: a
// quiet round in an "up" phase is not a fixed point. The run ends in a
// detected cycle one full flap period long, and the watchdog still climbs
// to quarantine.
func TestSlowFlapOscillates(t *testing.T) {
	for every := 1; every <= 4; every++ {
		t.Run(fmt.Sprintf("every%d", every), func(t *testing.T) {
			lab, _ := startedLab(t, "netkit", "quagga")
			lab.SetPerturber(routing.NewScheduledPerturber(21, []routing.PerturbRule{
				{Kind: routing.PerturbFlap, A: "r1", B: "r2", Every: every},
			}))
			res, err := lab.Apply(Change{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Converged || !res.Oscillating || res.CycleLen != 2*every {
				t.Fatalf("flap every %d: %+v, want an oscillation with cycle length %d", every, res, 2*every)
			}
			rep, err := (&Watchdog{}).Supervise(lab)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Escalations() != 3 || !strings.Contains(strings.Join(rep.Quarantined, ","), "r1") {
				t.Errorf("flap every %d: want the full ladder to quarantine r1:\n%s", every, rep.Describe())
			}
		})
	}
}
