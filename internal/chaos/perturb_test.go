package chaos

import (
	"strings"
	"testing"

	"autonetkit/internal/routing"
	"autonetkit/internal/verify"
)

func TestParsePerturbRules(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want routing.PerturbRule
	}{
		{"loss 30", routing.PerturbRule{Kind: routing.PerturbLoss, Pct: 30}},
		{"loss 100 on r1:r2", routing.PerturbRule{Kind: routing.PerturbLoss, Pct: 100, A: "r1", B: "r2"}},
		{"delay 3 on r3:r5", routing.PerturbRule{Kind: routing.PerturbDelay, Rounds: 3, A: "r3", B: "r5"}},
		{"flap r1:r2 every 4", routing.PerturbRule{Kind: routing.PerturbFlap, A: "r1", B: "r2", Every: 4}},
		{"flap r1:r2 every 1 recover", routing.PerturbRule{Kind: routing.PerturbFlap, A: "r1", B: "r2", Every: 1, Recover: true}},
		{"corrupt at 0 for 3", routing.PerturbRule{Kind: routing.PerturbCorrupt, For: 3}},
		{"corrupt at 1 for 2", routing.PerturbRule{Kind: routing.PerturbCorrupt, At: 1, For: 2}},
		{"corrupt r3:r5 at 2 for 5", routing.PerturbRule{Kind: routing.PerturbCorrupt, A: "r3", B: "r5", At: 2, For: 5}},
	} {
		got, err := ParsePerturb(tc.in)
		if err != nil {
			t.Errorf("ParsePerturb(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParsePerturb(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		// Rendering and re-parsing is the identity (the golden drill and the
		// report format rely on this), and every input here is written the
		// way String writes it.
		again, err := ParsePerturb(strings.TrimPrefix(got.String(), "perturb "))
		if err != nil || again != got {
			t.Errorf("round-trip of %q via %q: %+v, %v", tc.in, got.String(), again, err)
		}
		if got.String() != "perturb "+tc.in {
			t.Errorf("ParsePerturb(%q).String() = %q, want it written back as given", tc.in, got.String())
		}
	}
}

func TestParsePerturbErrors(t *testing.T) {
	for _, bad := range []string{
		"",                          // no rule
		"melt 3",                    // unknown kind
		"loss",                      // missing pct
		"loss 0",                    // below bound
		"loss 200",                  // above bound
		"loss abc",                  // not a number
		"loss 30 r1:r2",             // missing "on"
		"loss 30 on r1",             // not a session
		"loss 30 on r1:r1",          // equal endpoints
		"loss 30 on r1:r2:r3",       // extra colon
		"delay 0",                   // below bound
		"delay 10000",               // absurd queue depth
		"flap r1:r2",                // missing every
		"flap every 2",              // missing session
		"flap r1:r2 every 0",        // zero period
		"flap r1:r2 every 2 loudly", // trailing junk
		"corrupt at 5",              // missing for
		"corrupt at -1 for 2",       // negative start
		"corrupt at 2 for 0",        // zero duration
	} {
		if _, err := ParsePerturb(bad); err == nil {
			t.Errorf("ParsePerturb(%q) accepted", bad)
		}
	}
	// A kind the grammar no longer has (dup, reorder) is unknown, not
	// malformed.
	for _, removed := range []string{"dup 50", "reorder"} {
		if _, err := ParsePerturb(removed); err == nil || !strings.Contains(err.Error(), "unknown perturbation") {
			t.Errorf("ParsePerturb(%q) = %v, want an unknown perturbation", removed, err)
		}
	}
}

func TestParseScenarioPerturbGrammar(t *testing.T) {
	sc := mustParse(t, `
name convergence drill
seed 1337
budget 60
perturb delay 2 on r1:r2
check converged within 50
perturb flap r3:r5 every 2 recover
perturb clear
check converged
check baseline
`)
	if !sc.Seeded || sc.Seed != 1337 {
		t.Fatalf("seed = %d (seeded %v)", sc.Seed, sc.Seeded)
	}
	if len(sc.Steps) != 6 {
		t.Fatalf("steps = %d: %+v", len(sc.Steps), sc.Steps)
	}
	if sc.Steps[0].Op != OpPerturb || sc.Steps[0].Rule == nil || sc.Steps[0].Rule.Kind != routing.PerturbDelay {
		t.Errorf("perturb step = %+v", sc.Steps[0])
	}
	if sc.Steps[0].MaxBGPRounds != 60 {
		t.Errorf("budget not applied to perturb step: %+v", sc.Steps[0])
	}
	if sc.Steps[1].Check != CheckConverged || sc.Steps[1].Within != 50 {
		t.Errorf("check converged step = %+v", sc.Steps[1])
	}
	if sc.Steps[3].Op != OpPerturb || sc.Steps[3].Rule != nil {
		t.Errorf("perturb clear step = %+v", sc.Steps[3])
	}
	if sc.Steps[4].Within != 0 {
		t.Errorf("unbounded check converged has Within = %d", sc.Steps[4].Within)
	}
	// Step.String round-trips the new directives in scenario syntax.
	for i, want := range []string{
		"perturb delay 2 on r1:r2",
		"check converged within 50",
		"perturb flap r3:r5 every 2 recover",
		"perturb clear",
		"check converged",
		"check baseline",
	} {
		if got := sc.Steps[i].String(); got != want {
			t.Errorf("step %d String = %q, want %q", i, got, want)
		}
	}
}

func TestParseScenarioPerturbErrors(t *testing.T) {
	for _, bad := range []string{
		"seed\ncheck\n",                     // seed needs a value
		"seed x\ncheck\n",                   // not an integer
		"seed -1\ncheck\n",                  // uint64 only
		"perturb\ncheck\n",                  // empty rule
		"perturb loss 200\ncheck\n",         // out of range
		"perturb flap a:a every 2\ncheck\n", // degenerate session
		"check converged within 0\n",        // zero bound
		"check converged within\n",          // missing bound
		"check converged soon\n",            // junk suffix
	} {
		_, diags := ParseScenario(strings.NewReader(bad))
		if !diags.HasErrors() {
			t.Errorf("script %q accepted", bad)
		}
	}
	// A seed alone contributes no step; the scenario must still have one.
	_, diags := ParseScenario(strings.NewReader("seed 7\n"))
	if !diags.HasErrors() {
		t.Error("seed-only scenario accepted")
	}
}

// A seeded scenario is supervised: the watchdog heals a recoverable flap,
// the ladder shows up on the step, and the report closes clean (warnings
// only) with the perturbation cleared.
func TestSeededScenarioSupervised(t *testing.T) {
	lab, client, addrOf := fig5Lab(t)
	sc := mustParse(t, `
name supervised flap
seed 7
perturb flap r1:r2 every 1 recover
perturb clear
check baseline
`)
	eng := NewEngine(lab, client, addrOf, Options{})
	rep, err := eng.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("report not OK:\n%s", rep)
	}
	flapStep := rep.Steps[0]
	if flapStep.Watchdog == nil {
		t.Fatalf("seeded perturb step has no supervision ladder:\n%s", rep)
	}
	if n := flapStep.Watchdog.Escalations(); n != 2 || !flapStep.Watchdog.Recovered {
		t.Fatalf("ladder = %d escalations, recovered %v:\n%s",
			n, flapStep.Watchdog.Recovered, flapStep.Watchdog.Describe())
	}
	if !strings.Contains(flapStep.Verdict, "[watchdog: 2 escalations, final converged]") {
		t.Errorf("verdict = %q", flapStep.Verdict)
	}
	var recovered bool
	for _, f := range rep.Findings() {
		if f.Check == "chaos-watchdog" && f.Severity == verify.Warning &&
			strings.Contains(f.Detail, "recovered after 2 escalations") {
			recovered = true
		}
	}
	if !recovered {
		t.Errorf("no recovery warning in findings:\n%s", rep)
	}
	// The report text shows the ladder rungs under the step line.
	text := rep.String()
	for _, want := range []string{
		"watchdog observe: oscillating",
		"watchdog escalate-budget: oscillating",
		"watchdog soft-reset [r1, r2]: converged",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
	if lab.Perturber() != nil {
		t.Error("perturber survived the scenario")
	}
	if !lab.BGPResult().Converged {
		t.Error("lab handed back unconverged")
	}
}

// Without a seed (and without Options.Supervise) a perturb step reports the
// raw engine verdict: an unhealed flap is an error finding, no ladder runs,
// and the deferred cleanup still hands the lab back clean.
func TestUnseededPerturbUnsupervised(t *testing.T) {
	lab, client, addrOf := fig5Lab(t)
	sc := mustParse(t, `
name raw flap
budget 30
perturb flap r1:r2 every 1
`)
	eng := NewEngine(lab, client, addrOf, Options{})
	rep, err := eng.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatalf("oscillating lab reported OK:\n%s", rep)
	}
	step := rep.Steps[0]
	if step.Watchdog != nil {
		t.Errorf("unsupervised step grew a ladder: %+v", step.Watchdog)
	}
	if !strings.Contains(step.Verdict, "oscillating") {
		t.Errorf("verdict = %q", step.Verdict)
	}
	if lab.Perturber() != nil {
		t.Error("perturber survived the scenario")
	}
	if !lab.BGPResult().Converged {
		t.Error("cleanup did not reconverge the lab")
	}
}

// Options.Supervise turns the watchdog on for unseeded scenarios too, and a
// supervised healthy step carries a ladder of exactly one observation.
func TestOptionsSuperviseWithoutSeed(t *testing.T) {
	lab, client, addrOf := fig5Lab(t)
	sc := mustParse(t, "fail-link r1 r2\nrestore-link r1 r2\ncheck baseline\n")
	eng := NewEngine(lab, client, addrOf, Options{Supervise: true})
	rep, err := eng.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("report not OK:\n%s", rep)
	}
	for _, s := range rep.Steps[:2] {
		if s.Watchdog == nil {
			t.Fatalf("supervised step %d has no ladder", s.Index)
		}
		if s.Watchdog.Escalations() != 0 || s.Watchdog.Final != "converged" {
			t.Errorf("healthy step %d ladder:\n%s", s.Index, s.Watchdog.Describe())
		}
	}
}
