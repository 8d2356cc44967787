package chaos

import (
	"fmt"
	"net/netip"
	"strings"

	"autonetkit/internal/emul"
	"autonetkit/internal/measure"
	"autonetkit/internal/obs"
	"autonetkit/internal/routing"
	"autonetkit/internal/verify"
)

// Counter names maintained by the engine.
const (
	CounterSteps    = "chaos_steps"
	CounterFindings = "chaos_findings"
)

// Options configures an engine.
type Options struct {
	// Budget is the default per-step convergence budget; a step's own
	// MaxBGPRounds overrides it.
	Budget routing.ConvergenceBudget
	// Obs, when set, collects per-step spans and counters (including the
	// watchdog_* escalation counters when supervision runs).
	Obs *obs.Collector
	// Supervise forces convergence-watchdog supervision of every step even
	// for unseeded scenarios. A scenario that sets `seed` is always
	// supervised.
	Supervise bool
	// OnEvent, when set, receives one call per watchdog escalation rung —
	// the deploy layer bridges these into its event stream.
	OnEvent func(action, detail string)
	// Hosts, when set, executes the substrate-host steps (drain-host,
	// fail-host, silence-host, flaky-host, crash-sched, check reservation);
	// a *deploy.ClusterDeployment satisfies it. Scenarios using host steps
	// without a controller record a step failure finding.
	Hosts HostController
}

// HostController carries out the substrate-host steps of a scenario. The
// host-loss calls return the VM names that were re-placed and the VMs left
// stranded (sorted); a degraded operation returns stranded VMs alongside a
// non-nil error and the step degrades gracefully instead of aborting the
// scenario. A controller that lacks a capability (no durable scheduler,
// no fault-injecting backend, no leases) returns an error, which fails
// the step.
type HostController interface {
	DrainHost(host string) (moved, stranded []string, err error)
	FailHost(host string) (moved, stranded []string, err error)
	// SilenceHost stops the host answering heartbeats: its lease expires
	// and its VMs re-place.
	SilenceHost(host string) (moved, stranded []string, err error)
	// FlakyHost sets a deterministic migration-failure rate for moves
	// onto the host (0 clears it).
	FlakyHost(host string, rate float64) error
	// CrashSched kills the durable scheduler's journal mid-flight,
	// recovers a fresh scheduler from its state directory, and returns a
	// deterministic summary.
	CrashSched() (summary string, err error)
	// ReservationState reports one reservation's scheduler state
	// ("active", "queued", "degraded", or "preempted").
	ReservationState(name string) (string, error)
}

// Engine executes scenarios against one booted lab.
type Engine struct {
	lab    *emul.Lab
	client *measure.Client
	addrOf func(string) netip.Addr
	opts   Options

	// Per-scenario perturbation state: the accumulated rule list, the
	// scenario's seed, and whether the watchdog supervises each step.
	rules       []routing.PerturbRule
	seed        uint64
	supervising bool
}

// NewEngine wires a scenario engine to a booted lab. client must drive the
// same lab; addrOf supplies each machine's probe address (its loopback) —
// machines it cannot resolve are excluded from reachability matrices.
func NewEngine(lab *emul.Lab, client *measure.Client, addrOf func(string) netip.Addr, opts Options) *Engine {
	return &Engine{lab: lab, client: client, addrOf: addrOf, opts: opts}
}

// StepResult is the outcome of one executed step.
type StepResult struct {
	Index    int // 1-based
	Step     Step
	Verdict  string // one-line deterministic outcome
	Findings []verify.Finding
	// Matrix is the post-step reachability matrix (check steps only).
	Matrix *measure.Reachability
	// Watchdog is the supervision ladder this step climbed (supervised
	// runs only; nil otherwise).
	Watchdog *emul.SupervisionReport
}

// Report is a scenario's structured resilience outcome.
type Report struct {
	Scenario string
	Baseline measure.Reachability
	Steps    []StepResult
	// Shards is the structural shard count of the lab's BGP topology (its
	// distinct ASes) — deliberately a topology property, not the worker
	// count of deploy.Options.Shards, so the rendered header stays
	// byte-identical across worker counts while still pinning the partition
	// the sharded driver evaluates. 0 (omitted from the header) when unknown.
	Shards int
}

// Findings flattens every step's findings in step order.
func (r Report) Findings() []verify.Finding {
	var out []verify.Finding
	for _, s := range r.Steps {
		out = append(out, s.Findings...)
	}
	return out
}

// OK reports whether no error-severity findings were produced.
func (r Report) OK() bool {
	for _, f := range r.Findings() {
		if f.Severity == verify.Error {
			return false
		}
	}
	return true
}

// String renders the report deterministically: one line per step, then the
// findings.
func (r Report) String() string {
	var sb strings.Builder
	findings := r.Findings()
	errs := 0
	for _, f := range findings {
		if f.Severity == verify.Error {
			errs++
		}
	}
	name := r.Scenario
	if name == "" {
		name = "scenario"
	}
	shardNote := ""
	if r.Shards > 0 {
		shardNote = fmt.Sprintf(" [%d shards]", r.Shards)
	}
	fmt.Fprintf(&sb, "chaos report: %s: %d steps, %d findings (%d errors)%s\n",
		name, len(r.Steps), len(findings), errs, shardNote)
	fmt.Fprintf(&sb, "  baseline: %d/%d pairs reachable\n", r.Baseline.Reachable(), r.Baseline.Pairs())
	for _, s := range r.Steps {
		fmt.Fprintf(&sb, "  step %-2d %-28s %s\n", s.Index, s.Step, s.Verdict)
		if s.Watchdog != nil && s.Watchdog.Escalations() > 0 {
			for _, ws := range s.Watchdog.Steps {
				fmt.Fprintf(&sb, "          watchdog %s\n", ws)
			}
		}
	}
	for _, f := range findings {
		fmt.Fprintf(&sb, "  %s\n", f)
	}
	return strings.TrimRight(sb.String(), "\n")
}

// stepLabel names a step for findings ("step-3 fail-link r1 r3").
func stepLabel(i int, s Step) string { return fmt.Sprintf("step-%d %s", i, s) }

// Run executes the scenario. The pre-scenario reachability matrix is the
// baseline every check diffs against. Steps that fail to converge within
// their budget, violate a check, or error out produce findings; execution
// continues so the report covers the whole script. The error return is
// reserved for the scenario being unrunnable at all (lab not started,
// measurement impossible).
func (e *Engine) Run(sc Scenario) (Report, error) {
	span := e.opts.Obs.StartSpan("Chaos")
	defer span.End()
	rep := Report{Scenario: sc.Name, Shards: e.lab.BGPShardCount()}

	bspan := e.opts.Obs.StartSpan("baseline")
	base, err := e.client.ReachabilityMatrix(e.lab.VMNames(), e.addrOf)
	bspan.End()
	if err != nil {
		return rep, fmt.Errorf("chaos: measuring baseline: %w", err)
	}
	rep.Baseline = base

	origBudget := e.lab.Budget()
	defer e.lab.SetBudget(origBudget)
	e.rules, e.seed = nil, sc.Seed
	e.supervising = sc.Seeded || e.opts.Supervise
	defer e.clearPerturbation()

	for i, st := range sc.Steps {
		e.opts.Obs.Add(CounterSteps, 1)
		sspan := e.opts.Obs.StartSpan(fmt.Sprintf("step-%d %s", i+1, st.Op))
		res, err := e.runStep(i+1, st, base)
		sspan.End()
		if err != nil {
			return rep, err
		}
		e.opts.Obs.Add(CounterFindings, int64(len(res.Findings)))
		rep.Steps = append(rep.Steps, res)
	}
	return rep, nil
}

// budgetFor resolves a step's convergence budget.
func (e *Engine) budgetFor(st Step) routing.ConvergenceBudget {
	if st.MaxBGPRounds > 0 {
		return routing.ConvergenceBudget{MaxBGPRounds: st.MaxBGPRounds}
	}
	return e.opts.Budget
}

func (e *Engine) runStep(idx int, st Step, base measure.Reachability) (StepResult, error) {
	res := StepResult{Index: idx, Step: st}
	label := stepLabel(idx, st)
	addFinding := func(check string, sev verify.Severity, format string, args ...any) {
		res.Findings = append(res.Findings, verify.Finding{
			Check: check, Severity: sev, Device: label, Detail: fmt.Sprintf(format, args...),
		})
	}

	if usesHosts(st) && e.opts.Hosts == nil {
		addFinding("chaos-step", verify.Error, "no host controller attached for %s", st.Op)
		res.Verdict = "FAILED: no host controller"
		return res, nil
	}
	if st.Op == OpCheck {
		err := e.runCheck(&res, base, addFinding)
		return res, err
	}

	budget := e.budgetFor(st)
	e.lab.SetBudget(budget)
	if st.Op == OpPerturb {
		err := e.runPerturb(&res, budget, addFinding)
		return res, err
	}
	if st.Op == OpFailHost || st.Op == OpDrainHost || st.Op == OpSilenceHost {
		err := e.runHostOp(&res, budget, addFinding)
		return res, err
	}
	if st.Op == OpCrashSched {
		e.runCrashSched(&res, addFinding)
		return res, nil
	}
	if st.Op == OpFlakyHost {
		e.runFlakyHost(&res, addFinding)
		return res, nil
	}
	link := []emul.Link{{A: st.A, B: st.B}}
	var change emul.Change
	switch st.Op {
	case OpFailLink, OpFlap:
		change.FailLinks = link
	case OpRestoreLink:
		change.RestoreLinks = link
	case OpFailNode:
		change.FailNodes = []string{st.Node}
	case OpRestoreNode:
		change.RestoreNodes = []string{st.Node}
	case OpPartition:
		change.Partition = st.Nodes
	default:
		return res, fmt.Errorf("chaos: unknown operation %q", st.Op)
	}
	times := 1
	if st.Op == OpFlap {
		times = st.Times
	}
	for round := 0; round < times; round++ {
		bgp, err := e.lab.Apply(change)
		if err == nil && st.Op == OpFlap {
			if !bgp.Converged {
				addFinding("chaos-convergence", verify.Error,
					"flap %d down: %s", round+1, budget.Describe(bgp))
			}
			_, err = e.lab.Apply(emul.Change{RestoreLinks: link})
		}
		if err != nil {
			addFinding("chaos-step", verify.Error, "injection failed: %v", err)
			res.Verdict = fmt.Sprintf("FAILED: %v", err)
			return res, nil
		}
	}
	err := e.settle(&res, budget, addFinding)
	return res, err
}

// usesHosts reports whether a step needs the host controller.
func usesHosts(st Step) bool {
	switch st.Op {
	case OpDrainHost, OpFailHost, OpSilenceHost, OpFlakyHost, OpCrashSched:
		return true
	}
	return st.Op == OpCheck && st.Check == CheckReservation
}

// runHostOp executes a substrate-host step through the attached host
// controller and settles the convergence verdict. A degraded operation
// (stranded VMs) records an error finding but the scenario continues —
// graceful degradation is precisely what these drills probe.
func (e *Engine) runHostOp(res *StepResult, budget routing.ConvergenceBudget, addFinding func(string, verify.Severity, string, ...any)) error {
	st := res.Step
	var moved, stranded []string
	var err error
	switch st.Op {
	case OpDrainHost:
		moved, stranded, err = e.opts.Hosts.DrainHost(st.Node)
	case OpSilenceHost:
		moved, stranded, err = e.opts.Hosts.SilenceHost(st.Node)
	default:
		moved, stranded, err = e.opts.Hosts.FailHost(st.Node)
	}
	if err != nil && len(stranded) == 0 {
		addFinding("chaos-step", verify.Error, "injection failed: %v", err)
		res.Verdict = fmt.Sprintf("FAILED: %v", err)
		return nil
	}
	if len(stranded) > 0 {
		addFinding("chaos-degraded", verify.Error,
			"%d VMs stranded (%s)", len(stranded), strings.Join(stranded, ", "))
	}
	if serr := e.settle(res, budget, addFinding); serr != nil {
		return serr
	}
	res.Verdict = fmt.Sprintf("%d VMs moved, %d stranded; %s", len(moved), len(stranded), res.Verdict)
	return nil
}

// runCrashSched kills and recovers the durable scheduler. No convergence
// settling: the control plane of the *substrate* restarts, the emulated
// network never notices — which is exactly the property the step asserts.
func (e *Engine) runCrashSched(res *StepResult, addFinding func(string, verify.Severity, string, ...any)) {
	summary, err := e.opts.Hosts.CrashSched()
	if err != nil {
		addFinding("chaos-step", verify.Error, "scheduler recovery failed: %v", err)
		res.Verdict = fmt.Sprintf("FAILED: %v", err)
		return
	}
	res.Verdict = summary
}

// runFlakyHost installs a scheduled migration-failure rate. Pure
// configuration: nothing moves, so there is no convergence to settle.
func (e *Engine) runFlakyHost(res *StepResult, addFinding func(string, verify.Severity, string, ...any)) {
	if err := e.opts.Hosts.FlakyHost(res.Step.Node, res.Step.Rate); err != nil {
		addFinding("chaos-step", verify.Error, "injection failed: %v", err)
		res.Verdict = fmt.Sprintf("FAILED: %v", err)
		return
	}
	res.Verdict = fmt.Sprintf("migration failure rate onto %s set to %.2f", res.Step.Node, res.Step.Rate)
}

// runPerturb installs (or clears) a perturbation rule, re-converges the
// control plane under it, and settles the verdict.
func (e *Engine) runPerturb(res *StepResult, budget routing.ConvergenceBudget, addFinding func(string, verify.Severity, string, ...any)) error {
	if res.Step.Rule == nil {
		e.rules = nil
		e.lab.SetPerturber(nil)
	} else {
		e.rules = append(e.rules, *res.Step.Rule)
		e.lab.SetPerturber(routing.NewScheduledPerturber(e.seed, e.rules))
	}
	if _, err := e.lab.Apply(emul.Change{}); err != nil {
		addFinding("chaos-step", verify.Error, "reconverge failed: %v", err)
		res.Verdict = fmt.Sprintf("FAILED: %v", err)
		return nil
	}
	return e.settle(res, budget, addFinding)
}

// settle turns the step's convergence outcome into a verdict and findings.
// Unsupervised runs report the raw engine outcome; supervised runs hand
// the lab to the convergence watchdog and report the ladder it climbed.
func (e *Engine) settle(res *StepResult, budget routing.ConvergenceBudget, addFinding func(string, verify.Severity, string, ...any)) error {
	bgp := e.lab.BGPResult()
	if !e.supervising {
		res.Verdict = budget.Describe(bgp)
		if !bgp.Converged {
			addFinding("chaos-convergence", verify.Error, "%s", res.Verdict)
		}
		return nil
	}
	w := &emul.Watchdog{Budget: budget, Obs: e.opts.Obs, OnEvent: e.opts.OnEvent}
	rep, err := w.Supervise(e.lab)
	if err != nil {
		return fmt.Errorf("chaos: watchdog: %w", err)
	}
	res.Watchdog = &rep
	res.Verdict = rep.Steps[len(rep.Steps)-1].Detail
	if n := rep.Escalations(); n > 0 {
		res.Verdict += fmt.Sprintf(" [watchdog: %d escalations, final %s]", n, rep.Final)
	}
	switch {
	case rep.Final != emul.VerdictConverged:
		addFinding("chaos-convergence", verify.Error, "%s", res.Verdict)
	case rep.Recovered:
		note := ""
		if len(rep.Quarantined) > 0 {
			note = fmt.Sprintf(" (quarantined %s)", strings.Join(rep.Quarantined, ", "))
		}
		if id := e.lab.LastIncidentID(); id > 0 {
			note += fmt.Sprintf(" (incident #%d)", id)
		}
		addFinding("chaos-watchdog", verify.Warning,
			"recovered after %d escalations%s", rep.Escalations(), note)
	}
	return nil
}

// clearPerturbation removes any installed perturber at scenario end and
// re-converges, so the lab is handed back clean. A scenario that never
// perturbed is untouched.
func (e *Engine) clearPerturbation() {
	e.rules = nil
	if e.lab.Perturber() == nil {
		return
	}
	e.lab.SetPerturber(nil)
	_, _ = e.lab.Apply(emul.Change{})
}

func (e *Engine) runCheck(res *StepResult, base measure.Reachability, addFinding func(string, verify.Severity, string, ...any)) error {
	st := res.Step
	switch st.Check {
	case CheckConverged:
		// Rounds is the engine's cumulative counter, so a watchdog
		// soft-reset continuation counts its extra rounds too — the bound
		// is on total control-plane work, not just the last run.
		bgp := e.lab.BGPResult()
		switch {
		case !bgp.Converged:
			res.Verdict = "VIOLATED: " + e.budgetFor(st).Describe(bgp)
			addFinding("chaos-check", verify.Error, "not converged: %s", e.budgetFor(st).Describe(bgp))
		case st.Within > 0 && bgp.Rounds > st.Within:
			res.Verdict = fmt.Sprintf("VIOLATED: converged in %d rounds, want <= %d", bgp.Rounds, st.Within)
			addFinding("chaos-check", verify.Error, "converged in %d rounds, want <= %d", bgp.Rounds, st.Within)
		default:
			res.Verdict = fmt.Sprintf("ok (converged in %d rounds)", bgp.Rounds)
		}
		return nil
	case CheckReservation:
		state, err := e.opts.Hosts.ReservationState(st.A)
		if err != nil {
			addFinding("chaos-check", verify.Error, "reservation %s: %v", st.A, err)
			res.Verdict = fmt.Sprintf("FAILED: %v", err)
			return nil
		}
		if state == st.B {
			res.Verdict = fmt.Sprintf("ok (reservation %s %s)", st.A, state)
		} else {
			res.Verdict = fmt.Sprintf("VIOLATED: reservation %s is %s, want %s", st.A, state, st.B)
			addFinding("chaos-check", verify.Error, "reservation %s is %s, want %s", st.A, state, st.B)
		}
		return nil
	case CheckReachable, CheckUnreachable:
		dst := e.addrOf(st.B)
		if !dst.IsValid() {
			return fmt.Errorf("chaos: no probe address for %q", st.B)
		}
		ok, err := e.client.Reachable(st.A, dst)
		if err != nil {
			return fmt.Errorf("chaos: probing %s -> %s: %w", st.A, st.B, err)
		}
		want := st.Check == CheckReachable
		if ok == want {
			res.Verdict = "ok"
		} else {
			res.Verdict = fmt.Sprintf("VIOLATED: %s -> %s reachable=%v, want %v", st.A, st.B, ok, want)
			addFinding("chaos-check", verify.Error,
				"%s -> %s reachable=%v, want %v", st.A, st.B, ok, want)
		}
		return nil
	}

	m, err := e.client.ReachabilityMatrix(e.lab.VMNames(), e.addrOf)
	if err != nil {
		return fmt.Errorf("chaos: measuring reachability: %w", err)
	}
	res.Matrix = &m
	diff := measure.DiffReachability(base, m)
	res.Verdict = fmt.Sprintf("%d/%d pairs reachable (%d lost, %d gained vs baseline)",
		m.Reachable(), m.Pairs(), len(diff.Lost), len(diff.Gained))
	if diff.OK() {
		return nil
	}
	sev := verify.Warning
	if st.Check == CheckBaseline {
		sev = verify.Error
	}
	addFinding("chaos-check", sev, "%s%s", diff, pairSamples(diff))
	return nil
}

// pairSamples renders up to three changed pairs per direction, so findings
// stay one line but name concrete victims.
func pairSamples(d measure.ReachabilityDiff) string {
	var parts []string
	render := func(tag string, ps [][2]string) {
		if len(ps) == 0 {
			return
		}
		n := len(ps)
		if n > 3 {
			n = 3
		}
		var items []string
		for _, p := range ps[:n] {
			items = append(items, p[0]+"->"+p[1])
		}
		if len(ps) > n {
			items = append(items, "...")
		}
		parts = append(parts, fmt.Sprintf("%s: %s", tag, strings.Join(items, " ")))
	}
	render("lost", d.Lost)
	render("gained", d.Gained)
	if len(parts) == 0 {
		return ""
	}
	return " (" + strings.Join(parts, "; ") + ")"
}
