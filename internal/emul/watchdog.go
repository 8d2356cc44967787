package emul

import (
	"fmt"
	"sort"
	"strings"

	"autonetkit/internal/obs"
	"autonetkit/internal/routing"
)

// The convergence watchdog: after boot and after every chaos incident the
// lab's control plane is re-run under a ConvergenceBudget, and the outcome
// is classified rather than trusted — an emulated experiment is only
// meaningful when the substrate can tell "the network converged" apart
// from "the engine stopped". On a bad verdict the supervisor climbs an
// escalation ladder modelled on how an operator nurses a sick BGP mesh:
//
//	observe ──▶ escalate budget ──▶ soft reset ──▶ quarantine
//	             (maybe starved)    (clear ip bgp   (remove the
//	                                 on the flappy   persistently sick
//	                                 speakers)       speaker, PR 3 style)
//
// Every rung is recorded as a structured step, counted in obs, and
// surfaced to deploy events, so the full ladder a lab climbed is visible
// in Network.Stats() and the deployment log.

// Verdict classifies one bounded convergence run.
type Verdict string

const (
	// VerdictConverged: the control plane reached a fixed point.
	VerdictConverged Verdict = "converged"
	// VerdictOscillating: a state repeated with a stable period — an RFC
	// 3345-class persistent oscillation, more rounds will not help.
	VerdictOscillating Verdict = "oscillating"
	// VerdictStarved: the round budget ran out with no detected cycle —
	// the run may merely need a larger budget.
	VerdictStarved Verdict = "starved"
	// VerdictPartitioned: the run reached a fixed point but the session
	// graph has more than one component — speakers exist that can never
	// hear each other's routes. Structural, not recoverable by the ladder.
	VerdictPartitioned Verdict = "partitioned"
	// VerdictCancelled: the budget's wall-clock timeout expired first.
	VerdictCancelled Verdict = "cancelled"
)

// Classify maps a BGP run outcome plus the session-graph component count
// onto a verdict. components <= 1 means the session graph is connected (a
// zero-speaker lab is trivially connected).
func Classify(res routing.BGPResult, components int) Verdict {
	switch {
	case res.Cancelled:
		return VerdictCancelled
	case res.Converged && components > 1:
		return VerdictPartitioned
	case res.Converged:
		return VerdictConverged
	case res.CycleLen > 0:
		return VerdictOscillating
	default:
		return VerdictStarved
	}
}

// Recoverable reports whether the escalation ladder can plausibly improve
// the verdict: oscillation and starvation are worth escalating; a
// partition is structural and a cancellation means the wall clock, not
// the protocol, gave out.
func (v Verdict) Recoverable() bool {
	return v == VerdictOscillating || v == VerdictStarved
}

// --- Lab supervision hooks -------------------------------------------------

// SetPerturber installs a control-plane perturbation layer on the lab: all
// subsequent (re)convergences thread it into the OSPF/IS-IS/BGP engines.
// nil restores the zero-perturbation fast path. The same perturber is
// shared across reconvergences; each engine run calls its Reset, so the
// scripted schedule replays identically every time.
func (l *Lab) SetPerturber(p *routing.ScheduledPerturber) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pert = p
}

// Perturber returns the currently installed perturbation layer (nil when
// the control plane is perfect).
func (l *Lab) Perturber() *routing.ScheduledPerturber {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.pert
}

// RebuildDataplane derives a new network generation from the converged
// engines as they stand: the last step of a converge on its own, which is
// how benchmarks time the data-plane layer.
func (l *Lab) RebuildDataplane() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.started || l.net == nil {
		return fmt.Errorf("emul: lab has no data plane to rebuild")
	}
	return l.buildDataplane(l.liveDevices())
}

// FlappingSessions exposes the engine's session up↔down transition log:
// the unordered speaker pairs whose session flapped at least min times
// during the most recent run, sorted.
func (l *Lab) FlappingSessions(min int) [][2]string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.bgp == nil {
		return nil
	}
	return l.bgp.FlappingSessions(min)
}

// UnstableSpeakers lists the speakers whose best-route selection changed
// within the last window rounds of the most recent run, sorted.
func (l *Lab) UnstableSpeakers(window int) []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.bgp == nil {
		return nil
	}
	return l.bgp.UnstableSpeakers(window)
}

// TotalChurn counts the best-route changes of the most recent convergence,
// over all prefixes and speakers.
func (l *Lab) TotalChurn() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.bgp == nil {
		return 0
	}
	return l.bgp.TotalChurn()
}

// SessionComponents counts connected components of the established BGP
// session graph (1 = connected; more = control-plane partition).
func (l *Lab) SessionComponents() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.bgp == nil {
		return 0
	}
	return l.bgp.SessionComponents()
}

// LiveVMNames lists the machines currently part of the running topology
// (excluding quarantined ones), in lab order.
func (l *Lab) LiveVMNames() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []string
	for _, name := range l.order {
		if l.vms[name].Config != nil {
			out = append(out, name)
		}
	}
	return out
}

// Verdict classifies the lab's most recent convergence outcome.
func (l *Lab) Verdict() Verdict {
	l.mu.RLock()
	defer l.mu.RUnlock()
	comp := 0
	if l.bgp != nil {
		comp = l.bgp.SessionComponents()
	}
	return Classify(l.bgpResult, comp)
}

// --- The watchdog ----------------------------------------------------------

// Watchdog supervises a lab's convergence and self-heals on failure. The
// zero value is usable: it reads the budget from the lab and applies the
// default escalation factor and flap threshold.
type Watchdog struct {
	// Budget is the base convergence budget; the zero value adopts the
	// lab's current budget.
	Budget routing.ConvergenceBudget
	// EscalateFactor multiplies the round budget on the first rung
	// (default 4, minimum 2).
	EscalateFactor int
	// FlapThreshold is the minimum session up↔down transition count that
	// marks a session as flapping (default 3).
	FlapThreshold int
	// Obs, when non-nil, receives the watchdog_* counters.
	Obs *obs.Collector
	// OnEvent, when non-nil, receives one call per ladder rung — the
	// deploy layer bridges these into its event stream.
	OnEvent func(action, detail string)
}

// EscalationStep is one rung of the ladder, as climbed.
type EscalationStep struct {
	// Action is "observe", "escalate-budget", "soft-reset" or "quarantine".
	Action string
	// Targets are the speakers the rung acted on (nil for the first two).
	Targets []string
	// Verdict classifies the convergence outcome after the rung.
	Verdict Verdict
	// Rounds is the number of rounds the rung's BGP run took.
	Rounds int
	// Detail is the budget's one-line description of the outcome.
	Detail string
	// Incident is the id of the most recently injected incident when this
	// rung ran (Lab.LastIncidentID), 0 when no incident preceded it — the
	// escalation's trigger, for incident-to-recovery attribution in reports.
	Incident int
}

// String renders the step as one stable line for reports and goldens.
func (s EscalationStep) String() string {
	tag := ""
	if s.Incident > 0 {
		tag = fmt.Sprintf(" [incident #%d]", s.Incident)
	}
	if len(s.Targets) == 0 {
		return fmt.Sprintf("%s%s: %s (%s)", s.Action, tag, s.Verdict, s.Detail)
	}
	return fmt.Sprintf("%s%s [%s]: %s (%s)", s.Action, tag, strings.Join(s.Targets, ", "), s.Verdict, s.Detail)
}

// SupervisionReport is the full ladder one Supervise call climbed.
type SupervisionReport struct {
	Steps []EscalationStep
	// Final is the verdict after the last rung.
	Final Verdict
	// Recovered reports that a non-converged lab reached VerdictConverged
	// through at least one escalation.
	Recovered bool
	// Quarantined lists the devices the ladder removed, sorted.
	Quarantined []string
}

// Escalations counts the rungs climbed beyond the initial observation.
func (r SupervisionReport) Escalations() int {
	if len(r.Steps) == 0 {
		return 0
	}
	return len(r.Steps) - 1
}

// Describe renders the report as one line per rung.
func (r SupervisionReport) Describe() string {
	var sb strings.Builder
	for _, s := range r.Steps {
		fmt.Fprintf(&sb, "watchdog %s\n", s)
	}
	return sb.String()
}

// Supervise classifies the lab's current convergence outcome and, when the
// verdict is recoverable (oscillating or starved), climbs the escalation
// ladder until the lab converges or the rungs run out. The lab's budget is
// restored to the base budget on return; the engines keep whatever state
// the last rung produced.
func (w *Watchdog) Supervise(lab *Lab) (SupervisionReport, error) {
	w.Obs.Add(obs.CounterWatchdogRuns, 1)
	base := w.Budget
	if base == (routing.ConvergenceBudget{}) {
		base = lab.Budget()
	}
	defer lab.SetBudget(base)

	rep := SupervisionReport{}
	cur := base
	observe := func(action string, targets []string, res routing.BGPResult) Verdict {
		v := Classify(res, lab.SessionComponents())
		step := EscalationStep{Action: action, Targets: targets, Verdict: v,
			Rounds: res.Rounds, Detail: cur.Describe(res), Incident: lab.LastIncidentID()}
		rep.Steps = append(rep.Steps, step)
		rep.Final = v
		if w.OnEvent != nil {
			w.OnEvent(action, step.String())
		}
		return v
	}

	v := observe("observe", nil, lab.BGPResult())
	if !v.Recoverable() {
		return rep, nil
	}

	// Rung 1: maybe the run was merely starved — run on with a larger
	// round budget. (Also re-runs oscillators: the larger budget costs
	// little and double-checks the cycle verdict.)
	cur = base.Escalated(w.factor())
	w.Obs.Add(obs.CounterWatchdogBudgetEscalations, 1)
	res, err := lab.Apply(Change{Budget: &cur})
	if err != nil {
		return rep, err
	}
	if v = observe("escalate-budget", nil, res); !v.Recoverable() {
		w.noteRecovery(&rep, v)
		return rep, nil
	}

	// Rung 2: soft-reset the speakers implicated by the engine's own
	// adjacency-change log (fall back to selection-unstable speakers, then
	// to everyone — a full `clear ip bgp *`).
	targets := w.resetTargets(lab, res)
	w.Obs.Add(obs.CounterWatchdogSoftResets, 1)
	res, err = lab.Apply(Change{SoftReset: targets})
	if err != nil {
		return rep, err
	}
	if v = observe("soft-reset", targets, res); !v.Recoverable() {
		w.noteRecovery(&rep, v)
		return rep, nil
	}

	// Rung 3: quarantine the persistently sick speakers — a greedy cover
	// of the flapping sessions — and re-converge the survivors.
	victims := w.quarantineVictims(lab, res)
	if len(victims) == 0 {
		return rep, nil
	}
	w.Obs.Add(obs.CounterWatchdogQuarantines, int64(len(victims)))
	res, err = lab.Apply(Change{Quarantine: victims, Reason: "persistent oscillation"})
	if err != nil {
		return rep, err
	}
	rep.Quarantined = append(rep.Quarantined, victims...)
	sort.Strings(rep.Quarantined)
	v = observe("quarantine", victims, res)
	w.noteRecovery(&rep, v)
	return rep, nil
}

func (w *Watchdog) noteRecovery(rep *SupervisionReport, v Verdict) {
	if v == VerdictConverged {
		rep.Recovered = true
		w.Obs.Add(obs.CounterWatchdogRecovered, 1)
	}
}

func (w *Watchdog) factor() int {
	if w.EscalateFactor < 2 {
		return 4
	}
	return w.EscalateFactor
}

func (w *Watchdog) flapMin() int {
	if w.FlapThreshold < 1 {
		return 3
	}
	return w.FlapThreshold
}

// churnWindow sizes the unstable-speaker lookback from the detected cycle
// (a full period plus one round), defaulting to 2.
func churnWindow(res routing.BGPResult) int {
	if res.CycleLen > 1 {
		return res.CycleLen + 1
	}
	return 2
}

// resetTargets picks the speakers to soft-reset: the endpoints of every
// flapping session, else the selection-unstable speakers, else everyone.
func (w *Watchdog) resetTargets(lab *Lab, res routing.BGPResult) []string {
	seen := map[string]bool{}
	var out []string
	for _, pair := range lab.FlappingSessions(w.flapMin()) {
		for _, h := range pair {
			if !seen[h] {
				seen[h] = true
				out = append(out, h)
			}
		}
	}
	if len(out) > 0 {
		sort.Strings(out)
		return out
	}
	if unstable := lab.UnstableSpeakers(churnWindow(res)); len(unstable) > 0 {
		return unstable
	}
	return lab.LiveVMNames()
}

// quarantineVictims picks the machines to remove: a greedy cover of the
// flapping sessions (most-implicated host first, ties lexicographic),
// falling back to the first selection-unstable speaker. Empty when nothing
// is implicated — the ladder then gives up rather than guess.
func (w *Watchdog) quarantineVictims(lab *Lab, res routing.BGPResult) []string {
	flaps := lab.FlappingSessions(w.flapMin())
	if len(flaps) == 0 {
		if unstable := lab.UnstableSpeakers(churnWindow(res)); len(unstable) > 0 {
			return unstable[:1]
		}
		return nil
	}
	var victims []string
	uncovered := flaps
	for len(uncovered) > 0 {
		count := map[string]int{}
		for _, pair := range uncovered {
			count[pair[0]]++
			count[pair[1]]++
		}
		best := ""
		for h, n := range count {
			if best == "" || n > count[best] || (n == count[best] && h < best) {
				best = h
			}
		}
		victims = append(victims, best)
		var rest [][2]string
		for _, pair := range uncovered {
			if pair[0] != best && pair[1] != best {
				rest = append(rest, pair)
			}
		}
		uncovered = rest
	}
	sort.Strings(victims)
	return victims
}
