// Package chaos executes declarative fault-injection scenarios against a
// booted emulated lab — the paper's §8 "what-if" experimentation made
// scriptable and verifiable. A scenario is an ordered list of steps
// (fail-link, fail-node, restore-link, restore-node, flap, partition,
// check); the engine runs each step under a bounded convergence budget,
// measures the resulting reachability matrix through the measurement
// client, diffs it against the pre-incident baseline, and accumulates a
// structured resilience report (reusing the verify package's
// severity/finding vocabulary). Non-converging steps terminate with a
// detected oscillation finding instead of hanging; a fully restored lab is
// asserted identical to its pre-incident state.
package chaos

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"autonetkit/internal/emul"
	"autonetkit/internal/routing"
)

// Op is one scenario step kind.
type Op string

// Scenario step operations.
const (
	OpFailLink    Op = "fail-link"
	OpFailNode    Op = "fail-node"
	OpRestoreLink Op = "restore-link"
	OpRestoreNode Op = "restore-node"
	OpFlap        Op = "flap"
	OpPartition   Op = "partition"
	OpCheck       Op = "check"
	// OpPerturb installs (or, with a nil Rule, clears) a control-plane
	// perturbation rule and re-converges under it.
	OpPerturb Op = "perturb"
	// OpFailHost hard-fails a substrate host through the attached host
	// controller: its VMs go dark, re-place onto surviving capacity, and
	// re-boot (a visible outage window).
	OpFailHost Op = "fail-host"
	// OpDrainHost live-drains a substrate host through the attached host
	// controller: its VMs move to surviving capacity with no outage.
	OpDrainHost Op = "drain-host"
	// OpCrashSched kills and recovers the durable scheduler through the
	// attached host controller: the journal closes mid-flight and a fresh scheduler replays it, asserting
	// byte-identical state. The lab itself never stops.
	OpCrashSched Op = "crash-sched"
	// OpSilenceHost makes a substrate host stop answering entirely (no
	// probe errors, just silence) through the attached host controller:
	// its lease expires, its VMs go dark and re-place onto surviving
	// capacity.
	OpSilenceHost Op = "silence-host"
	// OpFlakyHost sets a deterministic migration-failure rate for moves
	// onto a substrate host through the attached host controller. Rate 0
	// clears it.
	OpFlakyHost Op = "flaky-host"
)

// CheckMode selects what a check step asserts.
type CheckMode string

// Check modes.
const (
	// CheckObserve records the matrix and reports drift from the baseline
	// as warnings (informational).
	CheckObserve CheckMode = "observe"
	// CheckBaseline asserts the matrix equals the pre-scenario baseline.
	CheckBaseline CheckMode = "baseline"
	// CheckReachable asserts A reaches B.
	CheckReachable CheckMode = "reachable"
	// CheckUnreachable asserts A does not reach B.
	CheckUnreachable CheckMode = "unreachable"
	// CheckConverged asserts the most recent convergence reached a fixed
	// point, optionally within Step.Within engine rounds.
	CheckConverged CheckMode = "converged"
	// CheckReservation asserts a scheduler reservation (Step.A) is in the
	// given state (Step.B): active, queued, degraded, or preempted,
	// through the attached host controller.
	CheckReservation CheckMode = "reservation"
)

// Step is one scenario entry.
type Step struct {
	Op    Op
	A, B  string   // link endpoints / check pair
	Node  string   // fail-node, restore-node target
	Nodes []string // partition group
	Times int      // flap repetitions (>= 1)
	Check CheckMode
	// Within bounds a `check converged` assertion: the run must have
	// reached its fixed point within this many rounds (0 = any).
	Within int
	// Rate is a flaky-host step's scheduled migration-failure rate in
	// [0,1] (0 clears the schedule).
	Rate float64
	// Rule is the perturbation a perturb step adds; nil means clear all.
	Rule *routing.PerturbRule
	// MaxBGPRounds is this step's convergence budget (0 = the engine
	// default).
	MaxBGPRounds int
}

// String renders the step in scenario-file syntax.
func (s Step) String() string {
	switch s.Op {
	case OpFailLink, OpRestoreLink:
		return fmt.Sprintf("%s %s %s", s.Op, s.A, s.B)
	case OpFailNode, OpRestoreNode:
		return fmt.Sprintf("%s %s", s.Op, s.Node)
	case OpFailHost, OpDrainHost, OpSilenceHost:
		return fmt.Sprintf("%s %s", s.Op, s.Node)
	case OpFlakyHost:
		return fmt.Sprintf("%s %s %.2f", s.Op, s.Node, s.Rate)
	case OpFlap:
		return fmt.Sprintf("%s %s %s %d", s.Op, s.A, s.B, s.Times)
	case OpPartition:
		return fmt.Sprintf("%s %s", s.Op, strings.Join(s.Nodes, " "))
	case OpPerturb:
		if s.Rule == nil {
			return "perturb clear"
		}
		return s.Rule.String()
	case OpCheck:
		switch s.Check {
		case CheckReachable, CheckUnreachable:
			return fmt.Sprintf("check %s %s %s", s.Check, s.A, s.B)
		case CheckBaseline:
			return "check baseline"
		case CheckConverged:
			if s.Within > 0 {
				return fmt.Sprintf("check converged within %d", s.Within)
			}
			return "check converged"
		case CheckReservation:
			return fmt.Sprintf("check reservation %s %s", s.A, s.B)
		default:
			return "check"
		}
	}
	return string(s.Op)
}

// Scenario is an ordered fault-injection script.
type Scenario struct {
	Name  string
	Steps []Step
	// Seed drives the control-plane perturbation schedule; Seeded records
	// that the script set one (which also turns on watchdog supervision).
	Seed   uint64
	Seeded bool
}

// ParseScenario reads the line-oriented scenario format:
//
//	# comment
//	name <label>                # optional scenario name
//	budget <rounds>             # BGP budget for subsequent steps
//	seed <n>                    # perturbation seed; enables supervision
//	fail-link A B
//	fail-node N
//	restore-link A B
//	restore-node N
//	fail-host H                 # substrate host failure (host controller)
//	drain-host H                # live-drain a substrate host
//	silence-host H              # host goes silent; lease expiry re-places its VMs
//	flaky-host H <rate>         # scheduled migration-failure rate onto H (0..1)
//	crash-sched                 # kill + recover the durable scheduler
//	flap A B <times>
//	partition N1 [N2 ...]
//	perturb loss <pct> [on A:B] # control-plane rules; see ParsePerturb
//	perturb delay <rounds> [on A:B]
//	perturb flap A:B every <n> [recover]
//	perturb clear               # remove all perturbation rules
//	check                       # observe: warn on drift from baseline
//	check baseline              # assert matrix == pre-scenario baseline
//	check reachable A B
//	check unreachable A B
//	check converged [within <rounds>]
//	check reservation <name> <state>  # active, queued, degraded, preempted
//
// The parser runs in error-recovery mode: a malformed line is recorded as
// an emul.Diagnostic (with its line number and offending token) and
// parsing continues, so one pass reports every problem in the script. The
// scenario is runnable only when the diagnostics carry no errors
// (Diagnostics.HasErrors() == false).
func ParseScenario(r io.Reader) (Scenario, emul.Diagnostics) {
	return ParseScenarioFile(r, "scenario")
}

// ParseScenarioFile parses a scenario, attributing diagnostics to the
// given file name (shown in `file:line: message` reports).
func ParseScenarioFile(r io.Reader, file string) (Scenario, emul.Diagnostics) {
	var sc Scenario
	var diags emul.Diagnostics
	budget := 0
	scan := bufio.NewScanner(r)
	lineno := 0
	for scan.Scan() {
		lineno++
		line := strings.TrimSpace(scan.Text())
		if i := strings.Index(line, "#"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		op, args := fields[0], fields[1:]
		bad := func(format string, a ...any) {
			diags = append(diags, emul.Diagnostic{
				Severity: emul.SevError, File: file, Line: lineno,
				Message: fmt.Sprintf(format, a...),
			})
		}
		switch op {
		case "name":
			if len(args) == 0 {
				bad("name needs a label")
				continue
			}
			sc.Name = strings.Join(args, " ")
		case "budget":
			// A malformed budget is rejected outright (it must NOT silently
			// become zero — zero means "engine default", which would mask a
			// typo'd bound); subsequent steps keep the previous budget.
			if len(args) != 1 {
				bad("budget needs one integer, got %q", strings.Join(args, " "))
				continue
			}
			n, err := strconv.Atoi(args[0])
			if err != nil || n < 0 {
				bad("bad budget %q", args[0])
				continue
			}
			budget = n
		case "seed":
			if len(args) != 1 {
				bad("seed needs one integer, got %q", strings.Join(args, " "))
				continue
			}
			n, err := strconv.ParseUint(args[0], 10, 64)
			if err != nil {
				bad("bad seed %q", args[0])
				continue
			}
			sc.Seed, sc.Seeded = n, true
		case string(OpPerturb):
			if len(args) == 1 && args[0] == "clear" {
				sc.Steps = append(sc.Steps, Step{Op: OpPerturb, MaxBGPRounds: budget})
				continue
			}
			rule, err := ParsePerturb(strings.Join(args, " "))
			if err != nil {
				bad("%v", err)
				continue
			}
			sc.Steps = append(sc.Steps, Step{Op: OpPerturb, Rule: &rule, MaxBGPRounds: budget})
		case string(OpFailLink), string(OpRestoreLink):
			if len(args) != 2 {
				bad("%s needs two machine names, got %q", op, strings.Join(args, " "))
				continue
			}
			sc.Steps = append(sc.Steps, Step{Op: Op(op), A: args[0], B: args[1], MaxBGPRounds: budget})
		case string(OpFailNode), string(OpRestoreNode):
			if len(args) != 1 {
				bad("%s needs one machine name, got %q", op, strings.Join(args, " "))
				continue
			}
			sc.Steps = append(sc.Steps, Step{Op: Op(op), Node: args[0], MaxBGPRounds: budget})
		case string(OpFailHost), string(OpDrainHost), string(OpSilenceHost):
			if len(args) != 1 {
				bad("%s needs one substrate host name, got %q", op, strings.Join(args, " "))
				continue
			}
			sc.Steps = append(sc.Steps, Step{Op: Op(op), Node: args[0], MaxBGPRounds: budget})
		case string(OpFlakyHost):
			if len(args) != 2 {
				bad("flaky-host needs <host> <rate>, got %q", strings.Join(args, " "))
				continue
			}
			rate, err := strconv.ParseFloat(args[1], 64)
			if err != nil || rate < 0 || rate > 1 {
				bad("bad flaky-host rate %q (want 0..1)", args[1])
				continue
			}
			sc.Steps = append(sc.Steps, Step{Op: OpFlakyHost, Node: args[0], Rate: rate, MaxBGPRounds: budget})
		case string(OpCrashSched):
			if len(args) != 0 {
				bad("crash-sched takes no arguments, got %q", strings.Join(args, " "))
				continue
			}
			sc.Steps = append(sc.Steps, Step{Op: OpCrashSched, MaxBGPRounds: budget})
		case string(OpFlap):
			if len(args) != 3 {
				bad("flap needs A B <times>, got %q", strings.Join(args, " "))
				continue
			}
			n, err := strconv.Atoi(args[2])
			if err != nil || n < 1 {
				bad("bad flap count %q", args[2])
				continue
			}
			sc.Steps = append(sc.Steps, Step{Op: OpFlap, A: args[0], B: args[1], Times: n, MaxBGPRounds: budget})
		case string(OpPartition):
			if len(args) == 0 {
				bad("partition needs at least one machine name")
				continue
			}
			sc.Steps = append(sc.Steps, Step{Op: OpPartition, Nodes: args, MaxBGPRounds: budget})
		case string(OpCheck):
			st := Step{Op: OpCheck, Check: CheckObserve, MaxBGPRounds: budget}
			if len(args) > 0 {
				switch CheckMode(args[0]) {
				case CheckBaseline:
					if len(args) != 1 {
						bad("check baseline takes no arguments, got %q", strings.Join(args[1:], " "))
						continue
					}
					st.Check = CheckBaseline
				case CheckReachable, CheckUnreachable:
					if len(args) != 3 {
						bad("check %s needs two machine names, got %q", args[0], strings.Join(args[1:], " "))
						continue
					}
					st.Check = CheckMode(args[0])
					st.A, st.B = args[1], args[2]
				case CheckConverged:
					st.Check = CheckConverged
					switch {
					case len(args) == 1:
					case len(args) == 3 && args[1] == "within":
						n, err := strconv.Atoi(args[2])
						if err != nil || n < 1 {
							bad("bad converged bound %q", args[2])
							continue
						}
						st.Within = n
					default:
						bad("check converged takes [within <rounds>], got %q", strings.Join(args[1:], " "))
						continue
					}
				case CheckReservation:
					if len(args) != 3 {
						bad("check reservation needs <name> <state>, got %q", strings.Join(args[1:], " "))
						continue
					}
					switch args[2] {
					case "active", "queued", "degraded", "preempted":
					default:
						bad("unknown reservation state %q (want active, queued, degraded, or preempted)", args[2])
						continue
					}
					st.Check = CheckReservation
					st.A, st.B = args[1], args[2]
				default:
					bad("unknown check mode %q", args[0])
					continue
				}
			}
			sc.Steps = append(sc.Steps, st)
		default:
			bad("unknown operation %q", op)
		}
	}
	if err := scan.Err(); err != nil {
		diags = append(diags, emul.Diagnostic{
			Severity: emul.SevError, File: file, Message: fmt.Sprintf("reading scenario: %v", err),
		})
	}
	if len(sc.Steps) == 0 && !diags.HasErrors() {
		diags = append(diags, emul.Diagnostic{
			Severity: emul.SevError, File: file, Message: "scenario has no steps",
		})
	}
	return sc, diags
}
