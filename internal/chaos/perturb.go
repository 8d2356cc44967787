package chaos

import (
	"fmt"
	"strconv"
	"strings"

	"autonetkit/internal/routing"
)

// The perturb directive grammar (everything after the "perturb" keyword):
//
//	loss <pct> [on A:B]         # drop each route with probability pct%
//	delay <rounds> [on A:B]     # deliver the snapshot from N rounds ago
//	flap A:B every <n> [recover]# session alternates up/down every n rounds
//	corrupt [A:B] at <r> for <n># poison AS paths in rounds [r, r+n)
//
// A session is named A:B (unordered endpoints); omitting it applies the
// rule to every session. `perturb clear` (handled by the scenario parser,
// not here) removes all rules. Rendering a parsed rule with its String
// method round-trips to this syntax.

// Bounds on numeric rule parameters, so a fuzzed or typo'd script cannot
// schedule absurd work (a 10^9-round delay queue, say).
const (
	maxPerturbRounds = 1000
	maxPerturbPct    = 100
)

// ParsePerturb parses one perturbation rule from the text after the
// "perturb" keyword.
func ParsePerturb(s string) (routing.PerturbRule, error) {
	var rule routing.PerturbRule
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return rule, fmt.Errorf("perturb needs a rule (loss, delay, flap, corrupt)")
	}
	kind, args := routing.PerturbKind(fields[0]), fields[1:]
	rule.Kind = kind
	switch kind {
	case routing.PerturbLoss:
		if len(args) == 0 {
			return rule, fmt.Errorf("perturb %s needs a percentage", kind)
		}
		pct, err := parseBounded(args[0], 1, maxPerturbPct)
		if err != nil {
			return rule, fmt.Errorf("bad %s percentage %q", kind, args[0])
		}
		rule.Pct = pct
		return rule, parseOnSession(&rule, args[1:])
	case routing.PerturbDelay:
		if len(args) == 0 {
			return rule, fmt.Errorf("perturb delay needs a round count")
		}
		n, err := parseBounded(args[0], 1, maxPerturbRounds)
		if err != nil {
			return rule, fmt.Errorf("bad delay rounds %q", args[0])
		}
		rule.Rounds = n
		return rule, parseOnSession(&rule, args[1:])
	case routing.PerturbFlap:
		// flap A:B every <n> [recover]
		if len(args) < 3 || args[1] != "every" {
			return rule, fmt.Errorf("perturb flap needs A:B every <n>, got %q", strings.Join(args, " "))
		}
		a, b, err := parseSession(args[0])
		if err != nil {
			return rule, err
		}
		rule.A, rule.B = a, b
		n, err := parseBounded(args[2], 1, maxPerturbRounds)
		if err != nil {
			return rule, fmt.Errorf("bad flap period %q", args[2])
		}
		rule.Every = n
		switch {
		case len(args) == 3:
		case len(args) == 4 && args[3] == "recover":
			rule.Recover = true
		default:
			return rule, fmt.Errorf("perturb flap: unexpected %q", strings.Join(args[3:], " "))
		}
		return rule, nil
	case routing.PerturbCorrupt:
		// corrupt [A:B] at <r> for <n>
		if len(args) > 0 && args[0] != "at" {
			a, b, err := parseSession(args[0])
			if err != nil {
				return rule, err
			}
			rule.A, rule.B = a, b
			args = args[1:]
		}
		if len(args) != 4 || args[0] != "at" || args[2] != "for" {
			return rule, fmt.Errorf("perturb corrupt needs [A:B] at <round> for <rounds>, got %q", strings.Join(args, " "))
		}
		at, err := parseBounded(args[1], 0, maxPerturbRounds)
		if err != nil {
			return rule, fmt.Errorf("bad corrupt start %q", args[1])
		}
		dur, err := parseBounded(args[3], 1, maxPerturbRounds)
		if err != nil {
			return rule, fmt.Errorf("bad corrupt duration %q", args[3])
		}
		rule.At, rule.For = at, dur
		return rule, nil
	}
	return rule, fmt.Errorf("unknown perturbation %q", fields[0])
}

// parseOnSession consumes an optional trailing "on A:B".
func parseOnSession(rule *routing.PerturbRule, args []string) error {
	switch {
	case len(args) == 0:
		return nil
	case len(args) == 2 && args[0] == "on":
		a, b, err := parseSession(args[1])
		if err != nil {
			return err
		}
		rule.A, rule.B = a, b
		return nil
	}
	return fmt.Errorf("perturb %s: expected [on A:B], got %q", rule.Kind, strings.Join(args, " "))
}

// parseSession splits an A:B session token.
func parseSession(tok string) (string, string, error) {
	a, b, ok := strings.Cut(tok, ":")
	if !ok || a == "" || b == "" || strings.Contains(b, ":") {
		return "", "", fmt.Errorf("bad session %q (want A:B)", tok)
	}
	if a == b {
		return "", "", fmt.Errorf("bad session %q (endpoints must differ)", tok)
	}
	return a, b, nil
}

func parseBounded(tok string, lo, hi int) (int, error) {
	n, err := strconv.Atoi(tok)
	if err != nil || n < lo || n > hi {
		return 0, fmt.Errorf("out of range")
	}
	return n, nil
}
