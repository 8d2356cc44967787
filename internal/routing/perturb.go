package routing

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strconv"
	"strings"
)

// Control-plane perturbation (Emulytics-style protocol-level fault
// injection): the BGP engine's advertisement exchange and the link-state
// engine's adjacency formation consult an injected ScheduledPerturber, so
// scenarios can degrade the control plane itself — lose and delay
// advertisements, flap sessions mid-convergence, corrupt and then withdraw
// routes — instead of only failing topology elements. Every decision is a
// pure function of (seed, round, session, route), so a given seed
// reproduces the exact same failure byte-for-byte at any worker count; a
// nil perturber is the zero-perturbation fast path and leaves the engines
// exactly as they were.

// PerturbKind enumerates the rule types of the scheduled perturber.
type PerturbKind string

// The perturbation rule kinds.
const (
	PerturbLoss    PerturbKind = "loss"    // lose each UPDATE with probability Pct% (receiver keeps last-heard state)
	PerturbDelay   PerturbKind = "delay"   // deliver the table snapshot from Rounds rounds ago
	PerturbFlap    PerturbKind = "flap"    // session alternates up/down with period Every
	PerturbCorrupt PerturbKind = "corrupt" // poison AS paths during [At, At+For), then withdraw
)

// PerturbRule is one scheduled perturbation. A and B name the affected
// session's endpoints (both directions); both empty means every session.
type PerturbRule struct {
	Kind PerturbKind
	A, B string
	// Pct is the per-route probability in percent (loss).
	Pct int
	// Rounds is the delivery delay in engine rounds (delay).
	Rounds int
	// Every is the flap half-period: the session is up for Every rounds,
	// down for Every rounds (flap).
	Every int
	// At and For bound the corruption window [At, At+For) in rounds
	// (corrupt).
	At, For int
	// Recover marks a flap as session-state-local: a supervisor soft reset
	// of either endpoint repairs it. Without it the fault persists and the
	// escalation ladder ends in quarantine.
	Recover bool
}

// String renders the rule in chaos-script syntax.
func (r PerturbRule) String() string {
	session := ""
	if r.A != "" {
		session = r.A + ":" + r.B
	}
	switch r.Kind {
	case PerturbLoss:
		if session == "" {
			return fmt.Sprintf("perturb %s %d", r.Kind, r.Pct)
		}
		return fmt.Sprintf("perturb %s %d on %s", r.Kind, r.Pct, session)
	case PerturbDelay:
		if session == "" {
			return fmt.Sprintf("perturb delay %d", r.Rounds)
		}
		return fmt.Sprintf("perturb delay %d on %s", r.Rounds, session)
	case PerturbFlap:
		s := fmt.Sprintf("perturb flap %s every %d", session, r.Every)
		if r.Recover {
			s += " recover"
		}
		return s
	case PerturbCorrupt:
		if session == "" {
			return fmt.Sprintf("perturb corrupt at %d for %d", r.At, r.For)
		}
		return fmt.Sprintf("perturb corrupt %s at %d for %d", session, r.At, r.For)
	}
	return "perturb " + string(r.Kind)
}

// matches reports whether the rule covers the (unordered) session a↔b.
func (r PerturbRule) matches(a, b string) bool {
	if r.A == "" && r.B == "" {
		return true
	}
	return (r.A == a && r.B == b) || (r.A == b && r.B == a)
}

// corruptASN is prepended (three times) to poisoned AS paths: a private
// ASN no lab topology uses, so the lengthened path loses the shortest-path
// comparison and selection visibly churns when the corruption withdraws.
const corruptASN = 65535

// maxPerturbEvents bounds the schedule log so a runaway scenario cannot
// grow it without bound; the cap is far above any budgeted run's output.
const maxPerturbEvents = 10000

// ScheduledPerturber is the control-plane perturbation layer the protocol
// engines consult at every delivery point: a rule list plus a seed. All
// randomness is a keyed FNV hash of (seed, round, session, route), never a
// stateful PRNG, so decisions do not depend on call order and the same seed
// reproduces the same schedule exactly. The engines call each hook under a
// single lock in a per-session-preserving order, so the state kept here
// (delay queues, flap tracking) evolves reproducibly; the sharded driver
// (shard.go) interleaves different sessions and restages the event lines
// it captured in sweep order (setCapture, restageEvents).
type ScheduledPerturber struct {
	seed  uint64
	rules []PerturbRule

	// snapshots[q] ring-buffers the recent deliveries one delay rule took
	// in on one direction, so stacked and disjoint delay rules each wait out
	// their own queues; sessionState[session] is the last SessionUp answer,
	// for flap transition counting. flapping is set once SessionUp has seen
	// a session an unhealed flap rule covers: it will go down again, so
	// Pending holds the run open.
	snapshots    map[ruleDir]map[int][]BGPRoute
	sessionState map[string]bool
	flapping     bool
	// delivered[{rule, dir}] is the last delivery a loss rule let through on
	// a direction, ascending by prefix — the receiver's view under
	// retransmission semantics (see the PerturbLoss case in Deliver). Each
	// stacked loss rule keeps its own, so they compose.
	// staleRound is the most recent round in which a loss substituted state
	// older than what the sender currently advertises; Pending holds
	// convergence open for it.
	delivered  map[ruleDir][]BGPRoute
	staleRound int
	// healed marks sessions repaired by a supervisor soft reset.
	healed map[string]bool

	events  []string
	dropped int
	// capture, when set, redirects logf into the pointed-at buffer instead
	// of the event log (bypassing the cap); the sharded round driver uses
	// it to collect per-delivery lines for canonical restaging at its merge
	// barrier.
	capture *[]string
}

// ruleDir names one rule's state on one direction: a delay rule's snapshot
// queue or a loss rule's last delivery.
type ruleDir struct {
	rule int // index into the rule list
	dir  string
}

// NewScheduledPerturber builds a perturber over the given rules. The same
// (seed, rules) always produces the same schedule.
func NewScheduledPerturber(seed uint64, rules []PerturbRule) *ScheduledPerturber {
	p := &ScheduledPerturber{seed: seed, rules: append([]PerturbRule(nil), rules...)}
	p.Reset()
	return p
}

// Seed returns the perturber's seed.
func (p *ScheduledPerturber) Seed() uint64 { return p.seed }

// Reset clears round-keyed delivery state (delay queues, loss views,
// session-state tracking). The BGP engine calls it at the start of every
// Run, so a re-run replays the same schedule from round zero. Healed
// sessions stay healed (a soft reset is a repair, not a reboot of the
// fault).
func (p *ScheduledPerturber) Reset() {
	p.snapshots = map[ruleDir]map[int][]BGPRoute{}
	p.sessionState = map[string]bool{}
	p.flapping = false
	p.delivered = map[ruleDir][]BGPRoute{}
	p.staleRound = -1
	if p.healed == nil {
		p.healed = map[string]bool{}
	}
}

// Events returns the perturbation schedule as executed so far: one line
// per delivery-altering decision, in engine order — the byte-reproducible
// record the golden drills diff.
func (p *ScheduledPerturber) Events() []string {
	out := make([]string, len(p.events))
	copy(out, p.events)
	if p.dropped > 0 {
		out = append(out, fmt.Sprintf("(%d further events truncated)", p.dropped))
	}
	return out
}

func (p *ScheduledPerturber) logf(format string, args ...any) {
	if p.capture != nil {
		*p.capture = append(*p.capture, fmt.Sprintf(format, args...))
		return
	}
	if len(p.events) >= maxPerturbEvents {
		p.dropped++
		return
	}
	p.events = append(p.events, fmt.Sprintf(format, args...))
}

// setCapture redirects event lines into buf while it is non-nil, so a
// turn can hand them to the round driver for restaging in sweep order; nil
// restores normal logging.
func (p *ScheduledPerturber) setCapture(buf *[]string) { p.capture = buf }

// restageEvents appends previously captured lines to the event log through
// the normal cap-respecting path, so a sharded run's log — including any
// truncation — is byte-identical to the sequential one.
func (p *ScheduledPerturber) restageEvents(lines []string) {
	for _, l := range lines {
		if len(p.events) >= maxPerturbEvents {
			p.dropped++
			continue
		}
		p.events = append(p.events, l)
	}
}

// hash mixes the seed with the given strings through FNV-1a; the result
// drives every probabilistic decision.
func (p *ScheduledPerturber) hash(parts ...string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", p.seed)
	for _, s := range parts {
		h.Write([]byte{0})
		h.Write([]byte(s))
	}
	return h.Sum64()
}

// chance reports a hit with probability pct% for the given key material.
func (p *ScheduledPerturber) chance(pct int, parts ...string) bool {
	if pct <= 0 {
		return false
	}
	if pct >= 100 {
		return true
	}
	return p.hash(parts...)%100 < uint64(pct)
}

// lossKey appends to key what tells a loss rule's draws apart: nothing for
// the first loss rule in the list, so a single rule keeps its schedule, and
// the rule index for every later one, so stacked rules draw independently.
func (p *ScheduledPerturber) lossKey(rule int, key ...string) []string {
	if slices.IndexFunc(p.rules, func(r PerturbRule) bool { return r.Kind == PerturbLoss }) < rule {
		key = append(key, "rule "+strconv.Itoa(rule))
	}
	return key
}

func sessionKey(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return a + ":" + b
}

// SessionUp reports whether the BGP session from → to delivers during this
// round; a down session delivers nothing (the receiver withdraws everything
// heard on it). Flap rules alternate the session Every rounds up, Every
// rounds down; healed sessions stay up.
func (p *ScheduledPerturber) SessionUp(round int, from, to string) bool {
	key := sessionKey(from, to)
	up := true
	for _, r := range p.rules {
		if r.Kind != PerturbFlap || !r.matches(from, to) || p.healed[key] {
			continue
		}
		every := r.Every
		if every < 1 {
			every = 1
		}
		p.flapping = true
		if (round/every)%2 == 1 {
			up = false
		}
	}
	if prev, seen := p.sessionState[key]; !seen || prev != up {
		p.sessionState[key] = up
		if !up {
			p.logf("round %d: session %s down (flap)", round, key)
		} else if seen {
			p.logf("round %d: session %s up (flap)", round, key)
		}
	}
	return up
}

// AdjacencyUp applies loss rules to IGP adjacency formation: a lossy link
// drops hellos, and past the hash threshold the adjacency never forms for
// the run. The decision is round-independent (link-state engines compute
// the converged SPF state in one pass).
func (p *ScheduledPerturber) AdjacencyUp(a, b string) bool {
	for i, r := range p.rules {
		if r.Kind == PerturbLoss && r.matches(a, b) && p.chance(r.Pct, p.lossKey(i, "adjacency", sessionKey(a, b))...) {
			p.logf("adjacency %s suppressed (loss)", sessionKey(a, b))
			return false
		}
	}
	return true
}

// Deliver applies loss, corrupt and delay rules, in rule order, to the
// advertisements sent from → to this round. Each keeps the delivery's
// contract: prefix order kept, at most one route per prefix. The input
// slice is neither retained nor mutated, and comes back unchanged when no
// rule applies.
func (p *ScheduledPerturber) Deliver(round int, from, to string, routes []BGPRoute) []BGPRoute {
	out := routes
	dir := from + ">" + to
	for i, r := range p.rules {
		if !r.matches(from, to) {
			continue
		}
		switch r.Kind {
		case PerturbLoss:
			// Retransmission semantics: losing an UPDATE does not withdraw
			// the route — the receiver keeps the state it last heard (BGP
			// runs over TCP; a lost segment is stale state, not absence).
			// A route that was never delivered at all is a blackhole: it
			// stays dropped, a stable degraded fixed point. Delivering
			// state older than what the sender currently advertises marks
			// the round stale, and Pending keeps the engine from declaring
			// convergence on a receiver that is still behind.
			view := ruleDir{rule: i, dir: dir}
			prev := p.delivered[view]
			var kept []BGPRoute
			dropped, stale, j := 0, 0, 0
			key := p.lossKey(i, "loss", fmt.Sprint(round), dir, "")
			for _, rt := range out {
				if key[3] = rt.Prefix.String(); p.chance(r.Pct, key...) {
					if j = seek(prev, j, rt.Prefix); j == len(prev) || prev[j].Prefix != rt.Prefix {
						dropped++
						continue
					}
					if !routeEqual(prev[j], rt) {
						stale++
					}
					rt = prev[j]
				}
				kept = append(kept, rt)
			}
			// Withdrawals always get through: prefixes the sender stopped
			// advertising leave the receiver's view.
			p.delivered[view] = kept
			if dropped > 0 {
				p.logf("round %d: %s lost %d of %d routes", round, dir, dropped, len(out))
			}
			if stale > 0 {
				p.staleRound = round
				p.logf("round %d: %s lost %d updates (stale state redelivered)", round, dir, stale)
			}
			if dropped > 0 || stale > 0 {
				out = kept
			}
		case PerturbCorrupt:
			if round < r.At || round >= r.At+r.For || len(out) == 0 {
				continue
			}
			out = slices.Clone(out)
			poisoned := map[*PathAttrs]*PathAttrs{}
			for j := range out {
				a, ok := poisoned[out[j].PathAttrs]
				if !ok {
					c := *out[j].PathAttrs
					c.ASPath = append([]int{corruptASN, corruptASN, corruptASN}, c.ASPath...)
					a = seal(c)
					poisoned[out[j].PathAttrs] = a
				}
				out[j].PathAttrs = a
			}
			p.logf("round %d: %s corrupted %d routes (AS %d poisoned)", round, dir, len(out), corruptASN)
		case PerturbDelay:
			if r.Rounds <= 0 {
				continue
			}
			key := ruleDir{rule: i, dir: dir}
			q := p.snapshots[key]
			if q == nil {
				q = map[int][]BGPRoute{}
				p.snapshots[key] = q
			}
			q[round] = slices.Clone(out)
			delete(q, round-r.Rounds-1)
			past := q[round-r.Rounds] // nil: nothing sent yet that long ago
			if !routeSlicesEqual(past, out) {
				p.logf("round %d: %s delayed (delivering round %d snapshot)", round, dir, round-r.Rounds)
			}
			out = past
		}
	}
	return out
}

// Pending reports whether perturbed state the engine must wait out is
// still in flight, so the engine must not declare convergence on a
// momentarily quiet round: a delay queue holding a snapshot that differs
// from what it last delivered, a loss rule that just redelivered stale
// state (a receiver behind the sender's current advertisements is not a
// fixed point, merely a retransmission away from changing again), or a
// flapping session in an "up" phase (a quiet round there is not a fixed
// point either: the session goes down again, and the run ends in a
// detected cycle instead).
func (p *ScheduledPerturber) Pending(round int) bool {
	if p.staleRound == round || p.flapping {
		return true
	}
	for key, q := range p.snapshots {
		from := round - p.rules[key.rule].Rounds
		delivered := q[from]
		for at, snap := range q {
			if at > from && !routeSlicesEqual(snap, delivered) {
				return true
			}
		}
	}
	return false
}

// OnSoftReset heals recoverable faults on every session of the given host:
// the adjacency reset rebuilt the session state machine, so
// session-state-local flaps (Recover rules) stop.
func (p *ScheduledPerturber) OnSoftReset(host string) {
	for _, r := range p.rules {
		if r.Kind != PerturbFlap || !r.Recover {
			continue
		}
		if r.A == host || r.B == host {
			key := sessionKey(r.A, r.B)
			if !p.healed[key] {
				p.healed[key] = true
				p.logf("session %s healed by soft reset of %s", key, host)
			}
		}
	}
}

// Describe summarises the active rules for verdict lines.
func (p *ScheduledPerturber) Describe() string {
	if len(p.rules) == 0 {
		return fmt.Sprintf("no perturbation (seed %d)", p.seed)
	}
	parts := make([]string, len(p.rules))
	for i, r := range p.rules {
		parts[i] = strings.TrimPrefix(r.String(), "perturb ")
	}
	return fmt.Sprintf("%s (seed %d)", strings.Join(parts, ", "), p.seed)
}

func routeSlicesEqual(a, b []BGPRoute) bool { return slices.EqualFunc(a, b, routeEqual) }
