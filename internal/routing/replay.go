package routing

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"slices"
)

// Incremental BGP reconvergence works by trajectory replay. A sequential
// (Gauss–Seidel) run is fully determined by the speakers' configurations:
// the same configs always walk the same per-round trajectory of
// (adj-RIB-in, loc-RIB) states. The engine therefore records each run's
// trajectory, and a later run over a mostly-unchanged config set replays
// it: at every round, a speaker whose config is unchanged and whose
// neighbors are all still tracking the recorded trajectory restores its
// recorded round state instead of re-pulling and re-selecting.
//
// Correctness argument (the byte-identity bar): restoration is admitted
// for speaker X at round r only when (1) X is not statically dirty — its
// config, profile, router-id and session set are identical to the recorded
// run's, (2) X has not deviated from the trajectory in an earlier round,
// and (3) none of X's session peers is statically dirty or deviant. Under
// Gauss–Seidel, X's round-r computation reads only its own config and its
// peers' current states — predecessors in the sweep at round r, successors
// at round r-1. By induction those states equal the recorded ones exactly
// when (1)–(3) hold, so the recompute would reproduce the recorded state
// byte for byte; restoring it is a pure memoization. Speakers that fail
// the check recompute in full, and their result is compared against the
// record: a full-identity match (including the LearnedFrom/FromRRClient
// bits the lenient routeEqual ignores) re-adopts the recorded state so
// downstream peers may keep restoring; any difference marks the speaker
// deviant, which poisons restoration for it and its neighbors from then
// on. Perturbed runs never record or replay (the Perturber is stateful),
// and a soft reset discards both the log and the recording.
//
// Under delta evaluation (rib.go) a restored speaker also re-synchronises
// its sessions: every peer is on the trajectory, so its recorded
// adj-RIB-ins are what consuming the peers' current adj-RIB-outs would
// yield, and its own adj-RIB-outs are restored with a version jump so a
// recomputing peer diffs the whole session instead of trusting a delta.

// BGPReplay is the recorded trajectory of one sequential run: per-speaker
// config signatures and session sets (the static-dirtiness baseline) plus
// the per-round states. Every route list inside is shared with the engine
// that produced it and with the neighbouring rounds it did not change in;
// none is ever mutated, because a turn replaces a list it changes instead
// of patching it (rib.go).
type BGPReplay struct {
	sigs   map[string]uint64
	sess   map[string][]session
	rounds []replayRound
}

// Rounds reports the length of the recorded trajectory.
func (r *BGPReplay) Rounds() int {
	if r == nil {
		return 0
	}
	return len(r.rounds)
}

type replayRound map[string]replayState

// replayState is one speaker's post-processing state at one round: its
// adj-RIB-ins (parallel to speaker.sorted), selection and adj-RIB-outs
// (parallel to speaker.outs, one per export group) — both index spaces are
// functions of the session set and the loopback, which a speaker that is
// not statically dirty shares with the recording.
type replayState struct {
	in      [][]BGPRoute
	rib     []BGPRoute
	out     [][]BGPRoute
	seg     uint64
	changed bool
	// churned lists the prefixes whose selection changed this round, so a
	// replayed round reproduces the engine's churn counters and changed-at
	// stamps exactly.
	churned []netip.Prefix
}

// snapshot records the speaker's state after a turn. A restored speaker's
// state is the record it restored.
func (sp *speaker) snapshot(t *turnResult) replayState {
	st := replayState{rib: sp.rib, seg: sp.seg, changed: t.changed, churned: slices.Clone(t.churned)}
	for k := range sp.in {
		st.in = append(st.in, sp.in[k].routes)
	}
	for _, o := range sp.outs {
		st.out = append(st.out, o.routes)
	}
	return st
}

// adopt installs a recorded state. A restore may change content: every
// peer is on the trajectory too, so a recorded adj-RIB-in is what consuming
// the peer's current adj-RIB-out yields and the session counts as having
// seen it, while an adj-RIB-out that is not the very list already installed
// jumps two versions, past any delta. Re-adoption installs lists equal to
// the speaker's own and touches neither.
func (sp *speaker) adopt(h replayState, restore bool) {
	for k := range sp.in {
		in := &sp.in[k]
		in.routes, in.sorted = h.in[k], true
		if restore && in.from != nil {
			in.seen, in.synced = in.from.version, true
		}
	}
	sp.rib, sp.seg = h.rib, h.seg
	for j, o := range sp.outs {
		if restore && !sameList(o.routes, h.out[j]) {
			o.version += 2
			o.delta = nil
		}
		o.routes = h.out[j]
	}
}

// matches reports whether the speaker's state is fully identical to a
// recorded one. The adj-RIB-outs are a function of the selection and need
// no comparison.
func (sp *speaker) matches(h replayState) bool {
	if sp.seg != h.seg || !listIdentical(sp.rib, h.rib) {
		return false
	}
	for k := range sp.in {
		if !listIdentical(sp.in[k].routes, h.in[k]) {
			return false
		}
	}
	return true
}

func sameList(a, b []BGPRoute) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// listIdentical compares route lists with full identity; lists shared with
// the record compare by reference.
func listIdentical(a, b []BGPRoute) bool {
	return sameList(a, b) || slices.EqualFunc(a, b, routeIdentical)
}

// speakerSig fingerprints everything about a speaker that shapes its
// behaviour in a run: the full device config, the vendor profile's
// decision-process switches, and the router-id.
func speakerSig(sp *speaker) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%x|%s|%v|%v|%v|", ConfigSignature(sp.dc), sp.profile.Name,
		sp.profile.UseIGPTieBreak, sp.profile.AlwaysCompareMED, sp.routerID)
	return h.Sum64()
}

// routeIdentical is routeEqual plus the fields it deliberately ignores.
// Replay adoption and delta staging need full identity: LearnedFrom feeds
// decision steps 7–8 and FromRRClient drives iBGP reflection.
func routeIdentical(a, b BGPRoute) bool {
	return a.LearnedFrom == b.LearnedFrom && a.FromRRClient == b.FromRRClient && routeEqual(a, b)
}

// EnableIncremental arms trajectory recording for the coming run and, when
// prev carries a recorded trajectory, replay against it: speakers whose
// fingerprint or session set differs from the recording — or that the
// caller marks dirty (extraDirty, e.g. IGP-changed speakers whose
// next-hop costs moved) — are statically dirty and always recompute.
// Only meaningful in sequential mode; a no-op otherwise. Must be called
// before the run; RunContext discards both log and recording when a
// perturber is installed or the engine has already run.
func (e *BGPEngine) EnableIncremental(prev *BGPReplay, extraDirty map[string]bool) {
	if !e.sequential {
		return
	}
	sigs := make(map[string]uint64, len(e.sp))
	sess := make(map[string][]session, len(e.sp))
	for _, sp := range e.sp {
		sigs[sp.host] = speakerSig(sp)
		sess[sp.host] = sp.sessions
	}
	if prev != nil && len(prev.rounds) > 0 {
		e.replay = prev
		for _, sp := range e.sp {
			psig, ok := prev.sigs[sp.host]
			sp.sdirty = extraDirty[sp.host] || !ok || psig != sigs[sp.host] || !slices.Equal(sp.sessions, prev.sess[sp.host])
			sp.deviant = false
		}
	}
	e.record = &BGPReplay{sigs: sigs, sess: sess}
}

// canRestore reports whether a speaker may adopt its recorded round state:
// itself and every session peer must be neither statically dirty nor
// deviant from the trajectory. Predecessor peers carry this round's
// verdict (they finished before us), successors last round's.
func (sp *speaker) canRestore() bool {
	stale := func(x *speaker) bool { return x.sdirty || x.deviant }
	return !stale(sp) && !slices.ContainsFunc(sp.peers, stale)
}

// ReplayLog returns the trajectory recorded by the most recent run, or nil
// when nothing was recorded (non-sequential mode, a perturbed run, a soft
// reset, or a continuation run). The caller feeds it to the next engine's
// EnableIncremental.
func (e *BGPEngine) ReplayLog() *BGPReplay { return e.record }

// IncrementalStats reports the most recent run's replay effectiveness:
// speaker-rounds restored from the trajectory, prefixes re-evaluated for
// recomputed speakers, and whole rounds in which every speaker restored.
func (e *BGPEngine) IncrementalStats() (restored, dirtyPrefixes, roundsSkipped int64) {
	for _, r := range e.log {
		restored += int64(r.Restored)
	}
	return restored, e.statDirtyPrefixes, e.statRoundsSkipped
}
