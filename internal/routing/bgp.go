package routing

import (
	"context"
	"fmt"
	"hash/fnv"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"sync"
)

// VendorProfile captures the decision-process differences between BGP
// implementations that §7.2 exploits: the 2013 Quagga default skipped the
// IGP-cost tie-break, so the Bad-Gadget style oscillation visible on IOS,
// JunOS and C-BGP did not appear on Quagga.
type VendorProfile struct {
	Name string
	// UseIGPTieBreak enables decision step "prefer lowest IGP metric to
	// next hop".
	UseIGPTieBreak bool
	// AlwaysCompareMED compares MED between routes from different
	// neighbouring ASes (off everywhere by default).
	AlwaysCompareMED bool
}

// The reference implementations of §5.4/§7.2.
var (
	ProfileQuagga = VendorProfile{Name: "quagga", UseIGPTieBreak: false}
	ProfileIOS    = VendorProfile{Name: "ios", UseIGPTieBreak: true}
	ProfileJunos  = VendorProfile{Name: "junos", UseIGPTieBreak: true}
	ProfileCBGP   = VendorProfile{Name: "cbgp", UseIGPTieBreak: true}
)

// ProfileFor maps a syntax name to its vendor profile, defaulting to
// Quagga.
func ProfileFor(syntax string) VendorProfile {
	switch strings.ToLower(syntax) {
	case "ios":
		return ProfileIOS
	case "junos":
		return ProfileJunos
	case "cbgp":
		return ProfileCBGP
	default:
		return ProfileQuagga
	}
}

// BGPRoute is one path with its attributes.
type BGPRoute struct {
	Prefix       netip.Prefix
	NextHop      netip.Addr
	ASPath       []int
	LocalPref    int // default 100
	MED          int
	FromEBGP     bool       // learned over an eBGP session
	LearnedFrom  netip.Addr // peer the route came from (zero when local)
	Local        bool       // locally originated
	OriginatorID netip.Addr // router-id of the injecting router (RR loop prevention)
	FromRRClient bool       // learned from one of my clients
}

func (r BGPRoute) pathString() string {
	parts := make([]string, len(r.ASPath))
	for i, a := range r.ASPath {
		parts[i] = fmt.Sprint(a)
	}
	return strings.Join(parts, " ")
}

// String renders like a `show ip bgp` line.
func (r BGPRoute) String() string {
	return fmt.Sprintf("%v via %v path [%s] lp %d med %d", r.Prefix, r.NextHop, r.pathString(), r.LocalPref, r.MED)
}

// IGPCoster supplies IGP metrics for the decision process's tie-break.
type IGPCoster interface {
	// IGPCost returns the metric from host to addr, 0 when connected,
	// negative when unreachable.
	IGPCost(host string, addr netip.Addr) int
}

// zeroIGP reports every destination connected; used when no IGP runs.
type zeroIGP struct{}

func (zeroIGP) IGPCost(string, netip.Addr) int { return 0 }

type session struct {
	peerHost string
	peerAddr netip.Addr // address I send to / receive from
	cfg      BGPNeighbor
	ebgp     bool
	// myAddr is the local address used on this session (precomputed once;
	// see myAddressOn). Kept comparable so session sets compare with ==.
	myAddr netip.Addr
}

type speaker struct {
	host     string
	idx      int // position in the sweep (hostname) order
	dc       *DeviceConfig
	profile  VendorProfile
	routerID netip.Addr
	sessions []session
	// sorted is sessions ordered by peer address (the deterministic
	// processing order) with repeated addresses dropped, precomputed once at
	// engine build; in runs parallel to it.
	sorted []session
	in     []ribIn
	// outs holds one adj-RIB-out per export group (exportKey), in
	// configuration order of the group's first session; outTo maps each peer
	// hostname to the group of its first session (the first-match
	// reverseSession semantics), so peers sent identical routes share a list.
	outs  []*ribOut
	outTo map[string]*ribOut
	peers []*speaker // distinct session peers
	// rib is the selected best route per prefix, ascending; see rib.go for
	// how the lists are maintained.
	rib []BGPRoute
	// pending lists prefixes to decide whatever the sessions say: the
	// originated networks, before the first turn and after a flush.
	pending []netip.Prefix
	// seg is the speaker's segment of the engine's protocol-state hash
	// (salt plus entry hashes; see segHash), maintained by its turns.
	salt, seg uint64
	// nhCost memoizes the IGP metric per next hop: the IGP is fixed for an
	// engine's lifetime. Only the speaker's own turn touches it.
	nhCost map[netip.Addr]int
	// sdirty and deviant are the replay verdicts (replay.go). The owner
	// writes deviant during its turn and only session peers read it, which
	// never run concurrently with the owner.
	sdirty, deviant bool
}

// BGPEngine runs the path-vector computation over a set of speakers.
type BGPEngine struct {
	speakers map[string]*speaker
	sp       []*speaker // the speakers in sweep (hostname) order
	igp      IGPCoster
	// addrOwner maps every configured address to its host, for session
	// establishment.
	addrOwner map[netip.Addr]string

	sequential bool
	rounds     int
	// stateHashes records the rounds at which each protocol-state hash was
	// observed (up to the last three). Without a perturber a single repeat
	// is a cycle; under perturbation a state can legitimately recur (a
	// lost route is re-learned), so oscillation requires three sightings
	// with a consistent period.
	stateHashes map[uint64][]int
	oscillating bool
	cycleLen    int
	converged   bool
	cancelled   bool
	// SessionsUp lists established sessions after New.
	sessionsUp   int
	sessionsDown []string

	// pert, when set, degrades every advertisement delivery; nil is the
	// zero-perturbation fast path. pertMu serializes calls into it while
	// shards evaluate concurrently.
	pert   Perturber
	pertMu sync.Mutex
	// churn counts best-route changes per prefix across all speakers;
	// changedAt records the last round each speaker's selection changed.
	churn     map[netip.Prefix]int
	changedAt map[string]int
	// sessFlaps counts up↔down transitions per unordered session pair, as
	// observed at delivery time — the supervisor's evidence for locating a
	// flapping speaker.
	sessFlaps map[[2]string]int
	sessUp    map[[2]string]bool

	// Round-driver state. slots holds each speaker's turn result for the
	// round being applied, cur the round's work record and roundChanged its
	// verdict; log is the finished rounds of the most recent run.
	slots        []turnResult
	seq          scratch
	cur          BGPRound
	roundChanged bool
	log          []BGPRound

	// Incremental-reconvergence state (see replay.go). replay is the
	// previous run's trajectory being replayed (nil when inactive); record
	// accumulates this run's trajectory, recRound the round being recorded.
	// ran guards against replaying into a continuation run.
	replay   *BGPReplay
	record   *BGPReplay
	recRound replayRound
	ran      bool

	statDirtyPrefixes int64
	statRoundsSkipped int64

	// Sharded-evaluation state (see shard.go). shardWorkers is the SetShards
	// knob (<= 1 keeps the sequential sweep); plan caches the per-AS
	// partition and its dependency DAG. The stat pair accumulates across
	// runs of this engine.
	shardWorkers     int
	plan             *shardPlan
	statShardRounds  int64
	statCrossAdverts int64
}

// NewBGPEngine wires up sessions between the given devices. profileOf maps
// hostname to vendor profile (nil means Quagga everywhere); igp supplies
// metrics (nil means all destinations connected).
func NewBGPEngine(devices []*DeviceConfig, profileOf func(host string) VendorProfile, igp IGPCoster) (*BGPEngine, error) {
	if igp == nil {
		igp = zeroIGP{}
	}
	e := &BGPEngine{
		speakers:    map[string]*speaker{},
		igp:         igp,
		addrOwner:   map[netip.Addr]string{},
		stateHashes: map[uint64][]int{},
		churn:       map[netip.Prefix]int{},
		changedAt:   map[string]int{},
		sessFlaps:   map[[2]string]int{},
		sessUp:      map[[2]string]bool{},
	}
	for _, dc := range devices {
		if dc.BGP == nil {
			continue
		}
		prof := ProfileQuagga
		if profileOf != nil {
			prof = profileOf(dc.Hostname)
		}
		rid := dc.BGP.RouterID
		if !rid.IsValid() && dc.HasLoopback() {
			rid = dc.Loopback
		}
		if !rid.IsValid() && len(dc.Interfaces) > 0 {
			rid = dc.Interfaces[0].Addr
		}
		salt := fnv.New64a()
		salt.Write([]byte(dc.Hostname))
		sp := &speaker{
			host: dc.Hostname, dc: dc, profile: prof, routerID: rid,
			outTo: map[string]*ribOut{}, nhCost: map[netip.Addr]int{},
			pending: dc.BGP.Networks, salt: salt.Sum64(), seg: salt.Sum64(),
		}
		e.speakers[dc.Hostname] = sp
		e.sp = append(e.sp, sp)
		for _, ic := range dc.Interfaces {
			e.addrOwner[ic.Addr] = dc.Hostname
		}
		if dc.HasLoopback() {
			e.addrOwner[dc.Loopback] = dc.Hostname
		}
	}
	sort.Slice(e.sp, func(i, j int) bool { return e.sp[i].host < e.sp[j].host })
	for i, sp := range e.sp {
		sp.idx = i
	}
	e.slots = make([]turnResult, len(e.sp))
	// Establish sessions: a neighbor statement whose address belongs to a
	// device that has a matching reverse session.
	for _, sp := range e.sp {
		host := sp.host
		for _, nbr := range sp.dc.BGP.Neighbors {
			peerHost, ok := e.addrOwner[nbr.Addr]
			if !ok {
				e.sessionsDown = append(e.sessionsDown, fmt.Sprintf("%s -> %v (address unknown)", host, nbr.Addr))
				continue
			}
			peer := e.speakers[peerHost]
			if peer == nil {
				e.sessionsDown = append(e.sessionsDown, fmt.Sprintf("%s -> %s@%v (runs no BGP)", host, peerHost, nbr.Addr))
				continue
			}
			if peer.dc.BGP.ASN != nbr.RemoteASN {
				e.sessionsDown = append(e.sessionsDown, fmt.Sprintf("%s -> %s@%v (remote-as %d, actual %d)", host, peerHost, nbr.Addr, nbr.RemoteASN, peer.dc.BGP.ASN))
				continue
			}
			sp.sessions = append(sp.sessions, session{
				peerHost: peerHost,
				peerAddr: nbr.Addr,
				cfg:      nbr,
				ebgp:     nbr.RemoteASN != sp.dc.BGP.ASN,
			})
			e.sessionsUp++
		}
	}
	// A deterministic report: map iteration never orders this list, and
	// every entry names the peer address, so golden diffs are stable.
	sort.Strings(e.sessionsDown)
	// Second pass: precompute per-session local addresses, the sorted
	// processing order and one adj-RIB-out per export group; third, point
	// every adj-RIB-in at the peer's adj-RIB-out toward it.
	for _, sp := range e.sp {
		groups := map[exportKey]*ribOut{}
		for i := range sp.sessions {
			s := &sp.sessions[i]
			s.myAddr = e.myAddressOn(sp, *s)
			if sp.outTo[s.peerHost] != nil {
				continue
			}
			k := sp.exportKey(s)
			if groups[k] == nil {
				groups[k] = &ribOut{sess: *s}
				sp.outs = append(sp.outs, groups[k])
			}
			groups[k].members++
			sp.outTo[s.peerHost] = groups[k]
			sp.peers = append(sp.peers, e.speakers[s.peerHost])
		}
		sp.sorted = append([]session(nil), sp.sessions...)
		sort.SliceStable(sp.sorted, func(i, j int) bool { return sp.sorted[i].peerAddr.Less(sp.sorted[j].peerAddr) })
		// A repeated neighbor address is one session; the first statement
		// is the one inbound policy has always read.
		sp.sorted = slices.CompactFunc(sp.sorted, func(a, b session) bool { return a.peerAddr == b.peerAddr })
		sp.in = make([]ribIn, len(sp.sorted))
	}
	for _, sp := range e.sp {
		for k, s := range sp.sorted {
			sp.in[k] = ribIn{from: e.speakers[s.peerHost].outTo[sp.host], synced: true, sorted: true}
		}
	}
	return e, nil
}

// SessionsUp returns the number of configured sessions that matched a
// reachable, correctly-numbered peer.
func (e *BGPEngine) SessionsUp() int { return e.sessionsUp }

// SessionsDown describes the neighbor statements that could not form a
// session — the configuration errors emulation is meant to surface. The
// list is sorted and each entry carries the peer address, so reports are
// byte-stable across runs.
func (e *BGPEngine) SessionsDown() []string { return e.sessionsDown }

// SetPerturber installs a control-plane perturbation layer; nil restores
// the perfect-delivery fast path. Install before Run.
func (e *BGPEngine) SetPerturber(p Perturber) { e.pert = p }

// deliver applies the perturbation layer to one session's advertisements
// for the current round, recording session up/down transitions. It runs
// under the perturber lock (shards evaluate concurrently); when events is
// set and the perturber supports capture, the lines it logs go there so the
// round driver can restage them in sweep order. A perturber without the
// capture extension only ever runs in the sequential sweep and logs
// directly.
func (e *BGPEngine) deliver(from, to string, routes []BGPRoute, events *[]string) []BGPRoute {
	if e.pert == nil {
		return routes
	}
	e.pertMu.Lock()
	defer e.pertMu.Unlock()
	if capt, ok := e.pert.(perturbCapturer); ok && events != nil {
		capt.setCapture(events)
		defer capt.setCapture(nil)
	}
	pair := [2]string{from, to}
	if pair[1] < pair[0] {
		pair = [2]string{to, from}
	}
	up := e.pert.SessionUp(e.rounds, from, to)
	if prev, seen := e.sessUp[pair]; seen && prev != up {
		e.sessFlaps[pair]++
	}
	e.sessUp[pair] = up
	if !up {
		return nil
	}
	return e.pert.Deliver(e.rounds, from, to, routes)
}

// myAddressOn returns the local address used for the session to peerAddr
// (the interface sharing the peer's subnet, or the loopback for
// loopback-peered iBGP sessions).
func (e *BGPEngine) myAddressOn(sp *speaker, s session) netip.Addr {
	for _, ic := range sp.dc.Interfaces {
		if ic.Prefix.Contains(s.peerAddr) && ic.Prefix.Bits() < 32 {
			return ic.Addr
		}
	}
	if sp.dc.HasLoopback() {
		return sp.dc.Loopback
	}
	if len(sp.dc.Interfaces) > 0 {
		return sp.dc.Interfaces[0].Addr
	}
	return netip.Addr{}
}

// SetSequential switches the processing model. The default is synchronous
// rounds (Jacobi): all speakers select, then all advertisements exchange at
// once — modelling MRAI-timer-locked routers updating in lockstep, the
// regime in which timing-sensitive oscillations manifest. Sequential mode
// (Gauss–Seidel) processes one speaker at a time against its peers' current
// state, modelling asynchronous routers; oscillation under sequential
// processing therefore indicates a configuration with no stable route
// assignment at all (an RFC 3345-class persistent oscillation), not a
// timing artifact.
func (e *BGPEngine) SetSequential(on bool) { e.sequential = on }

// Step runs one processing round (see SetSequential for the two models).
// It returns true when the round changed nothing (convergence).
func (e *BGPEngine) Step() bool {
	if e.sequential {
		return e.sweep()
	}
	e.beginRound()
	// Phase 1: selection.
	e.reselectAll()
	// Phase 2: advertisement into fresh adj-RIB-ins.
	next := make([][][]BGPRoute, len(e.sp))
	for i, sp := range e.sp {
		next[i] = make([][]BGPRoute, len(sp.in))
	}
	for _, sp := range e.sp {
		for i := range sp.sorted {
			s := &sp.sorted[i]
			peer := e.speakers[s.peerHost]
			var out []BGPRoute
			for j := range sp.rib {
				var adv BGPRoute
				if sp.advertise(&sp.rib[j], s, &adv) {
					out = append(out, adv)
				}
			}
			out = e.deliver(sp.host, s.peerHost, out, nil)
			// The peer indexes the session by the address it configured for
			// me.
			if k := e.sessionFrom(peer, sp, s.myAddr); k >= 0 {
				next[peer.idx][k] = filterReceived(peer, &peer.sorted[k], out)
			}
		}
	}
	changed := false
	for i, sp := range e.sp {
		for k := range sp.in {
			in := &sp.in[k]
			changed = changed || !routeSlicesEqual(in.routes, next[i][k])
			// The list no longer reflects the peer's adj-RIB-out.
			in.routes, in.sorted, in.synced = next[i][k], isSorted(next[i][k]), false
		}
	}
	if changed {
		// Re-select so observers see the post-round state.
		e.reselectAll()
	}
	// Synchronous rounds rewrite every adj-RIB-in wholesale, so re-render
	// every state-hash segment.
	for _, sp := range e.sp {
		sp.seg = segHash(sp)
	}
	e.roundChanged = changed
	e.endRound()
	return !changed
}

// reselectAll re-decides every prefix of every speaker (the synchronous
// model's selection phase).
func (e *BGPEngine) reselectAll() {
	for i, sp := range e.sp {
		t := &e.slots[i]
		*t = turnResult{churned: t.churned[:0]}
		e.seq.dirty = sp.allPrefixes(e.seq.dirty)
		e.reselect(sp, e.seq.dirty, t, &e.seq)
		e.apply(sp, t)
	}
}

// sweep runs one Gauss–Seidel round: every speaker takes its turn (rib.go)
// in hostname order against its peers' current state, one at a time or —
// SetShards — shard by shard on a worker pool with the results applied at
// a barrier (shard.go). Both drivers apply the same turn results in the
// same order, so they are byte-identical.
func (e *BGPEngine) sweep() bool {
	e.beginRound()
	var hist replayRound
	if e.replay != nil {
		if idx := e.rounds - 1; idx < len(e.replay.rounds) {
			hist = e.replay.rounds[idx]
		} else {
			// The run outran the recorded trajectory; no further restores.
			e.replay = nil
		}
	}
	e.recRound = nil
	if e.record != nil {
		e.recRound = make(replayRound, len(e.sp))
	}
	if e.useSharded() {
		e.statShardRounds++
		e.runSharded(hist)
		for i, sp := range e.sp {
			e.apply(sp, &e.slots[i])
		}
	} else {
		for i, sp := range e.sp {
			e.turn(sp, hist, &e.slots[i], &e.seq)
			e.apply(sp, &e.slots[i])
		}
	}
	if hist != nil {
		e.statDirtyPrefixes += int64(e.cur.Decided)
		if e.cur.Restored == len(e.sp) {
			e.statRoundsSkipped++
		}
	}
	if e.record != nil {
		e.record.rounds = append(e.record.rounds, e.recRound)
	}
	e.endRound()
	return !e.roundChanged
}

func (e *BGPEngine) beginRound() {
	e.rounds++
	e.cur, e.roundChanged = BGPRound{Round: e.rounds}, false
}

func (e *BGPEngine) endRound() { e.log = append(e.log, e.cur) }

// apply folds one speaker's turn result into the engine: churn counters,
// changed-at stamps, the round's verdict and work record, the trajectory
// record and captured perturbation events. The drivers call it in sweep
// order, which is the order the effects have always happened in.
func (e *BGPEngine) apply(sp *speaker, t *turnResult) {
	for _, p := range t.churned {
		e.churn[p]++
	}
	if len(t.churned) > 0 {
		e.changedAt[sp.host] = e.rounds
	}
	e.roundChanged = e.roundChanged || t.changed
	switch {
	case t.restored:
		e.cur.Restored++
	case t.skipped:
		e.cur.Skipped++
	default:
		e.cur.Evaluated++
	}
	e.cur.Sessions += t.sessions
	e.cur.Decided += t.decided
	e.cur.Adverts += t.adverts
	e.cur.Churned += len(t.churned)
	e.statCrossAdverts += int64(t.cross)
	if e.recRound != nil {
		e.recRound[sp.host] = sp.snapshot(t)
	}
	if len(t.events) > 0 {
		e.pert.(perturbCapturer).restageEvents(t.events)
	}
}

// BGPRound is one round's work record: counts only, no wall-clock, and the
// same at any shard count. In sequential mode a speaker is restored when it
// adopted its recorded state, skipped when no session had anything new for
// it, evaluated otherwise; synchronous rounds evaluate everyone, twice when
// the exchange changed something.
type BGPRound struct {
	Round                        int
	Evaluated, Skipped, Restored int // speakers
	Sessions                     int // sessions whose changes were consumed
	Decided                      int // prefixes whose selection was re-decided
	// Adverts counts adj-RIB-out entry changes per peer: a change to an
	// export group's list counts once for each peer in the group.
	Adverts int
	Churned int // prefixes whose best route moved
}

// RoundLog returns the per-round work records of the most recent Run.
func (e *BGPEngine) RoundLog() []BGPRound { return append([]BGPRound(nil), e.log...) }

// sessionFrom finds which of peer's adj-RIB-ins hears the sender
// (preferring the sender's exact session address), or -1. A session only
// carries routes when BOTH ends configured it consistently — a remote-as
// mismatch on either side leaves it down, exactly as in a real lab.
func (e *BGPEngine) sessionFrom(peer, sender *speaker, senderAddr netip.Addr) int {
	match := func(s session) bool { return s.peerHost == sender.host && s.peerAddr == senderAddr }
	i := slices.IndexFunc(peer.sessions, match)
	if i < 0 {
		i = slices.IndexFunc(peer.sessions, func(s session) bool { return s.peerHost == sender.host })
	}
	if i < 0 {
		return -1
	}
	return slices.IndexFunc(peer.sorted, func(s session) bool { return s.peerAddr == peer.sessions[i].peerAddr })
}

// accept applies inbound processing to one route heard on session s: loop
// prevention and local-pref assignment. It reports whether the route is
// kept, written to out.
func (sp *speaker) accept(s *session, r, out *BGPRoute) bool {
	if s.ebgp && slices.Contains(r.ASPath, sp.dc.BGP.ASN) {
		return false // eBGP AS-path loop
	}
	if r.OriginatorID.IsValid() && r.OriginatorID == sp.routerID {
		return false // RR originator loop
	}
	*out = *r
	out.LearnedFrom = s.peerAddr
	out.FromEBGP = s.ebgp
	if s.ebgp {
		out.LocalPref = 100
		if s.cfg.LocalPrefIn > 0 {
			out.LocalPref = s.cfg.LocalPrefIn
		}
	} else {
		out.FromRRClient = s.cfg.RRClient
	}
	out.Local = false
	return true
}

// filterReceived is accept over a whole delivery.
func filterReceived(sp *speaker, s *session, routes []BGPRoute) []BGPRoute {
	var out []BGPRoute
	for i := range routes {
		var rt BGPRoute
		if sp.accept(s, &routes[i], &rt) {
			out = append(out, rt)
		}
	}
	return out
}

// exportKey is every session field advertise reads, so sessions with equal
// keys are sent identical routes and share one adj-RIB-out.
type exportKey struct {
	ebgp        bool
	asn, med    int
	rrClient    bool
	nextHopSelf netip.Addr
}

func (sp *speaker) exportKey(s *session) exportKey {
	if s.ebgp {
		return exportKey{ebgp: true, asn: s.cfg.RemoteASN, med: s.cfg.MEDOut, nextHopSelf: s.myAddr}
	}
	k := exportKey{rrClient: s.cfg.RRClient}
	if !sp.dc.HasLoopback() {
		k.nextHopSelf = s.myAddr
	}
	return k
}

// advertise applies outbound policy for one route on one session. It
// reports whether the route is sent, written to out. AS paths are shared,
// not copied: nothing downstream mutates one.
func (sp *speaker) advertise(rt *BGPRoute, s *session, out *BGPRoute) bool {
	*out = *rt
	if s.ebgp {
		if slices.Contains(rt.ASPath, s.cfg.RemoteASN) {
			return false
		}
		out.ASPath = append(append(make([]int, 0, len(rt.ASPath)+1), sp.dc.BGP.ASN), rt.ASPath...)
		out.NextHop = s.myAddr
		out.MED = s.cfg.MEDOut
		out.LocalPref = 0
		out.OriginatorID = netip.Addr{}
		out.FromRRClient = false
		return true
	}
	// iBGP advertisement rules.
	switch {
	case rt.Local, rt.FromEBGP:
		// Locally known routes go to every iBGP peer, with next-hop-self
		// (the loopback) so the IGP can resolve it.
		if sp.dc.HasLoopback() {
			out.NextHop = sp.dc.Loopback
		} else {
			out.NextHop = s.myAddr
		}
		out.OriginatorID = sp.routerID
	case rt.FromRRClient:
		// Reflected from a client: to all iBGP peers.
	default:
		// From a non-client iBGP peer: only to my clients.
		if !s.cfg.RRClient {
			return false
		}
	}
	out.FromRRClient = false
	if !out.OriginatorID.IsValid() {
		out.OriginatorID = rt.OriginatorID
	}
	return true
}

// RouteChurn returns the per-prefix count of best-route changes across all
// speakers since the engine was built (rounds-to-quiescence's companion
// metric: how much the selections moved on the way there).
func (e *BGPEngine) RouteChurn() map[netip.Prefix]int {
	out := make(map[netip.Prefix]int, len(e.churn))
	for p, n := range e.churn {
		out[p] = n
	}
	return out
}

// TotalChurn sums RouteChurn over all prefixes.
func (e *BGPEngine) TotalChurn() int {
	n := 0
	for _, c := range e.churn {
		n += c
	}
	return n
}

// UnstableSpeakers returns the speakers whose selection changed within the
// last `window` rounds, sorted — the devices implicated in a detected
// oscillation.
func (e *BGPEngine) UnstableSpeakers(window int) []string {
	if window < 1 {
		window = 1
	}
	var out []string
	for host, at := range e.changedAt {
		if at > e.rounds-window {
			out = append(out, host)
		}
	}
	sort.Strings(out)
	return out
}

// FlappingSessions returns the unordered session pairs that transitioned
// up↔down at least min times during the run, sorted — the adjacency-change
// log a supervisor uses to locate a sick speaker.
func (e *BGPEngine) FlappingSessions(min int) [][2]string {
	if min < 1 {
		min = 1
	}
	var out [][2]string
	for pair, n := range e.sessFlaps {
		if n >= min {
			out = append(out, pair)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// SoftReset flushes the given speakers' RIBs (adj-RIB-in and selections)
// and clears the engine's convergence verdict, so a following Run
// re-exchanges routes from scratch on those sessions — the supervisor's
// `clear ip bgp` escalation step. The perturbation layer is notified so
// session-state-local faults can heal.
func (e *BGPEngine) SoftReset(hosts []string) {
	for _, host := range hosts {
		sp, ok := e.speakers[host]
		if !ok {
			continue
		}
		sp.flush()
		if e.pert != nil {
			e.pert.OnSoftReset(host)
		}
	}
	// A flush invalidates both the replayed trajectory and the recording:
	// the continuation run departs from any from-scratch trajectory.
	e.replay, e.record = nil, nil
	e.stateHashes = map[uint64][]int{}
	e.converged, e.oscillating, e.cancelled = false, false, false
	e.cycleLen = 0
}

// SessionComponents counts the connected components of the established
// session graph over the engine's speakers: more than one means the
// control plane is partitioned (speakers exist that can never hear each
// other's routes).
func (e *BGPEngine) SessionComponents() int {
	parent := make([]int, len(e.sp))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, sp := range e.sp {
		for _, peer := range sp.peers {
			parent[find(sp.idx)] = find(peer.idx)
		}
	}
	roots := 0
	for i := range parent {
		if find(i) == i {
			roots++
		}
	}
	return roots
}

// decide implements the BGP decision process with the speaker's vendor
// profile.
func (e *BGPEngine) decide(sp *speaker, cands []*BGPRoute) *BGPRoute {
	if len(cands) == 0 {
		return nil
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if e.better(sp, c, best) {
			best = c
		}
	}
	return best
}

// better reports whether a beats b under the decision process.
func (e *BGPEngine) better(sp *speaker, a, b *BGPRoute) bool {
	// 1. Highest local-pref.
	if a.LocalPref != b.LocalPref {
		return a.LocalPref > b.LocalPref
	}
	// 2. Locally originated.
	if a.Local != b.Local {
		return a.Local
	}
	// 3. Shortest AS path.
	if len(a.ASPath) != len(b.ASPath) {
		return len(a.ASPath) < len(b.ASPath)
	}
	// 4. Lowest MED, comparable only between routes from the same
	// neighbouring AS (unless always-compare-med).
	sameNeighborAS := len(a.ASPath) > 0 && len(b.ASPath) > 0 && a.ASPath[0] == b.ASPath[0]
	if (sameNeighborAS || sp.profile.AlwaysCompareMED) && a.MED != b.MED {
		return a.MED < b.MED
	}
	// 5. eBGP over iBGP.
	if a.FromEBGP != b.FromEBGP {
		return a.FromEBGP
	}
	// 6. Lowest IGP metric to next hop (vendor-dependent, §7.2).
	if sp.profile.UseIGPTieBreak {
		ca, cb := e.igpCostOf(sp, a), e.igpCostOf(sp, b)
		if ca != cb {
			return ca < cb
		}
	}
	// 7. Lowest originator router-id (RFC 4456: the ORIGINATOR_ID
	// substitutes for the router-id of reflected routes). This comparison
	// is route-intrinsic — every viewer ranks candidates identically — so
	// a decision process that stops here (Quagga without the IGP
	// tie-break) reaches a globally consistent, stable choice where the
	// viewer-dependent IGP comparison of step 6 can oscillate.
	ra, rb := a.OriginatorID, b.OriginatorID
	if !ra.IsValid() {
		ra = a.LearnedFrom
	}
	if !rb.IsValid() {
		rb = b.LearnedFrom
	}
	switch {
	case !ra.IsValid() && rb.IsValid():
		return true
	case ra.IsValid() && !rb.IsValid():
		return false
	case ra.IsValid() && rb.IsValid() && ra != rb:
		return ra.Less(rb)
	}
	// 8. Lowest peer address.
	al, bl := a.LearnedFrom, b.LearnedFrom
	switch {
	case !al.IsValid() && bl.IsValid():
		return true
	case al.IsValid() && !bl.IsValid():
		return false
	case al.IsValid() && bl.IsValid() && al != bl:
		return al.Less(bl)
	}
	return false
}

func (e *BGPEngine) igpCostOf(sp *speaker, r *BGPRoute) int {
	if !r.NextHop.IsValid() {
		return 0
	}
	c := e.nextHopCost(sp, r.NextHop)
	if c < 0 {
		return 1 << 30
	}
	return c
}

// nextHopCost is the IGP metric from sp to a next hop (negative:
// unreachable), asked of the IGP once per (speaker, next hop).
func (e *BGPEngine) nextHopCost(sp *speaker, nh netip.Addr) int {
	c, ok := sp.nhCost[nh]
	if !ok {
		c = e.igp.IGPCost(sp.host, nh)
		sp.nhCost[nh] = c
	}
	return c
}

// Run executes rounds until convergence, a repeated state (oscillation), or
// maxRounds. It returns the outcome.
func (e *BGPEngine) Run(maxRounds int) BGPResult {
	return e.RunContext(context.Background(), maxRounds)
}

// RunContext is Run with cancellation: the context is checked every round,
// and a cancelled run reports Cancelled instead of spinning to the round
// cap — a deploy-level timeout can reclaim a hung convergence. Calling it
// again (after a SoftReset) continues from the current protocol state
// under a fresh round budget.
func (e *BGPEngine) RunContext(ctx context.Context, maxRounds int) BGPResult {
	if maxRounds <= 0 {
		maxRounds = DefaultMaxBGPRounds
	}
	e.beginRun()
	for r := 0; r < maxRounds; r++ {
		if ctx.Err() != nil {
			e.cancelled = true
			break
		}
		if e.runRound() {
			break
		}
	}
	return e.endRun()
}

// beginRun resets the per-run verdict, statistics and perturbation state.
func (e *BGPEngine) beginRun() {
	// Replay is only valid for a fresh engine's first, unperturbed run: a
	// continuation (post-escalation) run departs from the from-scratch
	// trajectory, and the perturbation layer is stateful (flap counters,
	// delivery schedules), so perturbed runs neither replay nor record.
	if e.ran || e.pert != nil {
		e.replay, e.record = nil, nil
	}
	e.ran = true
	e.statDirtyPrefixes, e.statRoundsSkipped = 0, 0
	e.log = nil
	e.stateHashes = map[uint64][]int{}
	e.converged, e.oscillating, e.cancelled = false, false, false
	e.cycleLen = 0
	if e.pert != nil {
		e.pert.Reset()
	}
}

// runRound steps once and reports whether the run is over: converged, or a
// protocol state repeated.
func (e *BGPEngine) runRound() bool {
	if e.Step() {
		// Delayed advertisements still in flight make the state momentarily
		// stable, which must not register as convergence (or as a cycle —
		// it will change when the queue drains).
		e.converged = e.pert == nil || !e.pert.Pending(e.rounds)
		return e.converged
	}
	h := e.stateHash()
	seen := e.stateHashes[h]
	if cl, ok := e.cycleDetected(seen); ok {
		e.oscillating = true
		e.cycleLen = cl
		return true
	}
	if len(seen) == 3 {
		seen = seen[1:]
	}
	e.stateHashes[h] = append(seen, e.rounds)
	return false
}

func (e *BGPEngine) endRun() BGPResult {
	if !e.converged && !e.oscillating && !e.cancelled {
		e.oscillating = true // ran out of rounds without stabilising
		e.cycleLen = -1
	}
	return BGPResult{
		Converged:   e.converged,
		Oscillating: e.oscillating,
		Cancelled:   e.cancelled,
		Rounds:      e.rounds,
		CycleLen:    e.cycleLen,
	}
}

// cycleDetected decides whether re-seeing a state constitutes a cycle.
// Without a perturber one repeat suffices (the engine is deterministic, so
// a repeated state must loop forever). Under perturbation a state can
// legitimately recur — a lost route is re-learned, recreating an earlier
// table — so a cycle requires the state to repeat twice with the same
// period, which aperiodic loss does not produce but a flap schedule does.
func (e *BGPEngine) cycleDetected(seen []int) (int, bool) {
	if len(seen) == 0 {
		return 0, false
	}
	last := seen[len(seen)-1]
	if e.pert == nil {
		return e.rounds - last, true
	}
	if len(seen) >= 2 {
		prev := seen[len(seen)-2]
		if e.rounds-last == last-prev {
			return e.rounds - last, true
		}
	}
	return 0, false
}

// BGPResult summarises a Run.
type BGPResult struct {
	Converged   bool
	Oscillating bool
	// Cancelled reports that the run's context expired before either
	// convergence or a detected oscillation.
	Cancelled bool
	Rounds    int
	CycleLen  int
}

// stateHash combines every speaker's state-hash segment into one value
// covering the complete protocol state — every speaker's adj-RIB-in and
// selection. Selections alone are insufficient: during initial propagation
// the selected routes can be momentarily stable while longer paths are
// still flooding, which must not register as a cycle. The segments are
// XOR-combined (each is salted with its hostname, so identical speaker
// states cannot cancel) and maintained by the turns that change them (see
// segHash). Only hash *equality* across rounds is observable (cycle
// detection), and equal protocol states produce equal segments.
func (e *BGPEngine) stateHash() uint64 {
	var h uint64
	for _, sp := range e.sp {
		h ^= sp.seg
	}
	return h
}

// BestRoutes returns a speaker's selected routes, sorted by prefix (the
// emulated `show ip bgp`).
func (e *BGPEngine) BestRoutes(host string) []BGPRoute {
	return append([]BGPRoute(nil), e.Selected(host)...)
}

// Selected is BestRoutes without the copy: the speaker's own list, ascending
// by (address, length), to be read only and not kept across a run.
func (e *BGPEngine) Selected(host string) []BGPRoute {
	sp, ok := e.speakers[host]
	if !ok {
		return nil
	}
	return sp.rib
}

// Speakers returns the hostnames running BGP, sorted.
func (e *BGPEngine) Speakers() []string {
	out := make([]string, len(e.sp))
	for i, sp := range e.sp {
		out[i] = sp.host
	}
	return out
}

func routeEqual(a, b BGPRoute) bool {
	return a.Prefix == b.Prefix && a.NextHop == b.NextHop && a.LocalPref == b.LocalPref &&
		a.MED == b.MED && a.FromEBGP == b.FromEBGP && a.Local == b.Local &&
		a.OriginatorID == b.OriginatorID && slices.Equal(a.ASPath, b.ASPath)
}
