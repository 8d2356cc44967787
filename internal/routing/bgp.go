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

// BGPRoute is one path: a prefix and its attribute record. The routes one
// policy gives equal attributes share one record (attrTable), as Quagga's
// attr_intern and BIRD's rta_lookup share theirs, so a route list costs a
// prefix and a pointer per entry. A record is never written once sealed: a
// route that needs other attributes points at another record, and a reader
// of a route must not write through it either.
type BGPRoute struct {
	Prefix netip.Prefix
	*PathAttrs
}

// PathAttrs is a route's attribute record, immutable once sealed.
type PathAttrs struct {
	NextHop      netip.Addr
	LearnedFrom  netip.Addr // peer the route came from (zero when local)
	OriginatorID netip.Addr // router-id of the injecting router (RR loop prevention)
	ASPath       []int
	LocalPref    int // default 100
	MED          int
	hash         uint64 // attrsHash of the fields, cached when sealed
	FromEBGP     bool   // learned over an eBGP session
	Local        bool   // locally originated
	FromRRClient bool   // learned from one of my clients
}

// seal returns a as a record of its own, its value hash cached.
func seal(a PathAttrs) *PathAttrs {
	a.hash = attrsHash(&a)
	return &a
}

// localAttrs is every originated network's record before policy.
var localAttrs = seal(PathAttrs{LocalPref: 100, Local: true})

// attrTable hash-conses records: it seals one record per distinct value it
// is asked for, so the routes it serves share them. Each session keeps one
// for what inbound policy makes of the routes heard on it, each export
// group one for what outbound policy makes of the selection, so every list
// holds one record per distinct value it carries. Only the speaker that
// owns a table writes it, during its own turn, so it needs no lock; every
// table is emptied when a run begins (BGPEngine.beginRun), which bounds it
// by one run's records.
type attrTable map[uint64]*PathAttrs

// intern returns the table's record equal to a, sealing a copy of a when
// it has none. A hash shared by two values keeps the later one.
func (t *attrTable) intern(a *PathAttrs) *PathAttrs {
	a.hash = attrsHash(a)
	if r := (*t)[a.hash]; r != nil && sameAttrs(r, a) {
		return r
	}
	if *t == nil {
		*t = attrTable{}
	}
	r := new(PathAttrs)
	*r = *a
	(*t)[a.hash] = r
	return r
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
	// myAddr is the local address used on this session (precomputed at
	// wiring; see myAddressOn). Kept comparable so sessions compare with ==.
	myAddr netip.Addr
}

type speaker struct {
	host     string
	idx      int // position in the sweep (hostname) order
	profile  VendorProfile
	routerID netip.Addr
	// asn, loopback, ifaces and networks are what the speaker read of its
	// device at the last wiring. Callers edit configurations in place between
	// converges, so the engine never reads a *DeviceConfig after wiring, and
	// Rebind diffs the edited device against these.
	asn      int
	loopback netip.Addr
	ifaces   []InterfaceConfig
	networks []netip.Prefix
	sessions []session
	// sorted is sessions ordered by peer address (the deterministic
	// processing order) with repeated addresses dropped; in runs parallel to
	// it.
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
	// originated networks before the first turn and after a flush, and what
	// a Rebind invalidated.
	pending []netip.Prefix
	// seg is the speaker's segment of the engine's protocol-state hash
	// (salt plus entry hashes; see segHash), maintained by its turns.
	salt, seg uint64
	// nhCost memoizes the IGP metric per next hop. Only the speaker's own
	// turn touches it; Rebind clears it when the speaker's IGP view moved.
	nhCost map[netip.Addr]int
}

// BGPEngine runs the path-vector computation over a set of speakers.
type BGPEngine struct {
	speakers  map[string]*speaker
	sp        []*speaker // the speakers in sweep (hostname) order
	profileOf func(host string) VendorProfile
	igp       IGPCoster
	// addrOwner maps every configured address to its host, for session
	// establishment.
	addrOwner map[netip.Addr]string

	sequential bool
	// Per-run state, reset by every Run: the round counter, the state hashes
	// and the verdict. stateHashes records the rounds at which each
	// protocol-state hash was observed (up to the last three). Without a
	// perturber a single repeat is a cycle; under perturbation a state can
	// legitimately recur (a lost route is re-learned), so oscillation
	// requires three sightings with a consistent period.
	rounds      int
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
	pert   *ScheduledPerturber
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

	// Sharded-evaluation state (see shard.go). shardWorkers is the SetShards
	// knob (<= 1 keeps the sequential sweep); plan caches the per-AS
	// partition and its dependency DAG for the current wiring. The stat pair
	// counts the most recent run.
	shardWorkers     int
	plan             *shardPlan
	statShardRounds  int64
	statCrossAdverts int64

	// wiring is wireRIBIns' buffer for a speaker's sorted session list,
	// copied out only when the list changed.
	wiring []session
}

// NewBGPEngine wires up sessions between the given devices. profileOf maps
// hostname to vendor profile (nil means Quagga everywhere); igp supplies
// metrics (nil means all destinations connected). It is an empty engine
// rebound to the devices.
func NewBGPEngine(devices []*DeviceConfig, profileOf func(host string) VendorProfile, igp IGPCoster) (*BGPEngine, error) {
	e := &BGPEngine{speakers: map[string]*speaker{}, profileOf: profileOf}
	e.Rebind(devices, igp, nil)
	e.beginRun()
	return e, nil
}

// Rebind rewires a running engine to an edited device set and its new IGP,
// keeping every piece of protocol state whose inputs did not change, so
// that the next Run continues from what the engine holds instead of from
// empty tables. igpChanged names the speakers whose IGP routes moved.
// Rebind must not run concurrently with a Run.
//
//   - A speaker whose router-id, AS, loopback or profile changed, or that is
//     new, starts empty; a speaker that left is dropped.
//   - A kept speaker keeps its selection, adj-RIB-ins and adj-RIB-outs. An
//     adj-RIB-out survives when its export group's key does; a new group is
//     advertised from the selection.
//   - A session survives only when the whole session is equal. Its
//     adj-RIB-in stays synced only when it reads the very adj-RIB-out it
//     read before; otherwise its next turn diffs the whole session. The
//     routes of a session that went away leave the state hash and their
//     prefixes are re-decided.
//   - A speaker in igpChanged, or whose interfaces or originated networks
//     differ from what it read at the last wiring, forgets its next-hop
//     costs and re-decides every prefix.
//
// A run from the rebound state ends at a fixed point of the protocol:
// wherever the configuration has a single stable state, the one a fresh
// engine over the same devices reaches. A nil igp means every destination
// is connected.
func (e *BGPEngine) Rebind(devices []*DeviceConfig, igp IGPCoster, igpChanged map[string]bool) {
	if igp == nil {
		igp = zeroIGP{}
	}
	e.igp = igp
	old := e.speakers
	e.speakers, e.sp, e.plan = make(map[string]*speaker, len(devices)), nil, nil
	e.addrOwner = map[netip.Addr]string{}
	e.sessionsUp, e.sessionsDown = 0, nil
	dcOf := make(map[*speaker]*DeviceConfig, len(devices))
	var redecide []*speaker
	for _, dc := range devices {
		if dc.BGP == nil {
			continue
		}
		prof := ProfileQuagga
		if e.profileOf != nil {
			prof = e.profileOf(dc.Hostname)
		}
		rid := dc.BGP.RouterID
		if !rid.IsValid() && dc.HasLoopback() {
			rid = dc.Loopback
		}
		if !rid.IsValid() && len(dc.Interfaces) > 0 {
			rid = dc.Interfaces[0].Addr
		}
		sp := old[dc.Hostname]
		switch {
		case sp == nil || sp.routerID != rid || sp.asn != dc.BGP.ASN || sp.loopback != dc.Loopback || sp.profile != prof:
			salt := fnv.New64a()
			salt.Write([]byte(dc.Hostname))
			sp = &speaker{
				host: dc.Hostname, profile: prof, routerID: rid, asn: dc.BGP.ASN, loopback: dc.Loopback,
				ifaces: slices.Clone(dc.Interfaces), networks: slices.Clone(dc.BGP.Networks),
				nhCost: map[netip.Addr]int{}, salt: salt.Sum64(), seg: salt.Sum64(),
			}
			sp.pending = slices.Clone(sp.networks)
		case igpChanged[dc.Hostname] || !slices.Equal(sp.ifaces, dc.Interfaces) || !slices.Equal(sp.networks, dc.BGP.Networks):
			sp.ifaces, sp.networks = slices.Clone(dc.Interfaces), slices.Clone(dc.BGP.Networks)
			clear(sp.nhCost)
			redecide = append(redecide, sp)
		}
		e.speakers[dc.Hostname] = sp
		e.sp = append(e.sp, sp)
		dcOf[sp] = dc
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
	if len(e.slots) != len(e.sp) {
		e.slots = make([]turnResult, len(e.sp))
	}
	for _, sp := range e.sp {
		e.wireSessions(sp, dcOf[sp])
	}
	// A deterministic report: map iteration never orders this list, and
	// every entry names the peer address, so golden diffs are stable.
	sort.Strings(e.sessionsDown)
	for _, sp := range e.sp {
		e.wireRIBIns(sp)
	}
	for _, sp := range redecide {
		sp.pending = sp.allPrefixes(make([]netip.Prefix, 0, len(sp.rib)+len(sp.pending)), sp.pending, &e.seq)
	}
}

// clearTables empties every session's and export group's attribute table.
func (e *BGPEngine) clearTables() {
	for _, sp := range e.sp {
		for k := range sp.in {
			clear(sp.in[k].attrs)
		}
		for _, o := range sp.outs {
			clear(o.attrs)
		}
	}
}

// wireSessions establishes a speaker's sessions — a neighbor statement whose
// address belongs to a device that has a matching reverse session — and
// groups them into export groups, keeping every adj-RIB-out whose key
// survives. A kept speaker's session, group and peer lists are rewritten in
// their own arrays: nothing holds them across a Rebind.
func (e *BGPEngine) wireSessions(sp *speaker, dc *DeviceConfig) {
	sp.sessions = sp.sessions[:0]
	for _, nbr := range dc.BGP.Neighbors {
		peerHost, ok := e.addrOwner[nbr.Addr]
		if !ok {
			e.sessionsDown = append(e.sessionsDown, fmt.Sprintf("%s -> %v (address unknown)", sp.host, nbr.Addr))
			continue
		}
		peer := e.speakers[peerHost]
		if peer == nil {
			e.sessionsDown = append(e.sessionsDown, fmt.Sprintf("%s -> %s@%v (runs no BGP)", sp.host, peerHost, nbr.Addr))
			continue
		}
		if peer.asn != nbr.RemoteASN {
			e.sessionsDown = append(e.sessionsDown, fmt.Sprintf("%s -> %s@%v (remote-as %d, actual %d)", sp.host, peerHost, nbr.Addr, nbr.RemoteASN, peer.asn))
			continue
		}
		sp.sessions = append(sp.sessions, session{
			peerHost: peerHost, peerAddr: nbr.Addr, cfg: nbr,
			ebgp: nbr.RemoteASN != sp.asn, myAddr: sp.myAddressOn(nbr.Addr),
		})
		e.sessionsUp++
	}
	kept := make(map[exportKey]*ribOut, len(sp.outs))
	for _, o := range sp.outs {
		kept[sp.exportKey(&o.sess)] = o
	}
	if sp.outTo == nil {
		sp.outTo = map[string]*ribOut{}
	}
	sp.outs, sp.peers = sp.outs[:0], sp.peers[:0]
	clear(sp.outTo)
	groups := map[exportKey]*ribOut{}
	for i := range sp.sessions {
		s := &sp.sessions[i]
		if sp.outTo[s.peerHost] != nil {
			continue
		}
		k := sp.exportKey(s)
		g := groups[k]
		if g == nil {
			if g = kept[k]; g == nil {
				g = &ribOut{}
				for j := range sp.rib {
					if a := sp.advertised(&g.attrs, s, sp.rib[j].PathAttrs); a != nil {
						g.routes = append(g.routes, BGPRoute{Prefix: sp.rib[j].Prefix, PathAttrs: a})
					}
				}
			}
			g.sess, g.members = *s, 0
			groups[k] = g
			sp.outs = append(sp.outs, g)
		}
		g.members++
		sp.outTo[s.peerHost] = g
		sp.peers = append(sp.peers, e.speakers[s.peerHost])
	}
}

// wireRIBIns points each of a speaker's adj-RIB-ins at the peer's
// adj-RIB-out toward it, keeping the list of every session that survived
// and withdrawing the rest. It runs after every speaker's export groups are
// wired.
func (e *BGPEngine) wireRIBIns(sp *speaker) {
	sorted := append(e.wiring[:0], sp.sessions...)
	slices.SortStableFunc(sorted, func(a, b session) int { return a.peerAddr.Compare(b.peerAddr) })
	// A repeated neighbor address is one session; the first statement is
	// the one inbound policy has always read.
	sorted = slices.CompactFunc(sorted, func(a, b session) bool { return a.peerAddr == b.peerAddr })
	e.wiring = sorted
	if slices.Equal(sorted, sp.sorted) && !slices.ContainsFunc(sorted, func(s session) bool { return e.speakers[s.peerHost].outTo[sp.host] == nil }) {
		// Every session survived and still hears its peer: what the general
		// path below does per index, without matching sessions by key.
		for k := range sp.in {
			in, from := &sp.in[k], e.speakers[sorted[k].peerHost].outTo[sp.host]
			in.synced = in.synced && in.from == from
			in.from = from
		}
		return
	}
	sorted = slices.Clone(sorted)
	kept := make(map[session]*ribIn, len(sp.sorted))
	for k, s := range sp.sorted {
		kept[s] = &sp.in[k]
	}
	in := make([]ribIn, len(sorted))
	for k, s := range sorted {
		from := e.speakers[s.peerHost].outTo[sp.host]
		old, ok := kept[s]
		delete(kept, s)
		if ok && from != nil {
			in[k] = *old
			in[k].synced = old.synced && old.from == from
			in[k].from = from
			continue
		}
		if ok { // the peer dropped its session back: nothing is heard on this one
			sp.withdraw(old)
		}
		// An empty list reflects an empty adj-RIB-out at its version.
		in[k] = ribIn{from: from, synced: from == nil || len(from.routes) == 0}
		if from != nil {
			in[k].seen = from.version
		}
	}
	for _, old := range kept {
		sp.withdraw(old)
	}
	sp.sorted, sp.in = sorted, in
}

// withdraw takes a session's routes out of the speaker's state hash and
// queues their prefixes for re-decision.
func (sp *speaker) withdraw(in *ribIn) {
	sp.seg -= sumHash(in.routes, saltIn)
	for i := range in.routes {
		sp.pending = append(sp.pending, in.routes[i].Prefix)
	}
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
func (e *BGPEngine) SetPerturber(p *ScheduledPerturber) { e.pert = p }

// deliver applies the perturbation layer to one session's advertisements
// for the current round, recording session up/down transitions. It runs
// under the perturber lock (shards evaluate concurrently); when events is
// set, the lines the perturber logs go there so the round driver can
// restage them in sweep order.
func (e *BGPEngine) deliver(from, to string, routes []BGPRoute, events *[]string) []BGPRoute {
	if e.pert == nil {
		return routes
	}
	e.pertMu.Lock()
	defer e.pertMu.Unlock()
	if events != nil {
		e.pert.setCapture(events)
		defer e.pert.setCapture(nil)
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
func (sp *speaker) myAddressOn(peerAddr netip.Addr) netip.Addr {
	for _, ic := range sp.ifaces {
		if ic.Prefix.Contains(peerAddr) && ic.Prefix.Bits() < 32 {
			return ic.Addr
		}
	}
	if sp.loopback.IsValid() {
		return sp.loopback
	}
	if len(sp.ifaces) > 0 {
		return sp.ifaces[0].Addr
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
	var table attrTable // outbound policy per session, not per export group
	for _, sp := range e.sp {
		for i := range sp.sorted {
			s := &sp.sorted[i]
			peer := e.speakers[s.peerHost]
			var out []BGPRoute
			clear(table)
			for j := range sp.rib {
				if a := sp.advertised(&table, s, sp.rib[j].PathAttrs); a != nil {
					out = append(out, BGPRoute{Prefix: sp.rib[j].Prefix, PathAttrs: a})
				}
			}
			out = e.deliver(sp.host, s.peerHost, out, nil)
			// The peer indexes the session by the address it configured for
			// me.
			if k := e.sessionFrom(peer, sp, s.myAddr); k >= 0 {
				next[peer.idx][k] = filterReceived(peer, &peer.sorted[k], out, &peer.in[k].attrs)
			}
		}
	}
	changed := false
	for i, sp := range e.sp {
		for k := range sp.in {
			in := &sp.in[k]
			changed = changed || !routeSlicesEqual(in.routes, next[i][k])
			// The list no longer reflects the peer's adj-RIB-out.
			in.routes, in.synced = next[i][k], false
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
		e.seq.dirty = sp.allPrefixes(e.seq.dirty[:0], nil, &e.seq)
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
	if e.useSharded() {
		e.statShardRounds++
		e.runSharded()
		for i, sp := range e.sp {
			e.apply(sp, &e.slots[i])
		}
	} else {
		for i, sp := range e.sp {
			e.turn(sp, &e.slots[i], &e.seq)
			e.apply(sp, &e.slots[i])
		}
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
// changed-at stamps, the round's verdict and work record, and captured
// perturbation events. The drivers call it in sweep
// order, which is the order the effects have always happened in.
func (e *BGPEngine) apply(sp *speaker, t *turnResult) {
	for _, p := range t.churned {
		e.churn[p]++
	}
	if len(t.churned) > 0 {
		e.changedAt[sp.host] = e.rounds
	}
	e.roundChanged = e.roundChanged || t.changed
	if t.skipped {
		e.cur.Skipped++
	} else {
		e.cur.Evaluated++
	}
	e.cur.Sessions += t.sessions
	e.cur.Decided += t.decided
	e.cur.Adverts += t.adverts
	e.cur.Churned += len(t.churned)
	e.statCrossAdverts += int64(t.cross)
	if len(t.events) > 0 {
		e.pert.restageEvents(t.events)
	}
}

// BGPRound is one round's work record: counts only, no wall-clock, and the
// same at any shard count. In sequential mode a speaker is skipped when no
// session had anything new for it and nothing was pending, evaluated
// otherwise; synchronous rounds evaluate everyone, twice when the exchange
// changed something.
type BGPRound struct {
	Round              int
	Evaluated, Skipped int // speakers
	Sessions           int // sessions whose changes were consumed
	Decided            int // prefixes whose selection was re-decided
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

// accept applies inbound processing to one record heard on session s: loop
// prevention and local-pref assignment. It reports whether the route is
// kept, its attributes written to out.
func (sp *speaker) accept(s *session, r, out *PathAttrs) bool {
	if s.ebgp && slices.Contains(r.ASPath, sp.asn) {
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

// accepted is accept's record from the session's table t, or nil.
func (sp *speaker) accepted(t *attrTable, s *session, r *PathAttrs) *PathAttrs {
	var a PathAttrs
	if !sp.accept(s, r, &a) {
		return nil
	}
	return t.intern(&a)
}

// filterReceived is accept over a whole delivery.
func filterReceived(sp *speaker, s *session, routes []BGPRoute, t *attrTable) []BGPRoute {
	var out []BGPRoute
	for i := range routes {
		if a := sp.accepted(t, s, routes[i].PathAttrs); a != nil {
			out = append(out, BGPRoute{Prefix: routes[i].Prefix, PathAttrs: a})
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
	if !sp.loopback.IsValid() {
		k.nextHopSelf = s.myAddr
	}
	return k
}

// advertise applies outbound policy for one record on one session. It
// reports whether the route is sent, its attributes written to out. AS
// paths are shared, not copied: no record is written once sealed.
func (sp *speaker) advertise(rt *PathAttrs, s *session, out *PathAttrs) bool {
	*out = *rt
	if s.ebgp {
		if slices.Contains(rt.ASPath, s.cfg.RemoteASN) {
			return false
		}
		out.ASPath = append(append(make([]int, 0, len(rt.ASPath)+1), sp.asn), rt.ASPath...)
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
		if sp.loopback.IsValid() {
			out.NextHop = sp.loopback
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

// advertised is advertise's record from t, the table of s's export group
// (or of s alone), or nil.
func (sp *speaker) advertised(t *attrTable, s *session, rt *PathAttrs) *PathAttrs {
	var a PathAttrs
	if !sp.advertise(rt, s, &a) {
		return nil
	}
	return t.intern(&a)
}

// RouteChurn returns the per-prefix count of best-route changes across all
// speakers during the most recent run (rounds-to-quiescence's companion
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

// SoftReset flushes the given speakers' RIBs (adj-RIB-in and selections),
// so a following Run re-exchanges routes from scratch on those sessions —
// the supervisor's `clear ip bgp` escalation step. The perturbation layer
// is notified so session-state-local faults can heal.
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
// again (after a SoftReset or a Rebind) continues from the current protocol
// state under a fresh round budget, with rounds counted from one.
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

// beginRun resets the per-run state: rounds, the round log, state hashes,
// churn, changed-at stamps, the session-flap maps, the verdict, the shard
// statistics, the perturbation layer's delivery state and the attribute
// tables.
func (e *BGPEngine) beginRun() {
	e.rounds, e.log = 0, nil
	e.stateHashes = map[uint64][]int{}
	e.churn, e.changedAt = map[netip.Prefix]int{}, map[string]int{}
	e.sessFlaps, e.sessUp = map[[2]string]int{}, map[[2]string]bool{}
	e.statShardRounds, e.statCrossAdverts = 0, 0
	e.converged, e.oscillating, e.cancelled = false, false, false
	e.cycleLen = 0
	if e.pert != nil {
		e.pert.Reset()
	}
	e.clearTables()
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
// by (address, length), to be read only. Turns patch it in place, so it is
// valid only until the engine next runs: a reader that outlives a run copies
// it (BestRoutes).
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

// routeEqual compares what convergence detection sees: everything but
// LearnedFrom and FromRRClient (see routeIdentical).
func routeEqual(a, b BGPRoute) bool {
	return a.Prefix == b.Prefix && attrsEqual(a.PathAttrs, b.PathAttrs)
}

func attrsEqual(a, b *PathAttrs) bool {
	return a == b || a.NextHop == b.NextHop && a.LocalPref == b.LocalPref &&
		a.MED == b.MED && a.FromEBGP == b.FromEBGP && a.Local == b.Local &&
		a.OriginatorID == b.OriginatorID && slices.Equal(a.ASPath, b.ASPath)
}
