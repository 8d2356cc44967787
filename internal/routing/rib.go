package routing

import (
	"encoding/binary"
	"net/netip"
	"slices"
)

// Delta evaluation. A speaker's protocol state is three kinds of route
// list, each sorted by prefix: one adj-RIB-in per session (ribIn), the
// selection (speaker.rib) and one adj-RIB-out per export group (ribOut),
// shared by the peers outbound policy treats alike — in an iBGP full mesh,
// every peer. A Gauss–Seidel turn (turn, below) moves only what changed
// through them: it consumes the changes its peers published since it last
// looked, re-decides the prefixes those touched, and runs outbound policy
// once per export group for the prefixes whose selection moved. A turn
// with no dirty session does no work. This is the only evaluation path;
// the naive full-table pull it replaced survives as the test oracle in
// reference_test.go.
//
// Adj-RIB-ins and selections are patched in their own arrays
// (patch.applyInPlace): each has one owner, and only a round's delta
// (ribOut.delta) describes a change, so an incident costs the entries it
// moves, not copies of whole lists. Adj-RIB-outs stay copy-on-write
// (patch.apply): member peers read them, and a perturber keeps the slices it
// was delivered. A selection is therefore only valid until the speaker's
// next turn (BGPEngine.Selected).

// routeChange is one entry of a delta: the new route for rt.Prefix, or its
// withdrawal.
type routeChange struct {
	rt        BGPRoute
	withdrawn bool
}

// ribOut is a speaker's adj-RIB-out toward one export group, the peers
// whose sessions agree on every field outbound policy reads (exportKey): the
// routes policy lets through, a version that bumps exactly when that
// content changes, and the last bump's changes. Each member keeps its own
// adj-RIB-in and seen version against it. Only the owner writes it and only
// the members read it; the owner never runs concurrently with a session
// peer (shard.go), and members in different shards only read, so it needs
// no lock.
type ribOut struct {
	sess    session // the group's first session; advertise reads only its key
	members int     // peers in the group
	routes  []BGPRoute
	version uint64
	// delta takes version-1 to version; nil after the content was replaced
	// wholesale (soft reset), which no delta describes.
	delta []routeChange
}

// ribIn is one session's adj-RIB-in: the routes accepted from the peer, in
// delivery order (prefix order unless a perturber reorders them).
type ribIn struct {
	routes []BGPRoute
	from   *ribOut // the peer's adj-RIB-out toward this speaker; nil when it has no session back
	// seen is the from.version this list reflects. synced is false when it
	// reflects something else — a perturbed delivery, a flush, a synchronous
	// round — and the next turn must diff the whole session.
	seen   uint64
	synced bool
	sorted bool // routes ascend by prefix, so lookups may search
}

// ComparePrefix orders prefixes by (address, length): the order every route
// list a device's forwarding table is merged from ascends in.
func ComparePrefix(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return a.Bits() - b.Bits()
}

// seek returns the first index at or after from whose prefix is not below p.
func seek(list []BGPRoute, from int, p netip.Prefix) int {
	lo, hi := from, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ComparePrefix(list[mid].Prefix, p) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func isSorted(list []BGPRoute) bool {
	return slices.IsSortedFunc(list, func(a, b BGPRoute) int { return ComparePrefix(a.Prefix, b.Prefix) })
}

// patch stages changes against a sorted, duplicate-free list. set must be
// called with ascending prefixes. With seg set it keeps that state hash
// current: minus the entry a change removes, plus the one it installs.
type patch struct {
	list      []BGPRoute
	chg       []routeChange
	pos, grow int
	seg       *uint64
	salt      uint64
}

// set proposes next (nil: no route) for prefix p and stages it when it is
// not identical to what the list holds. moved reports a staged change that
// convergence detection sees too (routeEqual ignores the fields a session
// fixes).
func (pt *patch) set(p netip.Prefix, next *BGPRoute) (staged, moved bool) {
	var old *BGPRoute
	pt.pos = seek(pt.list, pt.pos, p)
	if pt.pos < len(pt.list) && pt.list[pt.pos].Prefix == p {
		old = &pt.list[pt.pos]
	}
	switch {
	case next == nil && old == nil, next != nil && old != nil && routeIdentical(*old, *next):
		return false, false
	case next == nil:
		pt.chg = append(pt.chg, routeChange{rt: BGPRoute{Prefix: p}, withdrawn: true})
		pt.grow--
	default:
		pt.chg = append(pt.chg, routeChange{rt: *next})
		if old == nil {
			pt.grow++
		}
	}
	if pt.seg != nil && old != nil {
		*pt.seg -= routeHash(old, pt.salt)
	}
	if pt.seg != nil && next != nil {
		*pt.seg += routeHash(next, pt.salt)
	}
	return true, old == nil || next == nil || !routeEqual(*old, *next)
}

// apply returns the list with the staged changes merged in, as a new
// exact-size slice: the copy-on-write an adj-RIB-out needs.
func (pt *patch) apply() []BGPRoute {
	if len(pt.chg) == 0 {
		return pt.list
	}
	return pt.merge(make([]BGPRoute, 0, len(pt.list)+pt.grow))
}

// applyInPlace is apply in the list's own array when its capacity holds the
// result; a list without the room takes apply's copy. The entries a shrink
// vacates are zeroed, so that no stale AS path stays reachable.
func (pt *patch) applyInPlace() []BGPRoute {
	n := len(pt.list) + pt.grow
	if len(pt.chg) == 0 || n > cap(pt.list) {
		return pt.apply()
	}
	out := pt.merge(pt.list[:0])
	clear(pt.list[min(n, len(pt.list)):])
	return out
}

// merge writes the list with the staged changes applied into dst, which has
// the capacity for it and is a fresh array or the list's own. A forward pass
// drops withdrawals and overwrites replacements, never writing ahead of what
// it has read; a backward pass then opens a gap for each insertion, never
// reading below what it has written. The changes are only read: reselect
// publishes them after the merge.
func (pt *patch) merge(dst []BGPRoute) []BGPRoute {
	dst, i := dst[:0], 0
	for k := range pt.chg {
		c := &pt.chg[k]
		j := seek(pt.list, i, c.rt.Prefix)
		dst = append(dst, pt.list[i:j]...) // a no-op where nothing has shifted yet
		if i = j; i < len(pt.list) && pt.list[i].Prefix == c.rt.Prefix {
			i++
			if !c.withdrawn {
				dst = append(dst, c.rt)
			}
		}
	}
	dst = append(dst, pt.list[i:]...)
	r, w := len(dst), len(pt.list)+pt.grow
	dst = dst[:w]
	for k := len(pt.chg) - 1; w > r; k-- {
		c := &pt.chg[k]
		if c.withdrawn {
			continue
		}
		j := seek(dst[:r], 0, c.rt.Prefix)
		if j < r && dst[j].Prefix == c.rt.Prefix {
			continue // a replacement, made by the forward pass
		}
		w -= copy(dst[w-(r-j):w], dst[j:r])
		r, w = j, w-1
		dst[w] = c.rt
	}
	return dst
}

// routeIdentical is routeEqual plus the fields it deliberately ignores.
// Delta staging needs full identity: LearnedFrom feeds decision steps 7–8
// and FromRRClient drives iBGP reflection.
func routeIdentical(a, b BGPRoute) bool {
	return a.LearnedFrom == b.LearnedFrom && a.FromRRClient == b.FromRRClient && routeEqual(a, b)
}

// diffPrefixes appends every prefix whose routes differ between two
// versions of an adj-RIB-in. Unsorted (perturbed) lists mark everything.
func diffPrefixes(old, next []BGPRoute, sorted bool, dirty []netip.Prefix) []netip.Prefix {
	if !sorted {
		for _, l := range [][]BGPRoute{old, next} {
			for i := range l {
				dirty = append(dirty, l[i].Prefix)
			}
		}
		return dirty
	}
	for i, j := 0, 0; i < len(old) || j < len(next); {
		var p netip.Prefix
		if j == len(next) || i < len(old) && ComparePrefix(old[i].Prefix, next[j].Prefix) <= 0 {
			p = old[i].Prefix
		} else {
			p = next[j].Prefix
		}
		i0, j0 := i, j
		for i < len(old) && old[i].Prefix == p {
			i++
		}
		for j < len(next) && next[j].Prefix == p {
			j++
		}
		if !slices.EqualFunc(old[i0:i], next[j0:j], routeIdentical) {
			dirty = append(dirty, p)
		}
	}
	return dirty
}

// State hash. A speaker's segment is its hostname salt plus the sum of one
// hash per adj-RIB-in entry and per selected route, so a turn maintains it
// by subtracting what it removed and adding what it installed. The sum is
// order-independent and counts duplicates. Only equality across rounds is
// observable (cycle detection): equal states hash equal.
const (
	saltIn  = 0x9e3779b97f4a7c15
	saltRIB = 0xc2b2ae3d27d4eb4f
)

func mix(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

func mixAddr(h uint64, a netip.Addr) uint64 {
	b := a.As16()
	h = mix(h, binary.BigEndian.Uint64(b[:8]))
	h = mix(h, binary.BigEndian.Uint64(b[8:]))
	return mix(h, uint64(a.BitLen()))
}

func routeHash(rt *BGPRoute, salt uint64) uint64 {
	h := mixAddr(salt, rt.Prefix.Addr())
	h = mix(h, uint64(rt.Prefix.Bits()))
	h = mixAddr(h, rt.NextHop)
	h = mixAddr(h, rt.OriginatorID)
	h = mixAddr(h, rt.LearnedFrom)
	h = mix(h, uint64(rt.LocalPref))
	h = mix(h, uint64(rt.MED))
	flags := uint64(len(rt.ASPath)) << 4
	for i, f := range [...]bool{rt.FromEBGP, rt.Local, rt.FromRRClient} {
		if f {
			flags |= 1 << i
		}
	}
	h = mix(h, flags)
	for _, a := range rt.ASPath {
		h = mix(h, uint64(a))
	}
	return h
}

func sumHash(list []BGPRoute, salt uint64) (sum uint64) {
	for i := range list {
		sum += routeHash(&list[i], salt)
	}
	return sum
}

// segHash renders a speaker's whole segment; turns maintain speaker.seg
// incrementally and must agree with it.
func segHash(sp *speaker) uint64 {
	h := sp.salt + sumHash(sp.rib, saltRIB)
	for k := range sp.in {
		h += sumHash(sp.in[k].routes, saltIn)
	}
	return h
}

// turnResult is what one speaker's turn leaves for the round driver to
// apply (BGPEngine.apply) — at once in the sequential sweep, at the merge
// barrier in the sharded one. Everything a turn changes outside its own
// speaker goes through here, so both drivers run the same turn.
type turnResult struct {
	skipped, changed           bool
	churned                    []netip.Prefix // prefixes whose best route moved
	events                     []string       // perturber lines, in session order
	sessions, decided, adverts int
	cross                      int // adj-RIB-in changes taken over eBGP sessions
}

// scratch holds a round driver's reusable buffers, one per goroutine.
type scratch struct {
	dirty    []netip.Prefix
	chg, adv []routeChange // adj-RIB-in then selection changes; adj-RIB-out changes
	cands    []*BGPRoute
	cur      []int
	local    BGPRoute // the candidate for an originated network
	route    BGPRoute // the route inbound or outbound policy just produced
}

// turn is one speaker's step of a Gauss–Seidel round: it consumes what its
// sessions changed and re-decides those prefixes and the pending ones.
func (e *BGPEngine) turn(sp *speaker, t *turnResult, sc *scratch) {
	*t = turnResult{churned: t.churned[:0], events: t.events[:0]}
	dirty := append(sc.dirty[:0], sp.pending...)
	sp.pending = nil
	for k := range sp.in {
		dirty = e.consume(sp, k, dirty, t, sc)
	}
	if t.skipped = len(dirty) == 0; !t.skipped {
		slices.SortFunc(dirty, ComparePrefix)
		e.reselect(sp, slices.Compact(dirty), t, sc)
	}
	sc.dirty = dirty
}

// consume brings one session's adj-RIB-in up to date with the peer's
// adj-RIB-out and appends the prefixes it changed. An unperturbed receiver
// that saw the previous version applies the delta; one that is further
// behind, or whose list reflects something else, diffs the whole session.
// A perturber makes every delivery round-keyed and stateful, so under one
// every session takes the whole path every round.
func (e *BGPEngine) consume(sp *speaker, k int, dirty []netip.Prefix, t *turnResult, sc *scratch) []netip.Prefix {
	in, s := &sp.in[k], &sp.sorted[k]
	out := in.from
	if out == nil {
		return dirty
	}
	current := e.pert == nil && in.synced
	before := len(dirty)
	switch {
	case current && in.seen == out.version:
		return dirty
	case current && in.seen+1 == out.version && out.delta != nil:
		pt := patch{list: in.routes, chg: sc.chg[:0], seg: &sp.seg, salt: saltIn}
		for i := range out.delta {
			c := &out.delta[i]
			var next *BGPRoute
			if !c.withdrawn && sp.accept(s, &c.rt, &sc.route) {
				next = &sc.route
			}
			if staged, moved := pt.set(c.rt.Prefix, next); staged {
				dirty = append(dirty, c.rt.Prefix)
				t.changed = t.changed || moved
			}
		}
		in.routes, sc.chg = pt.applyInPlace(), pt.chg
	default:
		next := filterReceived(sp, s, e.deliver(s.peerHost, sp.host, out.routes, &t.events))
		if !slices.EqualFunc(in.routes, next, routeIdentical) {
			sorted := isSorted(next)
			dirty = diffPrefixes(in.routes, next, in.sorted && sorted, dirty)
			sp.seg += sumHash(next, saltIn) - sumHash(in.routes, saltIn)
			t.changed = t.changed || !routeSlicesEqual(in.routes, next)
			in.routes, in.sorted = next, sorted
		}
	}
	in.seen, in.synced = out.version, e.pert == nil
	t.sessions++
	if s.ebgp {
		t.cross += len(dirty) - before
	}
	return dirty
}

// reselect runs the decision process for the given prefixes (ascending,
// distinct), installs the selections that moved and publishes them.
// Candidates fold in the order the decision process has always seen them:
// the local route, then sessions by peer address, each in list order (the
// MED step is not transitive, so the order is part of the result).
func (e *BGPEngine) reselect(sp *speaker, dirty []netip.Prefix, t *turnResult, sc *scratch) {
	cur := sc.cur[:0]
	for range sp.in {
		cur = append(cur, 0)
	}
	pt := patch{list: sp.rib, chg: sc.chg[:0], seg: &sp.seg, salt: saltRIB}
	for _, p := range dirty {
		cands := sc.cands[:0]
		if slices.Contains(sp.networks, p) {
			sc.local = BGPRoute{Prefix: p, LocalPref: 100, Local: true}
			cands = append(cands, &sc.local)
		}
		for k := range sp.in {
			in := &sp.in[k]
			j := 0
			if in.sorted {
				j = seek(in.routes, cur[k], p)
				cur[k] = j
			}
			for ; j < len(in.routes); j++ {
				rt := &in.routes[j]
				if rt.Prefix != p {
					if in.sorted {
						break
					}
					continue
				}
				// Next-hop reachability check.
				if !rt.NextHop.IsValid() || e.nextHopCost(sp, rt.NextHop) >= 0 {
					cands = append(cands, rt)
				}
			}
		}
		sc.cands = cands
		if _, moved := pt.set(p, e.decide(sp, cands)); moved {
			t.churned = append(t.churned, p)
			t.changed = true
		}
	}
	t.decided += len(dirty)
	sp.rib, sc.chg, sc.cur = pt.applyInPlace(), pt.chg, cur
	if len(pt.chg) > 0 {
		sp.publish(pt.chg, t, sc)
	}
}

// publish runs outbound policy once per (changed prefix, export group) and
// bumps the adj-RIB-outs whose content moved.
func (sp *speaker) publish(moved []routeChange, t *turnResult, sc *scratch) {
	for _, o := range sp.outs {
		pt := patch{list: o.routes, chg: sc.adv[:0]}
		for i := range moved {
			var next *BGPRoute
			if !moved[i].withdrawn && sp.advertise(&moved[i].rt, &o.sess, &sc.route) {
				next = &sc.route
			}
			pt.set(moved[i].rt.Prefix, next)
		}
		sc.adv = pt.chg
		if len(pt.chg) == 0 {
			continue
		}
		o.routes, o.delta = pt.apply(), append(o.delta[:0], pt.chg...)
		o.version++
		t.adverts += len(pt.chg) * o.members
	}
}

// flush empties a speaker's protocol state (soft reset). Peers learn of it
// through the version jump, which no delta describes.
func (sp *speaker) flush() {
	for k := range sp.in {
		sp.in[k].routes, sp.in[k].synced = nil, false
	}
	for _, o := range sp.outs {
		o.routes, o.delta = nil, nil
		o.version += 2
	}
	sp.rib, sp.seg = nil, sp.salt
	sp.pending = slices.Clone(sp.networks)
}

// allPrefixes appends every prefix the speaker knows a candidate or a
// selection for to buf, and returns it ascending and distinct.
func (sp *speaker) allPrefixes(buf []netip.Prefix) []netip.Prefix {
	buf = append(buf, sp.networks...)
	for i := range sp.rib {
		buf = append(buf, sp.rib[i].Prefix)
	}
	for k := range sp.in {
		for i := range sp.in[k].routes {
			buf = append(buf, sp.in[k].routes[i].Prefix)
		}
	}
	slices.SortFunc(buf, ComparePrefix)
	return slices.Compact(buf)
}
