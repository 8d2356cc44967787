package routing

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"testing"

	"autonetkit/internal/core"
	"autonetkit/internal/topogen"
)

// The reference oracle: the full-state-pull Gauss–Seidel sweep the engine
// ran before delta evaluation (rib.go), kept deliberately naive. Every
// speaker, every round, re-sorts each peer's whole selection, re-runs
// outbound and inbound policy for every prefix over every session,
// rebuilds its adj-RIB-in and loc-RIB maps wholesale and re-decides every
// prefix. It shares with the engine only what delta evaluation did not
// touch: session establishment, the outbound policy and decision process
// of one route, and the perturbation layer's delivery. It never shards and
// keeps no version, so every shortcut the engine takes is checked against
// not taking it.

type refEngine struct {
	e      *BGPEngine // sessions, policy, decision process, perturber, counters
	adjIn  map[string]map[netip.Addr][]BGPRoute
	locRIB map[string]map[netip.Prefix]BGPRoute
}

func newRefEngine(t *testing.T, devs []*DeviceConfig, profile VendorProfile, igp IGPCoster, pert Perturber) *refEngine {
	t.Helper()
	e, err := NewBGPEngine(devs, func(string) VendorProfile { return profile }, igp)
	if err != nil {
		t.Fatal(err)
	}
	e.SetPerturber(pert)
	r := &refEngine{e: e, adjIn: map[string]map[netip.Addr][]BGPRoute{}, locRIB: map[string]map[netip.Prefix]BGPRoute{}}
	for _, host := range e.Speakers() {
		r.adjIn[host] = map[netip.Addr][]BGPRoute{}
		r.locRIB[host] = map[netip.Prefix]BGPRoute{}
	}
	return r
}

func refSortedPrefixes(m map[netip.Prefix]BGPRoute) []netip.Prefix {
	out := make([]netip.Prefix, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr() != out[j].Addr() {
			return out[i].Addr().Less(out[j].Addr())
		}
		return out[i].Bits() < out[j].Bits()
	})
	return out
}

// referenceStep is one round of the naive sweep. It returns true when the
// round changed nothing.
func (r *refEngine) referenceStep() bool {
	e := r.e
	e.rounds++
	changed := false
	for _, host := range e.Speakers() {
		sp := e.speakers[host]
		newIn := map[netip.Addr][]BGPRoute{}
		sessions := slices.Clone(sp.sessions)
		sort.Slice(sessions, func(i, j int) bool { return sessions[i].peerAddr.Less(sessions[j].peerAddr) })
		for _, s := range sessions {
			peer := e.speakers[s.peerHost]
			back := peer.outTo[sp.host] // the peer's first session toward sp
			if back == nil {
				continue
			}
			var out []BGPRoute
			for _, prefix := range refSortedPrefixes(r.locRIB[peer.host]) {
				rt := r.locRIB[peer.host][prefix]
				var adv BGPRoute
				if peer.advertise(&rt, &back.sess, &adv) {
					out = append(out, adv)
				}
			}
			out = e.deliver(peer.host, sp.host, out, nil)
			newIn[s.peerAddr] = refFilterReceived(sp, out, s.peerAddr)
		}
		spChanged := !refAdjEqual(r.adjIn[host], newIn)
		r.adjIn[host] = newIn
		if r.selectBest(sp) || spChanged {
			changed = true
		}
	}
	return !changed
}

func refFilterReceived(sp *speaker, routes []BGPRoute, fromAddr netip.Addr) []BGPRoute {
	var cfg *BGPNeighbor
	for i := range sp.sessions {
		if sp.sessions[i].peerAddr == fromAddr {
			cfg = &sp.sessions[i].cfg
			break
		}
	}
	var out []BGPRoute
	for _, r := range routes {
		if slices.Contains(r.ASPath, sp.asn) && cfg != nil && cfg.RemoteASN != sp.asn {
			continue // eBGP AS-path loop
		}
		if r.OriginatorID.IsValid() && r.OriginatorID == sp.routerID {
			continue // RR originator loop
		}
		r.LearnedFrom = fromAddr
		if cfg != nil && cfg.RemoteASN != sp.asn {
			r.FromEBGP = true
			if cfg.LocalPrefIn > 0 {
				r.LocalPref = cfg.LocalPrefIn
			} else {
				r.LocalPref = 100
			}
		} else {
			r.FromEBGP = false
			r.FromRRClient = cfg != nil && cfg.RRClient
		}
		r.Local = false
		out = append(out, r)
	}
	return out
}

// refAdjEqual compares two adj-RIB-in states, treating absent and empty
// peer entries as equal.
func refAdjEqual(a, b map[netip.Addr][]BGPRoute) bool {
	keys := map[netip.Addr]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	for k := range keys {
		if !routeSlicesEqual(a[k], b[k]) {
			return false
		}
	}
	return true
}

// selectBest runs the decision process for every known prefix, counts the
// churn, and reports whether the loc-RIB changed.
func (r *refEngine) selectBest(sp *speaker) bool {
	e := r.e
	candidates := map[netip.Prefix][]*BGPRoute{}
	for _, p := range sp.networks {
		candidates[p] = append(candidates[p], &BGPRoute{Prefix: p, LocalPref: 100, Local: true})
	}
	peers := make([]netip.Addr, 0, len(r.adjIn[sp.host]))
	for a := range r.adjIn[sp.host] {
		peers = append(peers, a)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].Less(peers[j]) })
	for _, peer := range peers {
		list := r.adjIn[sp.host][peer]
		for i := range list {
			if list[i].NextHop.IsValid() && e.igp.IGPCost(sp.host, list[i].NextHop) < 0 {
				continue
			}
			candidates[list[i].Prefix] = append(candidates[list[i].Prefix], &list[i])
		}
	}
	newRIB := map[netip.Prefix]BGPRoute{}
	for p, cands := range candidates {
		if best := e.decide(sp, cands); best != nil {
			newRIB[p] = *best
		}
	}
	old, changed := r.locRIB[sp.host], false
	for p, nr := range newRIB {
		if or, had := old[p]; !had || !routeEqual(or, nr) {
			e.churn[p]++
			changed = true
		}
	}
	for p := range old {
		if _, still := newRIB[p]; !still {
			e.churn[p]++
			changed = true
		}
	}
	if changed {
		e.changedAt[sp.host] = e.rounds
	}
	r.locRIB[sp.host] = newRIB
	return changed
}

// stateHash renders the complete protocol state the way the engine used
// to: every adj-RIB-in in order, then the selection, through fmt.
func (r *refEngine) stateHash() uint64 {
	h := fnv.New64a()
	for _, host := range r.e.Speakers() {
		fmt.Fprintf(h, "%s|", host)
		peers := make([]netip.Addr, 0, len(r.adjIn[host]))
		for a := range r.adjIn[host] {
			peers = append(peers, a)
		}
		sort.Slice(peers, func(i, j int) bool { return peers[i].Less(peers[j]) })
		for _, peer := range peers {
			fmt.Fprintf(h, "<%v:", peer)
			for _, rt := range r.adjIn[host][peer] {
				fmt.Fprintf(h, "%v>%v[%s]lp%dm%do%v;", rt.Prefix, rt.NextHop, rt.pathString(), rt.LocalPref, rt.MED, rt.OriginatorID)
			}
		}
		for _, p := range refSortedPrefixes(r.locRIB[host]) {
			rt := r.locRIB[host][p]
			fmt.Fprintf(h, "%v>%v[%s];", p, rt.NextHop, rt.pathString())
		}
	}
	return h.Sum64()
}

// runRound is the engine's verdict logic over the naive step and hash.
func (r *refEngine) runRound() bool {
	e := r.e
	if r.referenceStep() {
		e.converged = e.pert == nil || !e.pert.Pending(e.rounds)
		return e.converged
	}
	h := r.stateHash()
	seen := e.stateHashes[h]
	if cl, ok := e.cycleDetected(seen); ok {
		e.oscillating, e.cycleLen = true, cl
		return true
	}
	if len(seen) == 3 {
		seen = seen[1:]
	}
	e.stateHashes[h] = append(seen, e.rounds)
	return false
}

func (r *refEngine) softReset(hosts []string) {
	for _, host := range hosts {
		r.adjIn[host] = map[netip.Addr][]BGPRoute{}
		r.locRIB[host] = map[netip.Prefix]BGPRoute{}
	}
	r.e.SoftReset(hosts)
}

// refRound is everything the property test compares after one round. The
// naive sweep replaces its maps wholesale, so holding them is a snapshot.
type refRound struct {
	done     bool
	adjIn    map[string]map[netip.Addr][]BGPRoute
	locRIB   map[string]map[netip.Prefix]BGPRoute
	churn    map[netip.Prefix]int
	unstable [3][]string
}

// refRun is one run's trajectory: its rounds and its verdict.
type refRun struct {
	rounds []refRound
	result BGPResult
}

func (r *refEngine) run(maxRounds int) refRun {
	r.e.beginRun()
	var out refRun
	for i := 0; i < maxRounds; i++ {
		rr := refRound{done: r.runRound(), adjIn: map[string]map[netip.Addr][]BGPRoute{},
			locRIB: map[string]map[netip.Prefix]BGPRoute{}, churn: r.e.RouteChurn()}
		for _, host := range r.e.Speakers() {
			rr.adjIn[host], rr.locRIB[host] = r.adjIn[host], r.locRIB[host]
		}
		for w := range rr.unstable {
			rr.unstable[w] = r.e.UnstableSpeakers(w + 1)
		}
		out.rounds = append(out.rounds, rr)
		if rr.done {
			break
		}
	}
	out.result = r.e.endRun()
	return out
}

// checkRound compares the engine's state after a round with the
// reference's.
func checkRound(t *testing.T, label string, e *BGPEngine, want refRound) {
	t.Helper()
	for _, sp := range e.sp {
		heard := 0
		for k, s := range sp.sorted {
			if got, ref := sp.in[k].routes, want.adjIn[sp.host][s.peerAddr]; !slices.EqualFunc(got, ref, routeIdentical) {
				t.Fatalf("%s round %d: %s adj-RIB-in from %v differs: %d routes, reference %d", label, e.rounds,
					sp.host, s.peerAddr, len(got), len(ref))
			}
			if _, ok := want.adjIn[sp.host][s.peerAddr]; ok {
				heard++
			}
		}
		if heard != len(want.adjIn[sp.host]) {
			t.Fatalf("%s round %d: %s hears %d of the reference's %d sessions", label, e.rounds, sp.host, heard, len(want.adjIn[sp.host]))
		}
		if len(sp.rib) != len(want.locRIB[sp.host]) {
			t.Fatalf("%s round %d: %s selects %d routes, reference %d", label, e.rounds, sp.host, len(sp.rib), len(want.locRIB[sp.host]))
		}
		for _, rt := range sp.rib {
			if ref, ok := want.locRIB[sp.host][rt.Prefix]; !ok || !routeIdentical(rt, ref) {
				t.Fatalf("%s round %d: %s selects %v, reference %v", label, e.rounds, sp.host, rt, ref)
			}
		}
		if !isSorted(sp.rib) {
			t.Fatalf("%s round %d: %s selection is not in prefix order", label, e.rounds, sp.host)
		}
		if sp.seg != segHash(sp) {
			t.Fatalf("%s round %d: %s maintained state hash disagrees with a full render", label, e.rounds, sp.host)
		}
	}
	if got := e.RouteChurn(); !reflect.DeepEqual(got, want.churn) {
		t.Fatalf("%s round %d: churn differs:\n got %v\nwant %v", label, e.rounds, got, want.churn)
	}
	for w, names := range want.unstable {
		if got := e.UnstableSpeakers(w + 1); !slices.Equal(got, names) {
			t.Fatalf("%s round %d: unstable speakers (window %d) %v, reference %v", label, e.rounds, w+1, got, names)
		}
	}
}

// checkRun drives the engine round by round through one run against a
// reference trajectory: same state after every round, same round count,
// same verdict.
func checkRun(t *testing.T, label string, e *BGPEngine, want refRun, maxRounds int) {
	t.Helper()
	e.beginRun()
	for i := 0; i < maxRounds; i++ {
		done := e.runRound()
		if i >= len(want.rounds) {
			t.Fatalf("%s: engine still running in round %d, reference stopped after %d", label, i+1, len(want.rounds))
		}
		checkRound(t, label, e, want.rounds[i])
		if done != want.rounds[i].done {
			t.Fatalf("%s round %d: engine done=%v, reference done=%v", label, e.rounds, done, want.rounds[i].done)
		}
		if done {
			break
		}
	}
	if got := e.endRun(); got != want.result {
		t.Fatalf("%s: verdict %+v, reference %+v", label, got, want.result)
	}
}

// nrenDevices turns a seeded topogen.NREN shape into device configs the
// way the design rules would: OSPF inside each AS, eBGP on every
// inter-AS link, iBGP over loopbacks — a full mesh in odd ASes, one route
// reflector with the rest as clients in even ones — each router
// originating its loopback, and seeded MED / local-pref policy on the eBGP
// sessions so the decision process has more than path length to work with.
func nrenDevices(t *testing.T, seed int64, routers int) []*DeviceConfig {
	t.Helper()
	ases := routers / 10
	g, err := topogen.NREN(topogen.NRENConfig{ASes: ases, Routers: routers, Links: routers + routers/4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ids := g.SortedNodeIDs()
	byID := map[string]*DeviceConfig{}
	byASN := map[int][]*DeviceConfig{}
	var devs []*DeviceConfig
	for i, id := range ids {
		lo := netip.AddrFrom4([4]byte{10, 255, byte(i / 250), byte(i%250 + 1)})
		asn := g.Node(id).Get(core.AttrASN).(int)
		dc := &DeviceConfig{
			Hostname:   string(id),
			Loopback:   lo,
			Interfaces: []InterfaceConfig{{Name: "lo", Addr: lo, Prefix: netip.PrefixFrom(lo, 32), Cost: 1}},
			OSPF:       &OSPFConfig{ProcessID: 1, Networks: []OSPFNetwork{{Prefix: netip.PrefixFrom(lo, 32)}}},
			BGP:        &BGPConfig{ASN: asn, RouterID: lo, Networks: []netip.Prefix{netip.PrefixFrom(lo, 32)}},
		}
		devs, byID[string(id)], byASN[asn] = append(devs, dc), dc, append(byASN[asn], dc)
	}
	for n, edge := range g.Edges() {
		a, b := byID[string(edge.Src())], byID[string(edge.Dst())]
		subnet := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(n / 64), byte(n % 64 * 4), 0}), 30)
		for side, dc := range []*DeviceConfig{a, b} {
			peer := []*DeviceConfig{b, a}[side]
			ic := InterfaceConfig{Name: fmt.Sprintf("eth%d", len(dc.Interfaces)), Prefix: subnet, Cost: 1 + (n+int(seed))%3,
				Addr: netip.AddrFrom4([4]byte{10, byte(n / 64), byte(n % 64 * 4), byte(side + 1)})}
			if dc.BGP.ASN == peer.BGP.ASN {
				dc.OSPF.Networks = append(dc.OSPF.Networks, OSPFNetwork{Prefix: subnet})
			} else {
				ic.Passive = true
				dc.BGP.Neighbors = append(dc.BGP.Neighbors, BGPNeighbor{
					Addr:        netip.AddrFrom4([4]byte{10, byte(n / 64), byte(n % 64 * 4), byte(2 - side)}),
					RemoteASN:   peer.BGP.ASN,
					MEDOut:      (n * 7 % 3) * 10,
					LocalPrefIn: []int{0, 0, 120, 80}[(n+side+int(seed))%4],
				})
			}
			dc.Interfaces = append(dc.Interfaces, ic)
		}
	}
	for asn, members := range byASN {
		for i, dc := range members {
			for j, peer := range members {
				reflected := asn%2 == 0 && len(members) > 3
				if i == j || reflected && i != 0 && j != 0 {
					continue
				}
				dc.BGP.Neighbors = append(dc.BGP.Neighbors, BGPNeighbor{
					Addr: peer.Loopback, RemoteASN: asn, UpdateSource: "lo", RRClient: reflected && i == 0,
				})
			}
		}
	}
	return devs
}

func igpFor(t *testing.T, devs []*DeviceConfig) IGPCoster {
	t.Helper()
	d := NewOSPFDomain(devs)
	if err := d.Converge(); err != nil {
		t.Fatal(err)
	}
	igp := NewCompositeIGP()
	for _, dc := range devs {
		igp.AddDevice(dc, d)
	}
	return igp
}

// firstEBGPPair names the endpoints of one inter-AS session.
func firstEBGPPair(t *testing.T, devs []*DeviceConfig) (string, string) {
	t.Helper()
	e, err := NewBGPEngine(devs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, cuts := e.ShardLayout()
	if len(cuts) == 0 {
		t.Fatal("topology has no eBGP session")
	}
	return cuts[0][0], cuts[0][1]
}

// TestDeltaMatchesReference is the property the delta path stands on: over
// seeded NREN shapes, with and without a perturber (dup+reorder delivers
// lists that are neither sorted nor duplicate-free), sharded or not, and
// across a mid-run soft reset, the engine's state after every round —
// adj-RIB-ins, selections, churn, unstable speakers — its round count and
// its verdict are the naive sweep's.
func TestDeltaMatchesReference(t *testing.T) {
	const firstBudget, secondBudget = 3, 14
	for i, seed := range []int64{11, 23, 37} {
		routers := 60 + 30*i
		devs := nrenDevices(t, seed, routers)
		igp := igpFor(t, devs)
		profile := []VendorProfile{ProfileIOS, ProfileQuagga, ProfileJunos}[i]
		a, b := firstEBGPPair(t, devs)
		resets := []string{a, devs[len(devs)/2].Hostname}
		for _, pert := range []struct {
			name  string
			rules []PerturbRule
		}{
			{"none", nil},
			{"loss", []PerturbRule{{Kind: PerturbLoss, Pct: 10}}},
			{"flap", []PerturbRule{{Kind: PerturbFlap, A: a, B: b, Every: 2}}},
			{"delay", []PerturbRule{{Kind: PerturbDelay, Rounds: 2}}},
			{"dup+reorder", []PerturbRule{{Kind: PerturbDup, Pct: 20}, {Kind: PerturbReorder}}},
		} {
			if pert.name == "dup+reorder" && i > 0 {
				continue // the reorder rule's keyed shuffle is quadratic in fmt calls; one size is enough
			}
			perturber := func() Perturber {
				if pert.rules == nil {
					return nil
				}
				return NewScheduledPerturber(uint64(seed), pert.rules)
			}
			ref := newRefEngine(t, devs, profile, igp, perturber())
			first := ref.run(firstBudget)
			ref.softReset(resets)
			second := ref.run(secondBudget)
			for _, shards := range []int{1, 4} {
				label := fmt.Sprintf("seed=%d n=%d %s shards=%d", seed, routers, pert.name, shards)
				e, err := NewBGPEngine(devs, func(string) VendorProfile { return profile }, igp)
				if err != nil {
					t.Fatal(err)
				}
				e.SetSequential(true)
				e.SetShards(shards)
				e.SetPerturber(perturber())
				checkRun(t, label+" first run", e, first, firstBudget)
				e.SoftReset(resets)
				checkRun(t, label+" after soft reset", e, second, secondBudget)
				if p, ok := e.pert.(*ScheduledPerturber); ok {
					if want := ref.e.pert.(*ScheduledPerturber).Events(); !slices.Equal(p.Events(), want) {
						t.Errorf("%s: perturbation event log differs from the reference's", label)
					}
				}
			}
		}
	}
}
