package routing

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"
)

// checkFixedPoint asserts that an engine rests at a fixed point of the
// protocol: every adj-RIB-in is inbound policy over its peer's adj-RIB-out,
// every selection is the decision process over the speaker's candidates,
// every adj-RIB-out is outbound policy over the selection, and every
// state-hash segment is a full render's. A converged engine that is at a
// fixed point is in a stable state whichever state it started from.
func checkFixedPoint(t *testing.T, label string, e *BGPEngine) {
	t.Helper()
	for _, sp := range e.sp {
		for k := range sp.in {
			var want []BGPRoute
			if from := sp.in[k].from; from != nil {
				want = filterReceived(sp, &sp.sorted[k], from.routes)
			}
			if !slices.EqualFunc(sp.in[k].routes, want, routeIdentical) {
				t.Fatalf("%s: %s's adj-RIB-in from %v is not what its peer advertises", label, sp.host, sp.sorted[k].peerAddr)
			}
		}
		var rib []BGPRoute
		for _, p := range sp.allPrefixes(nil) {
			var cands []*BGPRoute
			if slices.Contains(sp.networks, p) {
				cands = append(cands, &BGPRoute{Prefix: p, LocalPref: 100, Local: true})
			}
			for k := range sp.in {
				for j := range sp.in[k].routes {
					rt := &sp.in[k].routes[j]
					if rt.Prefix == p && (!rt.NextHop.IsValid() || e.igp.IGPCost(sp.host, rt.NextHop) >= 0) {
						cands = append(cands, rt)
					}
				}
			}
			if best := e.decide(sp, cands); best != nil {
				rib = append(rib, *best)
			}
		}
		if !slices.EqualFunc(sp.rib, rib, routeIdentical) {
			t.Fatalf("%s: %s's selection is not the decision process over its candidates", label, sp.host)
		}
		for _, o := range sp.outs {
			var want []BGPRoute
			for j := range sp.rib {
				var adv BGPRoute
				if sp.advertise(&sp.rib[j], &o.sess, &adv) {
					want = append(want, adv)
				}
			}
			if !slices.EqualFunc(o.routes, want, routeIdentical) {
				t.Fatalf("%s: an adj-RIB-out of %s is not outbound policy over its selection", label, sp.host)
			}
		}
		if sp.seg != segHash(sp) {
			t.Fatalf("%s: %s's maintained state hash disagrees with a full render", label, sp.host)
		}
		for nh, c := range sp.nhCost {
			if want := e.igp.IGPCost(sp.host, nh); c != want {
				t.Fatalf("%s: %s remembers cost %d to %v, the IGP says %d", label, sp.host, c, nh, want)
			}
		}
	}
}

// rebindStep is one edit of the device set between converges.
type rebindStep struct {
	label string
	edit  func(devs []*DeviceConfig) []*DeviceConfig
}

// TestRebindMatchesFreshEngine walks a seeded NREN through the edits a lab
// makes between converges — links and machines failing and returning, a
// policy change, sessions lost to a remote-as mismatch, an originated
// network added in place and withdrawn, a speaker leaving and returning —
// under the IGP tie-break profile, where a
// decision can depend on where the run started. After every step the
// rebound engine must rest at a fixed point, converge with a fresh engine's
// verdict and sessions, and select what the fresh engine selects unless
// both rest at fixed points.
func TestRebindMatchesFreshEngine(t *testing.T) {
	devs := nrenDevices(t, 29, 60)
	profileOf := func(string) VendorProfile { return ProfileIOS }
	byName := map[string]*DeviceConfig{}
	boot := map[string][]InterfaceConfig{}
	for _, dc := range devs {
		byName[dc.Hostname], boot[dc.Hostname] = dc, dc.Interfaces
	}
	// One intra-AS and one inter-AS link, by the subnet their ends share.
	var ibgpLink, ebgpLink [2]string
	var ibgpNet, ebgpNet netip.Prefix
	for _, dc := range devs {
		for _, ic := range dc.Interfaces[1:] {
			for _, peer := range devs {
				if peer == dc || !slices.ContainsFunc(peer.Interfaces, func(x InterfaceConfig) bool { return x.Prefix == ic.Prefix }) {
					continue
				}
				if peer.BGP.ASN == dc.BGP.ASN && !ibgpNet.IsValid() {
					ibgpLink, ibgpNet = [2]string{dc.Hostname, peer.Hostname}, ic.Prefix
				}
				if peer.BGP.ASN != dc.BGP.ASN && !ebgpNet.IsValid() {
					ebgpLink, ebgpNet = [2]string{dc.Hostname, peer.Hostname}, ic.Prefix
				}
			}
		}
	}
	without := func(p netip.Prefix, names ...string) func([]*DeviceConfig) []*DeviceConfig {
		return func(devs []*DeviceConfig) []*DeviceConfig {
			for _, name := range names {
				dc := byName[name]
				dc.Interfaces = slices.DeleteFunc(slices.Clone(dc.Interfaces), func(ic InterfaceConfig) bool { return ic.Name != "lo" && (ic.Prefix == p || !p.IsValid()) })
			}
			return devs
		}
	}
	restore := func(names ...string) func([]*DeviceConfig) []*DeviceConfig {
		return func(devs []*DeviceConfig) []*DeviceConfig {
			for _, name := range names {
				byName[name].Interfaces = boot[name]
			}
			return devs
		}
	}
	victim, origin := devs[len(devs)/3], devs[len(devs)/2]
	policy := byName[ebgpLink[0]].BGP.Neighbors
	extra := netip.MustParsePrefix("198.51.100.0/24")
	steps := []rebindStep{
		{"unchanged", func(devs []*DeviceConfig) []*DeviceConfig { return devs }},
		{"fail intra-AS link", without(ibgpNet, ibgpLink[0], ibgpLink[1])},
		{"restore intra-AS link", restore(ibgpLink[0], ibgpLink[1])},
		{"fail inter-AS link", without(ebgpNet, ebgpLink[0], ebgpLink[1])},
		{"restore inter-AS link", restore(ebgpLink[0], ebgpLink[1])},
		{"fail node", without(netip.Prefix{}, victim.Hostname)},
		{"restore node", restore(victim.Hostname)},
		{"prefer one eBGP session", func(devs []*DeviceConfig) []*DeviceConfig {
			dc := byName[ebgpLink[0]]
			nbrs := slices.Clone(dc.BGP.Neighbors)
			for i := range nbrs {
				if nbrs[i].RemoteASN != dc.BGP.ASN {
					nbrs[i].LocalPrefIn = 150
					break
				}
			}
			dc.BGP.Neighbors = nbrs
			return devs
		}},
		{"misconfigure remote-as", func(devs []*DeviceConfig) []*DeviceConfig {
			dc := byName[ebgpLink[0]]
			nbrs := slices.Clone(dc.BGP.Neighbors)
			for i := range nbrs {
				if nbrs[i].RemoteASN != dc.BGP.ASN {
					nbrs[i].RemoteASN += 1000
				}
			}
			dc.BGP.Neighbors = nbrs
			return devs
		}},
		{"restore remote-as", func(devs []*DeviceConfig) []*DeviceConfig {
			byName[ebgpLink[0]].BGP.Neighbors = policy
			return devs
		}},
		{"originate in place", func(devs []*DeviceConfig) []*DeviceConfig {
			origin.BGP.Networks = append(origin.BGP.Networks, extra)
			return devs
		}},
		{"withdraw", func(devs []*DeviceConfig) []*DeviceConfig {
			origin.BGP.Networks = slices.DeleteFunc(origin.BGP.Networks, func(p netip.Prefix) bool { return p == extra })
			return devs
		}},
		{"speaker leaves", func(devs []*DeviceConfig) []*DeviceConfig {
			return slices.DeleteFunc(slices.Clone(devs), func(dc *DeviceConfig) bool { return dc == victim })
		}},
		{"speaker returns", func([]*DeviceConfig) []*DeviceConfig { return devs }},
	}
	domain := NewOSPFDomain(devs)
	if err := domain.Converge(); err != nil {
		t.Fatal(err)
	}
	composite := func(devs []*DeviceConfig) IGPCoster {
		igp := NewCompositeIGP()
		for _, dc := range devs {
			igp.AddDevice(dc, domain)
		}
		return igp
	}
	for _, shards := range []int{1, 4} {
		e, err := NewBGPEngine(devs, profileOf, composite(devs))
		if err != nil {
			t.Fatal(err)
		}
		e.SetSequential(true)
		e.SetShards(shards)
		if res := e.Run(60); !res.Converged {
			t.Fatalf("shards=%d: boot %+v", shards, res)
		}
		live := devs
		for _, st := range steps {
			label := fmt.Sprintf("shards=%d %s", shards, st.label)
			live = st.edit(live)
			domain.Rebind(live)
			if err := domain.Converge(); err != nil {
				t.Fatal(err)
			}
			igp := composite(live)
			e.Rebind(live, igp, domain.ChangedSources())
			got := e.Run(60)
			fresh, err := NewBGPEngine(live, profileOf, igp)
			if err != nil {
				t.Fatal(err)
			}
			fresh.SetSequential(true)
			want := fresh.Run(60)
			if got.Converged != want.Converged || !got.Converged {
				t.Fatalf("%s: %+v, a fresh engine %+v", label, got, want)
			}
			checkFixedPoint(t, label, e)
			if !slices.Equal(e.SessionsDown(), fresh.SessionsDown()) || e.SessionsUp() != fresh.SessionsUp() {
				t.Fatalf("%s: sessions %d up, down %v; a fresh engine's %d, %v", label, e.SessionsUp(), e.SessionsDown(), fresh.SessionsUp(), fresh.SessionsDown())
			}
			// A stable state is not unique where local-pref policy can wedge
			// (RFC 4264): an engine that starts from the state before the
			// edit may rest in another one than an engine that starts empty.
			// Both are then fixed points, which is what real routers do.
			moved := 0
			for _, host := range fresh.Speakers() {
				if !slices.EqualFunc(e.Selected(host), fresh.Selected(host), routeIdentical) {
					moved++
				}
			}
			if moved > 0 {
				checkFixedPoint(t, label+" (fresh engine)", fresh)
				t.Logf("%s: %d speakers rest in another stable state than a fresh engine's", label, moved)
			}
		}
		// The walk ends where it began: restore the edits for the next width.
		for name, ifs := range boot {
			byName[name].Interfaces = ifs
		}
		byName[ebgpLink[0]].BGP.Neighbors = policy
		domain.Rebind(devs)
		if err := domain.Converge(); err != nil {
			t.Fatal(err)
		}
	}
}
