package routing

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"
)

// checkExportGroups is the oracle for adj-RIB-out sharing: for every
// speaker and the first session toward each peer, outbound policy over the
// speaker's selection yields exactly the list that peer reads, and the
// speaker keeps one list per distinct export key, no more.
func checkExportGroups(t *testing.T, label string, e *BGPEngine) (shared int) {
	t.Helper()
	for _, sp := range e.sp {
		keys := map[exportKey]bool{}
		members := 0
		for i := range sp.sessions {
			s := &sp.sessions[i]
			if slices.IndexFunc(sp.sessions[:i], func(p session) bool { return p.peerHost == s.peerHost }) >= 0 {
				continue
			}
			keys[sp.exportKey(s)] = true
			var want []BGPRoute
			for j := range sp.rib {
				var adv BGPRoute
				if sp.advertise(&sp.rib[j], s, &adv) {
					want = append(want, adv)
				}
			}
			o := sp.outTo[s.peerHost]
			if !slices.Contains(sp.outs, o) {
				t.Fatalf("%s: %s's list toward %s is not one of its groups", label, sp.host, s.peerHost)
			}
			if !slices.EqualFunc(o.routes, want, routeIdentical) {
				t.Fatalf("%s: %s toward %s (%v): shared list\n%v\nper-peer policy gives\n%v",
					label, sp.host, s.peerHost, s.peerAddr, o.routes, want)
			}
		}
		for _, o := range sp.outs {
			members += o.members
			if o.members > 1 {
				shared++
			}
		}
		if len(sp.outs) != len(keys) || members != len(sp.peers) {
			t.Fatalf("%s: %s keeps %d lists for %d export keys, %d members for %d peers",
				label, sp.host, len(sp.outs), len(keys), members, len(sp.peers))
		}
	}
	return shared
}

// exportPolicyTopo exercises every field of the export key. x (AS 100)
// peers multihop at loopbacks with y1 and y2 (AS 200, differing only in
// MEDOut) and z (AS 300, differing from y1 only in remote AS), and over two
// links with q1 and q2 (AS 500, differing only in the local address). n
// (AS 400) has no loopback, so each of its two iBGP peers p1 and p2 is sent
// its own next-hop-self address.
func exportPolicyTopo() []*DeviceConfig {
	lo := func(host, addr string, asn int, nets []string, nbrs ...BGPNeighbor) *DeviceConfig {
		a := mustAddr(addr)
		dc := &DeviceConfig{Hostname: host, Loopback: a,
			Interfaces: []InterfaceConfig{{Name: "lo", Addr: a, Prefix: netip.PrefixFrom(a, 32), Cost: 1}},
			BGP:        &BGPConfig{ASN: asn, RouterID: a, Neighbors: nbrs}}
		for _, p := range nets {
			dc.BGP.Networks = append(dc.BGP.Networks, mustPfx(p))
		}
		return dc
	}
	link := func(dc *DeviceConfig, name, addr, pfx string) *DeviceConfig {
		dc.Interfaces = append(dc.Interfaces, InterfaceConfig{Name: name, Addr: mustAddr(addr), Prefix: mustPfx(pfx), Cost: 1})
		return dc
	}
	nbr := func(addr string, asn, med int) BGPNeighbor {
		return BGPNeighbor{Addr: mustAddr(addr), RemoteASN: asn, MEDOut: med}
	}
	x := lo("x", "10.9.0.1", 100, []string{"10.100.0.0/16"},
		nbr("10.9.0.2", 200, 10), nbr("10.9.0.3", 200, 20), nbr("10.9.0.4", 300, 10),
		nbr("192.168.6.2", 500, 0), nbr("192.168.6.6", 500, 0))
	link(link(x, "eth0", "192.168.6.1", "192.168.6.0/30"), "eth1", "192.168.6.5", "192.168.6.4/30")
	n := &DeviceConfig{Hostname: "n", BGP: &BGPConfig{ASN: 400, RouterID: mustAddr("192.168.5.1"),
		Networks:  []netip.Prefix{mustPfx("10.40.0.0/16")},
		Neighbors: []BGPNeighbor{nbr("192.168.5.2", 400, 0), nbr("192.168.5.6", 400, 0), nbr("192.168.7.2", 500, 0)}}}
	link(link(link(n, "eth0", "192.168.5.1", "192.168.5.0/30"), "eth1", "192.168.5.5", "192.168.5.4/30"), "eth2", "192.168.7.1", "192.168.7.0/30")
	p := func(host, addr string) *DeviceConfig {
		return link(&DeviceConfig{Hostname: host, BGP: &BGPConfig{ASN: 400, RouterID: mustAddr(addr),
			Neighbors: []BGPNeighbor{nbr("192.168.5.1", 400, 0)}}}, "eth0", addr, netip.PrefixFrom(mustAddr(addr), 30).Masked().String())
	}
	q1 := link(lo("q1", "10.9.0.5", 500, []string{"10.51.0.0/16"}, nbr("192.168.6.1", 100, 0), nbr("192.168.7.1", 400, 0)), "eth0", "192.168.6.2", "192.168.6.0/30")
	link(q1, "eth1", "192.168.7.2", "192.168.7.0/30")
	q2 := link(lo("q2", "10.9.0.6", 500, []string{"10.52.0.0/16"}, nbr("192.168.6.5", 100, 0)), "eth0", "192.168.6.6", "192.168.6.4/30")
	return []*DeviceConfig{x, n, p("p1", "192.168.5.2"), p("p2", "192.168.5.6"), q1, q2,
		lo("y1", "10.9.0.2", 200, []string{"203.0.113.0/24"}, nbr("10.9.0.1", 100, 0)),
		lo("y2", "10.9.0.3", 200, []string{"198.51.100.0/24"}, nbr("10.9.0.1", 100, 0)),
		lo("z", "10.9.0.4", 300, []string{"192.0.2.0/24"}, nbr("10.9.0.1", 100, 0))}
}

// TestExportGroupsMatchPerPeerPolicy: sharing one adj-RIB-out between the
// peers of an export group changes no peer's routes, over the NREN shapes
// (iBGP full meshes and route reflectors), the E9 gadget under every
// vendor profile and a topology that varies each export-key field alone.
// Sequential runs are sharded, so under -race it also checks that readers
// of one shared list in different shards never meet its writer.
func TestExportGroupsMatchPerPeerPolicy(t *testing.T) {
	run := func(label string, devs []*DeviceConfig, prof VendorProfile, igp IGPCoster, sequential bool) *BGPEngine {
		e, err := NewBGPEngine(devs, func(string) VendorProfile { return prof }, igp)
		if err != nil {
			t.Fatal(err)
		}
		e.SetSequential(sequential)
		e.SetShards(4) // members of one group in different shards read its list at once
		if res := e.Run(60); !res.Converged && !res.Oscillating {
			t.Fatalf("%s: %+v", label, res)
		}
		return e
	}
	for _, routers := range []int{60, 240} {
		devs := nrenDevices(t, 7, routers)
		label := fmt.Sprintf("nren%d", routers)
		if shared := checkExportGroups(t, label, run(label, devs, ProfileIOS, igpFor(t, devs), true)); shared == 0 {
			t.Errorf("%s: no speaker shares a list between peers", label)
		}
	}
	for _, prof := range []VendorProfile{ProfileQuagga, ProfileIOS, ProfileJunos, ProfileCBGP} {
		devs, domain, err := rrGadget()
		if err != nil {
			t.Fatal(err)
		}
		igp := NewCompositeIGP()
		for _, dc := range devs {
			if dc.OSPF != nil {
				igp.AddDevice(dc, domain)
			} else {
				igp.AddDevice(dc, nil)
			}
		}
		for _, sequential := range []bool{false, true} {
			label := fmt.Sprintf("rr-gadget %s sequential=%v", prof.Name, sequential)
			checkExportGroups(t, label, run(label, devs, prof, igp, sequential))
		}
	}
	e := run("export-policy", exportPolicyTopo(), ProfileQuagga, nil, true)
	if e.SessionsUp() != 16 || len(e.SessionsDown()) != 0 {
		t.Fatalf("export-policy: %d sessions up, down %v", e.SessionsUp(), e.SessionsDown())
	}
	checkExportGroups(t, "export-policy", e)
	for host, want := range map[string]int{"x": 5, "n": 3, "p1": 1} {
		if got := len(e.speakers[host].outs); got != want {
			t.Errorf("export-policy: %s keeps %d lists, want %d", host, got, want)
		}
	}
}

// TestRoundLogCountsPerPeer pins the 60-router NREN's per-round work
// records — a cold boot and a continuation after a soft reset — at the
// values the engine gave when it kept one adj-RIB-out per peer: Adverts
// counts each group change once per member.
func TestRoundLogCountsPerPeer(t *testing.T) {
	want := [][]BGPRound{{
		{1, 60, 0, 158, 294, 461, 294},
		{2, 60, 0, 239, 1044, 1279, 1042},
		{3, 60, 0, 107, 1690, 1885, 1640},
		{4, 60, 0, 87, 1270, 1221, 1112},
		{5, 43, 17, 54, 307, 177, 191},
		{6, 23, 37, 23, 207, 180, 198},
		{7, 0, 60, 0, 0, 0, 0},
	}, {
		{1, 15, 45, 36, 133, 629, 133},
		{2, 37, 23, 46, 37, 54, 37},
		{3, 41, 19, 55, 41, 57, 40},
		{4, 28, 32, 39, 28, 30, 22},
		{5, 11, 49, 16, 11, 10, 6},
		{6, 0, 60, 0, 0, 0, 0},
	}}
	devs := nrenDevices(t, 5, 60)
	igp := igpFor(t, devs)
	reset, _ := firstEBGPPair(t, devs)
	for _, shards := range []int{1, 4} {
		engine := func() *BGPEngine {
			e, err := NewBGPEngine(devs, nil, igp)
			if err != nil {
				t.Fatal(err)
			}
			e.SetSequential(true)
			e.SetShards(shards)
			return e
		}
		check := func(step string, e *BGPEngine, want []BGPRound) {
			t.Helper()
			if res := e.Run(50); !res.Converged {
				t.Fatalf("shards=%d %s: %+v", shards, step, res)
			}
			if got := e.RoundLog(); !slices.Equal(got, want) {
				t.Errorf("shards=%d %s: round log\n%v\nwant\n%v", shards, step, got, want)
			}
		}
		e := engine()
		check("cold boot", e, want[0])
		e.SoftReset([]string{reset, devs[30].Hostname})
		check("after soft reset", e, want[1])
	}
}
