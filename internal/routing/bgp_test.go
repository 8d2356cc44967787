package routing

import (
	"net/netip"
	"testing"
)

// twoASTopo: a (AS1) --- b (AS2), a originates 203.0.113.0/24.
func twoASTopo() []*DeviceConfig {
	a := &DeviceConfig{
		Hostname: "a",
		Interfaces: []InterfaceConfig{
			{Name: "eth0", Addr: mustAddr("192.168.0.1"), Prefix: mustPfx("192.168.0.0/30"), Cost: 1},
		},
		BGP: &BGPConfig{
			ASN: 1, RouterID: mustAddr("192.168.0.1"),
			Networks:  []netip.Prefix{mustPfx("203.0.113.0/24")},
			Neighbors: []BGPNeighbor{{Addr: mustAddr("192.168.0.2"), RemoteASN: 2}},
		},
	}
	b := &DeviceConfig{
		Hostname: "b",
		Interfaces: []InterfaceConfig{
			{Name: "eth0", Addr: mustAddr("192.168.0.2"), Prefix: mustPfx("192.168.0.0/30"), Cost: 1},
		},
		BGP: &BGPConfig{
			ASN: 2, RouterID: mustAddr("192.168.0.2"),
			Neighbors: []BGPNeighbor{{Addr: mustAddr("192.168.0.1"), RemoteASN: 1}},
		},
	}
	return []*DeviceConfig{a, b}
}

func runBGP(t *testing.T, devs []*DeviceConfig, profileOf func(string) VendorProfile, igp IGPCoster) (*BGPEngine, BGPResult) {
	t.Helper()
	e, err := NewBGPEngine(devs, profileOf, igp)
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run(100)
	return e, res
}

func TestEBGPPropagation(t *testing.T) {
	e, res := runBGP(t, twoASTopo(), nil, nil)
	if !res.Converged || res.Oscillating {
		t.Fatalf("result = %+v", res)
	}
	if e.SessionsUp() != 2 {
		t.Fatalf("sessions up = %d, want 2", e.SessionsUp())
	}
	routes := e.BestRoutes("b")
	if len(routes) != 1 {
		t.Fatalf("b routes = %+v", routes)
	}
	rt := routes[0]
	if rt.Prefix != mustPfx("203.0.113.0/24") {
		t.Errorf("prefix = %v", rt.Prefix)
	}
	if len(rt.ASPath) != 1 || rt.ASPath[0] != 1 {
		t.Errorf("as path = %v", rt.ASPath)
	}
	if rt.NextHop != mustAddr("192.168.0.1") {
		t.Errorf("next hop = %v (want a's session address)", rt.NextHop)
	}
	if !rt.FromEBGP || rt.LocalPref != 100 {
		t.Errorf("attrs = %+v", rt)
	}
}

func TestSessionMismatchDetected(t *testing.T) {
	devs := twoASTopo()
	devs[1].BGP.Neighbors[0].RemoteASN = 99 // wrong remote-as
	e, _ := runBGP(t, devs, nil, nil)
	if e.SessionsUp() != 1 {
		t.Errorf("sessions up = %d, want 1", e.SessionsUp())
	}
	if len(e.SessionsDown()) != 1 {
		t.Errorf("sessions down = %v", e.SessionsDown())
	}
	if routes := e.BestRoutes("b"); len(routes) != 0 {
		t.Error("route learned over a session that never established")
	}
}

func TestEBGPLoopPrevention(t *testing.T) {
	// Triangle AS1-AS2-AS3; AS1's route must not come back to AS1.
	mk := func(host string, asn int, ifaces []InterfaceConfig, nbrs []BGPNeighbor, nets ...netip.Prefix) *DeviceConfig {
		return &DeviceConfig{Hostname: host, Interfaces: ifaces,
			BGP: &BGPConfig{ASN: asn, RouterID: ifaces[0].Addr, Networks: nets, Neighbors: nbrs}}
	}
	a := mk("a", 1, []InterfaceConfig{
		{Name: "eth0", Addr: mustAddr("10.0.0.1"), Prefix: mustPfx("10.0.0.0/30")},
		{Name: "eth1", Addr: mustAddr("10.0.1.1"), Prefix: mustPfx("10.0.1.0/30")},
	}, []BGPNeighbor{
		{Addr: mustAddr("10.0.0.2"), RemoteASN: 2},
		{Addr: mustAddr("10.0.1.2"), RemoteASN: 3},
	}, mustPfx("203.0.113.0/24"))
	b := mk("b", 2, []InterfaceConfig{
		{Name: "eth0", Addr: mustAddr("10.0.0.2"), Prefix: mustPfx("10.0.0.0/30")},
		{Name: "eth1", Addr: mustAddr("10.0.2.1"), Prefix: mustPfx("10.0.2.0/30")},
	}, []BGPNeighbor{
		{Addr: mustAddr("10.0.0.1"), RemoteASN: 1},
		{Addr: mustAddr("10.0.2.2"), RemoteASN: 3},
	})
	c := mk("c", 3, []InterfaceConfig{
		{Name: "eth0", Addr: mustAddr("10.0.1.2"), Prefix: mustPfx("10.0.1.0/30")},
		{Name: "eth1", Addr: mustAddr("10.0.2.2"), Prefix: mustPfx("10.0.2.0/30")},
	}, []BGPNeighbor{
		{Addr: mustAddr("10.0.1.1"), RemoteASN: 1},
		{Addr: mustAddr("10.0.2.1"), RemoteASN: 2},
	})
	e, res := runBGP(t, []*DeviceConfig{a, b, c}, nil, nil)
	if !res.Converged {
		t.Fatalf("triangle did not converge: %+v", res)
	}
	// a's own prefix stays local (path never loops back).
	for _, rt := range e.BestRoutes("a") {
		if rt.Prefix == mustPfx("203.0.113.0/24") && !rt.Local {
			t.Errorf("a accepted its own prefix from a peer: %+v", rt)
		}
	}
	// c prefers the direct 1-hop path over 2-hop via b.
	for _, rt := range e.BestRoutes("c") {
		if rt.Prefix == mustPfx("203.0.113.0/24") && len(rt.ASPath) != 1 {
			t.Errorf("c path = %v, want direct [1]", rt.ASPath)
		}
	}
}

func TestLocalPrefOverridesPathLength(t *testing.T) {
	// c hears the prefix directly from AS1 (short path) and via AS2 (long
	// path) but local-pref prefers AS2.
	devs := []*DeviceConfig{}
	mk := func(host string, asn int, ifaces []InterfaceConfig, nbrs []BGPNeighbor, nets ...netip.Prefix) *DeviceConfig {
		dc := &DeviceConfig{Hostname: host, Interfaces: ifaces,
			BGP: &BGPConfig{ASN: asn, RouterID: ifaces[0].Addr, Networks: nets, Neighbors: nbrs}}
		devs = append(devs, dc)
		return dc
	}
	mk("a", 1, []InterfaceConfig{
		{Name: "eth0", Addr: mustAddr("10.0.0.1"), Prefix: mustPfx("10.0.0.0/30")},
		{Name: "eth1", Addr: mustAddr("10.0.1.1"), Prefix: mustPfx("10.0.1.0/30")},
	}, []BGPNeighbor{
		{Addr: mustAddr("10.0.0.2"), RemoteASN: 2},
		{Addr: mustAddr("10.0.1.2"), RemoteASN: 3},
	}, mustPfx("203.0.113.0/24"))
	mk("b", 2, []InterfaceConfig{
		{Name: "eth0", Addr: mustAddr("10.0.0.2"), Prefix: mustPfx("10.0.0.0/30")},
		{Name: "eth1", Addr: mustAddr("10.0.2.1"), Prefix: mustPfx("10.0.2.0/30")},
	}, []BGPNeighbor{
		{Addr: mustAddr("10.0.0.1"), RemoteASN: 1},
		{Addr: mustAddr("10.0.2.2"), RemoteASN: 3},
	})
	c := mk("c", 3, []InterfaceConfig{
		{Name: "eth0", Addr: mustAddr("10.0.1.2"), Prefix: mustPfx("10.0.1.0/30")},
		{Name: "eth1", Addr: mustAddr("10.0.2.2"), Prefix: mustPfx("10.0.2.0/30")},
	}, []BGPNeighbor{
		{Addr: mustAddr("10.0.1.1"), RemoteASN: 1, LocalPrefIn: 50},
		{Addr: mustAddr("10.0.2.1"), RemoteASN: 2, LocalPrefIn: 200},
	})
	e, res := runBGP(t, devs, nil, nil)
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	routes := e.BestRoutes(c.Hostname)
	if len(routes) != 1 {
		t.Fatalf("c routes = %+v", routes)
	}
	if routes[0].LocalPref != 200 || len(routes[0].ASPath) != 2 {
		t.Errorf("c best = %+v, want via AS2 (lp 200)", routes[0])
	}
}

func TestMEDComparedWithinSameAS(t *testing.T) {
	// b hears the prefix from a over two parallel sessions with different
	// MEDs; lower MED must win.
	a := &DeviceConfig{
		Hostname: "a",
		Interfaces: []InterfaceConfig{
			{Name: "eth0", Addr: mustAddr("10.0.0.1"), Prefix: mustPfx("10.0.0.0/30")},
			{Name: "eth1", Addr: mustAddr("10.0.1.1"), Prefix: mustPfx("10.0.1.0/30")},
		},
		BGP: &BGPConfig{ASN: 1, RouterID: mustAddr("10.0.0.1"),
			Networks: []netip.Prefix{mustPfx("203.0.113.0/24")},
			Neighbors: []BGPNeighbor{
				{Addr: mustAddr("10.0.0.2"), RemoteASN: 2, MEDOut: 50},
				{Addr: mustAddr("10.0.1.2"), RemoteASN: 2, MEDOut: 10},
			}},
	}
	b := &DeviceConfig{
		Hostname: "b",
		Interfaces: []InterfaceConfig{
			{Name: "eth0", Addr: mustAddr("10.0.0.2"), Prefix: mustPfx("10.0.0.0/30")},
			{Name: "eth1", Addr: mustAddr("10.0.1.2"), Prefix: mustPfx("10.0.1.0/30")},
		},
		BGP: &BGPConfig{ASN: 2, RouterID: mustAddr("10.0.0.2"),
			Neighbors: []BGPNeighbor{
				{Addr: mustAddr("10.0.0.1"), RemoteASN: 1},
				{Addr: mustAddr("10.0.1.1"), RemoteASN: 1},
			}},
	}
	e, res := runBGP(t, []*DeviceConfig{a, b}, nil, nil)
	if !res.Converged {
		t.Fatalf("%+v", res)
	}
	routes := e.BestRoutes("b")
	if len(routes) != 1 || routes[0].MED != 10 {
		t.Errorf("b best = %+v, want MED 10", routes)
	}
	if routes[0].NextHop != mustAddr("10.0.1.1") {
		t.Errorf("next hop = %v, want the MED-10 session", routes[0].NextHop)
	}
}

// rrGadget builds the §7.2 experiment: two route-reflector clusters whose
// IGP distances cross, so the viewer-dependent IGP tie-break oscillates
// while the route-intrinsic originator-id tie-break converges.
//
//	E1(AS1) -- C1 --10-- RR1 --100-- RR2 --10-- C2 -- E2(AS2)
//	              \--5-- RR2           RR1 --5--/
func rrGadget() ([]*DeviceConfig, *OSPFDomain, error) {
	lo := map[string]string{
		"rr1": "10.0.0.1", "rr2": "10.0.0.2", "c1": "10.0.0.3", "c2": "10.0.0.4",
	}
	iface := func(name, addr, pfx string, cost int) InterfaceConfig {
		return InterfaceConfig{Name: name, Addr: mustAddr(addr), Prefix: mustPfx(pfx), Cost: cost}
	}
	mkInternal := func(host string, ifaces ...InterfaceConfig) *DeviceConfig {
		dc := &DeviceConfig{Hostname: host, Interfaces: ifaces}
		lb := mustAddr(lo[host])
		dc.Loopback = lb
		dc.Interfaces = append(dc.Interfaces, InterfaceConfig{Name: "lo", Addr: lb, Prefix: netip.PrefixFrom(lb, 32), Cost: 1})
		nets := []OSPFNetwork{}
		for _, ic := range dc.Interfaces {
			nets = append(nets, OSPFNetwork{Prefix: ic.Prefix, Area: 0})
		}
		dc.OSPF = &OSPFConfig{ProcessID: 1, Networks: nets}
		return dc
	}
	rr1 := mkInternal("rr1",
		iface("eth0", "192.168.0.1", "192.168.0.0/30", 10),    // to c1
		iface("eth1", "192.168.0.5", "192.168.0.4/30", 5),     // to c2
		iface("eth2", "192.168.0.17", "192.168.0.16/30", 100)) // to rr2
	rr2 := mkInternal("rr2",
		iface("eth0", "192.168.0.9", "192.168.0.8/30", 10),  // to c2
		iface("eth1", "192.168.0.13", "192.168.0.12/30", 5), // to c1
		iface("eth2", "192.168.0.18", "192.168.0.16/30", 100))
	c1 := mkInternal("c1",
		iface("eth0", "192.168.0.2", "192.168.0.0/30", 10),
		iface("eth1", "192.168.0.14", "192.168.0.12/30", 5))
	c2 := mkInternal("c2",
		iface("eth0", "192.168.0.6", "192.168.0.4/30", 5),
		iface("eth1", "192.168.0.10", "192.168.0.8/30", 10))
	// External links (not in OSPF).
	c1.Interfaces = append(c1.Interfaces, iface("eth2", "192.168.1.1", "192.168.1.0/30", 1))
	c2.Interfaces = append(c2.Interfaces, iface("eth2", "192.168.1.5", "192.168.1.4/30", 1))

	// BGP.
	rr1.BGP = &BGPConfig{ASN: 100, RouterID: mustAddr(lo["rr1"]), Neighbors: []BGPNeighbor{
		{Addr: mustAddr(lo["c1"]), RemoteASN: 100, UpdateSource: "lo", RRClient: true},
		{Addr: mustAddr(lo["rr2"]), RemoteASN: 100, UpdateSource: "lo"},
	}}
	rr2.BGP = &BGPConfig{ASN: 100, RouterID: mustAddr(lo["rr2"]), Neighbors: []BGPNeighbor{
		{Addr: mustAddr(lo["c2"]), RemoteASN: 100, UpdateSource: "lo", RRClient: true},
		{Addr: mustAddr(lo["rr1"]), RemoteASN: 100, UpdateSource: "lo"},
	}}
	c1.BGP = &BGPConfig{ASN: 100, RouterID: mustAddr(lo["c1"]), Neighbors: []BGPNeighbor{
		{Addr: mustAddr(lo["rr1"]), RemoteASN: 100, UpdateSource: "lo"},
		{Addr: mustAddr("192.168.1.2"), RemoteASN: 1},
	}}
	c2.BGP = &BGPConfig{ASN: 100, RouterID: mustAddr(lo["c2"]), Neighbors: []BGPNeighbor{
		{Addr: mustAddr(lo["rr2"]), RemoteASN: 100, UpdateSource: "lo"},
		{Addr: mustAddr("192.168.1.6"), RemoteASN: 2},
	}}
	e1 := &DeviceConfig{Hostname: "e1",
		Interfaces: []InterfaceConfig{iface("eth0", "192.168.1.2", "192.168.1.0/30", 1)},
		BGP: &BGPConfig{ASN: 1, RouterID: mustAddr("192.168.1.2"),
			Networks:  []netip.Prefix{mustPfx("203.0.113.0/24")},
			Neighbors: []BGPNeighbor{{Addr: mustAddr("192.168.1.1"), RemoteASN: 100}}},
	}
	e2 := &DeviceConfig{Hostname: "e2",
		Interfaces: []InterfaceConfig{iface("eth0", "192.168.1.6", "192.168.1.4/30", 1)},
		BGP: &BGPConfig{ASN: 2, RouterID: mustAddr("192.168.1.6"),
			Networks:  []netip.Prefix{mustPfx("203.0.113.0/24")},
			Neighbors: []BGPNeighbor{{Addr: mustAddr("192.168.1.5"), RemoteASN: 100}}},
	}
	internal := []*DeviceConfig{rr1, rr2, c1, c2}
	domain := NewOSPFDomain(internal)
	if err := domain.Converge(); err != nil {
		return nil, nil, err
	}
	return []*DeviceConfig{rr1, rr2, c1, c2, e1, e2}, domain, nil
}

// E9 core result: the same configuration oscillates under the IOS, JunOS
// and C-BGP decision processes but converges under Quagga's 2013 default.
func TestE9_OscillationVendorDependent(t *testing.T) {
	for _, prof := range []VendorProfile{ProfileIOS, ProfileJunos, ProfileCBGP} {
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
		e, _ := NewBGPEngine(devs, func(string) VendorProfile { return prof }, igp)
		res := e.Run(60)
		if !res.Oscillating {
			t.Errorf("%s: expected oscillation, got %+v", prof.Name, res)
		}
		if res.CycleLen <= 0 {
			t.Errorf("%s: cycle length = %d", prof.Name, res.CycleLen)
		}
	}
	// Quagga converges.
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
	e, _ := NewBGPEngine(devs, func(string) VendorProfile { return ProfileQuagga }, igp)
	res := e.Run(60)
	if !res.Converged || res.Oscillating {
		t.Fatalf("quagga: expected convergence, got %+v", res)
	}
	// Both reflectors settle on the same exit (the lower originator-id,
	// i.e. via c1).
	for _, host := range []string{"rr1", "rr2"} {
		routes := e.BestRoutes(host)
		if len(routes) != 1 {
			t.Fatalf("%s routes = %+v", host, routes)
		}
		if routes[0].OriginatorID != mustAddr("10.0.0.3") {
			t.Errorf("%s best originator = %v, want c1 (10.0.0.3)", host, routes[0].OriginatorID)
		}
	}
}

func TestRouteReflectionReachesOtherCluster(t *testing.T) {
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
	e, _ := NewBGPEngine(devs, nil, igp) // quagga everywhere
	res := e.Run(60)
	if !res.Converged {
		t.Fatalf("%+v", res)
	}
	// c2, whose only iBGP session is to rr2, must still learn the prefix
	// (reflection across clusters). Its eBGP route wins selection, but the
	// reflected one must have been a candidate; verify reachability on a
	// client with no eBGP: strip c2's external session.
	devs2, domain2, _ := rrGadget()
	for _, dc := range devs2 {
		if dc.Hostname == "c2" {
			dc.BGP.Neighbors = dc.BGP.Neighbors[:1] // keep only rr2
		}
	}
	igp2 := NewCompositeIGP()
	for _, dc := range devs2 {
		if dc.OSPF != nil {
			igp2.AddDevice(dc, domain2)
		} else {
			igp2.AddDevice(dc, nil)
		}
	}
	e2, _ := NewBGPEngine(devs2, nil, igp2)
	res2 := e2.Run(60)
	if !res2.Converged {
		t.Fatalf("%+v", res2)
	}
	routes := e2.BestRoutes("c2")
	if len(routes) != 1 || routes[0].Prefix != mustPfx("203.0.113.0/24") {
		t.Fatalf("c2 routes = %+v (reflection failed)", routes)
	}
	if routes[0].FromEBGP {
		t.Error("route should be iBGP-learned")
	}
}

func TestNextHopUnreachableExcluded(t *testing.T) {
	// Two devices with matching sessions, but an IGP that reports the
	// advertised next hop unreachable: the route must not be selected.
	devs := twoASTopo()
	e, _ := NewBGPEngine(devs, nil, unreachIGP{})
	e.Run(20)
	if routes := e.BestRoutes("b"); len(routes) != 0 {
		t.Errorf("b selected a route with unreachable next hop: %+v", routes)
	}
}

type unreachIGP struct{}

func (unreachIGP) IGPCost(string, netip.Addr) int { return -1 }

func TestProfileFor(t *testing.T) {
	if ProfileFor("ios") != ProfileIOS || ProfileFor("junos") != ProfileJunos ||
		ProfileFor("cbgp") != ProfileCBGP || ProfileFor("quagga") != ProfileQuagga {
		t.Error("profile mapping wrong")
	}
	if ProfileFor("unknown") != ProfileQuagga {
		t.Error("default profile wrong")
	}
	if ProfileIOS.UseIGPTieBreak != true || ProfileQuagga.UseIGPTieBreak != false {
		t.Error("IGP tie-break flags wrong (§7.2)")
	}
}

func TestBGPRouteString(t *testing.T) {
	r := BGPRoute{Prefix: mustPfx("203.0.113.0/24"), PathAttrs: seal(PathAttrs{NextHop: mustAddr("10.0.0.1"), ASPath: []int{1, 2}, LocalPref: 100})}
	s := r.String()
	if s == "" || len(s) < 10 {
		t.Errorf("String = %q", s)
	}
}

func TestSpeakers(t *testing.T) {
	e, _ := runBGP(t, twoASTopo(), nil, nil)
	sp := e.Speakers()
	if len(sp) != 2 || sp[0] != "a" || sp[1] != "b" {
		t.Errorf("speakers = %v", sp)
	}
}

func TestEBGPBeatsIBGP(t *testing.T) {
	// c2 in the gadget hears the prefix via eBGP (from e2) and via iBGP
	// (reflected); eBGP must win locally.
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
	e, _ := NewBGPEngine(devs, nil, igp)
	res := e.Run(60)
	if !res.Converged {
		t.Fatalf("%+v", res)
	}
	for _, rt := range e.BestRoutes("c2") {
		if rt.Prefix == mustPfx("203.0.113.0/24") && !rt.FromEBGP {
			t.Errorf("c2 best should be eBGP: %+v", rt)
		}
	}
}

func TestShorterASPathWins(t *testing.T) {
	// b hears the prefix directly from AS1 and via AS3 (longer path).
	mk := func(host string, asn int, ifaces []InterfaceConfig, nbrs []BGPNeighbor, nets ...netip.Prefix) *DeviceConfig {
		return &DeviceConfig{Hostname: host, Interfaces: ifaces,
			BGP: &BGPConfig{ASN: asn, RouterID: ifaces[0].Addr, Networks: nets, Neighbors: nbrs}}
	}
	a := mk("a", 1, []InterfaceConfig{
		{Name: "e0", Addr: mustAddr("10.0.0.1"), Prefix: mustPfx("10.0.0.0/30")},
		{Name: "e1", Addr: mustAddr("10.0.1.1"), Prefix: mustPfx("10.0.1.0/30")},
	}, []BGPNeighbor{
		{Addr: mustAddr("10.0.0.2"), RemoteASN: 2},
		{Addr: mustAddr("10.0.1.2"), RemoteASN: 3},
	}, mustPfx("203.0.113.0/24"))
	b := mk("b", 2, []InterfaceConfig{
		{Name: "e0", Addr: mustAddr("10.0.0.2"), Prefix: mustPfx("10.0.0.0/30")},
		{Name: "e1", Addr: mustAddr("10.0.2.1"), Prefix: mustPfx("10.0.2.0/30")},
	}, []BGPNeighbor{
		{Addr: mustAddr("10.0.0.1"), RemoteASN: 1},
		{Addr: mustAddr("10.0.2.2"), RemoteASN: 3},
	})
	c := mk("c", 3, []InterfaceConfig{
		{Name: "e0", Addr: mustAddr("10.0.1.2"), Prefix: mustPfx("10.0.1.0/30")},
		{Name: "e1", Addr: mustAddr("10.0.2.2"), Prefix: mustPfx("10.0.2.0/30")},
	}, []BGPNeighbor{
		{Addr: mustAddr("10.0.1.1"), RemoteASN: 1},
		{Addr: mustAddr("10.0.2.1"), RemoteASN: 2},
	})
	e, res := runBGP(t, []*DeviceConfig{a, b, c}, nil, nil)
	if !res.Converged {
		t.Fatalf("%+v", res)
	}
	for _, rt := range e.BestRoutes("b") {
		if rt.Prefix == mustPfx("203.0.113.0/24") {
			if len(rt.ASPath) != 1 || rt.ASPath[0] != 1 {
				t.Errorf("b path = %v, want [1]", rt.ASPath)
			}
		}
	}
}

// Sequential (Gauss-Seidel) processing distinguishes timing-sensitive
// oscillations from persistent ones: the crossed-IGP rrGadget cycles in
// lockstep rounds but settles when routers process asynchronously —
// whereas an RFC 3345-class MED/IGP condition (see topogen's gadget, run
// through the emulator tests) never settles.
func TestSequentialClassifiesTimingSensitivity(t *testing.T) {
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
	// Synchronous: oscillates under the IOS profile (lockstep flip).
	e1, _ := NewBGPEngine(devs, func(string) VendorProfile { return ProfileIOS }, igp)
	if res := e1.Run(60); !res.Oscillating {
		t.Fatalf("synchronous: %+v", res)
	}
	// Sequential: the same configuration has a stable assignment and
	// converges — the oscillation was timing-locked.
	devs2, domain2, _ := rrGadget()
	igp2 := NewCompositeIGP()
	for _, dc := range devs2 {
		if dc.OSPF != nil {
			igp2.AddDevice(dc, domain2)
		} else {
			igp2.AddDevice(dc, nil)
		}
	}
	e2, _ := NewBGPEngine(devs2, func(string) VendorProfile { return ProfileIOS }, igp2)
	e2.SetSequential(true)
	if res := e2.Run(60); !res.Converged {
		t.Fatalf("sequential: %+v", res)
	}
}

func TestSequentialBasicConvergence(t *testing.T) {
	e, err := NewBGPEngine(twoASTopo(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.SetSequential(true)
	res := e.Run(50)
	if !res.Converged {
		t.Fatalf("%+v", res)
	}
	routes := e.BestRoutes("b")
	if len(routes) != 1 || routes[0].ASPath[0] != 1 {
		t.Errorf("b routes = %+v", routes)
	}
}
