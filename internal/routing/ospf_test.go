package routing

import (
	"net/netip"
	"testing"
)

func mustAddr(s string) netip.Addr  { return netip.MustParseAddr(s) }
func mustPfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// lineTopo builds a--b--c with configurable a-b cost.
//
//	a(.1)--10.0.0.0/30--(.2)b(.5)--10.0.0.4/30--(.6)c
func lineTopo(abCost int) []*DeviceConfig {
	mk := func(host string, lo string, ifaces ...InterfaceConfig) *DeviceConfig {
		nets := []OSPFNetwork{}
		for _, ic := range ifaces {
			nets = append(nets, OSPFNetwork{Prefix: ic.Prefix, Area: 0})
		}
		dc := &DeviceConfig{
			Hostname:   host,
			Interfaces: ifaces,
			OSPF:       &OSPFConfig{ProcessID: 1, Networks: nets},
		}
		if lo != "" {
			dc.Loopback = mustAddr(lo)
			dc.Interfaces = append(dc.Interfaces, InterfaceConfig{
				Name: "lo", Addr: dc.Loopback, Prefix: netip.PrefixFrom(dc.Loopback, 32), Cost: 1,
			})
			dc.OSPF.Networks = append(dc.OSPF.Networks, OSPFNetwork{Prefix: netip.PrefixFrom(dc.Loopback, 32), Area: 0})
		}
		return dc
	}
	a := mk("a", "10.255.0.1", InterfaceConfig{Name: "eth0", Addr: mustAddr("10.0.0.1"), Prefix: mustPfx("10.0.0.0/30"), Cost: abCost})
	b := mk("b", "10.255.0.2",
		InterfaceConfig{Name: "eth0", Addr: mustAddr("10.0.0.2"), Prefix: mustPfx("10.0.0.0/30"), Cost: abCost},
		InterfaceConfig{Name: "eth1", Addr: mustAddr("10.0.0.5"), Prefix: mustPfx("10.0.0.4/30"), Cost: 1})
	c := mk("c", "10.255.0.3", InterfaceConfig{Name: "eth0", Addr: mustAddr("10.0.0.6"), Prefix: mustPfx("10.0.0.4/30"), Cost: 1})
	return []*DeviceConfig{a, b, c}
}

func converge(t *testing.T, devs []*DeviceConfig) *OSPFDomain {
	t.Helper()
	d := NewOSPFDomain(devs)
	if err := d.Converge(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestOSPFNeighbors(t *testing.T) {
	d := converge(t, lineTopo(1))
	na := d.Neighbors("a")
	if len(na) != 1 || na[0].Hostname != "b" {
		t.Fatalf("a neighbors = %+v", na)
	}
	if na[0].Addr != mustAddr("10.0.0.2") || na[0].Iface != "eth0" {
		t.Errorf("neighbor detail = %+v", na[0])
	}
	nb := d.Neighbors("b")
	if len(nb) != 2 {
		t.Errorf("b neighbors = %d, want 2", len(nb))
	}
	if len(d.Neighbors("zz")) != 0 {
		t.Error("unknown host has neighbors")
	}
}

func TestOSPFRoutes(t *testing.T) {
	d := converge(t, lineTopo(1))
	// a must reach the b-c subnet via b.
	var toFar *Route
	for _, rt := range d.Routes("a") {
		rt := rt
		if rt.Prefix == mustPfx("10.0.0.4/30") {
			toFar = &rt
		}
	}
	if toFar == nil {
		t.Fatalf("a has no route to far subnet: %+v", d.Routes("a"))
	}
	if toFar.NextHop != mustAddr("10.0.0.2") || toFar.OutIf != "eth0" {
		t.Errorf("route = %+v", *toFar)
	}
	if toFar.Metric != 2 { // a->b (1) + b's eth1 cost (1)
		t.Errorf("metric = %d, want 2", toFar.Metric)
	}
	// a reaches c's loopback.
	found := false
	for _, rt := range d.Routes("a") {
		if rt.Prefix == mustPfx("10.255.0.3/32") {
			found = true
		}
	}
	if !found {
		t.Error("loopback route missing")
	}
}

func TestOSPFCostsRespected(t *testing.T) {
	d := converge(t, lineTopo(10))
	for _, rt := range d.Routes("a") {
		if rt.Prefix == mustPfx("10.0.0.4/30") && rt.Metric != 11 {
			t.Errorf("metric with cost 10 = %d, want 11", rt.Metric)
		}
	}
}

func TestOSPFIGPCost(t *testing.T) {
	d := converge(t, lineTopo(1))
	if c := d.IGPCost("a", mustAddr("10.0.0.2")); c != 0 {
		t.Errorf("connected cost = %d", c)
	}
	if c := d.IGPCost("a", mustAddr("10.255.0.3")); c != 3 { // 1 + 1 + lo cost 1
		t.Errorf("remote loopback cost = %d, want 3", c)
	}
	if c := d.IGPCost("a", mustAddr("203.0.113.1")); c >= 0 {
		t.Errorf("unreachable cost = %d, want negative", c)
	}
	if c := d.IGPCost("zz", mustAddr("10.0.0.2")); c >= 0 {
		t.Error("unknown host should be unreachable")
	}
}

func TestOSPFPartition(t *testing.T) {
	devs := lineTopo(1)
	// Remove b: a and c cannot see each other.
	d := converge(t, []*DeviceConfig{devs[0], devs[2]})
	if len(d.Neighbors("a")) != 0 {
		t.Error("phantom adjacency")
	}
	if len(d.Routes("a")) != 0 {
		t.Errorf("routes across partition: %+v", d.Routes("a"))
	}
}

func TestOSPFNetworkStatementGates(t *testing.T) {
	devs := lineTopo(1)
	// Drop the a-b subnet from b's OSPF networks: no adjacency forms even
	// though the interface exists (a mis-generated config is visible).
	b := devs[1]
	var nets []OSPFNetwork
	for _, n := range b.OSPF.Networks {
		if n.Prefix != mustPfx("10.0.0.0/30") {
			nets = append(nets, n)
		}
	}
	b.OSPF.Networks = nets
	d := converge(t, devs)
	if len(d.Neighbors("a")) != 0 {
		t.Error("adjacency formed without network statement")
	}
}

func TestDeviceConfigValidate(t *testing.T) {
	good := lineTopo(1)[0]
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := &DeviceConfig{} // no hostname
	if err := bad.Validate(); err == nil {
		t.Error("empty config accepted")
	}
	bad2 := &DeviceConfig{Hostname: "x", Interfaces: []InterfaceConfig{
		{Name: "eth0", Addr: mustAddr("10.0.0.1"), Prefix: mustPfx("192.168.0.0/24")},
	}}
	if err := bad2.Validate(); err == nil {
		t.Error("address outside subnet accepted")
	}
	bad3 := &DeviceConfig{Hostname: "x", Interfaces: []InterfaceConfig{
		{Name: "eth0", Addr: mustAddr("10.0.0.1"), Prefix: mustPfx("10.0.0.0/24")},
		{Name: "eth1", Addr: mustAddr("10.0.0.1"), Prefix: mustPfx("10.0.0.0/24")},
	}}
	if err := bad3.Validate(); err == nil {
		t.Error("duplicate address accepted")
	}
	bad4 := &DeviceConfig{Hostname: "x", BGP: &BGPConfig{ASN: -1}}
	if err := bad4.Validate(); err == nil {
		t.Error("invalid ASN accepted")
	}
}

// TestOSPFRoutesTotalOrder: a /24 and a /30 on one base address come out
// shorter first on every converge. The FIB merge consumes these lists as
// sorted by (address, length); ordered by address alone the pair fell in map
// order.
func TestOSPFRoutesTotalOrder(t *testing.T) {
	for run := 0; run < 20; run++ {
		devs := lineTopo(1)
		c := devs[2]
		for _, ic := range []InterfaceConfig{
			{Name: "eth1", Addr: mustAddr("172.16.0.129"), Prefix: mustPfx("172.16.0.0/24"), Cost: 1},
			{Name: "eth2", Addr: mustAddr("172.16.0.1"), Prefix: mustPfx("172.16.0.0/30"), Cost: 1},
		} {
			c.Interfaces = append(c.Interfaces, ic)
			c.OSPF.Networks = append(c.OSPF.Networks, OSPFNetwork{Prefix: ic.Prefix, Area: 0})
		}
		routes := converge(t, devs).Routes("a")
		var got []netip.Prefix
		for i, rt := range routes {
			if i > 0 && ComparePrefix(routes[i-1].Prefix, rt.Prefix) >= 0 {
				t.Fatalf("run %d: routes not strictly ascending at %d: %v then %v", run, i, routes[i-1].Prefix, rt.Prefix)
			}
			if rt.Prefix.Addr() == mustAddr("172.16.0.0") {
				got = append(got, rt.Prefix)
			}
		}
		if len(got) != 2 || got[0] != mustPfx("172.16.0.0/24") || got[1] != mustPfx("172.16.0.0/30") {
			t.Fatalf("run %d: routes at 172.16.0.0 = %v, want the /24 then the /30", run, got)
		}
	}
}

func TestInterfaceByAddr(t *testing.T) {
	dc := lineTopo(1)[0]
	ic, ok := dc.InterfaceByAddr(mustAddr("10.0.0.1"))
	if !ok || ic.Name != "eth0" {
		t.Errorf("got %+v %v", ic, ok)
	}
	if _, ok := dc.InterfaceByAddr(mustAddr("203.0.113.1")); ok {
		t.Error("phantom interface")
	}
}

func TestDomainString(t *testing.T) {
	d := NewOSPFDomain(lineTopo(1))
	if d.String() != "ospf-domain(3 routers)" {
		t.Errorf("String = %q", d.String())
	}
}

func TestRouterIDFallbacks(t *testing.T) {
	// Without a loopback the first interface address stands in.
	devs := lineTopo(1)
	a := devs[0]
	a.Loopback = netip.Addr{}
	var kept []InterfaceConfig
	for _, ic := range a.Interfaces {
		if ic.Name != "lo" {
			kept = append(kept, ic)
		}
	}
	a.Interfaces = kept
	var nets []OSPFNetwork
	for _, n := range a.OSPF.Networks {
		if n.Prefix.Bits() != 32 {
			nets = append(nets, n)
		}
	}
	a.OSPF.Networks = nets
	d := converge(t, devs)
	nbrs := d.Neighbors("b")
	for _, nbr := range nbrs {
		if nbr.Hostname == "a" && nbr.RouterID != mustAddr("10.0.0.1") {
			t.Errorf("router-id fallback = %v", nbr.RouterID)
		}
	}
}

// NewISISDomain behaves like the OSPF engine over the enabled interfaces.
func TestISISDomainSPF(t *testing.T) {
	devs := lineTopo(1)
	for _, dc := range devs {
		var enabled []string
		for _, ic := range dc.Interfaces {
			if ic.Name != "lo" {
				enabled = append(enabled, ic.Name)
			}
		}
		dc.ISIS = &ISISConfig{NET: "49.0001." + dc.Hostname + ".00", Interfaces: enabled}
		dc.OSPF = nil
	}
	d := NewISISDomain(devs)
	if err := d.Converge(); err != nil {
		t.Fatal(err)
	}
	if len(d.Neighbors("a")) != 1 {
		t.Errorf("a isis neighbors = %+v", d.Neighbors("a"))
	}
	// Loopbacks advertise automatically (lo always enabled).
	found := false
	for _, rt := range d.Routes("a") {
		if rt.Prefix == mustPfx("10.255.0.3/32") {
			found = true
		}
	}
	if !found {
		t.Errorf("loopback route missing: %+v", d.Routes("a"))
	}
	// Devices without ISIS are excluded.
	d2 := NewISISDomain(lineTopo(1))
	if len(d2.Neighbors("a")) != 0 {
		t.Error("non-ISIS devices formed adjacencies")
	}
}
