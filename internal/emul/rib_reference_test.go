package emul

// The FIB build is a merge over sorted sources; the oracle it is held to is
// the build it replaced: every candidate route installed into a per-node RIB
// (a map of maps), the best per prefix then inserted into a fresh FIB. RIB
// is that table as it stood in internal/routing, kept here as the reference
// and used nowhere else.

import (
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"testing"

	"autonetkit/internal/core"
	"autonetkit/internal/dataplane"
	"autonetkit/internal/design"
	"autonetkit/internal/routing"
	"autonetkit/internal/topogen"
	"autonetkit/internal/topoio"
)

// adminDistance mirrors the conventional preferences.
var adminDistance = map[routing.RouteOrigin]int{
	routing.OriginConnected: 0,
	routing.OriginOSPF:      110,
	routing.OriginBGP:       200, // iBGP; eBGP handled inside the BGP process
}

// RIB is a device's routing table: best route per prefix per origin, with
// protocol preference applied on FIB selection.
type RIB struct {
	routes map[netip.Prefix]map[routing.RouteOrigin]routing.Route
}

// NewRIB returns an empty routing table.
func NewRIB() *RIB {
	return &RIB{routes: map[netip.Prefix]map[routing.RouteOrigin]routing.Route{}}
}

// Install adds or replaces the route for (prefix, origin).
func (r *RIB) Install(rt routing.Route) {
	m, ok := r.routes[rt.Prefix]
	if !ok {
		m = map[routing.RouteOrigin]routing.Route{}
		r.routes[rt.Prefix] = m
	}
	m[rt.Origin] = rt
}

// Remove deletes the route for (prefix, origin).
func (r *RIB) Remove(prefix netip.Prefix, origin routing.RouteOrigin) {
	if m, ok := r.routes[prefix]; ok {
		delete(m, origin)
		if len(m) == 0 {
			delete(r.routes, prefix)
		}
	}
}

// Best returns the preferred route for a prefix (lowest administrative
// distance, then lowest metric).
func (r *RIB) Best(prefix netip.Prefix) (routing.Route, bool) {
	m, ok := r.routes[prefix]
	if !ok {
		return routing.Route{}, false
	}
	var best routing.Route
	found := false
	for _, rt := range m {
		if !found {
			best = rt
			found = true
			continue
		}
		da, db := adminDistance[rt.Origin], adminDistance[best.Origin]
		if da < db || (da == db && rt.Metric < best.Metric) {
			best = rt
		}
	}
	return best, found
}

// Prefixes returns every prefix with at least one route.
func (r *RIB) Prefixes() []netip.Prefix {
	out := make([]netip.Prefix, 0, len(r.routes))
	for p := range r.routes {
		out = append(out, p)
	}
	return out
}

// Len returns the number of distinct prefixes.
func (r *RIB) Len() int { return len(r.routes) }

func TestRIB(t *testing.T) {
	r := NewRIB()
	p := netip.MustParsePrefix("10.0.0.0/30")
	r.Install(routing.Route{Prefix: p, Origin: routing.OriginOSPF, Metric: 20, NextHop: netip.MustParseAddr("10.0.0.2")})
	r.Install(routing.Route{Prefix: p, Origin: routing.OriginConnected, OutIf: "eth0"})
	best, ok := r.Best(p)
	if !ok || best.Origin != routing.OriginConnected {
		t.Errorf("best = %+v (connected must win)", best)
	}
	r.Remove(p, routing.OriginConnected)
	best, _ = r.Best(p)
	if best.Origin != routing.OriginOSPF {
		t.Error("fallback to OSPF failed")
	}
	if r.Len() != 1 {
		t.Errorf("len = %d", r.Len())
	}
	r.Remove(p, routing.OriginOSPF)
	if _, ok := r.Best(p); ok {
		t.Error("route survived removal")
	}
	if r.Len() != 0 || len(r.Prefixes()) != 0 {
		t.Error("RIB not empty")
	}
}

// referenceRoutes is the build buildDataplane replaced, for one device: the
// FIB entries in table order, their `show ip route` text, and how often the
// two preference cases the merge must get right arose (an OSPF route over a
// BGP one, a BGP default over the static one).
func referenceRoutes(t *testing.T, l *Lab, dc *routing.DeviceConfig) (entries []dataplane.FIBEntry, text string, ospfOverBGP, bgpOverStatic int) {
	t.Helper()
	rib := NewRIB()
	for _, ic := range dc.Interfaces {
		rib.Install(routing.Route{Prefix: ic.Prefix, Origin: routing.OriginConnected, OutIf: ic.Name})
	}
	defaultRoute := netip.MustParsePrefix("0.0.0.0/0")
	if dc.Gateway.IsValid() {
		rib.Install(routing.Route{
			Prefix:  defaultRoute,
			NextHop: dc.Gateway,
			Origin:  routing.OriginBGP, // static default: lowest preference
			Metric:  1,
		})
	}
	if l.domain != nil {
		for _, rt := range l.domain.Routes(dc.Hostname) {
			rib.Install(rt)
		}
	}
	if l.isis != nil {
		for _, rt := range l.isis.Routes(dc.Hostname) {
			rib.Install(rt)
		}
	}
	if l.bgp != nil {
		for _, rt := range l.bgp.BestRoutes(dc.Hostname) {
			if rt.Local || !rt.NextHop.IsValid() {
				continue
			}
			if rt.Prefix == defaultRoute && dc.Gateway.IsValid() {
				bgpOverStatic++
			}
			rib.Install(routing.Route{Prefix: rt.Prefix, Origin: routing.OriginBGP, NextHop: rt.NextHop})
		}
	}
	fib := dataplane.NewFIB()
	for _, p := range rib.Prefixes() {
		best, _ := rib.Best(p)
		if _, contested := rib.routes[p][routing.OriginBGP]; contested && best.Origin == routing.OriginOSPF {
			ospfOverBGP++
		}
		entry := dataplane.FIBEntry{Prefix: best.Prefix, NextHop: best.NextHop, OutIf: best.OutIf, Connected: best.Origin == routing.OriginConnected}
		if err := fib.Insert(entry); err != nil {
			t.Fatalf("%s: %v", dc.Hostname, err)
		}
	}
	entries = fib.Entries()
	sorted := slices.Clone(entries)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Prefix.Addr() != sorted[j].Prefix.Addr() {
			return sorted[i].Prefix.Addr().Less(sorted[j].Prefix.Addr())
		}
		return sorted[i].Prefix.Bits() < sorted[j].Prefix.Bits()
	})
	var sb strings.Builder
	for _, e := range sorted {
		switch {
		case e.Connected:
			fmt.Fprintf(&sb, "C>* %s is directly connected, %s\n", e.Prefix, e.OutIf)
		case e.OutIf != "":
			fmt.Fprintf(&sb, "O>* %s via %s, %s\n", e.Prefix, e.NextHop, e.OutIf)
		default:
			fmt.Fprintf(&sb, "B>* %s via %s\n", e.Prefix, e.NextHop)
		}
	}
	return entries, sb.String(), ospfOverBGP, bgpOverStatic
}

// checkAgainstReference holds every live machine's FIB and `show ip route`
// to the reference build and returns the preference-case counts.
func checkAgainstReference(t *testing.T, label string, l *Lab) (ospfOverBGP, bgpOverStatic int) {
	t.Helper()
	bad := 0
	for _, dc := range l.liveDevices() {
		want, wantText, a, b := referenceRoutes(t, l, dc)
		ospfOverBGP, bgpOverStatic = ospfOverBGP+a, bgpOverStatic+b
		node, ok := l.Network().Node(dc.Hostname)
		if !ok {
			t.Fatalf("%s: %s has no data-plane node", label, dc.Hostname)
		}
		if got := node.FIB.Entries(); !slices.Equal(got, want) || node.FIB.Len() != len(want) {
			t.Errorf("%s: %s: FIB differs from the RIB reference:\n got %v\nwant %v", label, dc.Hostname, got, want)
			bad++
		}
		if got, err := l.Exec(dc.Hostname, "show ip route"); err != nil || got != wantText {
			t.Errorf("%s: %s: show ip route differs from the RIB reference (err %v):\n--- got ---\n%s--- want ---\n%s", label, dc.Hostname, err, got, wantText)
			bad++
		}
		if bad > 4 {
			t.Fatalf("%s: giving up after %d mismatches", label, bad)
		}
	}
	return ospfOverBGP, bgpOverStatic
}

// nrenLab renders a seeded NREN-shaped topology for one platform and IGP and
// loads it, un-booted.
func nrenLab(t testing.TB, routers int, platform, syntax string, igp design.IGP) *Lab {
	t.Helper()
	g, err := topogen.NREN(topogen.NRENConfig{ASes: max(3, routers/20), Routers: routers, Links: routers * 5 / 4, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	topoio.StandardDefaults().Apply(g)
	for _, n := range g.Nodes() {
		n.Set(core.AttrPlatform, platform)
		n.Set(core.AttrSyntax, syntax)
	}
	anm := core.NewANM()
	if _, err := anm.AddOverlayGraph(core.OverlayInput, g); err != nil {
		t.Fatal(err)
	}
	lab, _ := labFromInput(t, anm, platform, igp)
	return lab
}

// corruptConfig damages one machine's configuration so that a lenient boot
// quarantines it, whatever the platform.
func corruptConfig(t *testing.T, lab *Lab, name string) {
	t.Helper()
	switch lab.Platform {
	case "netkit":
		corruptBGPD(t, lab, name)
	case "dynagen":
		lab.vms[name].Files[name+".cfg"] = "interface\n" + lab.vms[name].Files[name+".cfg"]
	case "junosphere":
		lab.vms[name].Files[name+".conf"] = "}\n" + lab.vms[name].Files[name+".conf"]
	}
}

// nrenShape is one nrenLab; the zero igp is design's default, OSPF.
type nrenShape struct {
	routers          int
	platform, syntax string
	igp              design.IGP
}

// nrenShapes are the labs the data-plane and SPF oracles walk through
// incidentSteps.
var nrenShapes = []nrenShape{
	{60, "netkit", "quagga", ""}, {60, "dynagen", "ios", ""}, {60, "junosphere", "junos", ""},
	{120, "netkit", "quagga", ""}, {120, "dynagen", "ios", ""}, {120, "junosphere", "junos", ""},
}

type labStep struct {
	label string
	do    func() error
}

// incidentSteps is a booted lab's walk through each kind of incident and its
// restore, starting with a step that does nothing (the boot state itself).
func incidentSteps(lab *Lab) []labStep {
	links, names := lab.Links(), lab.VMNames()
	link, victim, island := links[len(links)/2], names[len(names)/3], names[:len(names)/4]
	return []labStep{
		{"boot", func() error { return nil }},
		{"fail-link", func() error { return lab.FailLink(link[0], link[1]) }},
		{"restore-link", func() error { return lab.RestoreLink(link[0], link[1]) }},
		{"fail-node", func() error { return lab.FailNode(victim) }},
		{"restore-node", func() error { return lab.RestoreNode(victim) }},
		{"partition", func() error { _, err := lab.Apply(Change{Partition: island}); return err }},
		{"heal", func() error {
			for _, name := range island {
				if err := lab.RestoreNode(name); err != nil && !strings.Contains(err.Error(), "is not failed") {
					return err
				}
			}
			return nil
		}},
	}
}

// TestDataplaneMatchesRIBReference: at boot, across each kind of incident
// and its restore, on a degraded boot and with a static default against a
// BGP one, the merged FIBs are the ones the RIB-then-Insert build yields.
func TestDataplaneMatchesRIBReference(t *testing.T) {
	for _, tc := range nrenShapes {
		t.Run(fmt.Sprintf("%s%d", tc.platform, tc.routers), func(t *testing.T) {
			lab := nrenLab(t, tc.routers, tc.platform, tc.syntax, tc.igp)
			// The smaller shape replays its BGP trajectory, so restored
			// selections are held to the reference too.
			if err := lab.Boot(BootOptions{Incremental: tc.routers == 60}); err != nil {
				t.Fatal(err)
			}
			contested := 0
			for _, st := range incidentSteps(lab) {
				if err := st.do(); err != nil {
					t.Fatalf("%s: %v", st.label, err)
				}
				n, _ := checkAgainstReference(t, st.label, lab)
				if contested += n; contested == 0 {
					t.Fatal("no prefix had both an OSPF and a BGP candidate: the preference case is not exercised")
				}
			}
			links := lab.Links()
			link := links[len(links)/2]

			// A static default must lose to a BGP 0.0.0.0/0 where one is
			// heard, and stand where the only one is the device's own.
			origin, hearer := lab.vms[link[0]].Config, lab.vms[link[1]].Config
			if origin.BGP == nil || hearer.BGP == nil {
				t.Fatalf("%s -- %s: both ends must speak BGP", link[0], link[1])
			}
			origin.BGP.Networks = append(origin.BGP.Networks, netip.MustParsePrefix("0.0.0.0/0"))
			origin.Gateway, hearer.Gateway = netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.1")
			if _, err := lab.Apply(Change{}); err != nil {
				t.Fatal(err)
			}
			if _, overStatic := checkAgainstReference(t, "static-default", lab); overStatic == 0 {
				t.Error("no device with a static default heard a BGP default: the preference case is not exercised")
			}
			for host, wantNextHop := range map[string]bool{origin.Hostname: false, hearer.Hostname: true} {
				node, _ := lab.Network().Node(host)
				e, ok := node.FIB.Lookup(netip.MustParseAddr("203.0.113.1"))
				gw := lab.vms[host].Config.Gateway
				if !ok || (e.NextHop != gw) != wantNextHop {
					t.Errorf("%s: default route %+v (found %v) with static gateway %v; BGP default expected: %v", host, e, ok, gw, wantNextHop)
				}
			}
		})
	}
	t.Run("quarantine", func(t *testing.T) {
		for _, platform := range [][2]string{{"netkit", "quagga"}, {"dynagen", "ios"}, {"junosphere", "junos"}} {
			lab := nrenLab(t, 60, platform[0], platform[1], design.IGPOSPF)
			bad := lab.VMNames()[7]
			corruptConfig(t, lab, bad)
			if err := lab.Boot(BootOptions{Lenient: true}); !errors.Is(err, ErrPartialBoot) {
				t.Fatalf("%s: lenient boot error = %v, want ErrPartialBoot", platform[0], err)
			}
			if q := lab.Quarantined(); len(q) != 1 || q[0] != bad {
				t.Fatalf("%s: quarantined = %v, want [%s]", platform[0], q, bad)
			}
			checkAgainstReference(t, platform[0]+" degraded boot", lab)
		}
	})
}
