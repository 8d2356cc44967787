package compile

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"strings"
	"testing"

	"autonetkit/internal/core"
	"autonetkit/internal/design"
	"autonetkit/internal/graph"
	"autonetkit/internal/ipalloc"
	"autonetkit/internal/nidb"
)

// pipeline builds fig5 input -> overlays -> allocation -> NIDB.
func pipeline(t *testing.T, mutate func(in *core.Overlay), opts Options, dopts design.Options) (*core.ANM, *ipalloc.Result, *nidb.DB) {
	t.Helper()
	anm := core.NewANM()
	in, err := anm.AddOverlay(core.OverlayInput)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []struct {
		id  graph.ID
		asn int
	}{{"r1", 1}, {"r2", 1}, {"r3", 1}, {"r4", 1}, {"r5", 2}} {
		in.AddNode(n.id, graph.Attrs{core.AttrASN: n.asn, core.AttrDeviceType: core.DeviceRouter})
	}
	for _, e := range [][2]graph.ID{{"r1", "r2"}, {"r1", "r3"}, {"r2", "r4"}, {"r3", "r4"}, {"r3", "r5"}, {"r4", "r5"}} {
		in.AddEdge(e[0], e[1], graph.Attrs{"type": "physical"})
	}
	if mutate != nil {
		mutate(in)
	}
	if err := design.BuildAll(anm, dopts); err != nil {
		t.Fatal(err)
	}
	alloc, err := ipalloc.NewDefault().Allocate(anm)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Compile(anm, alloc, opts)
	if err != nil {
		t.Fatal(err)
	}
	return anm, alloc, db
}

func TestCompileBasics(t *testing.T) {
	_, _, db := pipeline(t, nil, Options{}, design.Options{})
	if db.Len() != 5 {
		t.Fatalf("devices = %d", db.Len())
	}
	d := db.Device("r1")
	if d.GetString("hostname", "") != "r1" {
		t.Errorf("hostname = %q", d.GetString("hostname", ""))
	}
	if d.GetString("zebra.password", "") != "1234" {
		t.Errorf("password default wrong")
	}
	if d.GetInt("asn", 0) != 1 {
		t.Errorf("asn wrong")
	}
	if d.GetString("platform", "") != "netkit" || d.GetString("syntax", "") != "quagga" {
		t.Errorf("platform/syntax defaults wrong")
	}
	if d.GetString("render.base", "") != "templates/quagga" {
		t.Errorf("render.base = %q", d.GetString("render.base", ""))
	}
	if d.GetString("render.dst_folder", "") != "localhost/netkit/r1" {
		t.Errorf("dst_folder = %q", d.GetString("render.dst_folder", ""))
	}
}

func TestCompileInterfaces(t *testing.T) {
	_, alloc, db := pipeline(t, nil, Options{}, design.Options{})
	d := db.Device("r3") // r3 has 3 links
	ifaces, _ := d.Get("interfaces")
	list := ifaces.([]any)
	if len(list) != 3 {
		t.Fatalf("r3 interfaces = %d, want 3", len(list))
	}
	ids := map[string]bool{}
	for i, ifc := range list {
		m := ifc.(map[string]any)
		want := fmt.Sprintf("eth%d", i)
		if m["id"] != want {
			t.Errorf("iface %d id = %v, want %s", i, m["id"], want)
		}
		ids[fmt.Sprint(m["id"])] = true
		addr := m["ip_address"].(netip.Addr)
		network := m["network"].(netip.Prefix)
		if !network.Contains(addr) {
			t.Errorf("iface addr %v outside %v", addr, network)
		}
		if !strings.HasPrefix(fmt.Sprint(m["description"]), "r3 to ") {
			t.Errorf("description = %v", m["description"])
		}
	}
	if len(ids) != 3 {
		t.Error("duplicate interface names")
	}
	// Loopback present.
	lb, ok := d.Get("loopback.ip")
	if !ok {
		t.Fatal("no loopback")
	}
	if lb.(netip.Addr) != alloc.Overlay.Node("r3").Get(ipalloc.AttrLoopback).(netip.Addr) {
		t.Error("loopback mismatch with allocation")
	}
}

func TestCompileOSPF(t *testing.T) {
	_, _, db := pipeline(t, nil, Options{}, design.Options{})
	d := db.Device("r1")
	if d.GetInt("ospf.process_id", 0) != 1 {
		t.Error("process id wrong")
	}
	links, _ := d.Get("ospf.ospf_links")
	list := links.([]any)
	// r1: two intra-AS attachments + loopback = 3 networks.
	if len(list) != 3 {
		t.Fatalf("r1 ospf links = %d, want 3", len(list))
	}
	last := list[len(list)-1].(map[string]any)
	if last["network"].(netip.Prefix).Bits() != 32 {
		t.Error("loopback stub network missing or not /32")
	}
	// r5 (AS2, only inter-AS links): 2 passive inter-AS stubs + loopback.
	d5 := db.Device("r5")
	links5, _ := d5.Get("ospf.ospf_links")
	if n := len(links5.([]any)); n != 3 {
		t.Errorf("r5 ospf links = %d, want 3", n)
	}
	for _, l := range links5.([]any) {
		m := l.(map[string]any)
		if m["network"].(netip.Prefix).Bits() != 32 && m["passive"] != true {
			t.Errorf("r5 inter-AS link not passive: %v", m)
		}
	}
}

func TestOSPFMarksInterASNetworksPassive(t *testing.T) {
	_, _, db := pipeline(t, nil, Options{}, design.Options{})
	d := db.Device("r3")
	links, _ := d.Get("ospf.ospf_links")
	// r3 has 2 intra-AS cds + 1 inter-AS cd (passive stub) + loopback.
	if n := len(links.([]any)); n != 4 {
		t.Errorf("r3 ospf links = %d, want 4", n)
	}
	passives, _ := d.Get("ospf.passive_interfaces")
	if n := len(passives.([]any)); n != 1 {
		t.Errorf("r3 passive interfaces = %d, want 1 (the r5-facing one)", n)
	}
	npassive := 0
	for _, l := range links.([]any) {
		if l.(map[string]any)["passive"] == true {
			npassive++
		}
	}
	if npassive != 1 {
		t.Errorf("r3 passive links = %d, want 1", npassive)
	}
}

func TestCompileBGP(t *testing.T) {
	_, alloc, db := pipeline(t, nil, Options{}, design.Options{})
	d := db.Device("r3")
	if d.GetInt("bgp.asn", 0) != 1 {
		t.Error("bgp asn wrong")
	}
	// eBGP: r3 has one session to r5; neighbor IP is r5's address on the
	// shared collision domain.
	eNbrs, _ := d.Get("bgp.ebgp_neighbors")
	eList := eNbrs.([]any)
	if len(eList) != 1 {
		t.Fatalf("r3 ebgp neighbors = %d, want 1", len(eList))
	}
	nbr := eList[0].(map[string]any)
	if nbr["remote_asn"] != 2 {
		t.Errorf("remote asn = %v", nbr["remote_asn"])
	}
	addr := nbr["ip"].(netip.Addr)
	if alloc.Table.HostForIP(addr) != "r5" {
		t.Errorf("ebgp neighbor ip %v does not belong to r5", addr)
	}
	// iBGP: full mesh, 3 neighbors in AS1, sessions to loopbacks.
	iNbrs, _ := d.Get("bgp.ibgp_neighbors")
	iList := iNbrs.([]any)
	if len(iList) != 3 {
		t.Fatalf("r3 ibgp neighbors = %d, want 3", len(iList))
	}
	for _, x := range iList {
		m := x.(map[string]any)
		if m["remote_asn"] != 1 {
			t.Errorf("ibgp remote asn = %v", m["remote_asn"])
		}
		lb := m["ip"].(netip.Addr)
		e, ok := alloc.Table.Lookup(lb)
		if !ok || !e.Loopback {
			t.Errorf("ibgp neighbor %v is not a loopback", lb)
		}
		if m["rr_client"] != false {
			t.Error("full mesh should have no rr clients")
		}
	}
	// Advertised networks: AS1 block + own loopback.
	nets, _ := d.Get("bgp.networks")
	nList := nets.([]any)
	if len(nList) != 2 {
		t.Fatalf("bgp networks = %v", nList)
	}
	if nList[0].(netip.Prefix) != alloc.InfraBlocks[1] {
		t.Errorf("first network = %v, want AS block %v", nList[0], alloc.InfraBlocks[1])
	}
}

func TestCompileBGPRouteReflectors(t *testing.T) {
	_, _, db := pipeline(t, func(in *core.Overlay) {
		in.Node("r1").MustSet(design.AttrRR, true)
	}, Options{}, design.Options{RouteReflectors: true})
	d1 := db.Device("r1")
	if v, _ := d1.Get("bgp.route_reflector"); v != true {
		t.Error("r1 not marked route reflector")
	}
	iNbrs, _ := d1.Get("bgp.ibgp_neighbors")
	clients := 0
	for _, x := range iNbrs.([]any) {
		if x.(map[string]any)["rr_client"] == true {
			clients++
		}
	}
	if clients != 3 {
		t.Errorf("r1 rr clients = %d, want 3", clients)
	}
	d2 := db.Device("r2")
	if v, _ := d2.Get("bgp.route_reflector"); v == true {
		t.Error("client marked as rr")
	}
	iNbrs2, _ := d2.Get("bgp.ibgp_neighbors")
	if n := len(iNbrs2.([]any)); n != 1 {
		t.Errorf("client sessions = %d, want 1 (to the rr)", n)
	}
}

func TestCompileISIS(t *testing.T) {
	_, _, db := pipeline(t, nil, Options{}, design.Options{ISIS: true})
	d := db.Device("r1")
	net := d.GetString("isis.net", "")
	if !strings.HasPrefix(net, "49.0001.") || !strings.HasSuffix(net, ".00") {
		t.Errorf("isis net = %q", net)
	}
	ifaces, _ := d.Get("isis.interfaces")
	// r1's two intra-AS interfaces plus the loopback.
	if n := len(ifaces.([]any)); n != 3 {
		t.Errorf("isis interfaces = %d, want 3", n)
	}
	list := ifaces.([]any)
	if list[len(list)-1] != "lo" {
		t.Errorf("loopback not enabled in IS-IS: %v", list)
	}
	// Quagga daemons include isisd.
	daemons, _ := d.Get("quagga.daemons")
	names := []string{}
	for _, x := range daemons.([]any) {
		names = append(names, fmt.Sprint(x.(map[string]any)["name"]))
	}
	if !strings.Contains(strings.Join(names, ","), "isisd") {
		t.Errorf("daemons = %v", names)
	}
}

func TestQuaggaDaemons(t *testing.T) {
	_, _, db := pipeline(t, nil, Options{}, design.Options{})
	d := db.Device("r1")
	daemons, _ := d.Get("quagga.daemons")
	list := daemons.([]any)
	if len(list) != 3 { // zebra, ospfd, bgpd
		t.Errorf("daemons = %v", list)
	}
}

func TestNetkitLab(t *testing.T) {
	_, _, db := pipeline(t, nil, Options{}, design.Options{})
	lab := db.Lab("localhost", "netkit")
	machines := lab["machines"].([]any)
	if len(machines) != 5 {
		t.Fatalf("lab machines = %d", len(machines))
	}
	cds := lab["collision_domains"].([]any)
	if len(cds) != 6 {
		t.Errorf("lab collision domains = %d, want 6", len(cds))
	}
	if lab["tap_host"].(netip.Addr).String() != "172.16.0.1" {
		t.Errorf("tap host = %v", lab["tap_host"])
	}
	// Every machine has a distinct tap IP.
	seen := map[string]bool{}
	for _, m := range machines {
		tap := m.(map[string]any)["tap"].(map[string]any)
		ip := fmt.Sprint(tap["ip"])
		if seen[ip] {
			t.Errorf("tap ip %s duplicated", ip)
		}
		seen[ip] = true
	}
}

func TestLinksRecorded(t *testing.T) {
	_, _, db := pipeline(t, nil, Options{}, design.Options{})
	links := db.Links()
	if len(links) != 6 {
		t.Fatalf("links = %d, want 6", len(links))
	}
	for _, l := range links {
		if l.AIface == "" || l.BIface == "" {
			t.Errorf("link %v missing iface names", l)
		}
	}
}

func TestMultiPlatformCompile(t *testing.T) {
	for _, tc := range []struct{ platform, syntax, iface string }{
		{"dynagen", "ios", "f0/0"},
		{"junosphere", "junos", "em0"},
		{"cbgp", "cbgp", "if0"},
	} {
		_, _, db := pipeline(t, func(in *core.Overlay) {
			for _, n := range in.Nodes() {
				n.MustSet(core.AttrPlatform, tc.platform)
				n.MustSet(core.AttrSyntax, tc.syntax)
			}
		}, Options{}, design.Options{})
		d := db.Device("r1")
		ifaces, _ := d.Get("interfaces")
		if got := fmt.Sprint(ifaces.([]any)[0].(map[string]any)["id"]); got != tc.iface {
			t.Errorf("%s: first iface = %q, want %q", tc.platform, got, tc.iface)
		}
		if d.GetString("render.base", "") != "templates/"+tc.syntax {
			t.Errorf("%s: render base = %q", tc.syntax, d.GetString("render.base", ""))
		}
	}
}

func TestHostnameSanitization(t *testing.T) {
	cases := []struct {
		p    Platform
		in   string
		want string
	}{
		{NetkitPlatform{}, "AS100.R1 (core)", "as100r1core"},
		{DynagenPlatform{}, "r_1", "r-1"},
		{JunospherePlatform{}, "r1!", "r1"},
		{CBGPPlatform{}, "", "device"},
	}
	for _, c := range cases {
		if got := c.p.SanitizeHostname(c.in); got != c.want {
			t.Errorf("%s.Sanitize(%q) = %q, want %q", c.p.Name(), c.in, got, c.want)
		}
	}
}

func TestUnknownPlatformSyntax(t *testing.T) {
	anm := core.NewANM()
	in, _ := anm.AddOverlay(core.OverlayInput)
	in.AddNode("r1", graph.Attrs{core.AttrASN: 1, core.AttrDeviceType: core.DeviceRouter, core.AttrPlatform: "exotic"})
	in.AddNode("r2", graph.Attrs{core.AttrASN: 1, core.AttrDeviceType: core.DeviceRouter})
	in.AddEdge("r1", "r2")
	if err := design.BuildAll(anm, design.Options{}); err != nil {
		t.Fatal(err)
	}
	alloc, err := ipalloc.NewDefault().Allocate(anm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(anm, alloc, Options{}); err == nil {
		t.Error("unknown platform accepted")
	}
	if _, err := PlatformFor("exotic"); err == nil {
		t.Error("PlatformFor(exotic) should fail")
	}
	if _, err := SyntaxFor("exotic"); err == nil {
		t.Error("SyntaxFor(exotic) should fail")
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile(core.NewANM(), nil, Options{}); err == nil {
		t.Error("nil alloc accepted")
	}
	anm := core.NewANM()
	if _, err := Compile(anm, &ipalloc.Result{}, Options{}); err == nil {
		t.Error("empty phy accepted")
	}
}

func TestRegistries(t *testing.T) {
	if got := Platforms(); len(got) < 4 {
		t.Errorf("platforms = %v", got)
	}
	if got := Syntaxes(); len(got) < 4 {
		t.Errorf("syntaxes = %v", got)
	}
}

func TestIsisNET(t *testing.T) {
	got := isisNET(100, netip.MustParseAddr("10.0.0.3"))
	if got != "49.0064.0100.0000.0003.00" {
		t.Errorf("isisNET = %q", got)
	}
}

func TestServersCompiledWithoutProtocols(t *testing.T) {
	_, _, db := pipeline(t, func(in *core.Overlay) {
		in.AddNode("srv", graph.Attrs{core.AttrASN: 1, core.AttrDeviceType: core.DeviceServer})
		in.AddEdge("srv", "r1", graph.Attrs{"type": "physical"})
	}, Options{}, design.Options{})
	d := db.Device("srv")
	if d == nil {
		t.Fatal("server not compiled")
	}
	if _, ok := d.Get("ospf"); ok {
		t.Error("server has ospf block")
	}
	if _, ok := d.Get("bgp"); ok {
		t.Error("server has bgp block")
	}
	ifaces, _ := d.Get("interfaces")
	if len(ifaces.([]any)) != 1 {
		t.Error("server interface missing")
	}
}

// Compiling on one goroutine and on many yields the same Resource
// Database: same device order, same serialised trees, same links.
func TestCompileWorkersDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	anm, alloc, _ := pipeline(t, nil, Options{}, design.Options{})
	var want []byte
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		db, err := Compile(anm, alloc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if string(got) != string(want) {
			t.Errorf("GOMAXPROCS=%d and GOMAXPROCS=1 databases differ", procs)
		}
	}
}

// A cancelled context aborts the per-device fan-out.
func TestCompileContextCancelled(t *testing.T) {
	anm, alloc, _ := pipeline(t, nil, Options{}, design.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompileContext(ctx, anm, alloc, Options{}); err == nil {
		t.Fatal("cancelled compile succeeded")
	}
}

// The failing device stops the rest and surfaces its error.
func TestCompileFirstErrorWins(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	anm, alloc, _ := pipeline(t, nil, Options{}, design.Options{})
	anm.Overlay(core.OverlayPhy).Node("r2").Set(core.AttrSyntax, "bogus")
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		_, err := Compile(anm, alloc, Options{})
		if err == nil || !strings.Contains(err.Error(), "bogus") {
			t.Fatalf("GOMAXPROCS=%d: got %v, want bogus-syntax error", procs, err)
		}
	}
}

// With two failing devices the error is always the first's in
// physical-overlay order, whichever goroutine fails first.
func TestCompileErrorInDeviceOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	anm, alloc, _ := pipeline(t, nil, Options{}, design.Options{})
	phy := anm.Overlay(core.OverlayPhy)
	phy.Node("r1").Set(core.AttrSyntax, "bogusA")
	phy.Node("r4").Set(core.AttrSyntax, "bogusB")
	for range 50 {
		_, err := Compile(anm, alloc, Options{})
		if err == nil || !strings.Contains(err.Error(), "bogusA") {
			t.Fatalf("got %v, want r1's bogusA-syntax error", err)
		}
	}
}
