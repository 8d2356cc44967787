package emul

import (
	"net/netip"
	"slices"
	"strings"
	"testing"

	"autonetkit/internal/compile"
	"autonetkit/internal/core"
	"autonetkit/internal/design"
	"autonetkit/internal/graph"
	"autonetkit/internal/ipalloc"
	"autonetkit/internal/obs"
	"autonetkit/internal/render"
)

// buildLab runs the full pipeline (fig5 input -> overlays -> alloc ->
// compile -> render) and loads the resulting lab.
func buildLab(t *testing.T, platform, syntax string) (*Lab, *ipalloc.Result) {
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
		in.AddNode(n.id, graph.Attrs{
			core.AttrASN: n.asn, core.AttrDeviceType: core.DeviceRouter,
			core.AttrPlatform: platform, core.AttrSyntax: syntax,
		})
	}
	for _, e := range [][2]graph.ID{{"r1", "r2"}, {"r1", "r3"}, {"r2", "r4"}, {"r3", "r4"}, {"r3", "r5"}, {"r4", "r5"}} {
		in.AddEdge(e[0], e[1], graph.Attrs{"type": "physical"})
	}
	return labFromInput(t, anm, platform, design.IGPOSPF)
}

// labFromInput takes a model holding only its input overlay through design,
// allocation, compile and render, and loads the lab of one platform, un-booted.
func labFromInput(t testing.TB, anm *core.ANM, platform string, igp design.IGP) (*Lab, *ipalloc.Result) {
	t.Helper()
	if err := design.BuildAll(anm, design.Options{IGP: igp}); err != nil {
		t.Fatal(err)
	}
	alloc, err := ipalloc.NewDefault().Allocate(anm)
	if err != nil {
		t.Fatal(err)
	}
	db, err := compile.Compile(anm, alloc, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := render.Render(db)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := Load(fs, "localhost", platform)
	if err != nil {
		t.Fatal(err)
	}
	return lab, alloc
}

func startedLab(t *testing.T, platform, syntax string) (*Lab, *ipalloc.Result) {
	t.Helper()
	lab, alloc := buildLab(t, platform, syntax)
	if err := lab.Start(0); err != nil {
		t.Fatal(err)
	}
	return lab, alloc
}

func TestNetkitLabLoads(t *testing.T) {
	lab, _ := buildLab(t, "netkit", "quagga")
	if len(lab.VMNames()) != 5 {
		t.Fatalf("machines = %v", lab.VMNames())
	}
	vm, ok := lab.VM("r1")
	if !ok {
		t.Fatal("r1 missing")
	}
	if _, ok := vm.Files["etc/quagga/ospfd.conf"]; !ok {
		t.Error("machine files not attached")
	}
	if _, ok := vm.Files["r1.startup"]; !ok {
		t.Error("startup script not attached")
	}
	if !vm.TapIP.IsValid() {
		t.Error("tap ip not parsed from lab.conf")
	}
}

func TestNetkitBootRecoversConfig(t *testing.T) {
	lab, alloc := startedLab(t, "netkit", "quagga")
	vm, _ := lab.VM("r3")
	dc := vm.Config
	if dc == nil || !vm.Booted {
		t.Fatal("vm not booted")
	}
	// r3 has 3 data interfaces + lo.
	if len(dc.Interfaces) != 4 {
		t.Errorf("interfaces = %d, want 4", len(dc.Interfaces))
	}
	wantLB := alloc.Overlay.Node("r3").Get(ipalloc.AttrLoopback).(netip.Addr)
	if dc.Loopback != wantLB {
		t.Errorf("loopback = %v, want %v", dc.Loopback, wantLB)
	}
	if dc.OSPF == nil || dc.BGP == nil {
		t.Fatal("protocol configs missing")
	}
	if dc.BGP.ASN != 1 {
		t.Errorf("asn = %d", dc.BGP.ASN)
	}
	// 3 iBGP + 1 eBGP neighbors.
	if len(dc.BGP.Neighbors) != 4 {
		t.Errorf("neighbors = %d, want 4", len(dc.BGP.Neighbors))
	}
}

func TestNetkitOSPFAdjacencies(t *testing.T) {
	lab, _ := startedLab(t, "netkit", "quagga")
	// r1 has two intra-AS links.
	nbrs := lab.OSPFNeighbors("r1")
	if len(nbrs) != 2 {
		t.Fatalf("r1 ospf neighbors = %+v", nbrs)
	}
	names := []string{nbrs[0].Hostname, nbrs[1].Hostname}
	if names[0] != "r2" || names[1] != "r3" {
		t.Errorf("neighbors = %v", names)
	}
	// No adjacency across the AS boundary.
	for _, nbr := range lab.OSPFNeighbors("r3") {
		if nbr.Hostname == "r5" {
			t.Error("OSPF adjacency crossed AS boundary")
		}
	}
}

func TestNetkitBGPConverges(t *testing.T) {
	lab, _ := startedLab(t, "netkit", "quagga")
	res := lab.BGPResult()
	if !res.Converged || res.Oscillating {
		t.Fatalf("bgp result = %+v", res)
	}
	// r5 (AS2) must learn AS1's infrastructure block.
	routes := lab.BGPRoutes("r5")
	found := false
	for _, rt := range routes {
		if len(rt.ASPath) == 1 && rt.ASPath[0] == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("r5 learned no AS1 routes: %+v", routes)
	}
}

// The headline integration test: a traceroute across the AS boundary over
// the emulated data plane, from generated configs alone.
func TestNetkitCrossASTraceroute(t *testing.T) {
	lab, alloc := startedLab(t, "netkit", "quagga")
	// Destination: r5's first interface address (paper §6.1 uses
	// interfaces[0]).
	var dst netip.Addr
	for _, e := range alloc.Table.Entries() {
		if e.Node == "r5" && !e.Loopback {
			dst = e.Addr
			break
		}
	}
	if !dst.IsValid() {
		t.Fatal("no interface address for r5")
	}
	out, err := lab.Exec("r1", "traceroute -naU "+dst.String())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, dst.String()) {
		t.Errorf("traceroute did not reach %v:\n%s", dst, out)
	}
	if strings.Contains(out, "* * *") {
		t.Errorf("traceroute incomplete:\n%s", out)
	}
	// Every reported hop address maps back to a known device (§6.1's
	// reverse mapping).
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			if a, err := netip.ParseAddr(fields[1]); err == nil {
				if alloc.Table.HostForIP(a) == "" {
					t.Errorf("hop %v not in allocation table", a)
				}
			}
		}
	}
}

func TestNetkitPingLoopbacks(t *testing.T) {
	lab, alloc := startedLab(t, "netkit", "quagga")
	// Intra-AS loopback reachability (OSPF-advertised /32s).
	lb4 := alloc.Overlay.Node("r4").Get(ipalloc.AttrLoopback).(netip.Addr)
	out, err := lab.Exec("r1", "ping -c 1 "+lb4.String())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, " 1 received") {
		t.Errorf("intra-AS loopback unreachable:\n%s", out)
	}
	// Cross-AS loopback (advertised via BGP /32).
	lb5 := alloc.Overlay.Node("r5").Get(ipalloc.AttrLoopback).(netip.Addr)
	out, err = lab.Exec("r1", "ping -c 1 "+lb5.String())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, " 1 received") {
		t.Errorf("cross-AS loopback unreachable:\n%s", out)
	}
}

// TestExecPingArguments: -c takes its value with it (a count is never read
// as the destination), every packet of one ping shares a fate, and the
// `-c 1` line the measurement client parses stays what it was.
func TestExecPingArguments(t *testing.T) {
	lab, alloc := startedLab(t, "netkit", "quagga")
	lb := alloc.Overlay.Node("r5").Get(ipalloc.AttrLoopback).(netip.Addr).String()
	const nowhere = "203.0.113.1"
	for _, tc := range []struct {
		command, want, wantErr string
	}{
		{command: "ping -c 1 " + lb, want: "PING " + lb + ": 1 packets transmitted, 1 received, 0% packet loss\n"},
		{command: "ping " + lb, want: "PING " + lb + ": 1 packets transmitted, 1 received, 0% packet loss\n"},
		{command: "ping -c 3 " + lb, want: "PING " + lb + ": 3 packets transmitted, 3 received, 0% packet loss\n"},
		{command: "ping -n -c 2 -q " + lb, want: "PING " + lb + ": 2 packets transmitted, 2 received, 0% packet loss\n"},
		{command: "ping " + lb + " -c 12", want: "PING " + lb + ": 12 packets transmitted, 12 received, 0% packet loss\n"},
		{command: "ping -c 1 " + nowhere, want: "PING " + nowhere + ": 1 packets transmitted, 0 received, 100% packet loss\n"},
		{command: "ping -c 3 " + nowhere, want: "PING " + nowhere + ": 3 packets transmitted, 0 received, 100% packet loss\n"},
		{command: "ping -c", wantErr: "option requires an argument"},
		{command: "ping -c 0 " + lb, wantErr: `bad number of packets to transmit "0"`},
		{command: "ping -c many " + lb, wantErr: `bad number of packets to transmit "many"`},
		{command: "ping -c " + lb, wantErr: "bad number of packets to transmit"},
		{command: "ping 3 " + lb, wantErr: `bad destination "3"`},
		{command: "ping -c 1", wantErr: "no destination"},
		{command: "ping -c 1 not-an-ip", wantErr: `bad destination "not-an-ip"`},
		// Tokenising: runs of spaces and tabs separate words, a count is
		// echoed as typed, and the last destination wins.
		{command: "  ping -c 1 " + lb, want: "PING " + lb + ": 1 packets transmitted, 1 received, 0% packet loss\n"},
		{command: "ping\t-c\t1\t" + lb, want: "PING " + lb + ": 1 packets transmitted, 1 received, 0% packet loss\n"},
		{command: "ping -c 01 " + lb, want: "PING " + lb + ": 01 packets transmitted, 01 received, 0% packet loss\n"},
		{command: "ping -c 1 " + nowhere + " " + lb, want: "PING " + lb + ": 1 packets transmitted, 1 received, 0% packet loss\n"},
		{command: "ping -c 1 " + lb + " " + nowhere, want: "PING " + nowhere + ": 1 packets transmitted, 0 received, 100% packet loss\n"},
		{command: "ping " + lb + "  ", want: "PING " + lb + ": 1 packets transmitted, 1 received, 0% packet loss\n"},
		{command: "ping -c 1 " + lb + " -c", wantErr: "option requires an argument"},
	} {
		got, err := lab.Exec("r1", tc.command)
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%q: err = %v, want %q", tc.command, err, tc.wantErr)
			}
		case err != nil:
			t.Errorf("%q: %v", tc.command, err)
		case got != tc.want:
			t.Errorf("%q:\n got %q\nwant %q", tc.command, got, tc.want)
		}
	}
}

// FuzzNextWord: walking a command with nextWord yields strings.Fields'
// words, Unicode white space and invalid UTF-8 included.
func FuzzNextWord(f *testing.F) {
	for _, s := range []string{"", "   ", "ping -c 1 10.0.0.1", "\tping\t-c  1 \n", "a\u0085b\u00a0c\u2003d", "x\xffy \xc2",
		"ping\u0085-c 1", " \u00a0 ping", "ping -c\u20031\u2003", "ping -c 1 h\u00f4te", "\u00e9t\u00e9 x", "ping -c 1 10.0.0.1\u00a0"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var words []string
		for w, rest := nextWord(s); w != ""; w, rest = nextWord(rest) {
			words = append(words, w)
		}
		if want := strings.Fields(s); !slices.Equal(words, want) {
			t.Errorf("%q: nextWord walks %q, strings.Fields gives %q", s, words, want)
		}
	})
}

// raceDetector is set by race_test.go in -race builds.
var raceDetector bool

// TestWarmProbeAllocatesNothing: once a destination's hop tree exists, a
// `ping -c 1` to it is a lookup. Reading the command's words, the reply
// line and the ping_probes counter cost no allocation.
func TestWarmProbeAllocatesNothing(t *testing.T) {
	lab, alloc := buildLab(t, "netkit", "quagga")
	col := obs.NewCollector()
	if err := lab.Boot(BootOptions{Obs: col}); err != nil {
		t.Fatal(err)
	}
	cmd := "ping -c 1 " + alloc.Overlay.Node("r5").Get(ipalloc.AttrLoopback).(netip.Addr).String()
	want, err := lab.Exec("r1", cmd)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if got, err := lab.Exec("r1", cmd); err != nil || got != want {
			t.Fatalf("warm probe = %q, %v; want %q", got, err, want)
		}
	})
	if got := col.Counter(obs.CounterPingProbes); got != 102 { // AllocsPerRun adds a warm-up run
		t.Errorf("ping_probes = %d, want 102", got)
	}
	if got := col.Counter(obs.CounterHopTreesBuilt); got != 1 {
		t.Errorf("hop_trees_built = %d, want 1", got)
	}
	if raceDetector {
		t.Skip("allocation count not asserted under -race")
	}
	if allocs != 0 {
		t.Errorf("warm probe allocates %v times, want 0", allocs)
	}
}

func TestShowCommands(t *testing.T) {
	lab, _ := startedLab(t, "netkit", "quagga")
	ospf, err := lab.Exec("r1", "show ip ospf neighbor")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ospf, "Full/DR") || !strings.Contains(ospf, "eth0") {
		t.Errorf("ospf neighbor output:\n%s", ospf)
	}
	bgp, err := lab.Exec("r5", "show ip bgp")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(bgp, "*>") {
		t.Errorf("bgp output:\n%s", bgp)
	}
	routes, err := lab.Exec("r1", "show ip route")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(routes, "C>*") || !strings.Contains(routes, "O>*") {
		t.Errorf("route output:\n%s", routes)
	}
	spaced, err := lab.Exec("r1", "show  ip   route")
	if err != nil {
		t.Fatal(err)
	}
	if spaced != routes {
		t.Errorf("show  ip   route differs from show ip route:\n%s", spaced)
	}
}

func TestExecErrors(t *testing.T) {
	lab, _ := buildLab(t, "netkit", "quagga")
	if _, err := lab.Exec("r1", "traceroute 1.2.3.4"); err == nil {
		t.Error("exec before start accepted")
	}
	if err := lab.Start(0); err != nil {
		t.Fatal(err)
	}
	if err := lab.Start(0); err == nil {
		t.Error("double start accepted")
	}
	if _, err := lab.Exec("ghost", "ping 1.2.3.4"); err == nil {
		t.Error("unknown machine accepted")
	}
	if _, err := lab.Exec("r1", "rm -rf /"); err == nil {
		t.Error("unknown command accepted")
	}
	if _, err := lab.Exec("r1", "show ip mystery"); err == nil {
		t.Error("unknown show accepted")
	}
	if _, err := lab.Exec("r1", "traceroute -naU not-an-ip"); err == nil {
		t.Error("bad traceroute destination accepted")
	}
	if _, err := lab.Exec("r1", ""); err == nil {
		t.Error("empty command accepted")
	}
}

func TestEventsLogged(t *testing.T) {
	lab, _ := startedLab(t, "netkit", "quagga")
	events := strings.Join(lab.Events(), "\n")
	for _, want := range []string{"starting lab", "booted", "igp converged", "bgp converged", "data plane ready"} {
		if !strings.Contains(events, want) {
			t.Errorf("event log missing %q:\n%s", want, events)
		}
	}
}

// The same network on the Dynagen/IOS platform: configs in IOS syntax boot
// and converge identically (§7.2's cross-platform claim).
func TestDynagenIOSLab(t *testing.T) {
	lab, alloc := startedLab(t, "dynagen", "ios")
	if got := len(lab.VMNames()); got != 5 {
		t.Fatalf("machines = %d", got)
	}
	vm, _ := lab.VM("r1")
	if vm.Config == nil || vm.Config.OSPF == nil || vm.Config.BGP == nil {
		t.Fatal("IOS parse incomplete")
	}
	if vm.Config.Interfaces[0].Name != "f0/0" {
		t.Errorf("iface = %s", vm.Config.Interfaces[0].Name)
	}
	if !lab.BGPResult().Converged {
		t.Fatalf("bgp = %+v", lab.BGPResult())
	}
	lb5 := alloc.Overlay.Node("r5").Get(ipalloc.AttrLoopback).(netip.Addr)
	out, err := lab.Exec("r1", "ping -c 1 "+lb5.String())
	if err != nil || !strings.Contains(out, " 1 received") {
		t.Errorf("cross-AS ping on IOS lab failed: %v\n%s", err, out)
	}
}

// The same network on Junosphere/JunOS.
func TestJunosphereLab(t *testing.T) {
	lab, _ := startedLab(t, "junosphere", "junos")
	vm, _ := lab.VM("r1")
	if vm.Config == nil || vm.Config.OSPF == nil || vm.Config.BGP == nil {
		t.Fatal("JunOS parse incomplete")
	}
	if vm.Config.Interfaces[0].Name != "em0" {
		t.Errorf("iface = %s", vm.Config.Interfaces[0].Name)
	}
	if !lab.BGPResult().Converged {
		t.Fatalf("bgp = %+v", lab.BGPResult())
	}
	if len(lab.OSPFNeighbors("r1")) != 2 {
		t.Errorf("junos ospf neighbors = %+v", lab.OSPFNeighbors("r1"))
	}
}

// The same network as a C-BGP route-solver script.
func TestCBGPLab(t *testing.T) {
	lab, _ := startedLab(t, "cbgp", "cbgp")
	if got := len(lab.VMNames()); got != 5 {
		t.Fatalf("cbgp nodes = %d", got)
	}
	if !lab.BGPResult().Converged {
		t.Fatalf("bgp = %+v", lab.BGPResult())
	}
	// The AS2 node learned AS1 routes.
	var as2 string
	for _, name := range lab.VMNames() {
		vm, _ := lab.VM(name)
		if vm.Config.BGP != nil && vm.Config.BGP.ASN == 2 {
			as2 = name
		}
	}
	if as2 == "" {
		t.Fatal("no AS2 node")
	}
	found := false
	for _, rt := range lab.BGPRoutes(as2) {
		if len(rt.ASPath) == 1 && rt.ASPath[0] == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("cbgp AS2 routes: %+v", lab.BGPRoutes(as2))
	}
	// No data plane on a route solver.
	if _, err := lab.Exec(as2, "traceroute -naU 10.0.0.1"); err == nil {
		t.Error("traceroute on cbgp accepted")
	}
}

func TestLoadErrors(t *testing.T) {
	fs := render.NewFileSet()
	if _, err := Load(fs, "localhost", "netkit"); err == nil {
		t.Error("empty fileset accepted")
	}
	fs.Write("localhost/netkit/readme.txt", "not a lab")
	if _, err := Load(fs, "localhost", "netkit"); err == nil {
		t.Error("missing lab.conf accepted")
	}
	fs2 := render.NewFileSet()
	fs2.Write("localhost/exotic/x", "y")
	if _, err := Load(fs2, "localhost", "exotic"); err == nil {
		t.Error("unknown platform accepted")
	}
}

// A deliberately broken configuration must surface as network misbehaviour:
// corrupt r3's bgpd remote-as and the r3-r5 session stays down.
func TestBrokenConfigSurfaces(t *testing.T) {
	anm := core.NewANM()
	in, _ := anm.AddOverlay(core.OverlayInput)
	for _, n := range []struct {
		id  graph.ID
		asn int
	}{{"r1", 1}, {"r2", 2}} {
		in.AddNode(n.id, graph.Attrs{core.AttrASN: n.asn, core.AttrDeviceType: core.DeviceRouter})
	}
	in.AddEdge("r1", "r2", graph.Attrs{"type": "physical"})
	if err := design.BuildAll(anm, design.Options{}); err != nil {
		t.Fatal(err)
	}
	alloc, _ := ipalloc.NewDefault().Allocate(anm)
	db, _ := compile.Compile(anm, alloc, compile.Options{})
	fs, _ := render.Render(db)
	// Sabotage: flip r1's remote-as.
	conf, _ := fs.Read("localhost/netkit/r1/etc/quagga/bgpd.conf")
	fs.Write("localhost/netkit/r1/etc/quagga/bgpd.conf",
		strings.ReplaceAll(conf, "remote-as 2", "remote-as 99"))
	lab, err := Load(fs, "localhost", "netkit")
	if err != nil {
		t.Fatal(err)
	}
	if err := lab.Start(0); err != nil {
		t.Fatal(err)
	}
	events := strings.Join(lab.Events(), "\n")
	if !strings.Contains(events, "session down") {
		t.Errorf("broken session not reported:\n%s", events)
	}
	if routes := lab.BGPRoutes("r2"); len(routes) > 1 {
		t.Errorf("r2 learned routes over a broken session: %+v", routes)
	}
}

func TestMaskBits(t *testing.T) {
	cases := []struct {
		mask string
		want int
	}{
		{"255.255.255.252", 30}, {"255.255.255.0", 24}, {"255.0.0.0", 8}, {"255.255.255.255", 32}, {"0.0.0.0", 0},
	}
	for _, c := range cases {
		got, err := maskLen(c.mask, "netmask")
		if err != nil || got != c.want {
			t.Errorf("maskLen(%s) = %d, %v", c.mask, got, err)
		}
	}
	if _, err := maskLen("255.0.255.0", "netmask"); err == nil {
		t.Error("non-contiguous mask accepted")
	}
	if _, err := maskLen("garbage", "netmask"); err == nil {
		t.Error("garbage mask accepted")
	}
}

func TestWildcardBits(t *testing.T) {
	got, err := maskLen("0.0.0.3", "wildcard")
	if err != nil || got != 30 {
		t.Errorf("maskLen wildcard = %d, %v", got, err)
	}
	if _, err := maskLen("3.0.0.3", "wildcard"); err == nil {
		t.Error("non-contiguous wildcard accepted")
	}
}

// E7 (emulated): the same network with IS-IS as the IGP — built with the
// two-line design rule — boots, converges and forwards end to end.
func TestISISLabEndToEnd(t *testing.T) {
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
	if err := design.BuildAll(anm, design.Options{IGP: design.IGPISIS}); err != nil {
		t.Fatal(err)
	}
	if anm.HasOverlay(design.OverlayOSPF) {
		t.Fatal("OSPF overlay built despite IS-IS IGP selection")
	}
	alloc, err := ipalloc.NewDefault().Allocate(anm)
	if err != nil {
		t.Fatal(err)
	}
	db, err := compile.Compile(anm, alloc, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// No ospfd rendered; isisd present.
	fs, err := render.Render(db)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fs.Read("localhost/netkit/r1/etc/quagga/ospfd.conf"); ok {
		t.Error("ospfd.conf rendered for an IS-IS lab")
	}
	if _, ok := fs.Read("localhost/netkit/r1/etc/quagga/isisd.conf"); !ok {
		t.Fatal("isisd.conf missing")
	}
	lab, err := Load(fs, "localhost", "netkit")
	if err != nil {
		t.Fatal(err)
	}
	if err := lab.Start(0); err != nil {
		t.Fatal(err)
	}
	// IS-IS adjacencies formed; no OSPF ones.
	if n := len(lab.ISISNeighbors("r1")); n != 2 {
		t.Errorf("r1 isis neighbors = %d, want 2", n)
	}
	out, err := lab.Exec("r1", "show isis neighbor")
	if err != nil || !strings.Contains(out, "r2") {
		t.Errorf("show isis neighbor: %v\n%s", err, out)
	}
	if n := len(lab.OSPFNeighbors("r1")); n != 0 {
		t.Errorf("r1 ospf neighbors = %d, want 0", n)
	}
	if !lab.BGPResult().Converged {
		t.Fatalf("bgp = %+v", lab.BGPResult())
	}
	// Intra-AS loopback reachability over IS-IS routes.
	lb4 := alloc.Overlay.Node("r4").Get(ipalloc.AttrLoopback).(netip.Addr)
	out, err = lab.Exec("r1", "ping -c 1 "+lb4.String())
	if err != nil || !strings.Contains(out, " 1 received") {
		t.Errorf("intra-AS ping over IS-IS failed: %v\n%s", err, out)
	}
	// Cross-AS reachability (BGP next hops resolved through IS-IS).
	lb5 := alloc.Overlay.Node("r5").Get(ipalloc.AttrLoopback).(netip.Addr)
	out, err = lab.Exec("r1", "ping -c 1 "+lb5.String())
	if err != nil || !strings.Contains(out, " 1 received") {
		t.Errorf("cross-AS ping over IS-IS failed: %v\n%s", err, out)
	}
}

// Servers get a static default route to an adjacent router and can reach
// the rest of the network without running any routing protocol.
func TestServerDefaultGateway(t *testing.T) {
	anm := core.NewANM()
	in, err := anm.AddOverlay(core.OverlayInput)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []struct {
		id  graph.ID
		asn int
		dt  string
	}{{"r1", 1, core.DeviceRouter}, {"r2", 1, core.DeviceRouter}, {"srv", 1, core.DeviceServer}} {
		in.AddNode(n.id, graph.Attrs{core.AttrASN: n.asn, core.AttrDeviceType: n.dt})
	}
	in.AddEdge("r1", "r2", graph.Attrs{"type": "physical"})
	in.AddEdge("srv", "r1", graph.Attrs{"type": "physical"})
	if err := design.BuildAll(anm, design.Options{}); err != nil {
		t.Fatal(err)
	}
	alloc, err := ipalloc.NewDefault().Allocate(anm)
	if err != nil {
		t.Fatal(err)
	}
	db, err := compile.Compile(anm, alloc, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The compiler recorded a gateway pointing at r1.
	gw, ok := db.Device("srv").Get("gateway")
	if !ok {
		t.Fatal("server has no gateway")
	}
	if alloc.Table.HostForIP(gw.(netip.Addr)) != "r1" {
		t.Errorf("gateway %v is not r1's address", gw)
	}
	fs, err := render.Render(db)
	if err != nil {
		t.Fatal(err)
	}
	startup, _ := fs.Read("localhost/netkit/srv.startup")
	if !strings.Contains(startup, "/sbin/route add default gw ") {
		t.Errorf("startup missing default route:\n%s", startup)
	}
	lab, err := Load(fs, "localhost", "netkit")
	if err != nil {
		t.Fatal(err)
	}
	if err := lab.Start(0); err != nil {
		t.Fatal(err)
	}
	vm, _ := lab.VM("srv")
	if !vm.Config.Gateway.IsValid() {
		t.Fatal("gateway not parsed at boot")
	}
	// srv pings r2's loopback across the gateway.
	lb2 := alloc.Overlay.Node("r2").Get(ipalloc.AttrLoopback).(netip.Addr)
	out, err := lab.Exec("srv", "ping -c 1 "+lb2.String())
	if err != nil || !strings.Contains(out, " 1 received") {
		t.Errorf("server ping via gateway failed: %v\n%s", err, out)
	}
	// Routers do NOT get a gateway.
	if _, ok := db.Device("r1").Get("gateway"); ok {
		t.Error("router received a gateway")
	}
}
