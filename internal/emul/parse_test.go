package emul

import (
	"net/netip"
	"strings"
	"testing"

	"autonetkit/internal/routing"
)

// Parser error-path coverage: every malformed statement class a rendered
// (or hand-edited) config could contain is recorded as a located
// error-level diagnostic — and the parse carries on past it.

// subDiags feeds a per-daemon Quagga sub-parser directly and returns the
// diagnostics it recorded.
func subDiags(parse func(*routing.DeviceConfig, string, *diagSink), dc *routing.DeviceConfig, conf string) Diagnostics {
	sink := &diagSink{device: dc.Hostname, file: "test.conf"}
	parse(dc, conf, sink)
	return sink.diags
}

func TestParseStartupErrors(t *testing.T) {
	base := map[string]string{
		"etc/quagga/daemons": "zebra=yes\n",
	}
	cases := []struct{ name, startup string }{
		{"bad address", "/sbin/ifconfig eth0 not-an-ip netmask 255.255.255.0 up\n"},
		{"bad netmask", "/sbin/ifconfig eth0 10.0.0.1 netmask 255.0.255.0 up\n"},
	}
	for _, c := range cases {
		files := map[string]string{}
		for k, v := range base {
			files[k] = v
		}
		files["x.startup"] = c.startup
		if _, diags := parseQuaggaVM("x", files); !diags.HasErrors() {
			t.Errorf("%s accepted", c.name)
		}
	}
	// Missing startup entirely.
	if _, diags := parseQuaggaVM("x", base); !diags.HasErrors() {
		t.Error("missing startup accepted")
	}
}

func TestParseQuaggaDaemonFileGates(t *testing.T) {
	files := map[string]string{
		"x.startup":          "/sbin/ifconfig eth0 10.0.0.1 netmask 255.255.255.252 up\n",
		"etc/quagga/daemons": "zebra=yes\nospfd=yes\n",
		// ospfd.conf missing although enabled.
	}
	if _, diags := parseQuaggaVM("x", files); !diags.HasErrors() {
		t.Error("enabled daemon without config accepted")
	}
	files["etc/quagga/daemons"] = "zebra=yes\nbgpd=yes\n"
	if _, diags := parseQuaggaVM("x", files); !diags.HasErrors() {
		t.Error("enabled bgpd without config accepted")
	}
	files["etc/quagga/daemons"] = "zebra=yes\nisisd=yes\n"
	if _, diags := parseQuaggaVM("x", files); !diags.HasErrors() {
		t.Error("enabled isisd without config accepted")
	}
}

func TestParseQuaggaOspfdErrors(t *testing.T) {
	cases := []struct{ name, conf string }{
		{"bad cost", "interface eth0\n  ip ospf cost abc\n"},
		{"bad network", "router ospf\n  network junk area 0\n"},
		{"bad area", "router ospf\n  network 10.0.0.0/8 area x\n"},
	}
	for _, c := range cases {
		dc := mkBase(t)
		if diags := subDiags(parseQuaggaOspfd, dc, c.conf); !diags.HasErrors() {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestParseQuaggaBgpdErrors(t *testing.T) {
	cases := []struct{ name, conf string }{
		{"bad asn", "router bgp abc\n"},
		{"bad router-id", "router bgp 1\n  bgp router-id junk\n"},
		{"bad network", "router bgp 1\n  network junk\n"},
		{"bad neighbor addr", "router bgp 1\n  neighbor junk remote-as 2\n"},
		{"bad remote-as", "router bgp 1\n  neighbor 10.0.0.2 remote-as x\n"},
		{"no router block", "neighbor 10.0.0.2 remote-as 2\n"},
		{"undefined route-map", "router bgp 1\n  neighbor 10.0.0.2 remote-as 2\n  neighbor 10.0.0.2 route-map nope out\n"},
		{"bad set value", "router bgp 1\nroute-map m permit 10\n  set metric x\n"},
	}
	for _, c := range cases {
		dc := mkBase(t)
		if diags := subDiags(parseQuaggaBgpd, dc, c.conf); !diags.HasErrors() {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestParseQuaggaIsisdErrors(t *testing.T) {
	dc := mkBase(t)
	if diags := subDiags(parseQuaggaIsisd, dc, "router isis ank\n"); !diags.HasErrors() {
		t.Error("missing NET accepted")
	}
}

// Every diagnostic a parser emits must carry the device, the file, and —
// for statement-level problems — a 1-based line number.
func TestDiagnosticsAreLocated(t *testing.T) {
	files := map[string]string{
		"x.startup":            "/sbin/ifconfig eth0 not-an-ip netmask 255.255.255.0 up\n",
		"etc/quagga/daemons":   "zebra=yes\nbgpd=yes\n",
		"etc/quagga/bgpd.conf": "router bgp 1\n  neighbor junk remote-as 2\n",
	}
	_, diags := parseQuaggaVM("x", files)
	if !diags.HasErrors() {
		t.Fatal("corrupt config accepted")
	}
	for _, d := range diags.Errors() {
		if d.Device != "x" {
			t.Errorf("diagnostic %q has no device", d)
		}
		if d.File == "" {
			t.Errorf("diagnostic %q has no file", d)
		}
	}
	// The startup error is on line 1 of x.startup.
	found := false
	for _, d := range diags {
		if d.File == "x.startup" && d.Line == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("no line-1 startup diagnostic in:\n%s", diags)
	}
}

// A config with three independent errors yields three diagnostics in a
// single parse pass — the recovery contract.
func TestQuaggaThreeErrorsOnePass(t *testing.T) {
	files := map[string]string{
		"x.startup":          "/sbin/ifconfig eth0 10.0.0.1 netmask 255.255.255.252 up\n",
		"etc/quagga/daemons": "zebra=yes\nbgpd=yes\n",
		"etc/quagga/bgpd.conf": "router bgp 1\n" +
			"  bgp router-id junk\n" + // error 1
			"  network nonsense\n" + // error 2
			"  neighbor bad-addr remote-as 2\n" + // error 3
			"  neighbor 10.0.0.2 remote-as 2\n", // valid: still parsed
	}
	dc, diags := parseQuaggaVM("x", files)
	if got := len(diags.Errors()); got != 3 {
		t.Fatalf("want 3 error diagnostics, got %d:\n%s", got, diags)
	}
	// Recovery: the valid neighbor after the broken lines is present.
	if dc == nil || dc.BGP == nil || len(dc.BGP.Neighbors) != 1 {
		t.Errorf("valid neighbor after errors not recovered: %+v", dc)
	}
}

// mkBase returns a minimal device config with one interface, for feeding
// the per-daemon parsers directly.
func mkBase(t *testing.T) *routing.DeviceConfig {
	t.Helper()
	return &routing.DeviceConfig{
		Hostname: "x",
		Interfaces: []routing.InterfaceConfig{
			{Name: "eth0", Addr: mustParse("10.0.0.1"), Prefix: netip.MustParsePrefix("10.0.0.0/30"), Cost: 1},
		},
	}
}

func mustParse(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestParseIOSErrors(t *testing.T) {
	cases := []struct{ name, conf string }{
		{"bad address", "interface f0/0\n ip address junk 255.255.255.0\n"},
		{"bad mask", "interface f0/0\n ip address 10.0.0.1 255.0.255.0\n"},
		{"bad cost", "interface f0/0\n ip address 10.0.0.1 255.255.255.0\n ip ospf cost x\n"},
		{"bad wildcard", "router ospf 1\n network 10.0.0.0 3.0.0.3 area 0\n"},
		{"bad area", "router ospf 1\n network 10.0.0.0 0.0.0.3 area z\n"},
		{"bad ospf process id", "router ospf x\n network 10.0.0.0 0.0.0.3 area 0\n"},
		{"router bgp bare", "router bgp\n"},
		{"bad bgp asn", "router bgp x\n"},
		{"bad bgp network", "router bgp 1\n network junk mask 255.0.0.0\n"},
		{"bad neighbor", "router bgp 1\n neighbor junk remote-as 2\n"},
		{"undefined route-map", "router bgp 1\n neighbor 10.0.0.1 remote-as 2\n neighbor 10.0.0.1 route-map nope out\n"},
	}
	for _, c := range cases {
		if _, diags := parseIOSConfig("x", c.conf); !diags.HasErrors() {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// junosBGPGroup is a JunOS config with one eBGP group holding the given
// extra statement and one neighbor.
func junosBGPGroup(stmt string) string {
	return "routing-options {\n autonomous-system 1;\n}\n" +
		"protocols {\n bgp {\n group ext {\n type external;\n peer-as 2;\n " + stmt + "\n neighbor 10.0.0.2;\n}\n}\n}\n"
}

func TestParseJunosErrors(t *testing.T) {
	cases := []struct{ name, conf string }{
		{"unbalanced close", "}\n"},
		{"unterminated stmt", "system {\nhost-name x\n}\n"},
		{"unclosed block", "system {\n"},
		{"bad iface addr", "interfaces {\n em0 {\n unit 0 {\n family inet {\n address junk;\n}\n}\n}\n}\n"},
		{"bgp without asn", "protocols {\n bgp {\n group x {\n type external;\n neighbor 10.0.0.1;\n}\n}\n}\n"},
		{"bad area", "protocols {\n ospf {\n area x {\n interface 10.0.0.0/30 {\n metric 1;\n}\n}\n}\n}\n"},
		{"bad metric-out", junosBGPGroup("metric-out x;")},
		{"bad local-preference", junosBGPGroup("local-preference 1e2;")},
		{"bad advertise prefix", "routing-options {\n autonomous-system 1;\n advertise 10.0.0.0/33;\n}\n" + junosBGPGroup("")},
	}
	for _, c := range cases {
		if _, diags := parseJunosConfig("x", c.conf); !diags.HasErrors() {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestParseCBGPErrors(t *testing.T) {
	cases := []struct{ name, script string }{
		{"bad node", "net add node junk\n"},
		{"bad link", "net add link junk 10.0.0.1\n"},
		{"bad link weight", "net add link 10.0.0.1 10.0.0.2 x\n"},
		{"bgp undeclared node", "bgp add router 1 10.0.0.9\n"},
		{"router block undeclared", "bgp router 10.0.0.9\n"},
		{"bad peer asn", "net add node 10.0.0.1\nbgp add router 1 10.0.0.1\nbgp router 10.0.0.1\n  add peer x 10.0.0.2\n"},
		{"peer before declare", "net add node 10.0.0.1\nbgp add router 1 10.0.0.1\nbgp router 10.0.0.1\n  peer 10.0.0.2 up\n"},
		{"bad network", "net add node 10.0.0.1\nbgp add router 1 10.0.0.1\nbgp router 10.0.0.1\n  add network junk\n"},
	}
	for _, c := range cases {
		if _, diags := parseCBGPScript(c.script); !diags.HasErrors() {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestCBGPIGPUnknownHost(t *testing.T) {
	g := newCBGPIGP()
	if g.IGPCost("not-an-ip", mustParse("10.0.0.1")) >= 0 {
		t.Error("bad host name should be unreachable")
	}
}

func TestLabAccessorsBeforeStart(t *testing.T) {
	lab := &Lab{}
	if lab.BGPRoutes("x") != nil {
		t.Error("BGPRoutes on unstarted lab")
	}
	if lab.OSPFNeighbors("x") != nil {
		t.Error("OSPFNeighbors on unstarted lab")
	}
	if lab.ISISNeighbors("x") != nil {
		t.Error("ISISNeighbors on unstarted lab")
	}
	if lab.Network() != nil {
		t.Error("Network on unstarted lab")
	}
}

func TestQuaggaConfigHeadersTolerated(t *testing.T) {
	// hostname/password headers in protocol configs must parse cleanly.
	dc := mkBase(t)
	conf := "hostname x\npassword 1234\ninterface eth0\n  ip ospf cost 5\nrouter ospf\n  network 10.0.0.0/30 area 0\n"
	if diags := subDiags(parseQuaggaOspfd, dc, conf); len(diags) != 0 {
		t.Fatalf("unexpected diagnostics:\n%s", diags)
	}
	if dc.Interfaces[0].Cost != 5 {
		t.Error("cost not applied")
	}
	if !strings.Contains(dc.OSPF.Networks[0].Prefix.String(), "10.0.0.0/30") {
		t.Error("network not parsed")
	}
}
