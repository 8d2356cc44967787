package emul

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"testing"

	"autonetkit/internal/compile"
	"autonetkit/internal/design"
	"autonetkit/internal/ipalloc"
	"autonetkit/internal/render"
	"autonetkit/internal/routing"
)

// Parser error-path coverage: every malformed statement class a rendered
// (or hand-edited) config could contain is recorded as a located
// error-level diagnostic — and the parse carries on past it.

// daemonDiags feeds one Quagga daemon file ("ospfd", "bgpd", "isisd")
// through the shared statement parser, on machine x whose eth0 is
// 10.0.0.1/30.
func daemonDiags(daemon, conf string) (*routing.DeviceConfig, Diagnostics) {
	return parseQuaggaVM("x", quaggaFiles(goldenStartup, daemon, conf))
}

// The error tables below are also the malformed corpus of the parse golden
// (parse_golden_test.go).

var startupErrorCases = []struct{ name, startup string }{
	{"bad address", "/sbin/ifconfig eth0 not-an-ip netmask 255.255.255.0 up\n"},
	{"bad netmask", "/sbin/ifconfig eth0 10.0.0.1 netmask 255.0.255.0 up\n"},
}

func TestParseStartupErrors(t *testing.T) {
	base := map[string]string{
		"etc/quagga/daemons": "zebra=yes\n",
	}
	for _, c := range startupErrorCases {
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

var ospfdErrorCases = []struct{ name, conf string }{
	{"bad cost", "interface eth0\n  ip ospf cost abc\n"},
	{"bad network", "router ospf\n  network junk area 0\n"},
	{"bad area", "router ospf\n  network 10.0.0.0/8 area x\n"},
}

func TestParseQuaggaOspfdErrors(t *testing.T) {
	for _, c := range ospfdErrorCases {
		if _, diags := daemonDiags("ospfd", c.conf); !diags.HasErrors() {
			t.Errorf("%s accepted", c.name)
		}
	}
}

var bgpdErrorCases = []struct{ name, conf string }{
	{"bad asn", "router bgp abc\n"},
	{"bad router-id", "router bgp 1\n  bgp router-id junk\n"},
	{"bad network", "router bgp 1\n  network junk\n"},
	{"bad neighbor addr", "router bgp 1\n  neighbor junk remote-as 2\n"},
	{"bad remote-as", "router bgp 1\n  neighbor 10.0.0.2 remote-as x\n"},
	{"no router block", "neighbor 10.0.0.2 remote-as 2\n"},
	{"undefined route-map", "router bgp 1\n  neighbor 10.0.0.2 remote-as 2\n  neighbor 10.0.0.2 route-map nope out\n"},
	{"bad set value", "router bgp 1\nroute-map m permit 10\n  set metric x\n"},
}

func TestParseQuaggaBgpdErrors(t *testing.T) {
	for _, c := range bgpdErrorCases {
		if _, diags := daemonDiags("bgpd", c.conf); !diags.HasErrors() {
			t.Errorf("%s accepted", c.name)
		}
	}
}

var isisdErrorCases = []struct{ name, conf string }{
	{"missing NET", "router isis ank\n"},
}

func TestParseQuaggaIsisdErrors(t *testing.T) {
	for _, c := range isisdErrorCases {
		if _, diags := daemonDiags("isisd", c.conf); !diags.HasErrors() {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// checkLocated fails t for a diagnostic that names no file, or a device
// other than those device accepts, or a line outside its file (0 = the
// whole file).
func checkLocated(t *testing.T, diags Diagnostics, files map[string]string, device func(string) bool) {
	t.Helper()
	for _, d := range diags {
		conf, ok := files[d.File]
		if d.File == "" || !device(d.Device) || d.Line < 0 || d.Line > strings.Count(conf, "\n")+1 || !ok && d.Line != 0 {
			t.Errorf("diagnostic %q is not located in the input", d)
		}
	}
}

// is accepts exactly one device name.
func is(name string) func(string) bool { return func(d string) bool { return d == name } }

// Every diagnostic a parser emits must carry its file and device (only a
// C-BGP problem outside any router block is lab-level) and, for
// statement-level problems, the 1-based line of the statement.
func TestDiagnosticsAreLocated(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string
		parse func(files map[string]string) Diagnostics
		file  string // where the error must be reported
		line  int
	}{
		{"quagga", map[string]string{
			"x.startup":            "/sbin/ifconfig eth0 not-an-ip netmask 255.255.255.0 up\n",
			"etc/quagga/daemons":   "zebra=yes\nbgpd=yes\n",
			"etc/quagga/bgpd.conf": "router bgp 1\n  neighbor junk remote-as 2\n",
		}, func(files map[string]string) Diagnostics { _, d := parseQuaggaVM("x", files); return d }, "x.startup", 1},
		{"ios", map[string]string{"x.cfg": "hostname x\ninterface f0/0\n ip address junk 255.255.255.0\n"},
			func(files map[string]string) Diagnostics { _, d := parseIOSConfig("x", files["x.cfg"]); return d }, "x.cfg", 3},
		{"junos", map[string]string{"x.conf": "interfaces {\n em0 {\n unit 0 {\n family inet {\n address junk;\n}\n}\n}\n}\n"},
			func(files map[string]string) Diagnostics { _, d := parseJunosConfig("x", files["x.conf"]); return d }, "x.conf", 4},
		{"cbgp", map[string]string{"lab.cli": "net add node 10.0.0.1\nbgp add router 1 10.0.0.1\nbgp router 10.0.0.1\n  add network junk\n"},
			func(files map[string]string) Diagnostics { _, d := parseCBGPScript(files["lab.cli"]); return d }, "lab.cli", 4},
	}
	for _, c := range cases {
		diags := c.parse(c.files)
		if !diags.HasErrors() {
			t.Fatalf("%s: corrupt config accepted", c.name)
		}
		device := "x"
		if c.name == "cbgp" {
			device = "10.0.0.1"
		}
		checkLocated(t, diags, c.files, is(device))
		if !slices.ContainsFunc(diags, func(d Diagnostic) bool { return d.File == c.file && d.Line == c.line }) {
			t.Errorf("%s: no diagnostic at %s:%d in:\n%s", c.name, c.file, c.line, diags)
		}
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

func mustParse(s string) netip.Addr { return netip.MustParseAddr(s) }

var iosErrorCases = []struct{ name, conf string }{
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

func TestParseIOSErrors(t *testing.T) {
	for _, c := range iosErrorCases {
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

var junosErrorCases = []struct{ name, conf string }{
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

func TestParseJunosErrors(t *testing.T) {
	for _, c := range junosErrorCases {
		if _, diags := parseJunosConfig("x", c.conf); !diags.HasErrors() {
			t.Errorf("%s accepted", c.name)
		}
	}
}

var cbgpErrorCases = []struct{ name, script string }{
	{"bad node", "net add node junk\n"},
	{"bad link", "net add link junk 10.0.0.1\n"},
	{"bad link weight", "net add link 10.0.0.1 10.0.0.2 x\n"},
	{"bgp undeclared node", "bgp add router 1 10.0.0.9\n"},
	{"router block undeclared", "bgp router 10.0.0.9\n"},
	{"bad peer asn", "net add node 10.0.0.1\nbgp add router 1 10.0.0.1\nbgp router 10.0.0.1\n  add peer x 10.0.0.2\n"},
	{"peer before declare", "net add node 10.0.0.1\nbgp add router 1 10.0.0.1\nbgp router 10.0.0.1\n  peer 10.0.0.2 up\n"},
	{"bad network", "net add node 10.0.0.1\nbgp add router 1 10.0.0.1\nbgp router 10.0.0.1\n  add network junk\n"},
}

func TestParseCBGPErrors(t *testing.T) {
	for _, c := range cbgpErrorCases {
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
	conf := "hostname x\npassword 1234\ninterface eth0\n  ip ospf cost 5\nrouter ospf\n  network 10.0.0.0/30 area 0\n"
	dc, diags := daemonDiags("ospfd", conf)
	if len(diags) != 0 {
		t.Fatalf("unexpected diagnostics:\n%s", diags)
	}
	if dc.Interfaces[0].Cost != 5 {
		t.Error("cost not applied")
	}
	if !strings.Contains(dc.OSPF.Networks[0].Prefix.String(), "10.0.0.0/30") {
		t.Error("network not parsed")
	}
}

// Every router's parsed config carries OSPF, BGP (with the same neighbor
// addresses) and IS-IS exactly when its compiled device has that block, on
// each platform and IGP. A syntax whose templates cannot render the IGP
// must refuse to compile, naming the device and the syntax, rather than
// boot a lab without it.
func TestParsedConfigMatchesNIDB(t *testing.T) {
	for _, p := range []struct{ platform, syntax string }{{"netkit", "quagga"}, {"dynagen", "ios"}, {"junosphere", "junos"}} {
		for _, igp := range []design.IGP{design.IGPOSPF, design.IGPISIS} {
			t.Run(p.platform+"/"+string(igp), func(t *testing.T) {
				anm := nrenInput(t, 40, p.platform, p.syntax)
				if err := design.BuildAll(anm, design.Options{IGP: igp}); err != nil {
					t.Fatal(err)
				}
				alloc, err := ipalloc.NewDefault().Allocate(anm)
				if err != nil {
					t.Fatal(err)
				}
				db, err := compile.Compile(anm, alloc, compile.Options{})
				if igp == design.IGPISIS && p.platform != "netkit" {
					if err == nil || !strings.Contains(err.Error(), "IS-IS") || !strings.Contains(err.Error(), "the "+p.syntax+" templates") {
						t.Fatalf("IS-IS on %s compiled (err %v)", p.syntax, err)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				fs, err := render.Render(db)
				if err != nil {
					t.Fatal(err)
				}
				lab, err := Load(fs, "localhost", p.platform)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range db.Routers() {
					vm, ok := lab.VM(d.Hostname())
					if !ok {
						t.Fatalf("no machine for %s", d.Hostname())
					}
					dc, diags := lab.bootVM(vm)
					if diags.HasErrors() {
						t.Fatalf("%s: %s", d.Hostname(), diags)
					}
					for _, block := range []struct {
						name   string
						parsed bool
					}{{"ospf", dc.OSPF != nil}, {"bgp", dc.BGP != nil}, {"isis", dc.ISIS != nil}} {
						if _, compiled := d.Get(block.name); compiled != block.parsed {
							t.Errorf("%s: %s block compiled %t, parsed %t", d.Hostname(), block.name, compiled, block.parsed)
						}
					}
					if dc.BGP == nil {
						continue
					}
					var want, got []string
					for _, key := range []string{"bgp.ebgp_neighbors", "bgp.ibgp_neighbors"} {
						nbrs, _ := d.Get(key)
						for _, n := range nbrs.([]any) {
							want = append(want, fmt.Sprint(n.(map[string]any)["ip"]))
						}
					}
					for _, n := range dc.BGP.Neighbors {
						got = append(got, n.Addr.String())
					}
					slices.Sort(want)
					slices.Sort(got)
					if !slices.Equal(got, want) {
						t.Errorf("%s: parsed neighbors %v, compiled %v", d.Hostname(), got, want)
					}
				}
			})
		}
	}
}

// The machine name is a device's identity on every platform: a config
// hostname that disagrees is a located warning, and the machine boots and
// routes exactly as it does under its own name.
func TestConfigHostnameKeepsMachineIdentity(t *testing.T) {
	for _, c := range []struct{ platform, syntax, file, from, to string }{
		{"dynagen", "ios", "r1.cfg", "hostname r1\n", "hostname renamed\n"},
		{"junosphere", "junos", "r1.conf", "host-name r1;", "host-name renamed;"},
	} {
		want, _ := startedLab(t, c.platform, c.syntax)
		wantRoutes, err := want.Exec("r1", "show ip route")
		if err != nil || wantRoutes == "" {
			t.Fatalf("%s: unedited show ip route: %q, %v", c.platform, wantRoutes, err)
		}
		lab, _ := buildLab(t, c.platform, c.syntax)
		conf := lab.vms["r1"].Files[c.file]
		if !strings.Contains(conf, c.from) {
			t.Fatalf("%s: %q not in %s", c.platform, c.from, c.file)
		}
		lab.vms["r1"].Files[c.file] = strings.Replace(conf, c.from, c.to, 1)
		line := strings.Count(conf[:strings.Index(conf, c.from)], "\n") + 1
		if err := lab.Start(0); err != nil {
			t.Fatalf("%s: %v", c.platform, err)
		}
		diags := lab.Diagnostics()
		if len(diags) != 1 || diags[0].Severity != SevWarning || diags[0].Device != "r1" || diags[0].File != c.file || diags[0].Line != line {
			t.Errorf("%s: want one warning at r1:%s:%d, got:\n%s", c.platform, c.file, line, diags)
		}
		if got, err := lab.Exec("r1", "show ip route"); err != nil || got != wantRoutes {
			t.Errorf("%s: renamed r1's show ip route (err %v):\n%s\nwant:\n%s", c.platform, err, got, wantRoutes)
		}
	}
}
