package emul

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autonetkit/internal/core"
	"autonetkit/internal/design"
	"autonetkit/internal/render"
	"autonetkit/internal/routing"
	"autonetkit/internal/topoio"
)

// The parse golden pins what the configuration parsers recover. Its valid
// part is every device of a set of rendered labs, dumped field by field in
// parse order with its sorted diagnostics; its malformed part is the full
// diagnostic list for every input of the parser error tables and the fuzz
// seed lists. Regenerate with UPDATE_PARSE_GOLDEN=1 go test -run
// TestParseGolden ./internal/emul/.

// dumpConfig writes one parsed device in the golden's canonical form.
func dumpConfig(sb *strings.Builder, dc *routing.DeviceConfig) {
	fmt.Fprintf(sb, "device %s loopback=%v gateway=%v\n", dc.Hostname, dc.Loopback, dc.Gateway)
	for _, ic := range dc.Interfaces {
		fmt.Fprintf(sb, "  interface %v\n", ic)
	}
	if o := dc.OSPF; o != nil {
		fmt.Fprintf(sb, "  ospf %d\n", o.ProcessID)
		for _, n := range o.Networks {
			fmt.Fprintf(sb, "    network %v\n", n)
		}
	}
	if b := dc.BGP; b != nil {
		fmt.Fprintf(sb, "  bgp %d router-id=%v\n", b.ASN, b.RouterID)
		for _, p := range b.Networks {
			fmt.Fprintf(sb, "    network %v\n", p)
		}
		for _, n := range b.Neighbors {
			fmt.Fprintf(sb, "    neighbor %v\n", n)
		}
	}
	if i := dc.ISIS; i != nil {
		fmt.Fprintf(sb, "  isis %s interfaces=%q\n", i.NET, i.Interfaces)
	}
}

func dumpDiags(sb *strings.Builder, diags Diagnostics) {
	for _, d := range diags.Sorted() {
		fmt.Fprintf(sb, "  diag %s\n", d)
	}
}

// parseMachine parses one machine's files the way a boot does, so the
// post-parse validation is included: netkit and the flat platforms through
// bootVM, C-BGP (whose files is {"lab.cli": script}) through loadCBGP.
func parseMachine(platform string, files map[string]string) ([]*routing.DeviceConfig, Diagnostics) {
	l := &Lab{Platform: platform, vms: map[string]*VM{}}
	if platform == "cbgp" {
		fs := render.NewFileSet()
		fs.Write("localhost/cbgp/lab.cli", files["lab.cli"])
		if err := l.loadCBGP(fs, "localhost/cbgp/"); err != nil {
			return nil, Diagnostics{{Severity: SevError, Message: err.Error()}}
		}
		var dcs []*routing.DeviceConfig
		for _, name := range l.order {
			dcs = append(dcs, l.vms[name].Config)
		}
		return dcs, l.diags
	}
	dc, diags := l.bootVM(&VM{Name: "x", Files: files})
	return []*routing.DeviceConfig{dc}, diags
}

// quaggaFiles is machine x with eth0 on 10.0.0.1/30 and the given daemon
// files enabled ("ospfd" -> etc/quagga/ospfd.conf, ...).
func quaggaFiles(startup string, daemons ...string) map[string]string {
	files := map[string]string{"x.startup": startup, "etc/quagga/daemons": "zebra=yes\n"}
	for i := 0; i+1 < len(daemons); i += 2 {
		files["etc/quagga/daemons"] += daemons[i] + "=yes\n"
		files["etc/quagga/"+daemons[i]+".conf"] = daemons[i+1]
	}
	return files
}

const goldenStartup = "/sbin/ifconfig eth0 10.0.0.1 netmask 255.255.255.252 up\n"

// bgpdWithPolicy is a rendered bgpd.conf ending in a raw policy configlet,
// placed after the top-level route-maps as the template places it, with a
// neighbor statement ahead of the router bgp block besides.
const bgpdWithPolicy = `hostname x
password 1234
neighbor 10.0.0.6 remote-as 1
router bgp 1
  bgp router-id 192.168.0.1
  no synchronization
  network 192.168.0.1/32
  neighbor 10.0.0.2 remote-as 2
  neighbor 10.0.0.2 description eBGP to y (AS2)
  neighbor 10.0.0.2 route-map med-5 out
  neighbor 192.168.0.2 remote-as 1
  neighbor 192.168.0.2 update-source lo
route-map med-5 permit 10
  set metric 5
! policy configlet for 10.0.0.2
ip as-path access-list 1 permit ^2$
neighbor 10.0.0.2 filter-list 1 in
neighbor 10.0.0.2 route-map pol in
route-map pol permit 20
  set local-preference 300
`

// parseGoldenMalformed renders the malformed part: each input's full
// diagnostic list, plus the parsed configs of the inputs that are valid.
func parseGoldenMalformed() string {
	var sb strings.Builder
	emit := func(label, platform string, files map[string]string, withConfig bool) {
		dcs, diags := parseMachine(platform, files)
		fmt.Fprintf(&sb, "== %s\n", label)
		if withConfig {
			for _, dc := range dcs {
				dumpConfig(&sb, dc)
			}
		}
		dumpDiags(&sb, diags)
	}
	for _, c := range startupErrorCases {
		emit("startup/"+c.name, "netkit", quaggaFiles(c.startup), false)
	}
	emit("startup/missing", "netkit", map[string]string{"etc/quagga/daemons": "zebra=yes\n"}, false)
	for _, daemon := range []string{"ospfd", "bgpd", "isisd"} {
		emit("daemons/"+daemon+" missing", "netkit", map[string]string{
			"x.startup": goldenStartup, "etc/quagga/daemons": "zebra=yes\n" + daemon + "=yes\n"}, false)
	}
	for _, c := range ospfdErrorCases {
		emit("ospfd/"+c.name, "netkit", quaggaFiles(goldenStartup, "ospfd", c.conf), false)
	}
	for _, c := range bgpdErrorCases {
		emit("bgpd/"+c.name, "netkit", quaggaFiles(goldenStartup, "bgpd", c.conf), false)
	}
	for _, c := range isisdErrorCases {
		emit("isisd/"+c.name, "netkit", quaggaFiles(goldenStartup, "isisd", c.conf), false)
	}
	emit("ospfd/headers", "netkit", quaggaFiles(goldenStartup, "ospfd",
		"hostname x\npassword 1234\ninterface eth0\n  ip ospf cost 5\nrouter ospf\n  network 10.0.0.0/30 area 0\n"), true)
	emit("bgpd/policy configlet", "netkit", quaggaFiles(goldenStartup+
		"/sbin/ifconfig lo:1 192.168.0.1 netmask 255.255.255.255 up\n", "bgpd", bgpdWithPolicy), true)
	for i, s := range quaggaSeeds {
		emit(fmt.Sprintf("fuzz/quagga/%d", i), "netkit", quaggaFiles(s[0], "ospfd", s[1], "bgpd", s[2], "isisd", s[3]), false)
	}
	for _, c := range iosErrorCases {
		emit("ios/"+c.name, "dynagen", map[string]string{"x.cfg": c.conf}, false)
	}
	for i, s := range iosSeeds {
		emit(fmt.Sprintf("fuzz/ios/%d", i), "dynagen", map[string]string{"x.cfg": s}, false)
	}
	for _, c := range junosErrorCases {
		emit("junos/"+c.name, "junosphere", map[string]string{"x.conf": c.conf}, false)
	}
	for i, s := range junosSeeds {
		emit(fmt.Sprintf("fuzz/junos/%d", i), "junosphere", map[string]string{"x.conf": s}, false)
	}
	for _, c := range cbgpErrorCases {
		emit("cbgp/"+c.name, "cbgp", map[string]string{"lab.cli": c.script}, false)
	}
	for i, s := range cbgpSeeds {
		emit(fmt.Sprintf("fuzz/cbgp/%d", i), "cbgp", map[string]string{"lab.cli": s}, false)
	}
	return sb.String()
}

// smallInternetLab loads testdata/small_internet.graphml on one platform.
func smallInternetLab(t *testing.T, platform, syntax string) *Lab {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "testdata", "small_internet.graphml"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := topoio.ReadGraphML(f)
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
	lab, _ := labFromInput(t, anm, platform, design.IGPOSPF)
	return lab
}

// parseGoldenValid renders the valid part: every device of each lab.
func parseGoldenValid(t *testing.T) string {
	var sb strings.Builder
	labs := []struct {
		label string
		lab   func() *Lab
	}{
		{"nren60/netkit", func() *Lab { return nrenLab(t, 60, "netkit", "quagga", "") }},
		{"nren60/dynagen", func() *Lab { return nrenLab(t, 60, "dynagen", "ios", "") }},
		{"nren60/junosphere", func() *Lab { return nrenLab(t, 60, "junosphere", "junos", "") }},
		{"nren60-isis/netkit", func() *Lab { return nrenLab(t, 60, "netkit", "quagga", design.IGPISIS) }},
		{"small_internet/netkit", func() *Lab { return smallInternetLab(t, "netkit", "quagga") }},
		{"small_internet/dynagen", func() *Lab { return smallInternetLab(t, "dynagen", "ios") }},
		{"small_internet/junosphere", func() *Lab { return smallInternetLab(t, "junosphere", "junos") }},
		{"small_internet/cbgp", func() *Lab { return smallInternetLab(t, "cbgp", "cbgp") }},
		{"fig5/cbgp", func() *Lab { lab, _ := buildLab(t, "cbgp", "cbgp"); return lab }},
	}
	for _, c := range labs {
		lab := c.lab()
		fmt.Fprintf(&sb, "== %s\n", c.label)
		for _, name := range lab.order {
			vm := lab.vms[name]
			if vm.Config != nil { // C-BGP: parsed at load
				dumpConfig(&sb, vm.Config)
				continue
			}
			dc, diags := lab.bootVM(vm)
			dumpConfig(&sb, dc)
			dumpDiags(&sb, diags)
		}
		dumpDiags(&sb, lab.diags)
	}
	return sb.String()
}

func TestParseGolden(t *testing.T) {
	for _, g := range []struct {
		file string
		got  func() string
	}{
		{"valid.golden", func() string { return parseGoldenValid(t) }},
		{"malformed.golden", parseGoldenMalformed},
	} {
		path := filepath.Join("testdata", "parse", g.file)
		got := g.got()
		if os.Getenv("UPDATE_PARSE_GOLDEN") != "" {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("%s: first difference at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
		}
	}
}
