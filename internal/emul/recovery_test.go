package emul

import (
	"errors"
	"strings"
	"testing"
)

// Parser recovery contract: malformed input yields located diagnostics —
// not a bail-out — and the valid stanzas around the damage still parse.

func TestJunosRecovery(t *testing.T) {
	for _, c := range junosCases {
		t.Run(c.name, func(t *testing.T) {
			dc, diags := parseJunosConfig("r1", c.conf)
			errs := diags.Errors()
			if len(errs) != c.wantErrs {
				t.Fatalf("want %d error diagnostics, got %d:\n%s", c.wantErrs, len(errs), diags)
			}
			found := false
			for _, d := range errs {
				if d.Device != "r1" || d.File != "r1.conf" {
					t.Errorf("diagnostic not attributed to device/file: %s", d)
				}
				if strings.Contains(d.Message, c.wantSubstr) {
					found = true
				}
			}
			if !found {
				t.Errorf("no diagnostic mentions %q:\n%s", c.wantSubstr, diags)
			}
			if got := len(dc.Interfaces); got != c.wantIfaces {
				t.Errorf("interfaces recovered = %d, want %d", got, c.wantIfaces)
			}
			gotNbrs := 0
			if dc.BGP != nil {
				gotNbrs = len(dc.BGP.Neighbors)
			}
			if gotNbrs != c.wantNbrs {
				t.Errorf("bgp neighbors recovered = %d, want %d", gotNbrs, c.wantNbrs)
			}
		})
	}
}

var junosCases = []struct {
	name       string
	conf       string
	wantErrs   int
	wantSubstr string
	wantIfaces int
	wantNbrs   int
}{
	{
		name: "unbalanced brace then valid stanza",
		conf: "}\n" + // stray close on line 1
			"interfaces {\n em0 {\n unit 0 {\n family inet {\n address 10.0.0.1/30;\n}\n}\n}\n}\n",
		wantErrs:   1,
		wantSubstr: "unbalanced '}'",
		wantIfaces: 1,
	},
	{
		name: "truncated stanza at EOF",
		conf: "interfaces {\n em0 {\n unit 0 {\n family inet {\n address 10.0.0.1/30;\n}\n}\n}\n}\n" +
			"protocols {\n ospf {\n", // 2 unclosed blocks
		wantErrs:   1,
		wantSubstr: "unclosed block",
		wantIfaces: 1,
	},
	{
		name: "duplicate neighbor, later neighbor survives",
		conf: "interfaces {\n em0 {\n unit 0 {\n family inet {\n address 10.0.0.1/30;\n}\n}\n}\n}\n" +
			"routing-options {\n autonomous-system 1;\n router-id 10.0.0.1;\n}\n" +
			"protocols {\n bgp {\n group ext {\n type external;\n peer-as 2;\n" +
			" neighbor 10.0.0.2;\n neighbor 10.0.0.2;\n neighbor 10.0.0.6;\n}\n}\n}\n",
		wantErrs:   1,
		wantSubstr: "duplicate neighbor 10.0.0.2",
		wantIfaces: 1,
		wantNbrs:   2, // first 10.0.0.2 plus 10.0.0.6; the duplicate is dropped
	},
	{
		name: "unterminated statement inside valid config",
		conf: "interfaces {\n em0 {\n unit 0 {\n family inet {\n address 10.0.0.1/30;\n" +
			" mtu 1500\n" + // no ';'
			"}\n}\n}\n}\n",
		wantErrs:   1,
		wantSubstr: "unterminated statement",
		wantIfaces: 1,
	},
	{
		name:       "malformed numbers in a group, its neighbor survives",
		conf:       junosBGPGroup("metric-out x;\n local-preference 1e2;"),
		wantErrs:   2,
		wantSubstr: `group "ext": bad local-preference "1e2"`,
		wantNbrs:   1,
	},
	{
		name: "malformed advertise prefix, the next one survives",
		conf: "routing-options {\n autonomous-system 1;\n advertise 10.0.0.0/33;\n advertise 10.1.0.0/16;\n}\n" +
			junosBGPGroup(""),
		wantErrs:   1,
		wantSubstr: `bad advertise prefix "10.0.0.0/33"`,
		wantNbrs:   1,
	},
}

func TestCBGPRecovery(t *testing.T) {
	cases := []struct {
		name        string
		script      string
		wantErrs    int
		wantSubstr  string
		wantDevices int
	}{
		{
			name: "bad node line, later nodes survive",
			script: "net add node 10.0.0.1\n" +
				"net add node junk\n" +
				"net add node 10.0.0.2\n",
			wantErrs:    1,
			wantSubstr:  "bad node address",
			wantDevices: 2,
		},
		{
			name: "duplicate peer rejected, next peer survives",
			script: "net add node 10.0.0.1\n" +
				"net add node 10.0.0.2\n" +
				"net add node 10.0.0.3\n" +
				"net add link 10.0.0.1 10.0.0.2 1\n" +
				"bgp add router 1 10.0.0.1\n" +
				"bgp router 10.0.0.1\n" +
				"  add peer 2 10.0.0.2\n" +
				"  add peer 2 10.0.0.2\n" + // duplicate
				"  add peer 3 10.0.0.3\n" +
				"exit\n",
			wantErrs:    1,
			wantSubstr:  "duplicate peer 10.0.0.2",
			wantDevices: 3,
		},
		{
			name: "three independent errors in one pass",
			script: "net add node 10.0.0.1\n" +
				"net add node junk\n" + // error 1
				"net add link 10.0.0.1 nowhere\n" + // error 2
				"bgp add router x 10.0.0.1\n" + // error 3
				"net add node 10.0.0.2\n",
			wantErrs:    3,
			wantSubstr:  "bad ASN",
			wantDevices: 2,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			parsed, diags := parseCBGPScript(c.script)
			errs := diags.Errors()
			if len(errs) != c.wantErrs {
				t.Fatalf("want %d error diagnostics, got %d:\n%s", c.wantErrs, len(errs), diags)
			}
			found := false
			for _, d := range errs {
				if d.File != "lab.cli" || d.Line == 0 {
					t.Errorf("diagnostic not located: %s", d)
				}
				if strings.Contains(d.Message, c.wantSubstr) {
					found = true
				}
			}
			if !found {
				t.Errorf("no diagnostic mentions %q:\n%s", c.wantSubstr, diags)
			}
			if got := len(parsed.devices); got != c.wantDevices {
				t.Errorf("devices recovered = %d, want %d", got, c.wantDevices)
			}
		})
	}
}

// corruptBGPD replaces one netkit machine's bgpd.conf with a config
// carrying three independent errors.
func corruptBGPD(t *testing.T, lab *Lab, name string) {
	t.Helper()
	vm, ok := lab.VM(name)
	if !ok {
		t.Fatalf("no machine %s", name)
	}
	vm.Files["etc/quagga/bgpd.conf"] = "router bgp 1\n" +
		"  bgp router-id junk\n" +
		"  network nonsense\n" +
		"  neighbor bad-addr remote-as 2\n"
}

func TestStrictBootFailsWithAllDiagnostics(t *testing.T) {
	lab, _ := buildLab(t, "netkit", "quagga")
	corruptBGPD(t, lab, "r3")
	err := lab.Start(0)
	if err == nil {
		t.Fatal("strict boot accepted a corrupt config")
	}
	var derr *DiagnosticError
	if !errors.As(err, &derr) {
		t.Fatalf("strict boot error is %T, want *DiagnosticError", err)
	}
	r3 := derr.Diags.Errors().ForDevice("r3")
	if len(r3) != 3 {
		t.Fatalf("want 3 error diagnostics for r3, got %d:\n%s", len(r3), derr.Diags)
	}
	for _, d := range r3 {
		if d.File == "" || d.Line == 0 {
			t.Errorf("diagnostic not located: %s", d)
		}
	}
}

func TestLenientBootQuarantines(t *testing.T) {
	lab, alloc := buildLab(t, "netkit", "quagga")
	corruptBGPD(t, lab, "r3")
	err := lab.Boot(BootOptions{Lenient: true})
	if !errors.Is(err, ErrPartialBoot) {
		t.Fatalf("lenient boot error = %v, want ErrPartialBoot", err)
	}
	if q := lab.Quarantined(); len(q) != 1 || q[0] != "r3" {
		t.Fatalf("quarantined = %v, want [r3]", q)
	}
	// The quarantined machine is not usable...
	if _, execErr := lab.Exec("r3", "show ip route"); execErr == nil {
		t.Error("Exec on quarantined machine succeeded")
	}
	if failErr := lab.FailNode("r3"); failErr == nil {
		t.Error("incident injection on quarantined machine succeeded")
	}
	// ...but the survivors are: r1 pings r2's loopback.
	var dst string
	for _, e := range alloc.Table.Entries() {
		if e.Loopback && string(e.Node) == "r2" {
			dst = e.Addr.String()
		}
	}
	if dst == "" {
		t.Fatal("no loopback for r2 in allocation table")
	}
	out, execErr := lab.Exec("r1", "ping -c 1 "+dst)
	if execErr != nil {
		t.Fatalf("survivor Exec: %v", execErr)
	}
	if !strings.Contains(out, "1 received") {
		t.Errorf("survivor r1 cannot reach r2:\n%s", out)
	}
	// The diagnostics surface in report order and name the device.
	if ds := lab.Diagnostics().Errors().ForDevice("r3"); len(ds) != 3 {
		t.Errorf("lab diagnostics for r3 = %d, want 3:\n%s", len(ds), lab.Diagnostics())
	}
}

func TestLenientBootAllBadFails(t *testing.T) {
	lab, _ := buildLab(t, "netkit", "quagga")
	for _, name := range lab.VMNames() {
		corruptBGPD(t, lab, name)
	}
	err := lab.Boot(BootOptions{Lenient: true})
	if err == nil || errors.Is(err, ErrPartialBoot) {
		t.Fatalf("all-quarantined boot must fail outright, got %v", err)
	}
	var derr *DiagnosticError
	if !errors.As(err, &derr) {
		t.Fatalf("error is %T, want *DiagnosticError", err)
	}
}
