package emul

import "testing"

// Fuzz targets: the config parsers must never panic on arbitrary rendered
// (or hand-edited, or corrupted-in-transfer) input — they produce a device
// config, a diagnostic list, or both. Seeds cover the grammar corners and
// the recovery paths; committed corpora live under testdata/fuzz/.

func FuzzParseQuagga(f *testing.F) {
	f.Add("/sbin/ifconfig eth0 10.0.0.1 netmask 255.255.255.252 up\n",
		"router ospf\n  network 10.0.0.0/30 area 0\n",
		"router bgp 1\n  neighbor 10.0.0.2 remote-as 2\n",
		"router isis ank\n  net 49.0001.0000.0000.0001.00\n")
	f.Add("", "", "", "")
	f.Add("/sbin/ifconfig eth0 junk netmask junk up\n", "interface eth0\n  ip ospf cost x\n",
		"router bgp abc\n  neighbor bad remote-as x\n  route-map m permit q\n", "router isis\n")
	f.Add("/sbin/ifconfig\n/sbin/route add default gw\n", "router ospf\n network 1/99 area -\n",
		"router bgp 1\nroute-map m permit 10\n set local-preference\n", "net 49\n")
	f.Fuzz(func(t *testing.T, startup, ospfd, bgpd, isisd string) {
		files := map[string]string{
			"x.startup":             startup,
			"etc/quagga/daemons":    "zebra=yes\nospfd=yes\nbgpd=yes\nisisd=yes\n",
			"etc/quagga/ospfd.conf": ospfd,
			"etc/quagga/bgpd.conf":  bgpd,
			"etc/quagga/isisd.conf": isisd,
		}
		dc, diags := parseQuaggaVM("x", files)
		if dc == nil && !diags.HasErrors() {
			t.Fatal("nil config without error diagnostics")
		}
	})
}

func FuzzParseIOS(f *testing.F) {
	seeds := []string{
		"",
		"hostname r1\ninterface f0/0\n ip address 10.0.0.1 255.255.255.252\nrouter ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n",
		"router bgp 1\n neighbor 10.0.0.2 remote-as 2\n neighbor 10.0.0.2 route-map m out\nroute-map m permit 10\n set metric 5\n",
		"router bgp\ninterface\n ip address junk junk\n ip ospf cost x\n",
		"router ospf 1\n network 10.0.0.0 3.0.0.3 area 0\n network 10.0.0.0 0.0.0.3 area z\n",
		"interface lo0\n ip address 192.168.0.1 255.255.255.255\nrouter bgp 65536\n",
		"router ospf x\n network 10.0.0.0 0.0.0.3 area 0\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, conf string) {
		dc, diags := parseIOSConfig("x", conf)
		if dc == nil && !diags.HasErrors() {
			t.Fatal("nil config without error diagnostics")
		}
	})
}

func FuzzParseJunos(f *testing.F) {
	seeds := []string{
		"",
		"system {\n host-name r1;\n}\ninterfaces {\n em0 {\n unit 0 {\n family inet {\n address 10.0.0.1/30;\n}\n}\n}\n}\n",
		"routing-options {\n autonomous-system 1;\n}\nprotocols {\n bgp {\n group e {\n peer-as 2;\n neighbor 10.0.0.2;\n neighbor 10.0.0.2;\n}\n}\n}\n",
		"}\n}\nprotocols {\n ospf {\n area x {\n}\n}\n",
		"a {\nb {\nc {\nunterminated\n",
		"protocols {\n bgp {\n group g {\n peer-as x;\n neighbor junk;\n}\n}\n}\n",
		"routing-options {\n autonomous-system 1;\n advertise 10.0.0.0/33;\n}\nprotocols {\n bgp {\n group g {\n metric-out x;\n local-preference 1e2;\n neighbor 10.0.0.2;\n}\n}\n}\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, conf string) {
		dc, diags := parseJunosConfig("x", conf)
		if dc == nil && !diags.HasErrors() {
			t.Fatal("nil config without error diagnostics")
		}
	})
}

func FuzzParseCBGP(f *testing.F) {
	seeds := []string{
		"",
		"net add node 10.0.0.1\nnet add node 10.0.0.2\nnet add link 10.0.0.1 10.0.0.2 5\nbgp add router 1 10.0.0.1\nbgp router 10.0.0.1\n  add peer 2 10.0.0.2\n  peer 10.0.0.2 up\nexit\nsim run\n",
		"net add node junk\nnet add link a b c\nbgp add router x y\nbgp router z\n",
		"net add node 10.0.0.1\nbgp add router 1 10.0.0.1\nbgp router 10.0.0.1\n  add peer 2 10.0.0.2\n  peer 10.0.0.2 filter in add-rule action \"local-pref 200\"\n  add network 10.0.0.0/24\nexit\n",
		"bgp router 10.0.0.1\n  add peer 2 10.0.0.2\n  peer 10.0.0.2 filter in add-rule action \"local-pref x\"\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script string) {
		lab, diags := parseCBGPScript(script)
		if lab == nil {
			t.Fatalf("nil lab (diags: %v)", diags)
		}
	})
}
