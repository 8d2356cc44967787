package verify

import (
	"net/netip"
	"strings"
	"testing"

	"autonetkit/internal/compile"
	"autonetkit/internal/core"
	"autonetkit/internal/design"
	"autonetkit/internal/emul"
	"autonetkit/internal/graph"
	"autonetkit/internal/ipalloc"
	"autonetkit/internal/nidb"
	"autonetkit/internal/render"
	"autonetkit/internal/routing"
	"autonetkit/internal/topogen"
)

// compiled builds a NIDB from the given input graph through the standard
// pipeline.
func compiled(t *testing.T, g *graph.Graph, dopts design.Options) *nidb.DB {
	t.Helper()
	anm := core.NewANM()
	in, err := anm.AddOverlayGraph(core.OverlayInput, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range in.Nodes() {
		if n.Get("device_type") == nil {
			n.MustSet("device_type", "router")
		}
	}
	if err := design.BuildAll(anm, dopts); err != nil {
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
	return db
}

func TestStaticPassesOnCleanPipelineOutput(t *testing.T) {
	for _, g := range []*graph.Graph{topogen.Fig5(), topogen.SmallInternet()} {
		db := compiled(t, g, design.Options{})
		rep := Static(db)
		if !rep.OK() {
			t.Errorf("clean pipeline output rejected:\n%s", rep)
		}
	}
}

func TestStaticPassesWithRouteReflectors(t *testing.T) {
	db := compiled(t, topogen.OscillationGadget(), design.Options{RouteReflectors: true})
	rep := Static(db)
	if !rep.OK() {
		t.Errorf("RR pipeline output rejected:\n%s", rep)
	}
}

func TestDetectsDuplicateAddress(t *testing.T) {
	db := compiled(t, topogen.Fig5(), design.Options{})
	// Sabotage: copy r1's loopback onto r2.
	lb, _ := db.Device("r1").Get("loopback.ip")
	db.Device("r2").MustSet("loopback.ip", lb)
	rep := Static(db)
	if rep.OK() {
		t.Fatal("duplicate address undetected")
	}
	if !strings.Contains(rep.String(), "address-uniqueness") {
		t.Errorf("wrong check fired:\n%s", rep)
	}
}

func TestDetectsAddressOutsideSubnet(t *testing.T) {
	db := compiled(t, topogen.Fig5(), design.Options{})
	ifaces, _ := db.Device("r1").Get("interfaces")
	m := ifaces.([]any)[0].(map[string]any)
	m["ip_address"] = netip.MustParseAddr("203.0.113.9")
	rep := Static(db)
	if rep.OK() {
		t.Fatal("out-of-subnet address undetected")
	}
	found := false
	for _, f := range rep.Errors() {
		if f.Check == "subnet-consistency" && f.Device == "r1" {
			found = true
		}
	}
	if !found {
		t.Errorf("findings:\n%s", rep)
	}
}

func TestDetectsAsymmetricBGPSession(t *testing.T) {
	db := compiled(t, topogen.Fig5(), design.Options{})
	// Sabotage: remove r5's eBGP neighbors entirely.
	db.Device("r5").MustSet("bgp.ebgp_neighbors", []any{})
	rep := Static(db)
	if rep.OK() {
		t.Fatal("one-sided session undetected")
	}
	hits := 0
	for _, f := range rep.Errors() {
		if f.Check == "bgp-session" && strings.Contains(f.Detail, "no reverse neighbor") {
			hits++
		}
	}
	if hits != 2 { // r3->r5 and r4->r5 both dangle
		t.Errorf("dangling sessions found = %d, want 2:\n%s", hits, rep)
	}
}

func TestDetectsWrongRemoteAS(t *testing.T) {
	db := compiled(t, topogen.Fig5(), design.Options{})
	nbrs, _ := db.Device("r5").Get("bgp.ebgp_neighbors")
	nbrs.([]any)[0].(map[string]any)["remote_asn"] = 99
	rep := Static(db)
	if rep.OK() {
		t.Fatal("wrong remote-as undetected")
	}
	if !strings.Contains(rep.String(), "remote-as 99") {
		t.Errorf("findings:\n%s", rep)
	}
}

func TestDetectsOSPFOverAdvertisement(t *testing.T) {
	db := compiled(t, topogen.Fig5(), design.Options{})
	links, _ := db.Device("r1").Get("ospf.ospf_links")
	db.Device("r1").MustSet("ospf.ospf_links", append(links.([]any), map[string]any{
		"network": netip.MustParsePrefix("198.51.100.0/24"), "area": 0,
	}))
	rep := Static(db)
	if rep.OK() {
		t.Fatal("phantom OSPF network undetected")
	}
	if !strings.Contains(rep.String(), "ospf-coverage") {
		t.Errorf("findings:\n%s", rep)
	}
}

func TestDetectsOrphanRRClient(t *testing.T) {
	db := compiled(t, topogen.OscillationGadget(), design.Options{RouteReflectors: true})
	// Sabotage: strip c1's iBGP sessions so it peers with no reflector.
	db.Device("c1").MustSet("bgp.ibgp_neighbors", []any{})
	rep := Static(db)
	if rep.OK() {
		t.Fatal("orphan client undetected")
	}
	found := false
	for _, f := range rep.Errors() {
		if f.Check == "route-reflection" && f.Device == "c1" {
			found = true
		}
	}
	if !found {
		t.Errorf("findings:\n%s", rep)
	}
}

func TestReportFormatting(t *testing.T) {
	var r Report
	if r.String() != "verification passed: no findings" {
		t.Errorf("empty report = %q", r.String())
	}
	r.add("x", Warning, "", "w")
	r.add("y", Error, "dev", "e")
	if r.OK() {
		t.Error("report with error is OK")
	}
	if len(r.Errors()) != 1 {
		t.Error("Errors() filter wrong")
	}
	s := r.String()
	if !strings.Contains(s, "[error] y dev: e") || !strings.Contains(s, "[warning] x *: w") {
		t.Errorf("formatting:\n%s", s)
	}
}

// Stability: the §7.2 gadget is flagged before deployment under the IOS
// profile and passes under Quagga — pre-deployment §8 verification.
func TestStabilityWhatIf(t *testing.T) {
	g := topogen.OscillationGadget()
	anm := core.NewANM()
	if _, err := anm.AddOverlayGraph(core.OverlayInput, g); err != nil {
		t.Fatal(err)
	}
	if err := design.BuildAll(anm, design.Options{RouteReflectors: true}); err != nil {
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
	lab, err := emul.Load(fs, "localhost", "netkit")
	if err != nil {
		t.Fatal(err)
	}
	// Recover the configs without starting (the what-if input): start a
	// scratch copy to parse.
	if err := lab.Start(0); err != nil {
		t.Fatal(err)
	}
	var devices []*routing.DeviceConfig
	for _, name := range lab.VMNames() {
		vm, _ := lab.VM(name)
		devices = append(devices, vm.Config)
	}

	res, rep := Stability(devices, routing.ProfileIOS, 60)
	if !res.Oscillating || rep.OK() {
		t.Errorf("IOS what-if should flag oscillation: %+v\n%s", res, rep)
	}
	res, rep = Stability(devices, routing.ProfileQuagga, 60)
	if !res.Converged || !rep.OK() {
		t.Errorf("Quagga what-if should pass: %+v\n%s", res, rep)
	}
}

func TestStabilityFlagsBrokenSessions(t *testing.T) {
	db := compiled(t, topogen.Fig5(), design.Options{})
	fs, err := render.Render(db)
	if err != nil {
		t.Fatal(err)
	}
	conf, _ := fs.Read("localhost/netkit/r5/etc/quagga/bgpd.conf")
	fs.Write("localhost/netkit/r5/etc/quagga/bgpd.conf",
		strings.ReplaceAll(conf, "remote-as 1", "remote-as 77"))
	lab, err := emul.Load(fs, "localhost", "netkit")
	if err != nil {
		t.Fatal(err)
	}
	if err := lab.Start(0); err != nil {
		t.Fatal(err)
	}
	var devices []*routing.DeviceConfig
	for _, name := range lab.VMNames() {
		vm, _ := lab.VM(name)
		devices = append(devices, vm.Config)
	}
	_, rep := Stability(devices, routing.ProfileQuagga, 60)
	if rep.OK() {
		t.Error("broken sessions not flagged")
	}
	if !strings.Contains(rep.String(), "would not establish") {
		t.Errorf("findings:\n%s", rep)
	}
}

func TestCostSymmetryWarning(t *testing.T) {
	db := compiled(t, topogen.Fig5(), design.Options{})
	// Sabotage: bump one side's interface cost.
	ifaces, _ := db.Device("r1").Get("interfaces")
	ifaces.([]any)[0].(map[string]any)["ospf_cost"] = 50
	rep := Static(db)
	// Warnings don't fail verification...
	if !rep.OK() {
		t.Fatalf("warning escalated to error:\n%s", rep)
	}
	// ...but they are reported.
	found := false
	for _, f := range rep.Findings {
		if f.Check == "cost-symmetry" && f.Severity == Warning {
			found = true
		}
	}
	if !found {
		t.Errorf("asymmetric cost not flagged:\n%s", rep)
	}
}

// TestBGPSessionSymmetryFindingOrder pins the order of "no reverse neighbor
// statement" findings to (local, peer) hostname order, whatever order the
// database holds the devices in and a device lists its neighbors in — the
// check sorts only the dangling claims, so the order must not have come to
// depend on which claims those are.
func TestBGPSessionSymmetryFindingOrder(t *testing.T) {
	lo := map[string]netip.Addr{
		"zeta":  netip.MustParseAddr("10.0.0.1"),
		"mid":   netip.MustParseAddr("10.0.0.2"),
		"alpha": netip.MustParseAddr("10.0.0.3"),
	}
	dbOrder := []string{"zeta", "mid", "alpha"}
	cases := []struct {
		name  string
		nbrs  map[string][]string // device -> neighbors as declared
		wants []string
	}{
		{"symmetric", map[string][]string{"zeta": {"alpha"}, "alpha": {"zeta"}}, nil},
		{"one local, peers declared out of order", map[string][]string{"zeta": {"mid", "alpha"}},
			[]string{"zeta: session to alpha", "zeta: session to mid"}},
		{"two locals, database out of order", map[string][]string{"zeta": {"alpha"}, "mid": {"alpha"}},
			[]string{"mid: session to alpha", "zeta: session to alpha"}},
		{"a claim made twice is one finding", map[string][]string{"zeta": {"alpha", "alpha"}, "alpha": {"mid"}},
			[]string{"alpha: session to mid", "zeta: session to alpha"}},
	}
	for _, tc := range cases {
		db := nidb.New()
		for _, name := range dbOrder {
			d := db.AddDevice(graph.ID(name))
			d.MustSet("loopback.ip", lo[name])
			d.MustSet("bgp.asn", 1)
			var list []any
			for _, peer := range tc.nbrs[name] {
				list = append(list, map[string]any{"ip": lo[peer], "remote_asn": 1})
			}
			d.MustSet("bgp.ibgp_neighbors", list)
		}
		var r Report
		checkBGPSessionSymmetry(db, &r)
		var got []string
		for _, f := range r.Findings {
			got = append(got, f.Device+": "+strings.TrimSuffix(f.Detail, " has no reverse neighbor statement"))
		}
		if strings.Join(got, "\n") != strings.Join(tc.wants, "\n") {
			t.Errorf("%s: findings\n%s\nwant\n%s", tc.name, strings.Join(got, "\n"), strings.Join(tc.wants, "\n"))
		}
	}
}
