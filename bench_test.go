package autonetkit

// The benchmark harness regenerates every quantitative artifact of the
// paper's evaluation (see DESIGN.md's experiment index and EXPERIMENTS.md
// for paper-vs-measured numbers). One benchmark per experiment:
//
//	E1  Fig. 5 overlay rules            BenchmarkE1_Fig5Rules
//	E2  Small-Internet pipeline (§3.1)  BenchmarkE2_SmallInternetPipeline
//	E3  NREN scale table (§3.2)         BenchmarkE3_NREN{Design,Compile,Render}
//	E5  eBGP visualization (Fig. 6)     BenchmarkE5_VizExport
//	E6  traceroute measurement (§6.1)   BenchmarkE6_Traceroute
//	E8  iBGP mesh vs RR (§7.1)          BenchmarkE8_IBGP{FullMesh,RouteReflectors}
//	E9  oscillation gadget (§7.2)       BenchmarkE9_BadGadget{Quagga,IOS}
//	E10 RPKI deployment (§3.3)          BenchmarkE10_RPKIDeploy
//	E11 DNS zone generation (§3.3)      BenchmarkE11_ZoneGen
//	E12 design-vs-measured validation   BenchmarkE12_Validate
//	A1  logic in templates vs compiler  BenchmarkA1_{CompilerCondensed,FatTemplate}
//	A3  deterministic render            BenchmarkA3_RenderDeterminism

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"runtime"
	"strings"
	"testing"

	"autonetkit/internal/cache"
	"autonetkit/internal/chaos"
	"autonetkit/internal/compile"
	"autonetkit/internal/core"
	"autonetkit/internal/dataplane"
	"autonetkit/internal/deploy"
	"autonetkit/internal/design"
	"autonetkit/internal/emul"
	"autonetkit/internal/graph"
	"autonetkit/internal/ipalloc"
	"autonetkit/internal/journal"
	"autonetkit/internal/measure"
	"autonetkit/internal/netaddr"
	"autonetkit/internal/render"
	"autonetkit/internal/routing"
	"autonetkit/internal/sched"
	"autonetkit/internal/services/dns"
	"autonetkit/internal/services/rpki"
	"autonetkit/internal/tmpl"
	"autonetkit/internal/topogen"
	"autonetkit/internal/topoio"
	"autonetkit/internal/verify"
	"autonetkit/internal/viz"
)

// --- E1: the Fig. 5 design rules (eqs. 1-3) ---

func BenchmarkE1_Fig5Rules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net, err := LoadGraph(topogen.Fig5())
		if err != nil {
			b.Fatal(err)
		}
		if err := net.Design(design.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2: the Small-Internet lab, GraphML-equivalent input to configs
// (§3.1: "took under a second"; manual configuration took days) ---

func BenchmarkE2_SmallInternetPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net, err := LoadGraph(topogen.SmallInternet())
		if err != nil {
			b.Fatal(err)
		}
		if err := net.Build(BuildOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2_SmallInternetDeploy(b *testing.B) {
	net, err := LoadGraph(topogen.SmallInternet())
	if err != nil {
		b.Fatal(err)
	}
	if err := net.Build(BuildOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := deploy.Run(net.Files, deploy.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3: the §3.2 scale table, per stage, at full NREN scale ---

func nrenInput(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := topogen.NREN(topogen.DefaultNREN())
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkE3_NRENDesign(b *testing.B) {
	g := nrenInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := LoadGraph(g.Copy())
		if err != nil {
			b.Fatal(err)
		}
		if err := net.Design(design.Options{}); err != nil {
			b.Fatal(err)
		}
		if err := net.Allocate(ipalloc.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3_NRENCompile(b *testing.B) {
	net, err := LoadGraph(nrenInput(b))
	if err != nil {
		b.Fatal(err)
	}
	if err := net.Design(design.Options{}); err != nil {
		b.Fatal(err)
	}
	if err := net.Allocate(ipalloc.Config{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.Compile(compile.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3_NRENRender(b *testing.B) {
	net, err := LoadGraph(nrenInput(b))
	if err != nil {
		b.Fatal(err)
	}
	if err := net.Design(design.Options{}); err != nil {
		b.Fatal(err)
	}
	if err := net.Allocate(ipalloc.Config{}); err != nil {
		b.Fatal(err)
	}
	if err := net.Compile(compile.Options{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs, err := render.Render(net.DB)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(fs.Len()), "files")
			b.ReportMetric(float64(fs.TotalBytes()), "bytes")
		}
	}
}

// Scaling series for the crossover shape: pipeline time vs network size.
func BenchmarkE3_ScaleSweep(b *testing.B) {
	for _, scale := range []struct {
		name                 string
		ases, routers, links int
	}{
		{"small", 4, 50, 65},
		{"medium", 12, 300, 380},
		{"full", 42, 1158, 1470},
	} {
		b.Run(scale.name, func(b *testing.B) {
			g, err := topogen.NREN(topogen.NRENConfig{ASes: scale.ases, Routers: scale.routers, Links: scale.links})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net, err := LoadGraph(g.Copy())
				if err != nil {
					b.Fatal(err)
				}
				if err := net.Build(BuildOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E5: Fig. 6 eBGP visualization export ---

func BenchmarkE5_VizExport(b *testing.B) {
	net, err := LoadGraph(topogen.SmallInternet())
	if err != nil {
		b.Fatal(err)
	}
	if err := net.Design(design.Options{}); err != nil {
		b.Fatal(err)
	}
	ebgp := net.ANM.Overlay(design.OverlayEBGP)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc := viz.ExportOverlay(ebgp, viz.Options{})
		if _, err := doc.JSON(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: the §6.1 traceroute measurement over the deployed lab ---

func deployedSmallInternet(b *testing.B) (*Network, *emul.Lab) {
	b.Helper()
	net, err := LoadGraph(topogen.SmallInternet())
	if err != nil {
		b.Fatal(err)
	}
	if err := net.Build(BuildOptions{}); err != nil {
		b.Fatal(err)
	}
	dep, err := net.Deploy(deploy.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return net, dep.Lab()
}

func BenchmarkE6_Traceroute(b *testing.B) {
	net, lab := deployedSmallInternet(b)
	client := net.Measure(lab)
	var dst netip.Addr
	for _, e := range net.Alloc.Table.Entries() {
		if e.Node == "as100r2" && !e.Loopback {
			dst = e.Addr
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := client.RunTraceroute("as300r2", dst)
		if err != nil || !tr.Reached {
			b.Fatalf("traceroute failed: %v %v", err, tr)
		}
	}
}

// --- E8: iBGP full mesh vs route reflectors (§7.1), session scaling ---

func chainInput(n int) *graph.Graph {
	g := graph.New()
	var prev graph.ID
	for i := 0; i < n; i++ {
		id := graph.ID(fmt.Sprintf("r%03d", i))
		g.AddNode(id, graph.Attrs{core.AttrASN: 1, core.AttrDeviceType: core.DeviceRouter})
		if prev != "" {
			g.AddEdge(prev, id, graph.Attrs{"type": "physical"})
		}
		prev = id
	}
	return g
}

func BenchmarkE8_IBGPFullMesh(b *testing.B) {
	for _, n := range []int{20, 60, 120} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			g := chainInput(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net, err := LoadGraph(g.Copy())
				if err != nil {
					b.Fatal(err)
				}
				if err := net.Design(design.Options{}); err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(net.ANM.Overlay(design.OverlayIBGP).NumEdges()), "sessions")
				}
			}
		})
	}
}

func BenchmarkE8_IBGPRouteReflectors(b *testing.B) {
	for _, n := range []int{20, 60, 120} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			g := chainInput(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net, err := LoadGraph(g.Copy())
				if err != nil {
					b.Fatal(err)
				}
				if err := net.Design(design.Options{RouteReflectors: true}); err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(net.ANM.Overlay(design.OverlayIBGP).NumEdges()), "sessions")
				}
			}
		})
	}
}

// --- E9: the §7.2 oscillation gadget on two decision processes ---

func benchGadget(b *testing.B, platform, syntax string, wantOscillation bool) {
	b.Helper()
	g := topogen.OscillationGadget()
	for _, n := range g.Nodes() {
		n.Set(core.AttrPlatform, platform)
		n.Set(core.AttrSyntax, syntax)
	}
	net, err := LoadGraph(g)
	if err != nil {
		b.Fatal(err)
	}
	if err := net.Build(BuildOptions{Design: design.Options{RouteReflectors: true}}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dep, err := deploy.Run(net.Files, deploy.Options{Platform: platform, MaxBGPRounds: 60})
		if err != nil {
			b.Fatal(err)
		}
		if got := dep.Lab().BGPResult().Oscillating; got != wantOscillation {
			b.Fatalf("%s oscillating = %v, want %v", platform, got, wantOscillation)
		}
	}
}

func BenchmarkE9_BadGadgetQuagga(b *testing.B) { benchGadget(b, "netkit", "quagga", false) }
func BenchmarkE9_BadGadgetIOS(b *testing.B)    { benchGadget(b, "dynagen", "ios", true) }

// --- E10: RPKI hierarchy, placement and propagation at StarBed scale ---

func BenchmarkE10_RPKIDeploy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := rpki.NewHierarchy("rir", netaddr.MustPrefix("10.0.0.0/8"))
		dist := rpki.NewDistribution(h)
		var points []string
		for asn := 1; asn <= 42; asn++ {
			name := fmt.Sprintf("ca%d", asn)
			block, err := netaddr.NthSubnet(netaddr.MustPrefix("10.0.0.0/8"), 16, asn)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := h.AddCA(name, "rir", block); err != nil {
				b.Fatal(err)
			}
			roa, err := h.SignROA(name, block, 24, asn)
			if err != nil {
				b.Fatal(err)
			}
			pp, err := dist.AddPublicationPoint("pp" + name)
			if err != nil {
				b.Fatal(err)
			}
			pp.Publish(roa)
			points = append(points, "pp"+name)
		}
		if _, err := dist.AddCache("top", "", points...); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 10; j++ {
			if _, err := dist.AddCache(fmt.Sprintf("leaf%d", j), "top"); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := dist.Propagate(0); err != nil {
			b.Fatal(err)
		}
		// 800+ VM placement.
		vms := make([]string, 820)
		for j := range vms {
			vms[j] = fmt.Sprintf("vm%03d", j)
		}
		cluster, err := sched.New(sched.Uniform(3, 300), sched.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if st, err := cluster.Reserve(sched.Spec{Name: "rpki", VMs: vms}); err != nil || st.State != sched.ResActive {
			b.Fatalf("placement = %s, %v", st.State, err)
		}
	}
}

// --- E11: DNS zone generation consistent with the allocation ---

func BenchmarkE11_ZoneGen(b *testing.B) {
	net, err := LoadGraph(topogen.SmallInternet())
	if err != nil {
		b.Fatal(err)
	}
	if err := net.Design(design.Options{}); err != nil {
		b.Fatal(err)
	}
	if err := net.Allocate(ipalloc.Config{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zones, err := dns.Generate(net.ANM, net.Alloc, dns.Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, z := range zones.All() {
			_ = z.Render()
		}
	}
}

// --- E12: measured-vs-designed validation over the running lab ---

func BenchmarkE12_Validate(b *testing.B) {
	net, lab := deployedSmallInternet(b)
	client := net.Measure(lab)
	designed := net.ANM.Overlay(design.OverlayOSPF).Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		measured, err := client.MeasuredOSPFGraph(lab.VMNames())
		if err != nil {
			b.Fatal(err)
		}
		if diff := measure.Compare(designed, measured); !diff.OK() {
			b.Fatalf("validation failed: %v", diff)
		}
	}
}

// --- A1: the §4.2 design choice — network logic condensed by the compiler
// versus evaluated inside a "fat" template. Both render identical neighbor
// stanzas; the fat variant filters the whole router list with template
// conditionals on every execution. ---

var a1Fat = tmpl.MustParse("fat", `% for peer in routers:
% if peer.asn == node.asn and peer.name != node.name:
  neighbor ${peer.loopback} remote-as ${peer.asn}
% endif
% endfor
`)

var a1Thin = tmpl.MustParse("thin", `% for nbr in node.neighbors:
  neighbor ${nbr.loopback} remote-as ${nbr.asn}
% endfor
`)

func a1Context(n int) (fat, thin map[string]any) {
	var routers []any
	var neighbors []any
	for i := 0; i < n; i++ {
		r := map[string]any{"name": fmt.Sprintf("r%d", i), "asn": 1 + i%4, "loopback": fmt.Sprintf("10.0.0.%d", i+1)}
		routers = append(routers, r)
		if i%4 == 0 && i != 0 {
			neighbors = append(neighbors, r)
		}
	}
	self := map[string]any{"name": "r0", "asn": 1}
	fat = map[string]any{"routers": routers, "node": self}
	thin = map[string]any{"node": map[string]any{"neighbors": neighbors}}
	return fat, thin
}

func BenchmarkA1_FatTemplate(b *testing.B) {
	fat, _ := a1Context(400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a1Fat.Execute(fat); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkA1_CompilerCondensed(b *testing.B) {
	_, thin := a1Context(400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a1Thin.Execute(thin); err != nil {
			b.Fatal(err)
		}
	}
}

// --- A3: byte-stable rendering (determinism the experiments rely on) ---

func BenchmarkA3_RenderDeterminism(b *testing.B) {
	net, err := LoadGraph(topogen.SmallInternet())
	if err != nil {
		b.Fatal(err)
	}
	if err := net.Build(BuildOptions{}); err != nil {
		b.Fatal(err)
	}
	ref := map[string]string{}
	for _, p := range net.Files.Paths() {
		c, _ := net.Files.Read(p)
		ref[p] = c
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs, err := render.Render(net.DB)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range fs.Paths() {
			c, _ := fs.Read(p)
			if ref[p] != c {
				b.Fatalf("render of %s not deterministic", p)
			}
		}
	}
}

// --- E15: incident injection + re-convergence ---

func BenchmarkE15_IncidentReconvergence(b *testing.B) {
	net, err := LoadGraph(topogen.SmallInternet())
	if err != nil {
		b.Fatal(err)
	}
	if err := net.Build(BuildOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dep, err := deploy.Run(net.Files, deploy.Options{})
		if err != nil {
			b.Fatal(err)
		}
		lab := dep.Lab()
		b.StartTimer()
		if err := lab.FailLink("as40r1", "as300r2"); err != nil {
			b.Fatal(err)
		}
		if !lab.BGPResult().Converged {
			b.Fatal("did not re-converge")
		}
	}
}

// --- E16: pre-deployment verification ---

func BenchmarkE16_VerifyStatic(b *testing.B) {
	net, err := LoadGraph(topogen.SmallInternet())
	if err != nil {
		b.Fatal(err)
	}
	if err := net.Build(BuildOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := net.Verify()
		if err != nil || !report.OK() {
			b.Fatalf("%v %v", err, report)
		}
	}
}

func BenchmarkE16_StabilityWhatIf(b *testing.B) {
	g := topogen.OscillationGadget()
	net, err := LoadGraph(g)
	if err != nil {
		b.Fatal(err)
	}
	if err := net.Build(BuildOptions{Design: design.Options{RouteReflectors: true}}); err != nil {
		b.Fatal(err)
	}
	lab, err := emul.Load(net.Files, "localhost", "netkit")
	if err != nil {
		b.Fatal(err)
	}
	if err := lab.Start(60); err != nil {
		b.Fatal(err)
	}
	var devices []*routing.DeviceConfig
	for _, name := range lab.VMNames() {
		vm, _ := lab.VM(name)
		devices = append(devices, vm.Config)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := verify.Stability(devices, routing.ProfileIOS, 60)
		if !res.Oscillating {
			b.Fatal("what-if missed the oscillation")
		}
	}
}

// --- substrate micro-benchmarks (ns/op scale, for profiling the pipeline
// hot paths the §6 performance discussion identifies) ---

func BenchmarkSubstrate_DijkstraNREN(b *testing.B) {
	g := nrenInput(b)
	ids := g.NodeIDs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := ids[i%len(ids)]
		dist, _ := g.Dijkstra(src, graph.UnitWeight)
		if len(dist) == 0 {
			b.Fatal("no distances")
		}
	}
}

func BenchmarkSubstrate_FIBLookup(b *testing.B) {
	f := dataplane.NewFIB()
	for i := 0; i < 1000; i++ {
		p, err := netaddr.NthSubnet(netaddr.MustPrefix("10.0.0.0/8"), 22, i)
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Insert(dataplane.FIBEntry{Prefix: p, OutIf: "eth0"}); err != nil {
			b.Fatal(err)
		}
	}
	dst := netip.MustParseAddr("10.1.2.3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := f.Lookup(dst); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkSubstrate_TemplateRender(b *testing.B) {
	// The paper's §4.1 template over a realistic context.
	tpl := tmpl.MustParse("ospfd", `hostname ${node.zebra.hostname}
password ${node.zebra.password}
% for interface in node.interfaces:
interface ${interface.id}
  ip ospf cost ${interface.ospf_cost}
% endfor
router ospf
% for link in node.ospf.ospf_links:
  network ${link.network.cidr} area ${link.area}
% endfor
`)
	var ifaces, links []any
	for i := 0; i < 8; i++ {
		ifaces = append(ifaces, map[string]any{"id": fmt.Sprintf("eth%d", i), "ospf_cost": 1})
		p, _ := netaddr.NthSubnet(netaddr.MustPrefix("192.168.0.0/16"), 30, i)
		links = append(links, map[string]any{"network": p, "area": 0})
	}
	ctx := map[string]any{"node": map[string]any{
		"zebra":      map[string]any{"hostname": "as100r1", "password": "1234"},
		"interfaces": ifaces,
		"ospf":       map[string]any{"ospf_links": links},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tpl.Execute(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrate_TextFSMParse(b *testing.B) {
	net, lab := deployedSmallInternet(b)
	client := net.Measure(lab)
	raw, err := client.Run("as1r1", "show ip ospf neighbor")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.OSPFAdjacencies("as1r1"); err != nil {
			b.Fatal(err)
		}
	}
	_ = raw
}

func BenchmarkSubstrate_GraphMLLoad(b *testing.B) {
	data, err := os.ReadFile("testdata/small_internet.graphml")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := topoio.ReadGraphML(bytes.NewReader(data))
		if err != nil || g.NumNodes() != 14 {
			b.Fatalf("%v %v", err, g)
		}
	}
}

// --- P1: parallel compile/render scale-out (this repo's worker pool; the
// paper's Fig. 9 argues artifact generation must stay tractable at
// thousands of routers). Sub-benchmarks compare Workers=1 (serial) against
// Workers=GOMAXPROCS on a 240-router topology. ---

// p1Input builds a 240-router NREN-shaped model through Allocate, ready for
// repeated Compile/Render runs.
func p1Input(b *testing.B) *Network {
	b.Helper()
	g, err := topogen.NREN(topogen.NRENConfig{ASes: 12, Routers: 240, Links: 300, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	net, err := LoadGraph(g)
	if err != nil {
		b.Fatal(err)
	}
	if err := net.Design(design.Options{}); err != nil {
		b.Fatal(err)
	}
	if err := net.Allocate(ipalloc.Config{}); err != nil {
		b.Fatal(err)
	}
	return net
}

func BenchmarkP1_Compile(b *testing.B) {
	net := p1Input(b)
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := net.Compile(compile.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkP1_Render(b *testing.B) {
	net := p1Input(b)
	if err := net.Compile(compile.Options{}); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := net.RenderWith(render.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkP1_CompileRender(b *testing.B) {
	net := p1Input(b)
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := net.Compile(compile.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
				if err := net.RenderWith(render.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- P4: incremental content-addressed rebuild, compile + render only.
// cold fills a fresh store; warm rebuilds the unchanged model, paying one
// digest, one lookup and one decode per device; edit changes one node
// attribute per iteration, so it pays warm plus that device's compile and
// render. The end-to-end form of edit (file to verified tree, on-disk
// store) is the repository benchmark's rebuild_warm_s. ---

func BenchmarkP4_IncrementalRebuild(b *testing.B) {
	net := p1Input(b)
	runOnce := func(b *testing.B, store *cache.Store) {
		b.Helper()
		if err := net.Compile(compile.Options{Cache: store}); err != nil {
			b.Fatal(err)
		}
		if err := net.RenderWith(render.Options{Cache: store}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runOnce(b, cache.NewMemory())
		}
	})
	b.Run("warm", func(b *testing.B) {
		store := cache.NewMemory()
		runOnce(b, store)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runOnce(b, store)
		}
	})
	edits := 0 // across the calibration calls too: an edit repeated is no edit
	b.Run("edit", func(b *testing.B) {
		store := cache.NewMemory()
		runOnce(b, store)
		routers := net.ANM.Overlay(core.OverlayPhy).Routers()
		missed := store.Stats().Misses
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			edits++
			if err := routers[edits%len(routers)].Set("note", fmt.Sprintf("edit-%d", edits)); err != nil {
				b.Fatal(err)
			}
			runOnce(b, store)
			if m := store.Stats().Misses; m != missed+2 {
				b.Fatalf("edit %d missed %d lookups, want that device's record and files", i, m-missed)
			} else {
				missed = m
			}
		}
	})
}

// --- P2: chaos scenario engine (fail -> check -> restore -> check) ---

// BenchmarkP2_ChaosScenario measures one full resilience drill against the
// deployed Small-Internet lab: an inter-AS link failure, a reachability
// sweep, the repair, and the closing baseline check. The scenario ends
// fully restored, so the same lab is reused across iterations.
func BenchmarkP2_ChaosScenario(b *testing.B) {
	net, err := LoadGraph(topogen.SmallInternet())
	if err != nil {
		b.Fatal(err)
	}
	if err := net.Build(BuildOptions{}); err != nil {
		b.Fatal(err)
	}
	dep, err := net.Deploy(deploy.Options{})
	if err != nil {
		b.Fatal(err)
	}
	engine, err := net.Chaos(dep.Lab(), chaos.Options{})
	if err != nil {
		b.Fatal(err)
	}
	scenario, diags := chaos.ParseScenario(strings.NewReader(`
name bench drill
fail-link as1r1 as20r3
check
restore-link as1r1 as20r3
check baseline
`))
	if diags.HasErrors() {
		b.Fatalf("scenario diagnostics:\n%s", diags)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := engine.Run(scenario)
		if err != nil {
			b.Fatal(err)
		}
		if !report.OK() {
			b.Fatalf("drill not clean:\n%s", report)
		}
	}
}

// --- P5: convergence under scheduled control-plane loss. One NREN-shaped
// lab is deployed once; each sub-benchmark installs a seeded perturber
// dropping the given percentage of route advertisements on every session
// and re-converges from scratch. Reported metrics are the rounds to
// quiescence and the total best-route churn — the convergence-degradation
// curve EXPERIMENTS.md plots against loss rate. ---

func BenchmarkP5_ConvergenceUnderLoss(b *testing.B) {
	g, err := topogen.NREN(topogen.NRENConfig{ASes: 4, Routers: 50, Links: 65, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	net, err := LoadGraph(g)
	if err != nil {
		b.Fatal(err)
	}
	if err := net.Build(BuildOptions{}); err != nil {
		b.Fatal(err)
	}
	dep, err := net.Deploy(deploy.Options{})
	if err != nil {
		b.Fatal(err)
	}
	lab := dep.Lab()
	defer func() {
		lab.SetPerturber(nil)
		if _, err := lab.Apply(emul.Change{}); err != nil {
			b.Fatal(err)
		}
	}()
	for _, pct := range []int{0, 5, 10, 20} {
		b.Run(fmt.Sprintf("loss%d", pct), func(b *testing.B) {
			if pct == 0 {
				lab.SetPerturber(nil)
			} else {
				lab.SetPerturber(routing.NewScheduledPerturber(42, []routing.PerturbRule{
					{Kind: routing.PerturbLoss, Pct: pct},
				}))
			}
			b.ReportAllocs()
			b.ResetTimer()
			var rounds, churn int
			for i := 0; i < b.N; i++ {
				res, err := lab.Apply(emul.Change{})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatalf("loss %d%%: %+v", pct, res)
				}
				rounds, churn = res.Rounds, lab.TotalChurn()
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(float64(churn), "churn")
		})
	}

	// Post-incident reconvergence at 240 routers, every BGP round recomputed
	// versus BGP trajectory replay — the headline case of the P6 performance
	// model.
	for _, mode := range []struct {
		name        string
		incremental bool
	}{{"full", false}, {"incremental", true}} {
		b.Run("postincident240/"+mode.name, func(b *testing.B) {
			benchPostIncident(b, benchDeployedLab(b, 240, mode.incremental, 1))
		})
	}
}

// --- P6: incremental reconvergence (BGP trajectory replay). Each iteration
// injects and repairs one link failure on a deployed NREN-shaped lab, so
// every pass pays two reconvergences whose outcome is overwhelmingly
// unchanged state. Sub-benchmarks compare recomputing every BGP round
// (`full`) against replay (`incremental`) at three scales; delta SPF and the
// FIB build are the same on both sides, and the two modes are
// byte-equivalent by construction (see TestIncrementalConvergenceParity),
// so the gap is purely the cost of re-deriving BGP state the incident
// provably did not touch. ---

// benchDeployedLab builds and deploys an NREN-shaped lab of the given size
// in the requested convergence mode — the one topology-build helper shared
// by the P6 (incremental) and P9 (sharded) convergence benchmarks, so both
// measure the same lab shape. shards is the sharded-convergence worker
// count (1 = sequential sweep).
func benchDeployedLab(b *testing.B, routers int, incremental bool, shards int) *emul.Lab {
	b.Helper()
	_, lab := benchDeployedNet(b, routers, incremental, shards)
	return lab
}

// benchDeployedNet is benchDeployedLab for benchmarks that also need the
// network (its allocation table names the probe addresses).
func benchDeployedNet(b *testing.B, routers int, incremental bool, shards int) (*Network, *emul.Lab) {
	b.Helper()
	g, err := topogen.NREN(topogen.NRENConfig{ASes: routers / 20, Routers: routers, Links: routers * 5 / 4, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	net, err := LoadGraph(g)
	if err != nil {
		b.Fatal(err)
	}
	if err := net.Build(BuildOptions{}); err != nil {
		b.Fatal(err)
	}
	dep, err := net.Deploy(deploy.Options{Incremental: incremental, Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	return net, dep.Lab()
}

// benchPostIncident times one fail-link/restore-link round trip per
// iteration: two incident-triggered reconvergences plus the data-plane
// rebuilds they imply.
func benchPostIncident(b *testing.B, lab *emul.Lab) {
	pair := lab.Links()[0]
	b.ReportAllocs()
	b.ResetTimer()
	var rounds int
	for i := 0; i < b.N; i++ {
		if err := lab.FailLink(pair[0], pair[1]); err != nil {
			b.Fatal(err)
		}
		if err := lab.RestoreLink(pair[0], pair[1]); err != nil {
			b.Fatal(err)
		}
		res := lab.BGPResult()
		if !res.Converged {
			b.Fatal("did not reconverge")
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

func BenchmarkP6_IncrementalConvergence(b *testing.B) {
	for _, routers := range []int{60, 120, 240} {
		for _, mode := range []struct {
			name        string
			incremental bool
		}{{"full", false}, {"incremental", true}} {
			b.Run(fmt.Sprintf("n%d/%s", routers, mode.name), func(b *testing.B) {
				benchPostIncident(b, benchDeployedLab(b, routers, mode.incremental, 1))
			})
		}
	}
}

// --- P9: parallel sharded BGP convergence (per-AS shards evaluated
// concurrently on a bounded worker pool, cross-shard advertisements merged
// in canonical order). The serial/sharded pairs are byte-equivalent by
// construction (see TestShardedConvergenceParity), so the gap is purely
// the parallel round evaluation. `cold` measures a full reconvergence of
// the whole lab; `postincident` composes sharding with BGP trajectory
// replay on a fail/restore round trip. ---

func BenchmarkP9_ShardedConvergence(b *testing.B) {
	// At least 4 shard workers even on small hosts, so the parallel driver
	// (worker pool, wavefront scheduler, merge barrier) is actually
	// exercised: on <4 cores the run measures its scheduling overhead, on
	// >=4 cores its speedup.
	sharded := runtime.NumCPU()
	if sharded < 4 {
		sharded = 4
	}
	for _, routers := range []int{240, 1158} {
		for _, mode := range []struct {
			name   string
			shards int
		}{{"serial", 1}, {"sharded", sharded}} {
			b.Run(fmt.Sprintf("n%d/%s/cold", routers, mode.name), func(b *testing.B) {
				lab := benchDeployedLab(b, routers, false, mode.shards)
				b.ReportAllocs()
				b.ResetTimer()
				var rounds int
				for i := 0; i < b.N; i++ {
					res, err := lab.Apply(emul.Change{})
					if err != nil {
						b.Fatal(err)
					}
					if !res.Converged {
						b.Fatalf("did not converge: %+v", res)
					}
					rounds = res.Rounds
				}
				b.ReportMetric(float64(rounds), "rounds")
			})
			b.Run(fmt.Sprintf("n%d/%s/postincident", routers, mode.name), func(b *testing.B) {
				benchPostIncident(b, benchDeployedLab(b, routers, true, mode.shards))
			})
		}
	}
}

// --- P14: the N×N reachability matrix (north-star number two ends in one).
// Every probe is a `ping -c 1` through Lab.Exec, parsed from its loss line;
// the lab answers from one hop tree per destination, memoised for the life
// of a network generation. `fresh` reconverges (off the clock) before every
// matrix, so each one builds its N hop trees; `unchanged` re-probes the same
// generation and reads them back. ---

func BenchmarkP14_ReachabilityMatrix(b *testing.B) {
	const routers = 240
	net, lab := benchDeployedNet(b, routers, true, 1)
	client, names, addrOf := net.Measure(lab), lab.VMNames(), loopbackOf(net)
	for _, mode := range []struct {
		name  string
		fresh bool
	}{{"fresh", true}, {"unchanged", false}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode.fresh {
					b.StopTimer()
					if _, err := lab.Apply(emul.Change{}); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				m, err := client.ReachabilityMatrix(names, addrOf)
				if err != nil {
					b.Fatal(err)
				}
				if want := routers * (routers - 1); m.Pairs() != want || m.Reachable() != want {
					b.Fatalf("matrix reaches %d of %d pairs, want all %d", m.Reachable(), m.Pairs(), want)
				}
			}
		})
	}
}

// --- P16: one data-plane generation, the layer between a converged control
// plane and the first probe. `build` is a converge's last step on its own:
// every FIB merged from the engines' routes, every node registered and its
// next hops resolved. `fresh-matrix` is the first reachability matrix on a
// new generation (rebuilt off the clock), so it pays for every hop tree.
// B/op over the entries metric is the bytes a FIB entry costs. The
// 1158-router lab takes ~5 s and ~1.8 GB to boot, once. ---

func BenchmarkP16_DataplaneGeneration(b *testing.B) {
	for _, routers := range []int{240, 1158} {
		var net *Network
		var lab *emul.Lab
		deployed := func(b *testing.B) (*Network, *emul.Lab) {
			if lab == nil {
				net, lab = benchDeployedNet(b, routers, false, 1)
			}
			return net, lab
		}
		b.Run(fmt.Sprintf("n%d/build", routers), func(b *testing.B) {
			_, lab := deployed(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := lab.RebuildDataplane(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			entries, plane := 0, lab.Network()
			for _, name := range plane.NodeNames() {
				node, _ := plane.Node(name)
				entries += node.FIB.Len()
			}
			b.ReportMetric(float64(entries), "entries")
		})
		b.Run(fmt.Sprintf("n%d/fresh-matrix", routers), func(b *testing.B) {
			net, lab := deployed(b)
			client, names, addrOf := net.Measure(lab), lab.VMNames(), loopbackOf(net)
			// Every generation is built from the same engines, so each matrix
			// must repeat the first; at 240 routers that is every pair (the
			// 1158-router shape has paths beyond a ping's 30 hops).
			base, err := client.ReachabilityMatrix(names, addrOf)
			if err != nil {
				b.Fatal(err)
			}
			if pairs := routers * (routers - 1); base.Pairs() != pairs || (routers == 240 && base.Reachable() != pairs) {
				b.Fatalf("matrix reaches %d of %d pairs, want %d", base.Reachable(), base.Pairs(), pairs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := lab.RebuildDataplane(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				m, err := client.ReachabilityMatrix(names, addrOf)
				if err != nil {
					b.Fatal(err)
				}
				if m.Pairs() != base.Pairs() || m.Reachable() != base.Reachable() {
					b.Fatalf("matrix reaches %d of %d pairs, the first generation's reached %d", m.Reachable(), m.Pairs(), base.Reachable())
				}
			}
		})
	}
}

// --- P3: resilient boot (strict vs lenient quarantine) ---

// BenchmarkP3_Boot measures a full lab boot of the Small-Internet tree in
// both modes: strict over a healthy tree (the baseline every deployment
// pays) and lenient over a tree whose one corrupted device must be
// diagnosed, quarantined, and excluded before the 13 survivors converge.
func BenchmarkP3_Boot(b *testing.B) {
	net, err := LoadGraph(topogen.SmallInternet())
	if err != nil {
		b.Fatal(err)
	}
	if err := net.Build(BuildOptions{}); err != nil {
		b.Fatal(err)
	}
	const victim = "as100r2"
	confPath := "localhost/netkit/" + victim + "/etc/quagga/bgpd.conf"
	healthy, ok := net.Files.Read(confPath)
	if !ok {
		b.Fatalf("no %s in rendered tree", confPath)
	}

	b.Run("strict", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lab, err := emul.Load(net.Files, "localhost", "netkit")
			if err != nil {
				b.Fatal(err)
			}
			if err := lab.Boot(emul.BootOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lenient-quarantine", func(b *testing.B) {
		net.Files.Write(confPath, "router bgp 100\n  bgp router-id junk\n  network nonsense\n  neighbor bad remote-as 20\n")
		defer net.Files.Write(confPath, healthy)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lab, err := emul.Load(net.Files, "localhost", "netkit")
			if err != nil {
				b.Fatal(err)
			}
			err = lab.Boot(emul.BootOptions{Lenient: true})
			if !errors.Is(err, emul.ErrPartialBoot) {
				b.Fatalf("err = %v, want ErrPartialBoot", err)
			}
			if q := lab.Quarantined(); len(q) != 1 {
				b.Fatalf("quarantined = %v", q)
			}
		}
	})
}

// --- P7: reservation scheduler at NREN scale (§3.3) ---

// BenchmarkP7_SchedulerDrain pins the cluster scheduler's placement and
// live re-placement throughput at the paper's scale ceiling: the 42-AS /
// 1158-router European-interconnect model sharded into 8 concurrent
// reservations over 36 substrate hosts (1440 slots), then three
// maintenance drains plus a hard host failure on the loaded cluster.
// Reported vms/s is VMs placed (place) or re-placed (drain) per second.
func BenchmarkP7_SchedulerDrain(b *testing.B) {
	g, err := topogen.NREN(topogen.DefaultNREN())
	if err != nil {
		b.Fatal(err)
	}
	ids := g.SortedNodeIDs()
	const nShards = 8
	shards := make([][]string, nShards)
	for i, id := range ids {
		shards[i%nShards] = append(shards[i%nShards], string(id))
	}
	load := func(b *testing.B) *sched.Cluster {
		c, err := sched.New(sched.Uniform(36, 40), sched.Options{Seed: 2013})
		if err != nil {
			b.Fatal(err)
		}
		for i, vms := range shards {
			sp := sched.Spec{
				Name:   fmt.Sprintf("as-shard-%d", i),
				Tenant: fmt.Sprintf("team%d", i%3),
				VMs:    vms,
			}
			if i%2 == 1 {
				sp.Policy = sched.PolicySpread
			}
			if _, err := c.Reserve(sp); err != nil {
				b.Fatal(err)
			}
		}
		return c
	}

	b.Run("place", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := load(b)
			if got := c.Capacity().UsedSlots; got != len(ids) {
				b.Fatalf("placed %d VMs, want %d", got, len(ids))
			}
		}
		b.ReportMetric(float64(len(ids))*float64(b.N)/b.Elapsed().Seconds(), "vms/s")
	})

	b.Run("drain", func(b *testing.B) {
		b.ReportAllocs()
		replaced := 0
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := load(b)
			b.StartTimer()
			for _, h := range []string{"h05", "h17", "h29"} {
				res, err := c.Drain(h)
				if err != nil {
					b.Fatalf("drain %s: %v", h, err)
				}
				replaced += len(res.Moves)
			}
			res, err := c.FailHost("h11")
			if err != nil && !errors.Is(err, sched.ErrDegraded) {
				b.Fatalf("fail h11: %v", err)
			}
			replaced += len(res.Moves)
		}
		if replaced == 0 {
			b.Fatal("no VMs re-placed")
		}
		b.ReportMetric(float64(replaced)/b.Elapsed().Seconds(), "vms/s")
	})
}

// BenchmarkP8_JournalAppend pins the write-ahead journal's append
// throughput at the record size the durable scheduler actually produces
// (a JSON reserve record for a 32-VM spec, ~1.5 KiB), under both fsync
// policies. SyncAlways is the deployed default — every scheduler mutation
// pays one fsync — so its records/s bounds sustained mutation rate.
func BenchmarkP8_JournalAppend(b *testing.B) {
	vms := make([]string, 32)
	for i := range vms {
		vms[i] = fmt.Sprintf("as-shard-0-vm%03d", i+1)
	}
	rec, err := json.Marshal(map[string]any{
		"kind": "reserve",
		"spec": map[string]any{"name": "as-shard-0", "tenant": "team0", "vms": vms},
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		sync journal.SyncPolicy
	}{
		{"sync-always", journal.SyncAlways},
		{"sync-never", journal.SyncNever},
	} {
		b.Run(tc.name, func(b *testing.B) {
			log, _, err := journal.Open(b.TempDir(), journal.Options{Sync: tc.sync})
			if err != nil {
				b.Fatal(err)
			}
			defer log.Close()
			b.SetBytes(int64(len(rec)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := log.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkP8_SchedulerRecovery pins crash-recovery time at the paper's
// scale ceiling: the 1158-router NREN model sharded into 8 reservations
// on 36 hosts, mutated through three drains and a host failure, then
// recovered from its journal. Each iteration replays the full snapshot +
// wal tail into a fresh cluster — the cost of the §3.3 manager process
// coming back from a crash with the whole testbed reserved.
func BenchmarkP8_SchedulerRecovery(b *testing.B) {
	g, err := topogen.NREN(topogen.DefaultNREN())
	if err != nil {
		b.Fatal(err)
	}
	ids := g.SortedNodeIDs()
	const nShards = 8
	shards := make([][]string, nShards)
	for i, id := range ids {
		shards[i%nShards] = append(shards[i%nShards], string(id))
	}
	dir := b.TempDir()
	opts := sched.Options{Seed: 2013, SnapshotEvery: 6}
	c, _, err := sched.Open(dir, sched.Uniform(36, 40), opts)
	if err != nil {
		b.Fatal(err)
	}
	for i, vms := range shards {
		sp := sched.Spec{
			Name:   fmt.Sprintf("as-shard-%d", i),
			Tenant: fmt.Sprintf("team%d", i%3),
			VMs:    vms,
		}
		if i%2 == 1 {
			sp.Policy = sched.PolicySpread
		}
		if _, err := c.Reserve(sp); err != nil {
			b.Fatal(err)
		}
	}
	for _, h := range []string{"h05", "h17", "h29"} {
		if _, err := c.Drain(h); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := c.FailHost("h11"); err != nil && !errors.Is(err, sched.ErrDegraded) {
		b.Fatal(err)
	}
	want := c.Status().JSON()
	if err := c.Close(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc, info, err := sched.Open(dir, sched.Uniform(36, 40), opts)
		if err != nil {
			b.Fatal(err)
		}
		if !info.Recovered {
			b.Fatal("nothing recovered")
		}
		b.StopTimer()
		if got := rc.Status().JSON(); got != want {
			b.Fatal("recovered state diverged from pre-crash state")
		}
		rc.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(len(ids))*float64(b.N)/b.Elapsed().Seconds(), "vms/s")
}

// --- P10: preemption and lease rounds under churn at NREN scale (§3.3) ---

// BenchmarkP10_PreemptionUnderChurn pins deterministic preemption at the
// paper's scale ceiling: the 42-AS / 1158-router model in eight weight-1
// shards fills 36 substrate hosts (1440 slots) to 80%, then each churn
// round admits a weight-5 production reservation that can only fit by
// evicting a minimal victim set (one shard re-queues preempted) and
// releases it again (the victim re-admits). The lease-round sub-benchmark
// prices one full heartbeat + lease-check pass over the loaded cluster.
func BenchmarkP10_PreemptionUnderChurn(b *testing.B) {
	g, err := topogen.NREN(topogen.DefaultNREN())
	if err != nil {
		b.Fatal(err)
	}
	ids := g.SortedNodeIDs()
	const nShards = 8
	shards := make([][]string, nShards)
	for i, id := range ids {
		shards[i%nShards] = append(shards[i%nShards], string(id))
	}
	load := func(b *testing.B, lease bool) *sched.Cluster {
		opts := sched.Options{Seed: 2013, Preempt: true}
		if lease {
			opts.Lease = sched.LeasePolicy{Enabled: true}
		}
		c, err := sched.New(sched.Uniform(36, 40), opts)
		if err != nil {
			b.Fatal(err)
		}
		for i, vms := range shards {
			sp := sched.Spec{
				Name:   fmt.Sprintf("as-shard-%d", i),
				Tenant: fmt.Sprintf("team%d", i%3),
				VMs:    vms,
				Weight: 1,
			}
			if i%2 == 1 {
				sp.Policy = sched.PolicySpread
			}
			if _, err := c.Reserve(sp); err != nil {
				b.Fatal(err)
			}
		}
		return c
	}

	b.Run("churn", func(b *testing.B) {
		c := load(b, false)
		// Demand exceeding free capacity by a margin only one evicted
		// shard can cover: every round preempts exactly the youngest
		// weight-1 shard.
		count := c.Capacity().FreeSlots + 18
		victim := fmt.Sprintf("as-shard-%d", nShards-1)
		victimVMs := len(shards[nShards-1])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := c.Reserve(sched.Spec{Name: "prod", Tenant: "prod", Count: count, Weight: 5})
			if err != nil {
				b.Fatal(err)
			}
			if st.State != sched.ResActive {
				b.Fatalf("prod %s; expected preemption to admit it", st.State)
			}
			if vs, ok := c.Reservation(victim); !ok || !vs.Preempted {
				b.Fatalf("%s not preempted", victim)
			}
			if err := c.Release("prod"); err != nil {
				b.Fatal(err)
			}
			if vs, ok := c.Reservation(victim); !ok || vs.State != sched.ResActive {
				b.Fatalf("%s did not re-admit after release", victim)
			}
		}
		moved := count + 2*victimVMs // placed demand + eviction + re-admission
		b.ReportMetric(float64(moved)*float64(b.N)/b.Elapsed().Seconds(), "vms/s")
	})

	b.Run("lease-round", func(b *testing.B) {
		c := load(b, true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := len(c.HeartbeatAll()); got != 36 {
				b.Fatalf("renewed %d hosts, want 36", got)
			}
			if tr := c.CheckLeases(); len(tr) != 0 {
				b.Fatalf("unexpected lease transitions: %v", tr)
			}
		}
		b.ReportMetric(float64(36*b.N)/b.Elapsed().Seconds(), "hosts/s")
	})
}
