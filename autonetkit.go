// Package autonetkit is a Go implementation of the automated emulated
// network experimentation system of Knight et al. (CoNEXT 2013): a pipeline
// that turns a high-level network design — an annotated attribute graph —
// into concrete device configurations, deploys them onto an emulation
// platform, and measures the running network.
//
// The pipeline stages mirror the paper's architecture (Fig. 2):
//
//	topology file ──Load──▶ input overlay
//	            ──Design──▶ protocol overlays (ospf/ebgp/ibgp/isis, §4.2)
//	          ──Allocate──▶ ipv4 overlay + address table (§5.3)
//	           ──Compile──▶ Resource Database / NIDB (§5.4)
//	            ──Render──▶ configuration file tree (§4.1, §5.5)
//	            ──Deploy──▶ running emulated lab (§5.7)
//	           ──Measure──▶ traceroutes, adjacency graphs, validation
//
// A minimal end-to-end run:
//
//	net, _ := autonetkit.LoadGraph(topogen.SmallInternet())
//	_ = net.Build(autonetkit.BuildOptions{})
//	dep, _ := net.Deploy(deploy.Options{})
//	client := net.Measure(dep.Lab())
//	tr, _ := client.RunTraceroute("as1r1", dst)
package autonetkit

import (
	"context"
	"fmt"
	"io"
	"os"

	"net/netip"

	"autonetkit/internal/cache"
	"autonetkit/internal/chaos"
	"autonetkit/internal/compile"
	"autonetkit/internal/core"
	"autonetkit/internal/deploy"
	"autonetkit/internal/design"
	"autonetkit/internal/emul"
	"autonetkit/internal/graph"
	"autonetkit/internal/ipalloc"
	"autonetkit/internal/measure"
	"autonetkit/internal/nidb"
	"autonetkit/internal/obs"
	"autonetkit/internal/render"
	"autonetkit/internal/sched"
	"autonetkit/internal/services/dns"
	"autonetkit/internal/topoio"
	"autonetkit/internal/verify"
	"autonetkit/internal/viz"
)

// Network carries one experiment through the pipeline.
type Network struct {
	ANM   *core.ANM
	Alloc *ipalloc.Result
	DB    *nidb.DB
	Files *render.FileSet

	// obs collects per-stage timing spans and work counters for this
	// network's pipeline run; read it via Stats or WriteTrace.
	obs *obs.Collector
}

// Stats snapshots the pipeline's observability state: one timing span per
// executed stage (with sub-spans for the stage's internal phases) plus the
// work counters (obs.CounterDevicesCompiled, obs.CounterFilesRendered, …).
func (n *Network) Stats() obs.Stats { return n.obs.Snapshot() }

// WriteTrace prints the pipeline trace — per-stage timings and counters —
// in human-readable form (the `ankbuild -trace` output).
func (n *Network) WriteTrace(w io.Writer) error { return n.obs.WriteTrace(w) }

// Load reads a topology file (format inferred from the extension), applies
// the standard defaults (§6.1: device_type=router, platform=netkit,
// syntax=quagga) and validates it.
func Load(path string) (*Network, error) {
	format, err := topoio.FormatForPath(path)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("autonetkit: %w", err)
	}
	defer f.Close()
	return LoadReader(f, format)
}

// LoadReader reads a topology from a stream in the given format.
func LoadReader(r io.Reader, format topoio.Format) (*Network, error) {
	g, err := topoio.Read(r, format)
	if err != nil {
		return nil, err
	}
	return LoadGraph(g)
}

// LoadGraph installs an in-memory topology as the input overlay.
func LoadGraph(g *graph.Graph) (*Network, error) {
	topoio.StandardDefaults().Apply(g)
	if err := topoio.Validate(g); err != nil {
		return nil, err
	}
	anm := core.NewANM()
	if _, err := anm.AddOverlayGraph(core.OverlayInput, g); err != nil {
		return nil, err
	}
	return &Network{ANM: anm, obs: obs.NewCollector()}, nil
}

// Retarget routes every device of the input overlay onto one emulation
// platform (with the syntax that platform runs) on one host, whatever the
// topology file asked for. Call it before Build.
func (n *Network) Retarget(platform, host string) {
	syntax := emul.PlatformSyntax(platform)
	for _, node := range n.ANM.Overlay(core.OverlayInput).Nodes() {
		node.MustSet(core.AttrPlatform, platform)
		node.MustSet(core.AttrSyntax, syntax)
		node.MustSet(core.AttrHost, host)
	}
}

// BuildOptions parameterises the design-through-render chain.
type BuildOptions struct {
	Design  design.Options
	IP      ipalloc.Config
	Compile compile.Options
	Render  render.Options
	// Cache, when non-nil, enables the incremental content-addressed build
	// cache for both the compile and render stages (unless a stage already
	// carries its own store). Devices whose inputs are unchanged since the
	// store was last warmed skip compilation and template execution;
	// artifacts are byte-identical either way.
	Cache *cache.Store
}

// stageErr is the uniform out-of-order error: stage "want" must run before
// stage "stage" can.
func stageErr(want, stage string) error {
	return fmt.Errorf("autonetkit: %s before %s", want, stage)
}

// Design builds the protocol overlays (§4.2).
func (n *Network) Design(opts design.Options) error {
	in := n.ANM.Overlay(core.OverlayInput)
	if in == nil || in.NumNodes() == 0 {
		return stageErr("Load", "Design")
	}
	span := n.obs.StartSpan("Design")
	defer span.End()
	return design.BuildAll(n.ANM, opts)
}

// Allocate runs automatic IP allocation (§5.3), creating the ipv4 overlay.
func (n *Network) Allocate(cfg ipalloc.Config) error {
	phy := n.ANM.Overlay(core.OverlayPhy)
	if phy == nil || phy.NumNodes() == 0 {
		return stageErr("Design", "Allocate")
	}
	span := n.obs.StartSpan("Allocate")
	defer span.End()
	alloc := &ipalloc.Default{Config: cfg}
	res, err := alloc.Allocate(n.ANM)
	if err != nil {
		return err
	}
	n.Alloc = res
	return nil
}

// Compile condenses the overlays into the Resource Database (§5.4).
// Per-device compilation fans out across opts.Workers goroutines
// (GOMAXPROCS when zero) with byte-identical output at any worker count.
func (n *Network) Compile(opts compile.Options) error {
	if n.Alloc == nil {
		return stageErr("Allocate", "Compile")
	}
	span := n.obs.StartSpan("Compile")
	defer span.End()
	if opts.Obs == nil {
		opts.Obs = n.obs
	}
	db, err := compile.Compile(n.ANM, n.Alloc, opts)
	if err != nil {
		return err
	}
	n.DB = db
	return nil
}

// Render pushes the database through the template sets (§5.5) with the
// default render options.
func (n *Network) Render() error { return n.RenderWith(render.Options{}) }

// RenderWith renders with explicit options. Per-device and per-lab template
// execution fans out across opts.Workers goroutines (GOMAXPROCS when zero)
// with byte-identical output at any worker count.
func (n *Network) RenderWith(opts render.Options) error {
	if n.DB == nil {
		return stageErr("Compile", "Render")
	}
	span := n.obs.StartSpan("Render")
	defer span.End()
	if opts.Obs == nil {
		opts.Obs = n.obs
	}
	fs, err := render.RenderWith(context.Background(), n.DB, opts)
	if err != nil {
		return err
	}
	n.Files = fs
	return nil
}

// Build runs Design, Allocate, Compile and Render in sequence.
func (n *Network) Build(opts BuildOptions) error {
	if opts.Cache != nil {
		if opts.Compile.Cache == nil {
			opts.Compile.Cache = opts.Cache
		}
		if opts.Render.Cache == nil {
			opts.Render.Cache = opts.Cache
		}
	}
	if err := n.Design(opts.Design); err != nil {
		return err
	}
	if err := n.Allocate(opts.IP); err != nil {
		return err
	}
	if err := n.Compile(opts.Compile); err != nil {
		return err
	}
	return n.RenderWith(opts.Render)
}

// Deploy archives, transfers and launches the rendered lab (§5.7). A
// lenient deployment that quarantines devices surfaces the count under
// obs.CounterDevicesQuarantined in Stats.
func (n *Network) Deploy(opts deploy.Options) (*deploy.Deployment, error) {
	if n.Files == nil {
		return nil, stageErr("Render", "Deploy")
	}
	span := n.obs.StartSpan("Deploy")
	defer span.End()
	if opts.Obs == nil {
		opts.Obs = n.obs
	}
	return deploy.Run(n.Files, opts)
}

// DeployCluster deploys the rendered network across a substrate backend
// via the cluster scheduler (§3.3 multi-host deployments with reservation
// semantics): deterministic bin-packing, health probes, cordon/drain with
// live re-placement. The returned deployment's DrainHost/FailHost keep
// the lab running through substrate host maintenance and failures.
func (n *Network) DeployCluster(backend sched.Backend, opts deploy.ClusterOptions) (*deploy.ClusterDeployment, error) {
	if n.Files == nil {
		return nil, stageErr("Render", "DeployCluster")
	}
	span := n.obs.StartSpan("DeployCluster")
	defer span.End()
	if opts.Obs == nil {
		opts.Obs = n.obs
	}
	return deploy.RunCluster(context.Background(), n.Files, backend, opts)
}

// Measure returns a measurement client for a running lab, resolving
// addresses through this network's IP allocation table (§6.1).
func (n *Network) Measure(lab *emul.Lab) *measure.Client {
	resolve := measure.Resolver(nil)
	if n.Alloc != nil {
		table := n.Alloc.Table
		resolve = func(a netip.Addr) string { return string(table.HostForIP(a)) }
	}
	return measure.NewClient(lab, resolve)
}

// Chaos returns a scenario engine bound to a running lab: measurement
// through this network's allocation-aware client, loopback probe
// addresses from the allocation table, and the network's obs collector
// for per-step spans (§8 what-if experimentation, scripted).
func (n *Network) Chaos(lab *emul.Lab, opts chaos.Options) (*chaos.Engine, error) {
	if n.Alloc == nil {
		return nil, stageErr("Allocate", "Chaos")
	}
	if opts.Obs == nil {
		opts.Obs = n.obs
	}
	loopbacks := map[string]netip.Addr{}
	for _, e := range n.Alloc.Table.Entries() {
		if e.Loopback {
			loopbacks[string(e.Node)] = e.Addr
		}
	}
	addrOf := func(name string) netip.Addr { return loopbacks[name] }
	return chaos.NewEngine(lab, n.Measure(lab), addrOf, opts), nil
}

// ExportOverlay renders an overlay as a D3-style visualization document
// (§5.6).
func (n *Network) ExportOverlay(name string, opts viz.Options) (*viz.Doc, error) {
	ov := n.ANM.Overlay(name)
	if ov == nil {
		return nil, fmt.Errorf("autonetkit: no overlay %q", name)
	}
	return viz.ExportOverlay(ov, opts), nil
}

// SaveConfigs writes the rendered configuration tree under dir.
func (n *Network) SaveConfigs(dir string) error {
	if n.Files == nil {
		return stageErr("Render", "SaveConfigs")
	}
	return n.Files.WriteToDisk(dir)
}

// Verify runs the pre-deployment static checks (§8: "offline verification
// systems could be applied prior to deployment") over the compiled
// Resource Database.
func (n *Network) Verify() (verify.Report, error) {
	if n.DB == nil {
		return verify.Report{}, stageErr("Compile", "Verify")
	}
	return verify.Static(n.DB), nil
}

// DNS generates the allocation-consistent DNS zones for the network
// (§3.3).
func (n *Network) DNS(cfg dns.Config) (dns.Zones, error) {
	if n.Alloc == nil {
		return dns.Zones{}, stageErr("Allocate", "DNS")
	}
	return dns.Generate(n.ANM, n.Alloc, cfg)
}
