// Package compile condenses the ANM's overlay graphs into the per-device
// Resource Database (paper §5.4): "the compiler combines both the inbuilt
// and user-defined overlay topology graphs into a single device-level
// topology, to push into the text-based templates". It is split, as in the
// paper, into platform compilers (interface naming, management addressing,
// lab files — see platform.go) and device-syntax compilers (per-language
// finalisation — see syntax.go), both user-extensible via registries.
package compile

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"sort"
	"strings"
	"sync"

	"autonetkit/internal/cache"
	"autonetkit/internal/core"
	"autonetkit/internal/design"
	"autonetkit/internal/graph"
	"autonetkit/internal/ipalloc"
	"autonetkit/internal/nidb"
	"autonetkit/internal/obs"
)

// Options parameterises compilation.
type Options struct {
	// ZebraPassword is the telnet password written into Quagga configs
	// (paper listing: "1234").
	ZebraPassword string
	// OSPFProcessID is the OSPF process number (default 1).
	OSPFProcessID int
	// DefaultPlatform applies to nodes lacking a platform attribute.
	DefaultPlatform string
	// DefaultSyntax applies to nodes lacking a syntax attribute.
	DefaultSyntax string
	// DefaultHost applies to nodes lacking a host attribute.
	DefaultHost string
	// Workers bounds the per-device compile fan-out. 0 (the default) uses
	// GOMAXPROCS; 1 compiles serially. Output is byte-identical at every
	// setting: devices compile independently and are merged into the
	// Resource Database in physical-overlay node order.
	Workers int
	// Cache, when non-nil, is the incremental build store: devices whose
	// input digest (DeviceDigest) matches a stored entry reuse their prior
	// Resource-Database record instead of recompiling. Output is
	// byte-identical at every cache state; lab finalisation always reruns
	// because it depends on the full device set.
	Cache *cache.Store
	// Obs, when non-nil, receives timing spans and work counters.
	Obs *obs.Collector
}

func (o *Options) fill() {
	if o.ZebraPassword == "" {
		o.ZebraPassword = "1234"
	}
	if o.OSPFProcessID == 0 {
		o.OSPFProcessID = 1
	}
	if o.DefaultPlatform == "" {
		o.DefaultPlatform = "netkit"
	}
	if o.DefaultSyntax == "" {
		o.DefaultSyntax = "quagga"
	}
	if o.DefaultHost == "" {
		o.DefaultHost = "localhost"
	}
}

// Compile builds the Resource Database from the model's overlays and the IP
// allocation.
func Compile(anm *core.ANM, alloc *ipalloc.Result, opts Options) (*nidb.DB, error) {
	return CompileContext(context.Background(), anm, alloc, opts)
}

// CompileContext is Compile with cancellation: per-device compilation fans
// out across opts.Workers goroutines, and the first error (or ctx
// cancellation) cancels the remaining work.
func CompileContext(ctx context.Context, anm *core.ANM, alloc *ipalloc.Result, opts Options) (*nidb.DB, error) {
	opts.fill()
	phy := anm.Overlay(core.OverlayPhy)
	if phy == nil || phy.NumNodes() == 0 {
		return nil, fmt.Errorf("compile: physical overlay missing or empty")
	}
	if alloc == nil || alloc.Overlay == nil {
		return nil, fmt.Errorf("compile: IP allocation result required")
	}

	db := nidb.New()
	c := &compiler{anm: anm, alloc: alloc, opts: opts, db: db}
	if err := c.run(ctx); err != nil {
		return nil, err
	}
	return db, nil
}

type compiler struct {
	anm   *core.ANM
	alloc *ipalloc.Result
	opts  Options
	db    *nidb.DB

	// neighborIP[a][b] is b's interface address on a collision domain
	// shared with a, used to form eBGP sessions.
	neighborIP map[graph.ID]map[graph.ID]netip.Addr
	// sharedCD[a][b] is that collision domain's id.
	sharedCD map[graph.ID]map[graph.ID]graph.ID
	// digests keys the incremental cache; nil without one.
	digests *digester
}

func (c *compiler) run(ctx context.Context) error {
	idxSpan := c.opts.Obs.StartSpan("index")
	c.indexCollisionDomains()
	idxSpan.End()
	phy := c.anm.Overlay(core.OverlayPhy)

	// Collect the compilable devices in physical-overlay order — this order
	// defines the Resource Database's (and so every downstream artifact's)
	// iteration order, regardless of worker count.
	var nodes []core.NodeView
	for _, n := range phy.Nodes() {
		dt := n.DeviceType()
		if dt == core.DeviceRouter || dt == core.DeviceServer {
			nodes = append(nodes, n)
		}
	}

	if c.opts.Cache != nil {
		digSpan := c.opts.Obs.StartSpan("digest-table")
		c.digests = newDigester(c.anm, c.alloc, c.opts)
		digSpan.End()
	}
	devSpan := c.opts.Obs.StartSpan("devices")
	devices, err := c.compileDevices(ctx, nodes)
	devSpan.End()
	if err != nil {
		return err
	}

	// Merge serially in node order and group devices per (host, platform)
	// for lab finalisation.
	type hostPlat struct{ host, platform string }
	placement := map[hostPlat][]*nidb.Device{}
	var placementOrder []hostPlat
	for _, d := range devices {
		c.db.InstallDevice(d)
		hp := hostPlat{d.GetString("host", ""), d.GetString("platform", "")}
		if _, ok := placement[hp]; !ok {
			placementOrder = append(placementOrder, hp)
		}
		placement[hp] = append(placement[hp], d)
	}

	c.recordLinks()

	labSpan := c.opts.Obs.StartSpan("labs")
	defer labSpan.End()
	sort.Slice(placementOrder, func(i, j int) bool {
		if placementOrder[i].host != placementOrder[j].host {
			return placementOrder[i].host < placementOrder[j].host
		}
		return placementOrder[i].platform < placementOrder[j].platform
	})
	for _, hp := range placementOrder {
		plat, err := PlatformFor(hp.platform)
		if err != nil {
			return err
		}
		if err := plat.FinalizeLab(c.db, hp.host, placement[hp]); err != nil {
			return fmt.Errorf("compile: lab for %s/%s: %w", hp.host, hp.platform, err)
		}
		c.opts.Obs.Add(obs.CounterLabsFinalized, 1)
	}
	return nil
}

// workerCount resolves a Workers option against the job count.
func workerCount(workers, jobs int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// compileDevices fans the per-device compilation out across the worker
// pool. Results land in a slice indexed like nodes, so the caller merges
// them in deterministic order; the first error cancels the remaining work.
func (c *compiler) compileDevices(ctx context.Context, nodes []core.NodeView) ([]*nidb.Device, error) {
	out := make([]*nidb.Device, len(nodes))
	workers := workerCount(c.opts.Workers, len(nodes))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	jobs := make(chan int)
	var wg sync.WaitGroup
	var errOnce sync.Once
	var firstErr error
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				d, err := c.compileOrReuse(nodes[i])
				if err != nil {
					fail(err)
					return
				}
				out[i] = d
			}
		}()
	}
feed:
	for i := range nodes {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// compileDevice builds one device's Resource-Database record. It only reads
// the shared model (overlays, allocation, collision-domain indexes) and
// writes the returned record, so many devices compile concurrently.
func (c *compiler) compileDevice(n core.NodeView) (*nidb.Device, error) {
	dt := n.DeviceType()
	platName := n.GetString(core.AttrPlatform, c.opts.DefaultPlatform)
	synName := n.GetString(core.AttrSyntax, c.opts.DefaultSyntax)
	host := n.GetString(core.AttrHost, c.opts.DefaultHost)
	plat, err := PlatformFor(platName)
	if err != nil {
		return nil, err
	}
	syn, err := SyntaxFor(synName)
	if err != nil {
		return nil, err
	}
	d := nidb.NewDevice(n.ID())
	hostname := plat.SanitizeHostname(n.Label())
	d.MustSet("hostname", hostname)
	d.MustSet("label", n.Label())
	d.MustSet("device_type", dt)
	d.MustSet("asn", n.ASN())
	d.MustSet("platform", platName)
	d.MustSet("syntax", synName)
	d.MustSet("host", host)

	if err := c.compileInterfaces(d, n, plat); err != nil {
		return nil, err
	}
	if dt == core.DeviceServer {
		if err := c.compileServerGateway(d, n); err != nil {
			return nil, err
		}
	}
	if dt == core.DeviceRouter {
		if err := c.compileZebra(d, hostname); err != nil {
			return nil, err
		}
		if err := c.compileOSPF(d, n); err != nil {
			return nil, err
		}
		if err := c.compileBGP(d, n); err != nil {
			return nil, err
		}
		if err := c.compileISIS(d, n); err != nil {
			return nil, err
		}
	}
	// Render metadata (§5.5).
	d.MustSet("render.base", syn.TemplateBase())
	d.MustSet("render.dst_folder", fmt.Sprintf("%s/%s/%s", host, platName, hostname))
	if err := syn.Finalize(d); err != nil {
		return nil, fmt.Errorf("compile: syntax %s on %s: %w", synName, n.ID(), err)
	}
	return d, nil
}

// indexCollisionDomains builds the neighbour-address and shared-domain maps
// from the ipv4 overlay.
func (c *compiler) indexCollisionDomains() {
	c.neighborIP = map[graph.ID]map[graph.ID]netip.Addr{}
	c.sharedCD = map[graph.ID]map[graph.ID]graph.ID{}
	ip := c.alloc.Overlay
	for _, cd := range ip.NodesWhere(core.AttrDeviceType, core.DeviceCollisionDomain) {
		members := cd.Neighbors()
		for _, a := range members {
			for _, b := range members {
				if a.ID() == b.ID() {
					continue
				}
				if c.neighborIP[a.ID()] == nil {
					c.neighborIP[a.ID()] = map[graph.ID]netip.Addr{}
					c.sharedCD[a.ID()] = map[graph.ID]graph.ID{}
				}
				if addr, ok := c.memberIP(cd.ID(), b.ID()); ok {
					c.neighborIP[a.ID()][b.ID()] = addr
					c.sharedCD[a.ID()][b.ID()] = cd.ID()
				}
			}
		}
	}
}

// memberIP returns a device's interface address on a collision domain.
func (c *compiler) memberIP(cd, dev graph.ID) (netip.Addr, bool) {
	ip := c.alloc.Overlay
	e := ip.Edge(cd, dev)
	if !e.IsValid() {
		e = ip.Edge(dev, cd)
	}
	if !e.IsValid() {
		return netip.Addr{}, false
	}
	addr, ok := e.Get(ipalloc.AttrIP).(netip.Addr)
	return addr, ok
}

// compileInterfaces assigns platform interface names to the device's
// collision-domain attachments and builds the interfaces tree.
func (c *compiler) compileInterfaces(d *nidb.Device, n core.NodeView, plat Platform) error {
	ip := c.alloc.Overlay
	ipNode := ip.Node(n.ID())
	var ifaces []any
	idx := 0
	if !ipNode.IsValid() {
		d.MustSet("interfaces", ifaces)
		return nil
	}
	for _, cd := range ipNode.Neighbors() {
		if cd.DeviceType() != core.DeviceCollisionDomain {
			continue
		}
		addr, ok := c.memberIP(cd.ID(), n.ID())
		if !ok {
			return fmt.Errorf("compile: %s has no address on %s", n.ID(), cd.ID())
		}
		network, _ := cd.Get(ipalloc.AttrNetwork).(netip.Prefix)
		// Description lists the far ends, like the paper's
		// "as100r1 to as100r3".
		var peers []string
		for _, m := range cd.Neighbors() {
			if m.ID() != n.ID() {
				peers = append(peers, string(m.ID()))
			}
		}
		desc := fmt.Sprintf("%s to %s", n.ID(), strings.Join(peers, ", "))
		ifaces = append(ifaces, map[string]any{
			"id":          plat.InterfaceName(idx),
			"index":       idx,
			"description": desc,
			"ip_address":  addr,
			"prefixlen":   network.Bits(),
			"network":     network,
			"cd":          string(cd.ID()),
			"ospf_cost":   c.ospfCostFor(n, cd),
		})
		idx++
	}
	d.MustSet("interfaces", ifaces)
	// Loopback data for routers.
	if lb, ok := ipNode.Get(ipalloc.AttrLoopback).(netip.Addr); ok {
		d.MustSet("loopback.ip", lb)
		d.MustSet("loopback.id", plat.LoopbackName())
	}
	return nil
}

// ospfCostFor derives the interface cost from the OSPF overlay: the maximum
// cost among this node's OSPF edges to other members of the collision
// domain, defaulting to 1.
func (c *compiler) ospfCostFor(n core.NodeView, cd core.NodeView) int {
	ospf := c.anm.Overlay(design.OverlayOSPF)
	if ospf == nil {
		return 1
	}
	cost := 1
	for _, m := range cd.Neighbors() {
		if m.ID() == n.ID() {
			continue
		}
		e := ospf.Edge(n.ID(), m.ID())
		if !e.IsValid() {
			e = ospf.Edge(m.ID(), n.ID())
		}
		if e.IsValid() {
			if v := e.GetInt(design.AttrCost, 1); v > cost {
				cost = v
			}
		}
	}
	return cost
}

// compileServerGateway points a server's default route at the first
// router sharing one of its collision domains (servers run no routing
// protocols; real deployments configure a static default gateway).
func (c *compiler) compileServerGateway(d *nidb.Device, n core.NodeView) error {
	ip := c.alloc.Overlay
	ipNode := ip.Node(n.ID())
	if !ipNode.IsValid() {
		return nil
	}
	for _, cd := range ipNode.Neighbors() {
		if cd.DeviceType() != core.DeviceCollisionDomain {
			continue
		}
		for _, m := range cd.Neighbors() {
			if m.ID() == n.ID() || m.DeviceType() != core.DeviceRouter {
				continue
			}
			if gw, ok := c.memberIP(cd.ID(), m.ID()); ok {
				d.MustSet("gateway", gw)
				return nil
			}
		}
	}
	return nil
}

// compileZebra fills the zebra daemon header (hostname + telnet password).
func (c *compiler) compileZebra(d *nidb.Device, hostname string) error {
	d.MustSet("zebra.hostname", hostname)
	d.MustSet("zebra.password", c.opts.ZebraPassword)
	return nil
}

// compileOSPF condenses the ospf overlay into the device tree: process id
// plus one ospf_link per attached collision-domain network (the §5.4
// listing's ospf_links), and the loopback as a stub network.
func (c *compiler) compileOSPF(d *nidb.Device, n core.NodeView) error {
	ospf := c.anm.Overlay(design.OverlayOSPF)
	if ospf == nil || !ospf.HasNode(n.ID()) {
		return nil
	}
	var links []any
	var passive []any
	area := 0
	for _, ifc := range interfaceList(d) {
		m := ifc.(map[string]any)
		network, _ := m["network"].(netip.Prefix)
		cdID := graph.ID(fmt.Sprint(m["cd"]))
		cdArea := c.ospfAreaFor(n, cdID)
		cost := 1
		if v, ok := m["ospf_cost"].(int); ok {
			cost = v
		}
		// Inter-AS attachments are advertised as stubs via
		// passive-interface: the subnet is reachable intra-AS, but no
		// adjacency leaks across the AS boundary.
		isPassive := !c.cdIntraAS(n, cdID)
		if isPassive {
			passive = append(passive, m["id"])
		}
		links = append(links, map[string]any{"network": network, "area": cdArea, "cost": cost, "passive": isPassive})
		if !isPassive {
			area = cdArea
		}
	}
	if lb, ok := d.Get("loopback.ip"); ok {
		addr := lb.(netip.Addr)
		links = append(links, map[string]any{"network": netip.PrefixFrom(addr, 32), "area": area, "cost": 1, "passive": false})
	}
	d.MustSet("ospf.process_id", c.opts.OSPFProcessID)
	d.MustSet("ospf.ospf_links", links)
	d.MustSet("ospf.passive_interfaces", passive)
	d.MustSet("ospf.backbone", ospf.Node(n.ID()).GetBool(design.AttrBackbone))
	return nil
}

// cdIntraAS reports whether a collision domain connects this node to at
// least one same-AS router (or is a stub with only this node).
func (c *compiler) cdIntraAS(n core.NodeView, cdID graph.ID) bool {
	cd := c.alloc.Overlay.Node(cdID)
	others := 0
	for _, m := range cd.Neighbors() {
		if m.ID() == n.ID() {
			continue
		}
		others++
		if m.ASN() == n.ASN() {
			return true
		}
	}
	return others == 0
}

// ospfAreaFor reads the area from the OSPF overlay edges crossing cd.
func (c *compiler) ospfAreaFor(n core.NodeView, cdID graph.ID) int {
	ospf := c.anm.Overlay(design.OverlayOSPF)
	if ospf == nil {
		return 0
	}
	cd := c.alloc.Overlay.Node(cdID)
	for _, m := range cd.Neighbors() {
		if m.ID() == n.ID() {
			continue
		}
		e := ospf.Edge(n.ID(), m.ID())
		if !e.IsValid() {
			e = ospf.Edge(m.ID(), n.ID())
		}
		if e.IsValid() {
			return e.GetInt(design.AttrArea, 0)
		}
	}
	return 0
}

// compileBGP condenses the ebgp and ibgp overlays into the device tree.
func (c *compiler) compileBGP(d *nidb.Device, n core.NodeView) error {
	ebgp := c.anm.Overlay(design.OverlayEBGP)
	ibgp := c.anm.Overlay(design.OverlayIBGP)
	hasE := ebgp != nil && ebgp.HasNode(n.ID()) && len(ebgp.Node(n.ID()).Edges()) > 0
	hasI := ibgp != nil && ibgp.HasNode(n.ID()) && len(ibgp.Node(n.ID()).Edges()) > 0
	if !hasE && !hasI {
		return nil
	}
	asn := n.ASN()
	d.MustSet("bgp.asn", asn)
	if lb, ok := d.Get("loopback.ip"); ok {
		d.MustSet("bgp.router_id", lb.(netip.Addr))
	}
	// Advertised networks: the AS infrastructure block plus the router's
	// loopback, plus any extra prefixes the design assigned via the
	// bgp_networks node attribute (used by service and gadget scenarios).
	var networks []any
	if block, ok := c.alloc.InfraBlocks[asn]; ok {
		networks = append(networks, block)
	}
	if lb, ok := d.Get("loopback.ip"); ok {
		networks = append(networks, netip.PrefixFrom(lb.(netip.Addr), 32))
	}
	switch extra := n.Get("bgp_networks").(type) {
	case []netip.Prefix:
		for _, p := range extra {
			networks = append(networks, p)
		}
	case []string:
		for _, s := range extra {
			p, err := netip.ParsePrefix(s)
			if err != nil {
				return fmt.Errorf("compile: %s: bad bgp_networks entry %q: %w", n.ID(), s, err)
			}
			networks = append(networks, p.Masked())
		}
	case nil:
	default:
		return fmt.Errorf("compile: %s: bgp_networks must be []string or []netip.Prefix, got %T", n.ID(), extra)
	}
	d.MustSet("bgp.networks", networks)

	var eNbrs []any
	if hasE {
		for _, e := range ebgp.Node(n.ID()).Edges() {
			peer := e.Dst()
			addr, ok := c.neighborIP[n.ID()][peer.ID()]
			if !ok {
				return fmt.Errorf("compile: eBGP session %s->%s has no shared collision domain", n.ID(), peer.ID())
			}
			med := e.GetInt("med", 0)
			entry := map[string]any{
				"ip":          addr,
				"remote_asn":  peer.ASN(),
				"description": fmt.Sprintf("eBGP to %s (AS%d)", peer.ID(), peer.ASN()),
				"med":         med,
				"local_pref":  e.GetInt("local_pref", 0),
				// Raw routing-policy configlet (§7.3): external tools'
				// policy output stored on the session edge passes through
				// the compiler and templates verbatim.
				"policy": e.GetString("policy", ""),
			}
			// C-BGP identifies routers by loopback; record the peer's for
			// its lab script.
			if peerLB, ok := c.alloc.Overlay.Node(peer.ID()).Get(ipalloc.AttrLoopback).(netip.Addr); ok {
				entry["peer_lo"] = peerLB
			}
			eNbrs = append(eNbrs, entry)
		}
	}
	d.MustSet("bgp.ebgp_neighbors", eNbrs)

	var iNbrs []any
	if hasI {
		for _, e := range ibgp.Node(n.ID()).Edges() {
			peer := e.Dst()
			peerLB, ok := c.alloc.Overlay.Node(peer.ID()).Get(ipalloc.AttrLoopback).(netip.Addr)
			if !ok {
				return fmt.Errorf("compile: iBGP peer %s has no loopback", peer.ID())
			}
			sessType := e.GetString(design.AttrSessionType, design.SessionPeer)
			iNbrs = append(iNbrs, map[string]any{
				"ip":            peerLB,
				"remote_asn":    asn,
				"description":   fmt.Sprintf("iBGP to %s", peer.ID()),
				"update_source": d.GetString("loopback.id", "lo"),
				// The peer is my route-reflector client when my session to
				// it points "down" the hierarchy.
				"rr_client": sessType == design.SessionDown,
			})
		}
	}
	d.MustSet("bgp.ibgp_neighbors", iNbrs)
	d.MustSet("bgp.route_reflector", ibgpIsRR(ibgp, n))
	return nil
}

func ibgpIsRR(ibgp *core.Overlay, n core.NodeView) bool {
	if ibgp == nil || !ibgp.HasNode(n.ID()) {
		return false
	}
	return ibgp.Node(n.ID()).GetBool(design.AttrRR)
}

// compileISIS condenses the isis overlay (§7: the ~15 compiler lines).
func (c *compiler) compileISIS(d *nidb.Device, n core.NodeView) error {
	isis := c.anm.Overlay(design.OverlayISIS)
	if isis == nil || !isis.HasNode(n.ID()) {
		return nil
	}
	lb, ok := d.Get("loopback.ip")
	if !ok {
		return fmt.Errorf("compile: IS-IS on %s requires a loopback", n.ID())
	}
	d.MustSet("isis.net", isisNET(n.ASN(), lb.(netip.Addr)))
	d.MustSet("isis.process", "ank")
	var enabled []any
	for _, ifc := range interfaceList(d) {
		m := ifc.(map[string]any)
		if c.cdIntraAS(n, graph.ID(fmt.Sprint(m["cd"]))) {
			enabled = append(enabled, m["id"])
		}
	}
	// The loopback joins the IS-IS process so its /32 is advertised (the
	// OSPF compiler's stub-network equivalent).
	enabled = append(enabled, d.GetString("loopback.id", "lo"))
	d.MustSet("isis.interfaces", enabled)
	return nil
}

// isisNET builds an ISO NET: 49.<asn as 4 hex digits>.<loopback as 12
// digits>.00.
func isisNET(asn int, lb netip.Addr) string {
	b := lb.As4()
	// Pad each loopback octet to 3 digits, then group the 12 digits into
	// three 4-digit clusters (the conventional loopback-derived system id).
	digits := fmt.Sprintf("%03d%03d%03d%03d", b[0], b[1], b[2], b[3])
	sysID := digits[0:4] + "." + digits[4:8] + "." + digits[8:12]
	return fmt.Sprintf("49.%04x.%s.00", asn, sysID)
}

// recordLinks writes device-level adjacencies (device, iface, cd) pairs
// into the database for deployment and measurement.
func (c *compiler) recordLinks() {
	ip := c.alloc.Overlay
	for _, cd := range ip.NodesWhere(core.AttrDeviceType, core.DeviceCollisionDomain) {
		members := cd.Neighbors()
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				a, b := members[i].ID(), members[j].ID()
				da, db := c.db.Device(a), c.db.Device(b)
				if da == nil || db == nil {
					continue
				}
				c.db.AddLink(nidb.Link{
					A: a, B: b,
					AIface: ifaceOnCD(da, cd.ID()),
					BIface: ifaceOnCD(db, cd.ID()),
					CD:     cd.ID(),
				})
			}
		}
	}
}

// ifaceOnCD finds the device's interface id attached to a collision domain.
func ifaceOnCD(d *nidb.Device, cd graph.ID) string {
	for _, ifc := range interfaceList(d) {
		m := ifc.(map[string]any)
		if fmt.Sprint(m["cd"]) == string(cd) {
			return fmt.Sprint(m["id"])
		}
	}
	return ""
}
