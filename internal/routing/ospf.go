package routing

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
)

// The OSPF engine: routers whose configurations advertise the same subnet
// (via `network` statements) and share that subnet on an interface become
// adjacent. Each router then runs Dijkstra over the resulting link-state
// view and installs one route per advertised prefix.
//
// Simplifications versus a full OSPFv2 implementation, none of which
// affect the experiments: areas are honoured as labels but SPF runs over
// the whole domain (all labs use backbone-only or congruent areas); no
// designated-router election (collision domains are modelled directly);
// timers are not simulated (the engine computes the converged state).
//
// A domain keeps the previous Converge's canonical edge set, per-router
// advertisement signatures and per-source distance vectors, and a
// re-Converge (after Rebind) runs Dijkstra only for the sources whose
// shortest-path tree a diffed change can touch (delta SPF). The
// recomputation itself is the exact same Dijkstra, so the surviving and
// recomputed route tables are byte-identical to those of a freshly built
// domain, whose first Converge is a full SPF.

// OSPFNeighbor is one adjacency, as reported by `show ip ospf neighbor`.
type OSPFNeighbor struct {
	Hostname string
	RouterID netip.Addr
	Addr     netip.Addr // neighbor's address on the shared subnet
	Iface    string     // local interface
	Area     int
}

// OSPFDomain computes link-state routing for a set of device configs that
// share an OSPF domain (one AS).
type OSPFDomain struct {
	devices map[string]*DeviceConfig
	order   []string

	neighbors map[string][]OSPFNeighbor
	routes    map[string][]Route

	// pert, when set, can suppress adjacency formation (lossy links drop
	// enough hellos that the adjacency never comes up); nil leaves the
	// flooding path perfect.
	pert Perturber

	// Delta-SPF state. prevEdges/prevAdvert are the canonical link-state
	// view of the previous Converge (nil before the first); dist holds each
	// source's full distance vector so affected-source tests and future
	// diffs stay O(changes × sources).
	prevEdges  map[edgeKey]edgeVal
	prevAdvert map[string]uint64
	dist       map[string]map[string]int

	// Per-Converge outcome: which sources' route tables changed, and the
	// recompute/skip split for observability.
	changedSrc     map[string]bool
	statRecomputed int
	statSkipped    int
	statDelta      bool
}

// SetPerturber installs a control-plane perturbation layer consulted
// during Converge; nil restores perfect hello delivery. Install before
// Converge.
func (d *OSPFDomain) SetPerturber(p Perturber) { d.pert = p }

// NewOSPFDomain builds the domain from the participating devices.
func NewOSPFDomain(devices []*DeviceConfig) *OSPFDomain {
	d := &OSPFDomain{
		devices:   map[string]*DeviceConfig{},
		neighbors: map[string][]OSPFNeighbor{},
		routes:    map[string][]Route{},
	}
	d.bind(devices)
	return d
}

func (d *OSPFDomain) bind(devices []*DeviceConfig) {
	d.devices = map[string]*DeviceConfig{}
	d.order = d.order[:0]
	for _, dc := range devices {
		if dc.OSPF == nil {
			continue
		}
		d.devices[dc.Hostname] = dc
		d.order = append(d.order, dc.Hostname)
	}
	sort.Strings(d.order)
}

// Rebind replaces the domain's device set (after an incident mutated the
// configs or the live-device list changed) while keeping the delta-SPF
// state, so the next Converge diffs against the previous one. The device
// configs are matched by content, not pointer identity.
func (d *OSPFDomain) Rebind(devices []*DeviceConfig) { d.bind(devices) }

// ospfIfaces returns the interfaces of a device that fall inside one of its
// OSPF network statements, with the matching area.
func ospfIfaces(dc *DeviceConfig) []struct {
	ic   InterfaceConfig
	area int
} {
	var out []struct {
		ic   InterfaceConfig
		area int
	}
	for _, ic := range dc.Interfaces {
		for _, n := range dc.OSPF.Networks {
			if n.Prefix == ic.Prefix || (n.Prefix.Contains(ic.Addr) && n.Prefix.Bits() <= ic.Prefix.Bits()) {
				out = append(out, struct {
					ic   InterfaceConfig
					area int
				}{ic, n.Area})
				break
			}
		}
	}
	return out
}

// nbrLink is one directed adjacency used by the SPF: cost is the outgoing
// interface cost, nextHop the neighbor's address on the shared subnet.
type nbrLink struct {
	to      string
	cost    int
	viaIf   string
	nextHop netip.Addr
}

// Converge computes adjacencies and per-router routes. Adjacency
// formation (including perturber consultation) always runs in full, so
// the edge set and neighbor tables never depend on the previous Converge;
// only the per-source Dijkstra + route-install work is skipped for sources
// the diffed changes cannot affect.
func (d *OSPFDomain) Converge() error {
	// Neighbor tables are rebuilt from scratch every converge (a reused
	// domain must not accumulate duplicates).
	d.neighbors = map[string][]OSPFNeighbor{}

	// Subnet -> attached (hostname, iface, area).
	type attach struct {
		host string
		ic   InterfaceConfig
		area int
	}
	bySubnet := map[netip.Prefix][]attach{}
	for _, host := range d.order {
		dc := d.devices[host]
		for _, x := range ospfIfaces(dc) {
			bySubnet[x.ic.Prefix] = append(bySubnet[x.ic.Prefix], attach{host, x.ic, x.area})
		}
	}
	// Adjacencies: all pairs on a shared advertised subnet.
	subnets := make([]netip.Prefix, 0, len(bySubnet))
	for p := range bySubnet {
		subnets = append(subnets, p)
	}
	sort.Slice(subnets, func(i, j int) bool { return subnets[i].Addr().Less(subnets[j].Addr()) })
	adj := map[string][]nbrLink{}
	newEdges := map[edgeKey]edgeVal{}
	for _, p := range subnets {
		atts := bySubnet[p]
		for i := 0; i < len(atts); i++ {
			for j := i + 1; j < len(atts); j++ {
				if atts[i].host == atts[j].host {
					continue
				}
				// Passive interfaces advertise the subnet but form no
				// adjacency (eBGP-facing links).
				if atts[i].ic.Passive || atts[j].ic.Passive {
					continue
				}
				// A perturbed (lossy) link can drop enough hellos that the
				// adjacency never forms.
				if d.pert != nil && !d.pert.AdjacencyUp(atts[i].host, atts[j].host) {
					continue
				}
				a, b := atts[i], atts[j]
				d.neighbors[a.host] = append(d.neighbors[a.host], OSPFNeighbor{
					Hostname: b.host, RouterID: d.routerID(b.host),
					Addr: b.ic.Addr, Iface: a.ic.Name, Area: a.area,
				})
				d.neighbors[b.host] = append(d.neighbors[b.host], OSPFNeighbor{
					Hostname: a.host, RouterID: d.routerID(a.host),
					Addr: a.ic.Addr, Iface: b.ic.Name, Area: b.area,
				})
				ca, cb := a.ic.Cost, b.ic.Cost
				if ca <= 0 {
					ca = 1
				}
				if cb <= 0 {
					cb = 1
				}
				adj[a.host] = append(adj[a.host], nbrLink{b.host, ca, a.ic.Name, b.ic.Addr})
				adj[b.host] = append(adj[b.host], nbrLink{a.host, cb, b.ic.Name, a.ic.Addr})
				k := edgeKey{a: a.host, b: b.host, aIf: a.ic.Name, bIf: b.ic.Name, prefix: p}
				for {
					if _, dup := newEdges[k]; !dup {
						break
					}
					k.n++
				}
				newEdges[k] = edgeVal{ca: ca, cb: cb, aAddr: a.ic.Addr, bAddr: b.ic.Addr}
			}
		}
	}
	newAdvert := map[string]uint64{}
	for _, host := range d.order {
		newAdvert[host] = advertSignature(d.devices[host])
	}

	affected := d.affectedSources(newEdges, newAdvert)
	d.changedSrc = map[string]bool{}
	d.statRecomputed, d.statSkipped = 0, 0
	d.statDelta = affected != nil
	if d.dist == nil {
		d.dist = map[string]map[string]int{}
	}
	for _, src := range d.order {
		if affected != nil && !affected[src] {
			d.statSkipped++
			continue
		}
		d.statRecomputed++
		dist, first := d.spf(src, adj)
		routes := d.buildRoutes(src, dist, first)
		if !routesEqual(d.routes[src], routes) {
			d.changedSrc[src] = true
		}
		d.routes[src] = routes
		d.dist[src] = dist
	}
	// Sources that left the domain: drop their state and mark them changed
	// (their route tables went away).
	for src := range d.dist {
		if _, ok := d.devices[src]; !ok {
			delete(d.dist, src)
			if _, had := d.routes[src]; had {
				delete(d.routes, src)
				d.changedSrc[src] = true
			}
		}
	}
	d.prevEdges, d.prevAdvert = newEdges, newAdvert
	return nil
}

// firstHop is a source's (next hop, outgoing interface) toward a
// destination router.
type firstHop struct {
	nextHop netip.Addr
	outIf   string
}

// spf runs the domain's deterministic Dijkstra from one source, returning
// the distance vector and first-hop map: the one SPF, whether every source
// runs it or only the affected ones.
func (d *OSPFDomain) spf(src string, adj map[string][]nbrLink) (map[string]int, map[string]firstHop) {
	dist := map[string]int{src: 0}
	first := map[string]firstHop{}
	visited := map[string]bool{}
	for {
		// Deterministic minimum selection.
		cur, curDist := "", -1
		for h, ds := range dist {
			if visited[h] {
				continue
			}
			if curDist < 0 || ds < curDist || (ds == curDist && h < cur) {
				cur, curDist = h, ds
			}
		}
		if cur == "" {
			break
		}
		visited[cur] = true
		links := adj[cur]
		sort.Slice(links, func(i, j int) bool { return links[i].to < links[j].to })
		for _, l := range links {
			nd := curDist + l.cost
			old, seen := dist[l.to]
			if !seen || nd < old {
				dist[l.to] = nd
				if cur == src {
					first[l.to] = firstHop{l.nextHop, l.viaIf}
				} else {
					first[l.to] = first[cur]
				}
			}
		}
	}
	return dist, first
}

// buildRoutes installs one route per advertised prefix of every reachable
// router, deduplicated to the lowest metric per prefix and sorted by
// (address, length): a total order, which the FIB merge relies on.
func (d *OSPFDomain) buildRoutes(src string, dist map[string]int, first map[string]firstHop) []Route {
	var routes []Route
	srcDC := d.devices[src]
	for _, dst := range d.order {
		if dst == src {
			continue
		}
		total, reachable := dist[dst]
		if !reachable {
			continue
		}
		fh := first[dst]
		for _, x := range ospfIfaces(d.devices[dst]) {
			// Skip prefixes the source is directly attached to.
			if srcAttached(srcDC, x.ic.Prefix) {
				continue
			}
			routes = append(routes, Route{
				Prefix:  x.ic.Prefix,
				NextHop: fh.nextHop,
				OutIf:   fh.outIf,
				Origin:  OriginOSPF,
				Metric:  total + x.ic.Cost,
			})
		}
	}
	// Deduplicate to lowest metric per prefix.
	best := map[netip.Prefix]Route{}
	for _, rt := range routes {
		if old, ok := best[rt.Prefix]; !ok || rt.Metric < old.Metric {
			best[rt.Prefix] = rt
		}
	}
	var final []Route
	prefixes := make([]netip.Prefix, 0, len(best))
	for p := range best {
		prefixes = append(prefixes, p)
	}
	slices.SortFunc(prefixes, ComparePrefix)
	for _, p := range prefixes {
		final = append(final, best[p])
	}
	return final
}

// affectedSources diffs the new canonical link-state view against the
// previous converge's and returns the set of sources whose SPF must
// re-run. nil means "no previous Converge" — recompute everyone.
//
// A source S is affected by an edge (u,v) appearing, disappearing or
// changing value when the edge is (or was) tight enough to matter from
// S's viewpoint: dist_S(u)+cost(u→v) <= dist_S(v) in either direction,
// with a missing distance treated as infinity. The comparison is <=, not
// <, because an exactly-tight edge can flip the deterministic first-hop
// tie-break even when no distance changes. A changed advertisement
// signature on router R affects every source that reaches R (and R
// itself, whose own srcAttached suppression set may have changed).
func (d *OSPFDomain) affectedSources(newEdges map[edgeKey]edgeVal, newAdvert map[string]uint64) map[string]bool {
	if d.prevEdges == nil {
		return nil
	}
	affected := map[string]bool{}
	markEdge := func(k edgeKey, v edgeVal) {
		for _, src := range d.order {
			if affected[src] {
				continue
			}
			sd := d.dist[src]
			du, okU := sd[k.a]
			dv, okV := sd[k.b]
			if (okU && (!okV || du+v.ca <= dv)) || (okV && (!okU || dv+v.cb <= du)) {
				affected[src] = true
			}
		}
	}
	for k, ov := range d.prevEdges {
		if nv, ok := newEdges[k]; !ok || nv != ov {
			markEdge(k, ov)
		}
	}
	for k, nv := range newEdges {
		if ov, ok := d.prevEdges[k]; !ok || nv != ov {
			markEdge(k, nv)
		}
	}
	markReach := func(host string) {
		for _, src := range d.order {
			if affected[src] {
				continue
			}
			if _, ok := d.dist[src][host]; ok {
				affected[src] = true
			}
		}
	}
	for h, oh := range d.prevAdvert {
		if nh, ok := newAdvert[h]; !ok || nh != oh {
			markReach(h)
		}
	}
	for h, nh := range newAdvert {
		if oh, ok := d.prevAdvert[h]; !ok || nh != oh {
			markReach(h)
		}
	}
	// Sources with no recorded distance vector are new to the domain.
	for _, src := range d.order {
		if _, ok := d.dist[src]; !ok {
			affected[src] = true
		}
	}
	return affected
}

// ChangedSources returns the sources whose route tables changed during the
// most recent Converge (including sources that left the domain): the
// speakers whose next-hop costs a BGP engine's Rebind must forget.
func (d *OSPFDomain) ChangedSources() map[string]bool {
	out := make(map[string]bool, len(d.changedSrc))
	for h := range d.changedSrc {
		out[h] = true
	}
	return out
}

// DeltaStats reports the most recent Converge's SPF split: how many
// sources were recomputed, how many skipped, and whether the run actually
// took the delta path (false for a domain's first Converge).
func (d *OSPFDomain) DeltaStats() (recomputed, skipped int, delta bool) {
	return d.statRecomputed, d.statSkipped, d.statDelta
}

func srcAttached(dc *DeviceConfig, p netip.Prefix) bool {
	for _, ic := range dc.Interfaces {
		if ic.Prefix == p {
			return true
		}
	}
	return false
}

func (d *OSPFDomain) routerID(host string) netip.Addr {
	dc := d.devices[host]
	if dc.HasLoopback() {
		return dc.Loopback
	}
	if len(dc.Interfaces) > 0 {
		return dc.Interfaces[0].Addr
	}
	return netip.Addr{}
}

// Neighbors returns a router's adjacencies (the emulated `show ip ospf
// neighbor`).
func (d *OSPFDomain) Neighbors(host string) []OSPFNeighbor {
	out := make([]OSPFNeighbor, len(d.neighbors[host]))
	copy(out, d.neighbors[host])
	sort.Slice(out, func(i, j int) bool { return out[i].Hostname < out[j].Hostname })
	return out
}

// Routes returns a router's computed OSPF routes.
func (d *OSPFDomain) Routes(host string) []Route { return d.routes[host] }

// IGPCost returns the metric from a router to an address (used by the BGP
// decision process's IGP tie-break): the metric of the best route covering
// the address, 0 when directly connected, -1 when unreachable.
func (d *OSPFDomain) IGPCost(host string, addr netip.Addr) int {
	dc, ok := d.devices[host]
	if !ok {
		return -1
	}
	for _, ic := range dc.Interfaces {
		if ic.Prefix.Contains(addr) {
			return 0
		}
	}
	if dc.HasLoopback() && dc.Loopback == addr {
		return 0
	}
	best := -1
	for _, rt := range d.routes[host] {
		if rt.Prefix.Contains(addr) {
			if best < 0 || rt.Metric < best {
				best = rt.Metric
			}
		}
	}
	return best
}

// String summarises the domain.
func (d *OSPFDomain) String() string {
	return fmt.Sprintf("ospf-domain(%d routers)", len(d.order))
}

// isisSynthConfigs maps IS-IS configurations onto synthesized OSPF-shaped
// configs: advertised networks are the subnets of the IS-IS-enabled
// interfaces plus the loopback, metrics come from the interface costs.
func isisSynthConfigs(devices []*DeviceConfig) []*DeviceConfig {
	var synth []*DeviceConfig
	for _, dc := range devices {
		if dc.ISIS == nil {
			continue
		}
		enabled := map[string]bool{"lo": true}
		for _, name := range dc.ISIS.Interfaces {
			enabled[name] = true
		}
		clone := &DeviceConfig{
			Hostname: dc.Hostname,
			Loopback: dc.Loopback,
			OSPF:     &OSPFConfig{ProcessID: 0},
		}
		for _, ic := range dc.Interfaces {
			clone.Interfaces = append(clone.Interfaces, ic)
			if enabled[ic.Name] {
				clone.OSPF.Networks = append(clone.OSPF.Networks, OSPFNetwork{Prefix: ic.Prefix, Area: 0})
			}
		}
		synth = append(synth, clone)
	}
	return synth
}

// NewISISDomain maps IS-IS configurations onto the link-state engine: both
// protocols compute SPF over shared-subnet adjacencies, so an IS-IS domain
// is an OSPFDomain over synthesized configs (see isisSynthConfigs).
func NewISISDomain(devices []*DeviceConfig) *OSPFDomain {
	return NewOSPFDomain(isisSynthConfigs(devices))
}

// RebindISIS is Rebind for IS-IS domains: the device set is re-synthesized
// from the current IS-IS configs and rebound, keeping the delta-SPF state.
func (d *OSPFDomain) RebindISIS(devices []*DeviceConfig) {
	d.Rebind(isisSynthConfigs(devices))
}
