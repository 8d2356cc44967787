// Package design implements the paper's network design rules (§4.2.1): the
// algebraic construction of protocol overlays from the annotated input
// topology. Each rule is a few lines over the core API — eq. (1) builds
// OSPF from intra-AS physical edges, eq. (2) the iBGP full mesh from the
// node product, eq. (3) eBGP from inter-AS physical edges — plus the §7
// extensions: IS-IS, and attribute- or centrality-driven route-reflector
// hierarchies.
//
// Because rules read only the input overlay, the same rules apply unchanged
// to any input topology (§6: "the same pieces of code can be used
// immediately on much larger topologies").
package design

import (
	"fmt"
	"sort"

	"autonetkit/internal/core"
	"autonetkit/internal/graph"
)

// Overlay names created by the design rules.
const (
	OverlayOSPF = "ospf"
	OverlayEBGP = "ebgp"
	OverlayIBGP = "ibgp"
	OverlayISIS = "isis"
)

// Attribute keys used by the routing design rules.
const (
	AttrArea        = "area"         // OSPF area (edge + node)
	AttrCost        = "ospf_cost"    // OSPF interface cost (edge)
	AttrBackbone    = "backbone"     // OSPF backbone router flag (node)
	AttrRR          = "rr"           // route reflector flag (node)
	AttrRRCluster   = "rr_cluster"   // optional RR cluster id (node)
	AttrSessionType = "session_type" // iBGP edge: "peer", "up" (client->rr), "down" (rr->client)
)

// iBGP session types.
const (
	SessionPeer = "peer"
	SessionUp   = "up"   // client -> route reflector
	SessionDown = "down" // route reflector -> client
)

// BuildPhy populates the physical overlay from the input overlay, retaining
// the standard attributes and the physical edges — the paper's §6.1
// walkthrough steps 5–6.
func BuildPhy(anm *core.ANM) (*core.Overlay, error) {
	in := anm.Overlay(core.OverlayInput)
	if in == nil {
		return nil, fmt.Errorf("design: no input overlay")
	}
	phy := anm.Overlay(core.OverlayPhy)
	if phy == nil {
		var err error
		phy, err = anm.AddOverlay(core.OverlayPhy)
		if err != nil {
			return nil, err
		}
	}
	phy.AddNodesFrom(in.Nodes(),
		core.AttrDeviceType, core.AttrASN, core.AttrPlatform, core.AttrHost, core.AttrSyntax, core.AttrLabel,
		"bgp_networks")
	phy.AddEdgesFromWhere(in.Edges(), func(e core.EdgeView) bool {
		return e.GetString("type", "physical") == "physical"
	}, core.EdgeOpts{Retain: []string{AttrCost, AttrArea}})
	return phy, nil
}

// OSPF builds the OSPF overlay: eq. (1),
// E_ospf = {(i,j) in E_in | asn(i) == asn(j)}, routers only. Edge costs
// default to 1 and areas to 0; both are overridable from input attributes.
// Routers with an edge in area 0 are marked backbone (§5.2.2 example).
func OSPF(anm *core.ANM) (*core.Overlay, error) {
	in := anm.Overlay(core.OverlayInput)
	if in == nil {
		return nil, fmt.Errorf("design: no input overlay")
	}
	if anm.HasOverlay(OverlayOSPF) {
		anm.RemoveOverlay(OverlayOSPF)
	}
	ospf, err := anm.AddOverlay(OverlayOSPF)
	if err != nil {
		return nil, err
	}
	ospf.AddNodesFrom(in.Routers(), core.AttrASN)
	ospf.AddEdgesFromWhere(in.Edges(), func(e core.EdgeView) bool {
		return e.Src().IsRouter() && e.Dst().IsRouter() && e.Src().ASN() == e.Dst().ASN()
	}, core.EdgeOpts{Retain: []string{AttrCost, AttrArea}})
	for _, e := range ospf.Edges() {
		if e.Get(AttrCost) == nil {
			_ = e.Set(AttrCost, 1)
		}
		if e.Get(AttrArea) == nil {
			_ = e.Set(AttrArea, 0)
		}
	}
	// Backbone marking (the paper's nested-iteration example).
	for _, n := range ospf.Nodes() {
		for _, e := range n.Edges() {
			if e.GetInt(AttrArea, -1) == 0 {
				n.MustSet(AttrBackbone, true)
				break
			}
		}
	}
	return ospf, nil
}

// EBGP builds the eBGP overlay: eq. (3),
// E_ebgp = {(i,j) in E_in | asn(i) != asn(j)}, as a directed overlay with
// both session directions (the paper's directed=1, bidirected=1).
func EBGP(anm *core.ANM) (*core.Overlay, error) {
	in := anm.Overlay(core.OverlayInput)
	if in == nil {
		return nil, fmt.Errorf("design: no input overlay")
	}
	if anm.HasOverlay(OverlayEBGP) {
		anm.RemoveOverlay(OverlayEBGP)
	}
	ebgp, err := anm.AddOverlayDirected(OverlayEBGP)
	if err != nil {
		return nil, err
	}
	ebgp.AddNodesFrom(in.Routers(), core.AttrASN)
	ebgp.AddEdgesFromWhere(in.Edges(), func(e core.EdgeView) bool {
		return e.Src().IsRouter() && e.Dst().IsRouter() && e.Src().ASN() != e.Dst().ASN()
	}, core.EdgeOpts{Bidirected: true, Retain: []string{"med", "local_pref", "policy"}})
	return ebgp, nil
}

// IBGPFullMesh builds the iBGP overlay: eq. (2),
// E_ibgp = {(i,j) in N x N | i != j, asn(i) == asn(j)}, directed.
func IBGPFullMesh(anm *core.ANM) (*core.Overlay, error) {
	in := anm.Overlay(core.OverlayInput)
	if in == nil {
		return nil, fmt.Errorf("design: no input overlay")
	}
	if anm.HasOverlay(OverlayIBGP) {
		anm.RemoveOverlay(OverlayIBGP)
	}
	ibgp, err := anm.AddOverlayDirected(OverlayIBGP)
	if err != nil {
		return nil, err
	}
	rtrs := in.Routers()
	ibgp.AddNodesFrom(rtrs, core.AttrASN)
	// Bucket by ASN once; walking each source's own bucket emits the pairs
	// in the (s in router order, d in router order) sequence an N×N scan
	// would, so the overlay's edge order does not depend on the bucketing.
	asnOf := make([]int, len(rtrs))
	byASN := map[int][]graph.ID{}
	for i, n := range rtrs {
		asnOf[i] = n.ASN()
		byASN[asnOf[i]] = append(byASN[asnOf[i]], n.ID())
	}
	var pairs [][2]graph.ID
	for i, s := range rtrs {
		for _, d := range byASN[asnOf[i]] {
			if d != s.ID() {
				pairs = append(pairs, [2]graph.ID{s.ID(), d})
			}
		}
	}
	ibgp.AddEdgePairs(pairs, core.EdgeOpts{Attrs: graph.Attrs{AttrSessionType: SessionPeer}})
	return ibgp, nil
}

// RROptions controls route-reflector hierarchy construction (§7.1).
type RROptions struct {
	// PerAS is the number of route reflectors to auto-select per AS by
	// centrality when no node carries the rr attribute. Default 2
	// (or 1 for ASes with fewer than 2 routers).
	PerAS int
	// Centrality picks the selection metric: "degree" (default, the
	// paper's §7.1 example) or "betweenness".
	Centrality string
}

// IBGPRouteReflectors builds a hierarchical iBGP overlay (§7.1). Nodes with
// the boolean rr attribute set in the input are reflectors; if an AS has no
// marked reflectors, the most-central routers (degree centrality over the
// intra-AS physical subgraph, deterministic tie-break) are selected
// automatically. Sessions: rr<->rr full mesh ("peer"), and for each
// (rr, client) pair a "down" session rr->client plus an "up" session
// client->rr — a hierarchy congruent with the physical network.
func IBGPRouteReflectors(anm *core.ANM, opts RROptions) (*core.Overlay, error) {
	in := anm.Overlay(core.OverlayInput)
	if in == nil {
		return nil, fmt.Errorf("design: no input overlay")
	}
	if opts.PerAS <= 0 {
		opts.PerAS = 2
	}
	if anm.HasOverlay(OverlayIBGP) {
		anm.RemoveOverlay(OverlayIBGP)
	}
	ibgp, err := anm.AddOverlayDirected(OverlayIBGP)
	if err != nil {
		return nil, err
	}
	rtrs := in.Routers()
	ibgp.AddNodesFrom(rtrs, core.AttrASN, AttrRR)

	byASN := map[int][]core.NodeView{}
	var asns []int
	for _, n := range rtrs {
		asn := n.ASN()
		if _, ok := byASN[asn]; !ok {
			asns = append(asns, asn)
		}
		byASN[asn] = append(byASN[asn], n)
	}
	sort.Ints(asns)

	for _, asn := range asns {
		members := byASN[asn]
		var rrs, clients []graph.ID
		for _, n := range members {
			if n.GetBool(AttrRR) {
				rrs = append(rrs, n.ID())
			}
		}
		if len(rrs) == 0 {
			rrs = autoSelectRRs(in, members, opts.PerAS, opts.Centrality)
			for _, id := range rrs {
				ibgp.Node(id).MustSet(AttrRR, true)
			}
		}
		rrSet := map[graph.ID]bool{}
		for _, id := range rrs {
			rrSet[id] = true
		}
		for _, n := range members {
			if !rrSet[n.ID()] {
				clients = append(clients, n.ID())
			}
		}
		// rr <-> rr full mesh.
		for _, a := range rrs {
			for _, b := range rrs {
				if a != b {
					ibgp.AddEdge(a, b, graph.Attrs{AttrSessionType: SessionPeer})
				}
			}
		}
		// rr <-> client sessions. A client carrying the rr_cluster
		// attribute peers only with the named reflector (its cluster);
		// otherwise it peers with every reflector in the AS.
		for _, c := range clients {
			cluster := in.Node(c).GetString(AttrRRCluster, "")
			for _, rr := range rrs {
				if cluster != "" && cluster != string(rr) {
					continue
				}
				ibgp.AddEdge(rr, c, graph.Attrs{AttrSessionType: SessionDown})
				ibgp.AddEdge(c, rr, graph.Attrs{AttrSessionType: SessionUp})
			}
		}
	}
	return ibgp, nil
}

// autoSelectRRs picks the k most-central members of an AS over the
// intra-AS physical subgraph — the unwrap_graph + centrality pattern of
// §7.1, with the metric selectable.
func autoSelectRRs(in *core.Overlay, members []core.NodeView, k int, centrality string) []graph.ID {
	ids := make([]graph.ID, len(members))
	for i, m := range members {
		ids[i] = m.ID()
	}
	sub := in.Graph().Subgraph(ids) // unwrap_graph
	var scores map[graph.ID]float64
	switch centrality {
	case "betweenness":
		scores = sub.BetweennessCentrality()
	default:
		scores = sub.DegreeCentrality()
	}
	if k > len(ids) {
		k = len(ids)
	}
	if k < 1 {
		k = 1
	}
	return graph.TopKByCentrality(scores, k)
}

// ISIS builds the IS-IS overlay (§7: "Basic IS-IS support requires 2 lines
// of design code"). The rule is exactly two statements: copy the routers,
// then copy the intra-AS physical edges.
func ISIS(anm *core.ANM) (*core.Overlay, error) {
	in := anm.Overlay(core.OverlayInput)
	if in == nil {
		return nil, fmt.Errorf("design: no input overlay")
	}
	if anm.HasOverlay(OverlayISIS) {
		anm.RemoveOverlay(OverlayISIS)
	}
	isis, err := anm.AddOverlayDirected(OverlayISIS)
	if err != nil {
		return nil, err
	}
	// -- the two design-rule lines (E7 counts these) --
	isis.AddNodesFrom(in.Routers(), core.AttrASN)
	isis.AddEdgesFromWhere(in.Edges(), func(e core.EdgeView) bool { return e.Src().ASN() == e.Dst().ASN() }, core.EdgeOpts{Bidirected: true})
	// -- end design rule --
	return isis, nil
}

// IGP selects the interior gateway protocol BuildAll configures.
type IGP string

// Supported IGPs.
const (
	IGPOSPF IGP = "ospf"
	IGPISIS IGP = "isis"
)

// Options selects which overlays BuildAll constructs.
type Options struct {
	// RouteReflectors switches iBGP from full mesh (eq. 2) to the §7.1
	// hierarchy.
	RouteReflectors bool
	RROptions       RROptions
	// ISIS additionally builds the IS-IS overlay (alongside the IGP).
	ISIS bool
	// IGP selects the interior protocol: IGPOSPF (default) or IGPISIS
	// (§7: the same pipeline with the two-line IS-IS rule substituted).
	IGP IGP
}

// BuildAll runs the standard design chain of the §6.1 walkthrough:
// phy, igp, ebgp and ibgp overlays from the input overlay.
func BuildAll(anm *core.ANM, opts Options) error {
	if _, err := BuildPhy(anm); err != nil {
		return err
	}
	if opts.IGP == IGPISIS {
		if _, err := ISIS(anm); err != nil {
			return err
		}
	} else if _, err := OSPF(anm); err != nil {
		return err
	}
	if _, err := EBGP(anm); err != nil {
		return err
	}
	if opts.RouteReflectors {
		if _, err := IBGPRouteReflectors(anm, opts.RROptions); err != nil {
			return err
		}
	} else {
		if _, err := IBGPFullMesh(anm); err != nil {
			return err
		}
	}
	if opts.ISIS && opts.IGP != IGPISIS {
		if _, err := ISIS(anm); err != nil {
			return err
		}
	}
	return nil
}
