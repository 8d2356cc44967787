package dataplane

import (
	"fmt"
	"net/netip"
	"strings"
)

// Node is one forwarding element: its addresses and its FIB.
type Node struct {
	Hostname string
	// Addrs maps every local address to the owning interface name.
	Addrs map[netip.Addr]string
	FIB   *FIB
}

// NewNode returns an empty node.
func NewNode(hostname string) *Node {
	return &Node{Hostname: hostname, Addrs: map[netip.Addr]string{}, FIB: NewFIB()}
}

// AddAddr registers a local address.
func (n *Node) AddAddr(a netip.Addr, iface string) { n.Addrs[a] = iface }

// IsLocal reports whether addr terminates at this node.
func (n *Node) IsLocal(addr netip.Addr) bool { _, ok := n.Addrs[addr]; return ok }

// Network is the emulated forwarding plane: all nodes, numbered densely in
// AddNode order, plus the global address ownership map (which models L2
// delivery on shared subnets).
type Network struct {
	nodes []*Node
	index map[string]int32
	owner map[netip.Addr]int32
}

// NewNetwork returns an empty plane.
func NewNetwork() *Network {
	return &Network{index: map[string]int32{}, owner: map[netip.Addr]int32{}}
}

// AddNode registers a node, indexes its addresses and freezes it: every
// distinct next hop of its FIB is resolved to the neighbour it leaves
// through, and neither the FIB nor Addrs may change afterwards. What is
// frozen depends on the node alone, so a node may be registered with later
// Networks as it is, and a lab's next generation carries over every node
// whose entries (FIB.Holds) and addresses did not change; who owns the
// neighbour's address is looked up per Network.
func (net *Network) AddNode(n *Node) error {
	if _, dup := net.index[n.Hostname]; dup {
		return fmt.Errorf("dataplane: duplicate node %q", n.Hostname)
	}
	at := int32(len(net.nodes))
	net.index[n.Hostname] = at
	net.nodes = append(net.nodes, n)
	for a := range n.Addrs {
		if prev, dup := net.owner[a]; dup {
			return fmt.Errorf("dataplane: address %v on both %s and %s", a, net.nodes[prev].Hostname, n.Hostname)
		}
		net.owner[a] = at
	}
	n.FIB.freeze()
	return nil
}

// Node returns a registered node.
func (net *Network) Node(hostname string) (*Node, bool) {
	at, ok := net.index[hostname]
	if !ok {
		return nil, false
	}
	return net.nodes[at], true
}

// Index returns a registered node's number, its position in HopCounts.
func (net *Network) Index(hostname string) (int, bool) {
	at, ok := net.index[hostname]
	return int(at), ok
}

// Owner returns the node owning an address.
func (net *Network) Owner(addr netip.Addr) (string, bool) {
	at, ok := net.owner[addr]
	if !ok {
		return "", false
	}
	return net.nodes[at].Hostname, true
}

// maxResolveDepth bounds recursive next-hop resolution (BGP routes whose
// next hop is reached via an IGP route).
const maxResolveDepth = 4

// deadEnd says why a node cannot forward towards an address; the zero value
// says it can. Forward renders it into TraceResult.Reason; HopCounts only
// asks whether there is one, so the ping path formats nothing.
type deadEnd struct {
	kind  int
	addr  netip.Addr // the address that did not resolve (noRoute, tooDeep)
	route *FIBEntry  // the route without a next hop (noNextHop)
}

const (
	noRoute = iota + 1
	noNextHop
	tooDeep
)

func (d deadEnd) reason(host string) string {
	switch d.kind {
	case noRoute:
		return fmt.Sprintf("dataplane: %s: no route to %v", host, d.addr)
	case noNextHop:
		return fmt.Sprintf("dataplane: %s: route %v has no next hop", host, d.route.Prefix)
	}
	return fmt.Sprintf("dataplane: %s: next-hop recursion too deep for %v", host, d.addr)
}

// resolution is where a packet for one next hop leaves the device: the
// immediate neighbour's address, or why there is none.
type resolution struct {
	addr netip.Addr
	dead deadEnd
}

// resolve returns the immediate neighbour address a packet to dst leaves a
// frozen table towards: dst itself on an attached subnet, otherwise what its
// route's next hop resolved to.
func (f *FIB) resolve(dst netip.Addr) (netip.Addr, deadEnd) {
	at := f.lookup(dst)
	if at == none {
		return netip.Addr{}, deadEnd{kind: noRoute, addr: dst}
	}
	switch via := f.via[at]; via {
	case attached:
		// Direct delivery on the attached subnet.
		return dst, deadEnd{}
	case none:
		return netip.Addr{}, deadEnd{kind: noNextHop, route: &f.entries[at]}
	default:
		return f.resolved[via].addr, f.resolved[via].dead
	}
}

// freeze resolves each distinct next hop once and closes the table.
func (f *FIB) freeze() {
	if f.resolved != nil {
		return
	}
	f.resolved = make([]resolution, len(f.hops))
	for s, nh := range f.hops {
		f.resolved[s] = f.resolveHop(nh)
	}
}

// resolveHop follows a recursive next hop (e.g. a BGP next hop reached via
// an IGP route) until it is directly reachable. The route that named nh was
// the first level of maxResolveDepth.
func (f *FIB) resolveHop(nh netip.Addr) resolution {
	for depth := 1; ; depth++ {
		at := f.lookup(nh)
		switch {
		case at != none && f.via[at] == attached:
			return resolution{addr: nh}
		case depth > maxResolveDepth:
			return resolution{dead: deadEnd{kind: tooDeep, addr: nh}}
		case at == none:
			return resolution{dead: deadEnd{kind: noRoute, addr: nh}}
		case f.via[at] == none:
			return resolution{dead: deadEnd{kind: noNextHop, route: &f.entries[at]}}
		}
		nh = f.entries[at].NextHop
	}
}

// Hop is one traceroute step.
type Hop struct {
	Addr netip.Addr
	Node string
}

// TraceResult is the outcome of a traceroute.
type TraceResult struct {
	Src, Dst netip.Addr
	Hops     []Hop
	Reached  bool
	// Reason describes why the trace stopped when Reached is false
	// ("ttl exceeded", "no route at <n>", "loop detected").
	Reason string
}

// Forward delivers a probe from srcHost to dst, returning each hop's
// responding address (the address the probe arrived on), like real
// traceroute output.
func (net *Network) Forward(srcHost string, dst netip.Addr, maxTTL int) TraceResult {
	if maxTTL <= 0 {
		maxTTL = 30
	}
	res := TraceResult{Dst: dst}
	cur, ok := net.Node(srcHost)
	if !ok {
		res.Reason = fmt.Sprintf("unknown source host %q", srcHost)
		return res
	}
	if cur.IsLocal(dst) {
		res.Reached = true
		return res
	}
	for ttl := 0; ttl < maxTTL; ttl++ {
		if res.revisits(srcHost, cur.Hostname) {
			res.Reason = fmt.Sprintf("loop detected at %s", cur.Hostname)
			return res
		}
		nh, dead := cur.FIB.resolve(dst)
		if dead.kind != 0 {
			res.Reason = dead.reason(cur.Hostname)
			return res
		}
		at, ok := net.owner[nh]
		if !ok {
			res.Reason = fmt.Sprintf("next hop %v owned by no device", nh)
			return res
		}
		next := net.nodes[at]
		if next.IsLocal(dst) {
			// Final hop: the destination answers with the probed address.
			res.Hops = append(res.Hops, Hop{Addr: dst, Node: next.Hostname})
			res.Reached = true
			return res
		}
		// Transit hop: the probe arrives on nh; that address answers the
		// TTL-exceeded.
		res.Hops = append(res.Hops, Hop{Addr: nh, Node: next.Hostname})
		cur = next
	}
	res.Reason = "ttl exceeded"
	return res
}

// revisits reports whether the node the last hop arrived at was already on
// the path: the source, or an earlier hop. The path is at most maxTTL long,
// so a scan beats a per-trace set.
func (res *TraceResult) revisits(srcHost, cur string) bool {
	n := len(res.Hops)
	if n == 0 {
		return false
	}
	if cur == srcHost {
		return true
	}
	for _, h := range res.Hops[:n-1] {
		if h.Node == cur {
			return true
		}
	}
	return false
}

// HopCounts resolves every node's next hop towards dst exactly once and
// returns, by node number, each node's hop count to the node that owns dst:
// 0 on the owner itself, -1 where the walk dead-ends (no route, a next hop
// owned by no device) or loops. IP forwarding is destination-based, so the
// walks from all sources form one tree rooted at dst and share their
// suffixes; a reachability matrix needs one tree per destination, not one
// walk per pair. A count may exceed a probe's TTL: Forward(src, dst,
// ttl).Reached iff 0 <= hops <= ttl, and then len(Hops) == hops.
func (net *Network) HopCounts(dst netip.Addr) []int32 {
	const (
		unseen  = -3
		walking = -2 // on the walk in progress; meeting it again is a loop
	)
	hops := make([]int32, len(net.nodes))
	for i := range hops {
		hops[i] = unseen
	}
	if at, owned := net.owner[dst]; owned {
		hops[at] = 0
	}
	var walk []int32
	for start := range net.nodes {
		walk = walk[:0]
		count := int32(-1)
		for cur := int32(start); ; {
			if h := hops[cur]; h != unseen {
				if h != walking {
					count = h
				}
				break
			}
			hops[cur] = walking
			walk = append(walk, cur)
			nh, dead := net.nodes[cur].FIB.resolve(dst)
			if dead.kind != 0 {
				break
			}
			next, ok := net.owner[nh]
			if !ok {
				break
			}
			cur = next
		}
		for i := len(walk) - 1; i >= 0; i-- {
			if count >= 0 {
				count++
			}
			hops[walk[i]] = count
		}
	}
	return hops
}

// HopsTo is HopCounts keyed by hostname.
func (net *Network) HopsTo(dst netip.Addr) map[string]int {
	hops := make(map[string]int, len(net.nodes))
	for at, h := range net.HopCounts(dst) {
		hops[net.nodes[at].Hostname] = int(h)
	}
	return hops
}

// Ping reports whether dst is reachable from srcHost.
func (net *Network) Ping(srcHost string, dst netip.Addr) bool {
	return net.Forward(srcHost, dst, 30).Reached
}

// TracerouteText renders a TraceResult in the format of the Linux
// traceroute the paper's measurement client parses (§6.1):
//
//	1  192.168.1.34  0 ms
//	2  192.168.1.25  0 ms
func (res TraceResult) TracerouteText() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "traceroute to %v, 30 hops max\n", res.Dst)
	for i, h := range res.Hops {
		fmt.Fprintf(&sb, "%2d  %s  0 ms\n", i+1, h.Addr)
	}
	if !res.Reached {
		fmt.Fprintf(&sb, "%2d  * * *\n", len(res.Hops)+1)
	}
	return sb.String()
}

// NodeNames returns the hostnames of all registered nodes (unordered).
func (net *Network) NodeNames() []string {
	out := make([]string, len(net.nodes))
	for at, n := range net.nodes {
		out[at] = n.Hostname
	}
	return out
}
