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

// Network is the emulated forwarding plane: all nodes plus the global
// address ownership map (which models L2 delivery on shared subnets).
type Network struct {
	nodes map[string]*Node
	owner map[netip.Addr]string
}

// NewNetwork returns an empty plane.
func NewNetwork() *Network {
	return &Network{nodes: map[string]*Node{}, owner: map[netip.Addr]string{}}
}

// AddNode registers a node and indexes its addresses.
func (net *Network) AddNode(n *Node) error {
	if _, dup := net.nodes[n.Hostname]; dup {
		return fmt.Errorf("dataplane: duplicate node %q", n.Hostname)
	}
	net.nodes[n.Hostname] = n
	for a := range n.Addrs {
		if prev, dup := net.owner[a]; dup {
			return fmt.Errorf("dataplane: address %v on both %s and %s", a, prev, n.Hostname)
		}
		net.owner[a] = n.Hostname
	}
	return nil
}

// Node returns a registered node.
func (net *Network) Node(hostname string) (*Node, bool) {
	n, ok := net.nodes[hostname]
	return n, ok
}

// Owner returns the node owning an address.
func (net *Network) Owner(addr netip.Addr) (string, bool) {
	h, ok := net.owner[addr]
	return h, ok
}

// maxResolveDepth bounds recursive next-hop resolution (BGP routes whose
// next hop is reached via an IGP route).
const maxResolveDepth = 4

// deadEnd says why a node cannot forward towards an address; the zero value
// says it can. Forward renders it into TraceResult.Reason; HopsTo only asks
// whether there is one, so the ping path formats nothing.
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

// resolveNextHop returns the immediate neighbour address a packet to dst
// leaves n towards, resolving recursive routes (e.g. a BGP next hop reached
// via an IGP route).
func resolveNextHop(n *Node, dst netip.Addr) (netip.Addr, deadEnd) {
	for depth := 0; depth <= maxResolveDepth; depth++ {
		e := n.FIB.lookup(dst)
		if e == nil {
			return netip.Addr{}, deadEnd{kind: noRoute, addr: dst}
		}
		if e.Connected {
			// Direct delivery on the attached subnet.
			return dst, deadEnd{}
		}
		if !e.NextHop.IsValid() {
			return netip.Addr{}, deadEnd{kind: noNextHop, route: e}
		}
		// If the next hop is itself directly reachable we are done;
		// otherwise resolve it in turn.
		if via := n.FIB.lookup(e.NextHop); via != nil && via.Connected {
			return e.NextHop, deadEnd{}
		}
		dst = e.NextHop
	}
	return netip.Addr{}, deadEnd{kind: tooDeep, addr: dst}
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
	cur, ok := net.nodes[srcHost]
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
		nh, dead := resolveNextHop(cur, dst)
		if dead.kind != 0 {
			res.Reason = dead.reason(cur.Hostname)
			return res
		}
		nextHost, ok := net.owner[nh]
		if !ok {
			res.Reason = fmt.Sprintf("next hop %v owned by no device", nh)
			return res
		}
		next := net.nodes[nextHost]
		if next.IsLocal(dst) {
			// Final hop: the destination answers with the probed address.
			res.Hops = append(res.Hops, Hop{Addr: dst, Node: nextHost})
			res.Reached = true
			return res
		}
		// Transit hop: the probe arrives on nh; that address answers the
		// TTL-exceeded.
		res.Hops = append(res.Hops, Hop{Addr: nh, Node: nextHost})
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

// HopsTo resolves every node's next hop towards dst exactly once and returns
// each node's hop count to the node that owns dst: 0 on the owner itself, -1
// where the walk dead-ends (no route, a next hop owned by no device) or
// loops. IP forwarding is destination-based, so the walks from all sources
// form one tree rooted at dst and share their suffixes; a reachability
// matrix needs one tree per destination, not one walk per pair. A count may
// exceed a probe's TTL: Forward(src, dst, ttl).Reached iff 0 <= hops <= ttl,
// and then len(Hops) == hops.
func (net *Network) HopsTo(dst netip.Addr) map[string]int {
	const walking = -2 // on the walk in progress; meeting it again is a loop
	hops := make(map[string]int, len(net.nodes))
	var walk []string
	for _, start := range net.nodes {
		walk = walk[:0]
		count := -1
		for cur := start; ; {
			if h, seen := hops[cur.Hostname]; seen {
				if h != walking {
					count = h
				}
				break
			}
			if cur.IsLocal(dst) {
				hops[cur.Hostname] = 0
				count = 0
				break
			}
			hops[cur.Hostname] = walking
			walk = append(walk, cur.Hostname)
			nh, dead := resolveNextHop(cur, dst)
			if dead.kind != 0 {
				break
			}
			nextHost, ok := net.owner[nh]
			if !ok {
				break
			}
			cur = net.nodes[nextHost]
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
	out := make([]string, 0, len(net.nodes))
	for h := range net.nodes {
		out = append(out, h)
	}
	return out
}
