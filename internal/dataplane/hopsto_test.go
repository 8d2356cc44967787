package dataplane_test

// HopsTo is what every emulated ping is answered from; Forward, one walk per
// pair with its own TTL and loop checks, is the oracle it is held to. The
// two share next-hop resolution and nothing else, and that is held to
// refForward: the walk as it was when every hop resolved its next hop afresh,
// before AddNode resolved each distinct one once.

import (
	"fmt"
	"net/netip"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"autonetkit"
	"autonetkit/internal/dataplane"
	"autonetkit/internal/deploy"
	"autonetkit/internal/emul"
	"autonetkit/internal/topogen"
)

func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }
func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// builder assembles a hand-wired network: addresses and FIB entries per
// node, registered in one go.
type builder struct {
	t     *testing.T
	nodes []*dataplane.Node
	byID  map[string]*dataplane.Node
}

func (b *builder) node(name string) *dataplane.Node {
	if n, ok := b.byID[name]; ok {
		return n
	}
	if b.byID == nil {
		b.byID = map[string]*dataplane.Node{}
	}
	n := dataplane.NewNode(name)
	b.byID[name] = n
	b.nodes = append(b.nodes, n)
	return n
}

// link wires x and y onto a /30: x gets .1, y gets .2, both a connected route.
func (b *builder) link(x, y, subnet string) {
	p := pfx(subnet)
	for i, name := range []string{x, y} {
		a := p.Addr()
		for k := 0; k <= i; k++ {
			a = a.Next()
		}
		n := b.node(name)
		n.AddAddr(a, "eth-"+subnet)
		b.route(name, dataplane.FIBEntry{Prefix: p, Connected: true})
	}
}

func (b *builder) route(name string, e dataplane.FIBEntry) {
	b.t.Helper()
	if err := b.node(name).FIB.Insert(e); err != nil {
		b.t.Fatal(err)
	}
}

func (b *builder) network() *dataplane.Network {
	b.t.Helper()
	net := dataplane.NewNetwork()
	for _, n := range b.nodes {
		if err := net.AddNode(n); err != nil {
			b.t.Fatal(err)
		}
	}
	return net
}

// refResolve is next-hop resolution as Forward and HopsTo did it per call:
// follow recursive next hops through the node's own FIB, at most four deep.
func refResolve(n *dataplane.Node, dst netip.Addr) (netip.Addr, string) {
	for depth := 0; depth <= 4; depth++ {
		e, ok := n.FIB.Lookup(dst)
		if !ok {
			return netip.Addr{}, fmt.Sprintf("dataplane: %s: no route to %v", n.Hostname, dst)
		}
		if e.Connected {
			return dst, ""
		}
		if !e.NextHop.IsValid() {
			return netip.Addr{}, fmt.Sprintf("dataplane: %s: route %v has no next hop", n.Hostname, e.Prefix)
		}
		if via, ok := n.FIB.Lookup(e.NextHop); ok && via.Connected {
			return e.NextHop, ""
		}
		dst = e.NextHop
	}
	return netip.Addr{}, fmt.Sprintf("dataplane: %s: next-hop recursion too deep for %v", n.Hostname, dst)
}

// refForward is Forward over refResolve and the exported accessors.
func refForward(net *dataplane.Network, srcHost string, dst netip.Addr, maxTTL int) dataplane.TraceResult {
	res := dataplane.TraceResult{Dst: dst}
	cur, _ := net.Node(srcHost)
	if cur.IsLocal(dst) {
		res.Reached = true
		return res
	}
	seen := map[string]bool{}
	for ttl := 0; ttl < maxTTL; ttl++ {
		if seen[cur.Hostname] {
			res.Reason = fmt.Sprintf("loop detected at %s", cur.Hostname)
			return res
		}
		seen[cur.Hostname] = true
		nh, reason := refResolve(cur, dst)
		if reason != "" {
			res.Reason = reason
			return res
		}
		nextHost, ok := net.Owner(nh)
		if !ok {
			res.Reason = fmt.Sprintf("next hop %v owned by no device", nh)
			return res
		}
		next, _ := net.Node(nextHost)
		if next.IsLocal(dst) {
			res.Hops = append(res.Hops, dataplane.Hop{Addr: dst, Node: nextHost})
			res.Reached = true
			return res
		}
		res.Hops = append(res.Hops, dataplane.Hop{Addr: nh, Node: nextHost})
		cur = next
	}
	res.Reason = "ttl exceeded"
	return res
}

// checkParity holds HopsTo to Forward, and Forward hop for hop and reason for
// reason to refForward, for every source towards every given destination
// plus every address the network owns.
func checkParity(t *testing.T, label string, net *dataplane.Network, extra ...netip.Addr) {
	t.Helper()
	names := net.NodeNames()
	sort.Strings(names)
	dsts := append([]netip.Addr(nil), extra...)
	for _, name := range names {
		n, _ := net.Node(name)
		for a := range n.Addrs {
			dsts = append(dsts, a)
		}
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i].Less(dsts[j]) })
	bad := 0
	for _, dst := range dsts {
		hops := net.HopsTo(dst)
		if len(hops) != len(names) {
			t.Errorf("%s: HopsTo(%v) covers %d of %d nodes", label, dst, len(hops), len(names))
		}
		for _, src := range names {
			h, ok := hops[src]
			res := net.Forward(src, dst, 30)
			switch ref := refForward(net, src, dst, 30); {
			case !reflect.DeepEqual(res, ref):
				t.Errorf("%s: %s -> %v: Forward = %+v, per-call resolution gives %+v", label, src, dst, res, ref)
			case !ok || h < -1:
				t.Errorf("%s: HopsTo(%v)[%s] = %d, %v", label, dst, src, h, ok)
			case (h >= 0 && h <= 30) != res.Reached:
				t.Errorf("%s: %s -> %v: %d hops but Forward reached=%v (%s)", label, src, dst, h, res.Reached, res.Reason)
			case res.Reached && len(res.Hops) != h:
				t.Errorf("%s: %s -> %v: %d hops but Forward took %d", label, src, dst, h, len(res.Hops))
			default:
				continue
			}
			if bad++; bad > 20 {
				t.Fatalf("%s: giving up after %d mismatches", label, bad)
			}
		}
	}
}

func TestHopsToMatchesForwardHandBuilt(t *testing.T) {
	target := addr("10.255.0.9")
	b := &builder{t: t}
	via := func(name, nh string) {
		b.route(name, dataplane.FIBEntry{Prefix: netip.PrefixFrom(target, 32), NextHop: addr(nh)})
	}
	// t owns the target; a is adjacent, b resolves it recursively (a
	// BGP-style next hop on a's loopback, reached by an IGP-style route), c
	// sits behind b.
	b.link("a", "t", "10.0.0.0/30")
	b.node("t").AddAddr(target, "lo")
	b.node("a").AddAddr(addr("10.255.0.1"), "lo")
	via("a", "10.0.0.2")
	b.link("a", "b", "10.0.1.0/30")
	via("b", "10.255.0.1")
	b.route("b", dataplane.FIBEntry{Prefix: pfx("10.255.0.1/32"), NextHop: addr("10.0.1.1")})
	b.link("b", "c", "10.0.2.0/30")
	via("c", "10.0.2.1")
	// l1 and l2 forward to each other; l3 feeds into that loop.
	b.link("l1", "l2", "10.0.4.0/30")
	via("l1", "10.0.4.2")
	via("l2", "10.0.4.1")
	b.link("l1", "l3", "10.0.5.0/30")
	via("l3", "10.0.5.1")
	// hole has no route; tail forwards into it.
	b.link("hole", "tail", "10.0.7.0/30")
	via("tail", "10.0.7.1")
	// ghost's next hop is on a connected subnet but owned by no device.
	b.link("ghost", "ghost2", "10.0.8.0/29")
	via("ghost", "10.0.8.5")
	// nonh has a route that is neither connected nor carries a next hop.
	b.link("nonh", "nonh2", "10.0.9.0/30")
	b.route("nonh", dataplane.FIBEntry{Prefix: netip.PrefixFrom(target, 32)})
	// self forwards to its own address.
	b.link("self", "self2", "10.0.10.0/30")
	via("self", "10.0.10.1")
	// deep chains more recursive next hops than resolution follows.
	b.link("deep", "deep2", "10.0.11.0/30")
	via("deep", "11.0.0.1")
	for i := 11; i <= 17; i++ {
		b.route("deep", dataplane.FIBEntry{Prefix: pfx(fmt.Sprintf("%d.0.0.0/8", i)), NextHop: addr(fmt.Sprintf("%d.0.0.1", i+1))})
	}
	// shared has two prefixes on one next hop, which dead-ends two levels
	// down: both must name the address that did not resolve.
	b.link("shared", "shared2", "10.0.12.0/30")
	via("shared", "20.0.0.1")
	b.route("shared", dataplane.FIBEntry{Prefix: pfx("203.0.113.0/24"), NextHop: addr("20.0.0.1")})
	b.route("shared", dataplane.FIBEntry{Prefix: pfx("20.0.0.0/8"), NextHop: addr("21.0.0.1")})
	net := b.network()

	want := map[string]struct {
		hops   int
		reason string
	}{
		"t": {0, ""}, "a": {1, ""}, "b": {2, ""}, "c": {3, ""},
		"l1":      {-1, "loop detected at l1"},
		"l2":      {-1, "loop detected at l2"},
		"l3":      {-1, "loop detected at l1"},
		"hole":    {-1, "dataplane: hole: no route to 10.255.0.9"},
		"tail":    {-1, "dataplane: hole: no route to 10.255.0.9"},
		"ghost":   {-1, "next hop 10.0.8.5 owned by no device"},
		"nonh":    {-1, "dataplane: nonh: route 10.255.0.9/32 has no next hop"},
		"self":    {-1, "loop detected at self"},
		"deep":    {-1, "dataplane: deep: next-hop recursion too deep for 15.0.0.1"},
		"ghost2":  {-1, "dataplane: ghost2: no route to 10.255.0.9"},
		"nonh2":   {-1, "dataplane: nonh2: no route to 10.255.0.9"},
		"self2":   {-1, "dataplane: self2: no route to 10.255.0.9"},
		"deep2":   {-1, "dataplane: deep2: no route to 10.255.0.9"},
		"shared":  {-1, "dataplane: shared: no route to 21.0.0.1"},
		"shared2": {-1, "dataplane: shared2: no route to 10.255.0.9"},
	}
	hops := net.HopsTo(target)
	if len(hops) != len(want) {
		t.Errorf("HopsTo covers %d nodes, want %d: %v", len(hops), len(want), hops)
	}
	for name, w := range want {
		if hops[name] != w.hops {
			t.Errorf("HopsTo[%s] = %d, want %d", name, hops[name], w.hops)
		}
		if res := net.Forward(name, target, 30); res.Reason != w.reason || res.Reached != (w.hops >= 0) {
			t.Errorf("Forward(%s) = reached %v, reason %q; want %q", name, res.Reached, res.Reason, w.reason)
		}
	}
	if res := net.Forward("shared", addr("203.0.113.1"), 30); res.Reason != want["shared"].reason {
		t.Errorf("Forward(shared) on the second prefix: reason %q, want %q", res.Reason, want["shared"].reason)
	}
	// An address no device owns: every walk dead-ends.
	checkParity(t, "gadgets", net, addr("203.0.113.1"), addr("10.0.8.5"))
}

// chain wires n nodes in a line, each with a loopback and a static route
// per remote loopback, so the far end is n-1 hops away.
func chain(t *testing.T, n int) (*dataplane.Network, func(i int) netip.Addr) {
	lo := func(i int) netip.Addr { return addr(fmt.Sprintf("10.255.0.%d", i+1)) }
	name := func(i int) string { return fmt.Sprintf("n%02d", i) }
	b := &builder{t: t}
	for i := 0; i+1 < n; i++ {
		b.link(name(i), name(i+1), fmt.Sprintf("10.1.%d.0/30", i))
	}
	for i := 0; i < n; i++ {
		b.node(name(i)).AddAddr(lo(i), "lo")
		for j := 0; j < n; j++ {
			switch {
			case j > i:
				b.route(name(i), dataplane.FIBEntry{Prefix: netip.PrefixFrom(lo(j), 32), NextHop: addr(fmt.Sprintf("10.1.%d.2", i))})
			case j < i:
				b.route(name(i), dataplane.FIBEntry{Prefix: netip.PrefixFrom(lo(j), 32), NextHop: addr(fmt.Sprintf("10.1.%d.1", i-1))})
			}
		}
	}
	return b.network(), lo
}

// TestHopsToTTLBoundary: a ping is answered from at most 30 hops away, so
// the ends of a 31-node chain reach each other and those of a 32-node chain
// do not, though HopsTo still counts the 31 hops.
func TestHopsToTTLBoundary(t *testing.T) {
	for _, n := range []int{31, 32} {
		net, lo := chain(t, n)
		checkParity(t, fmt.Sprintf("chain%d", n), net)
		if got := net.HopsTo(lo(n - 1))["n00"]; got != n-1 {
			t.Errorf("chain%d: end to end = %d hops, want %d", n, got, n-1)
		}
		if reached := net.Ping("n00", lo(n-1)); reached != (n == 31) {
			t.Errorf("chain%d: end-to-end ping reached = %v", n, reached)
		}
	}
}

// TestHopsToMatchesForwardOnLabs runs the parity over converged labs: at
// baseline, after each kind of incident and after each restore.
func TestHopsToMatchesForwardOnLabs(t *testing.T) {
	gen, err := topogen.NREN(topogen.NRENConfig{ASes: 3, Routers: 60, Links: 75, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	generated, err := autonetkit.LoadGraph(gen)
	if err != nil {
		t.Fatal(err)
	}
	small, err := autonetkit.Load(filepath.Join("..", "..", "testdata", "small_internet.graphml"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		net  *autonetkit.Network
	}{{"small-internet", small}, {"nren60", generated}} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.net.Build(autonetkit.BuildOptions{}); err != nil {
				t.Fatal(err)
			}
			dep, err := tc.net.Deploy(deploy.Options{Incremental: true})
			if err != nil {
				t.Fatal(err)
			}
			lab := dep.Lab()
			links, names := lab.Links(), lab.VMNames()
			link, victim, island := links[len(links)/2], names[len(names)/3], names[:len(names)/4]
			step := func(label string, do func() error) {
				t.Helper()
				if err := do(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkParity(t, label, lab.Network(), addr("203.0.113.1"))
			}
			step("baseline", func() error { return nil })
			step("fail-link", func() error { return lab.FailLink(link[0], link[1]) })
			step("restore-link", func() error { return lab.RestoreLink(link[0], link[1]) })
			step("fail-node", func() error { return lab.FailNode(victim) })
			step("restore-node", func() error { return lab.RestoreNode(victim) })
			step("partition", func() error { _, err := lab.Apply(emul.Change{Partition: island}); return err })
			step("heal", func() error { return restoreAll(lab, island) })
		})
	}
}

// restoreAll undoes a partition: RestoreNode on every inside machine, of
// which those with no link across the boundary were never touched.
func restoreAll(lab *emul.Lab, names []string) error {
	for _, name := range names {
		if err := lab.RestoreNode(name); err != nil && !strings.Contains(err.Error(), "is not failed") {
			return err
		}
	}
	return nil
}
