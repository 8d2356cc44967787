package dataplane

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }
func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func TestFIBLongestPrefixMatch(t *testing.T) {
	f := NewFIB()
	must := func(e FIBEntry) {
		t.Helper()
		if err := f.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	must(FIBEntry{Prefix: pfx("10.0.0.0/8"), NextHop: addr("192.168.0.1")})
	must(FIBEntry{Prefix: pfx("10.1.0.0/16"), NextHop: addr("192.168.0.2")})
	must(FIBEntry{Prefix: pfx("10.1.1.0/24"), NextHop: addr("192.168.0.3")})
	must(FIBEntry{Prefix: pfx("0.0.0.0/0"), NextHop: addr("192.168.0.9")})

	cases := []struct {
		dst  string
		want string
	}{
		{"10.1.1.5", "192.168.0.3"},
		{"10.1.2.5", "192.168.0.2"},
		{"10.2.0.1", "192.168.0.1"},
		{"172.16.0.1", "192.168.0.9"}, // default
	}
	for _, c := range cases {
		e, ok := f.Lookup(addr(c.dst))
		if !ok || e.NextHop != addr(c.want) {
			t.Errorf("lookup(%s) = %v, %v; want %s", c.dst, e.NextHop, ok, c.want)
		}
	}
	if f.Len() != 4 {
		t.Errorf("len = %d", f.Len())
	}
}

func TestFIBNoMatch(t *testing.T) {
	f := NewFIB()
	if err := f.Insert(FIBEntry{Prefix: pfx("10.0.0.0/8")}); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Lookup(addr("11.0.0.1")); ok {
		t.Error("spurious match")
	}
	if _, ok := f.Lookup(netip.MustParseAddr("::1")); ok {
		t.Error("IPv6 matched in IPv4 FIB")
	}
	if err := f.Insert(FIBEntry{Prefix: netip.MustParsePrefix("2001:db8::/32")}); err == nil {
		t.Error("IPv6 insert accepted")
	}
}

func TestFIBReplace(t *testing.T) {
	f := NewFIB()
	_ = f.Insert(FIBEntry{Prefix: pfx("10.0.0.0/8"), NextHop: addr("1.1.1.1")})
	_ = f.Insert(FIBEntry{Prefix: pfx("10.0.0.0/8"), NextHop: addr("2.2.2.2")})
	if f.Len() != 1 {
		t.Errorf("replace duplicated: len=%d", f.Len())
	}
	e, _ := f.Lookup(addr("10.0.0.1"))
	if e.NextHop != addr("2.2.2.2") {
		t.Error("replace did not take effect")
	}
}

func TestFIBHostRoute(t *testing.T) {
	f := NewFIB()
	_ = f.Insert(FIBEntry{Prefix: pfx("10.0.0.1/32"), NextHop: addr("9.9.9.9")})
	if e, ok := f.Lookup(addr("10.0.0.1")); !ok || e.NextHop != addr("9.9.9.9") {
		t.Error("/32 lookup failed")
	}
	if _, ok := f.Lookup(addr("10.0.0.2")); ok {
		t.Error("/32 matched wrong host")
	}
}

// Property: LPM returns the most specific of the inserted prefixes
// containing the address.
func TestPropertyFIBMostSpecific(t *testing.T) {
	f := NewFIB()
	prefixes := []netip.Prefix{
		pfx("0.0.0.0/0"), pfx("10.0.0.0/8"), pfx("10.128.0.0/9"),
		pfx("10.128.0.0/16"), pfx("10.128.64.0/24"),
	}
	for i, p := range prefixes {
		_ = f.Insert(FIBEntry{Prefix: p, OutIf: string(rune('a' + i))})
	}
	check := func(b0, b1, b2, b3 uint8) bool {
		a := netip.AddrFrom4([4]byte{b0, b1, b2, b3})
		e, ok := f.Lookup(a)
		if !ok {
			return false
		}
		var want netip.Prefix
		found := false
		for _, p := range prefixes {
			if p.Contains(a) && (!found || p.Bits() > want.Bits()) {
				want, found = p, true
			}
		}
		return found && e.Prefix == want
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// TestFIBAscendingInsertsMatchShuffled: Insert resumes from the trie path of
// the prefix before it, which pays off on an ascending run; the table it
// leaves must not depend on the order. A seeded set with nested, adjacent and
// repeated prefixes, inserted ascending, descending and shuffled, yields the
// same entries, the same Len and the same match for every probed address as
// a linear scan for the longest containing prefix.
func TestFIBAscendingInsertsMatchShuffled(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var set []FIBEntry
	for i := 0; i < 400; i++ {
		bits := []int{0, 8, 16, 24, 30, 32}[rng.Intn(6)]
		base := netip.AddrFrom4([4]byte{byte(10 + rng.Intn(3)), byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(256))})
		p, _ := base.Prefix(bits)
		set = append(set, FIBEntry{Prefix: p, NextHop: addr("192.168.0.1"), OutIf: fmt.Sprint(p)})
	}
	byPrefix := func(a, b FIBEntry) int {
		if c := a.Prefix.Addr().Compare(b.Prefix.Addr()); c != 0 {
			return c
		}
		return a.Prefix.Bits() - b.Prefix.Bits()
	}
	ascending := slices.Clone(set)
	slices.SortStableFunc(ascending, byPrefix)
	descending := slices.Clone(ascending)
	slices.Reverse(descending)
	build := func(order []FIBEntry) *FIB {
		f := NewFIB()
		for _, e := range order {
			if err := f.Insert(e); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	want := build(ascending)
	if !slices.IsSortedFunc(want.Entries(), byPrefix) {
		t.Errorf("Entries() not in ascending prefix order: %v", want.Entries())
	}
	for label, order := range map[string][]FIBEntry{"descending": descending, "shuffled": set} {
		got := build(order)
		if got.Len() != want.Len() || !slices.Equal(got.Entries(), want.Entries()) {
			t.Errorf("%s: %d entries %v, ascending inserts gave %d %v", label, got.Len(), got.Entries(), want.Len(), want.Entries())
		}
		for i := 0; i < 2000; i++ {
			a := netip.AddrFrom4([4]byte{byte(9 + rng.Intn(5)), byte(rng.Intn(5)), byte(rng.Intn(5)), byte(rng.Intn(256))})
			var longest netip.Prefix
			for _, e := range set {
				if e.Prefix.Contains(a) && (!longest.IsValid() || e.Prefix.Bits() > longest.Bits()) {
					longest = e.Prefix
				}
			}
			if e, ok := got.Lookup(a); ok != longest.IsValid() || (ok && e.Prefix != longest) {
				t.Fatalf("%s: Lookup(%v) = %v, %v; the longest containing prefix is %v", label, a, e.Prefix, ok, longest)
			}
		}
	}
}

// lineNet builds a -- b -- c with /30 links and static FIBs, plus any extra
// routes on a (tables close at AddNode).
func lineNet(t *testing.T, extraA ...FIBEntry) *Network {
	t.Helper()
	net := NewNetwork()
	a := NewNode("a")
	a.AddAddr(addr("10.0.0.1"), "eth0")
	b := NewNode("b")
	b.AddAddr(addr("10.0.0.2"), "eth0")
	b.AddAddr(addr("10.0.0.5"), "eth1")
	c := NewNode("c")
	c.AddAddr(addr("10.0.0.6"), "eth0")
	c.AddAddr(addr("10.255.0.3"), "lo")

	mustInsert := func(n *Node, e FIBEntry) {
		t.Helper()
		if err := n.FIB.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	// Connected routes.
	mustInsert(a, FIBEntry{Prefix: pfx("10.0.0.0/30"), Connected: true, OutIf: "eth0"})
	mustInsert(b, FIBEntry{Prefix: pfx("10.0.0.0/30"), Connected: true, OutIf: "eth0"})
	mustInsert(b, FIBEntry{Prefix: pfx("10.0.0.4/30"), Connected: true, OutIf: "eth1"})
	mustInsert(c, FIBEntry{Prefix: pfx("10.0.0.4/30"), Connected: true, OutIf: "eth0"})
	// a's routes to the far side.
	mustInsert(a, FIBEntry{Prefix: pfx("10.0.0.4/30"), NextHop: addr("10.0.0.2"), OutIf: "eth0"})
	mustInsert(a, FIBEntry{Prefix: pfx("10.255.0.3/32"), NextHop: addr("10.0.0.2"), OutIf: "eth0"})
	// b's route to c's loopback.
	mustInsert(b, FIBEntry{Prefix: pfx("10.255.0.3/32"), NextHop: addr("10.0.0.6"), OutIf: "eth1"})
	// c's return routes (unused by forward trace but realistic).
	mustInsert(c, FIBEntry{Prefix: pfx("10.0.0.0/30"), NextHop: addr("10.0.0.5"), OutIf: "eth0"})
	for _, e := range extraA {
		mustInsert(a, e)
	}

	for _, n := range []*Node{a, b, c} {
		if err := net.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

func TestForwardDirect(t *testing.T) {
	net := lineNet(t)
	res := net.Forward("a", addr("10.0.0.2"), 30)
	if !res.Reached || len(res.Hops) != 1 {
		t.Fatalf("res = %+v", res)
	}
	if res.Hops[0].Node != "b" || res.Hops[0].Addr != addr("10.0.0.2") {
		t.Errorf("hop = %+v", res.Hops[0])
	}
}

func TestForwardMultiHop(t *testing.T) {
	net := lineNet(t)
	res := net.Forward("a", addr("10.0.0.6"), 30)
	if !res.Reached || len(res.Hops) != 2 {
		t.Fatalf("res = %+v", res)
	}
	// Hop 1 answers with b's incoming address, hop 2 is the destination.
	if res.Hops[0].Addr != addr("10.0.0.2") || res.Hops[1].Addr != addr("10.0.0.6") {
		t.Errorf("hops = %+v", res.Hops)
	}
}

func TestForwardToLoopback(t *testing.T) {
	net := lineNet(t)
	res := net.Forward("a", addr("10.255.0.3"), 30)
	if !res.Reached {
		t.Fatalf("res = %+v", res)
	}
	last := res.Hops[len(res.Hops)-1]
	if last.Node != "c" || last.Addr != addr("10.255.0.3") {
		t.Errorf("last hop = %+v", last)
	}
}

func TestForwardNoRoute(t *testing.T) {
	net := lineNet(t)
	res := net.Forward("a", addr("203.0.113.1"), 30)
	if res.Reached {
		t.Fatal("unroutable destination reached")
	}
	if !strings.Contains(res.Reason, "no route") {
		t.Errorf("reason = %q", res.Reason)
	}
	res = net.Forward("ghost", addr("10.0.0.1"), 30)
	if res.Reached || !strings.Contains(res.Reason, "unknown source") {
		t.Errorf("res = %+v", res)
	}
}

func TestForwardLoopDetection(t *testing.T) {
	net := NewNetwork()
	a := NewNode("a")
	a.AddAddr(addr("10.0.0.1"), "eth0")
	b := NewNode("b")
	b.AddAddr(addr("10.0.0.2"), "eth0")
	_ = a.FIB.Insert(FIBEntry{Prefix: pfx("10.0.0.0/30"), Connected: true})
	_ = b.FIB.Insert(FIBEntry{Prefix: pfx("10.0.0.0/30"), Connected: true})
	// Both point the destination at each other.
	_ = a.FIB.Insert(FIBEntry{Prefix: pfx("203.0.113.0/24"), NextHop: addr("10.0.0.2")})
	_ = b.FIB.Insert(FIBEntry{Prefix: pfx("203.0.113.0/24"), NextHop: addr("10.0.0.1")})
	_ = net.AddNode(a)
	_ = net.AddNode(b)
	res := net.Forward("a", addr("203.0.113.1"), 30)
	if res.Reached {
		t.Fatal("loop reached destination")
	}
	if !strings.Contains(res.Reason, "loop") && !strings.Contains(res.Reason, "owned by no device") {
		t.Errorf("reason = %q", res.Reason)
	}
}

func TestRecursiveNextHop(t *testing.T) {
	// a's BGP route points at a loopback reachable via an IGP route.
	net := lineNet(t, FIBEntry{Prefix: pfx("203.0.113.0/24"), NextHop: addr("10.255.0.3")})
	// c owns 203.0.113.1? No — but c owns the loopback; the probe should
	// march toward c and fail there (c has no route), proving recursion
	// moved the packet.
	res := net.Forward("a", addr("203.0.113.1"), 30)
	if res.Reached {
		t.Fatal("should not reach")
	}
	if len(res.Hops) != 1 || res.Hops[0].Node != "b" {
		t.Errorf("recursion did not forward via b: %+v", res)
	}
	if !strings.Contains(res.Reason, "b: no route") {
		t.Errorf("reason = %q", res.Reason)
	}
}

// TestInsertAfterAddNodeRejected: next hops are resolved when a node is
// registered, so a later route would forward on stale resolutions.
func TestInsertAfterAddNodeRejected(t *testing.T) {
	a, _ := lineNet(t).Node("a")
	if err := a.FIB.Insert(FIBEntry{Prefix: pfx("203.0.113.0/24"), NextHop: addr("10.0.0.2")}); err == nil {
		t.Fatal("insert into a registered node's FIB succeeded")
	}
	if _, ok := a.FIB.Lookup(addr("203.0.113.1")); ok || a.FIB.Len() != 3 {
		t.Errorf("rejected insert changed the table: %v", a.FIB.Entries())
	}
}

func TestPing(t *testing.T) {
	net := lineNet(t)
	if !net.Ping("a", addr("10.0.0.6")) {
		t.Error("ping should succeed")
	}
	if net.Ping("a", addr("203.0.113.1")) {
		t.Error("ping to unroutable succeeded")
	}
}

func TestTracerouteText(t *testing.T) {
	net := lineNet(t)
	res := net.Forward("a", addr("10.0.0.6"), 30)
	text := res.TracerouteText()
	if !strings.Contains(text, " 1  10.0.0.2  0 ms") || !strings.Contains(text, " 2  10.0.0.6  0 ms") {
		t.Errorf("text = %q", text)
	}
	bad := net.Forward("a", addr("203.0.113.1"), 30)
	if !strings.Contains(bad.TracerouteText(), "* * *") {
		t.Error("unreachable trace missing stars")
	}
}

func TestDuplicateAddressRejected(t *testing.T) {
	net := NewNetwork()
	a := NewNode("a")
	a.AddAddr(addr("10.0.0.1"), "eth0")
	b := NewNode("b")
	b.AddAddr(addr("10.0.0.1"), "eth0")
	if err := net.AddNode(a); err != nil {
		t.Fatal(err)
	}
	if err := net.AddNode(b); err == nil {
		t.Error("duplicate address across nodes accepted")
	}
	if err := net.AddNode(a); err == nil {
		t.Error("duplicate hostname accepted")
	}
}

func TestFIBEntries(t *testing.T) {
	f := NewFIB()
	_ = f.Insert(FIBEntry{Prefix: pfx("10.0.0.0/8"), OutIf: "a"})
	_ = f.Insert(FIBEntry{Prefix: pfx("10.1.0.0/16"), OutIf: "b"})
	_ = f.Insert(FIBEntry{Prefix: pfx("192.168.0.0/16"), OutIf: "c"})
	entries := f.Entries()
	if len(entries) != 3 {
		t.Fatalf("entries = %d", len(entries))
	}
	// Depth-first, zeros-first: 10/8 before 10.1/16 before 192.168/16.
	if entries[0].OutIf != "a" || entries[1].OutIf != "b" || entries[2].OutIf != "c" {
		t.Errorf("order = %v", entries)
	}
	if NewFIB().Entries() != nil {
		t.Error("empty FIB entries non-nil")
	}
}

func TestNetworkOwnerAndNames(t *testing.T) {
	net := lineNet(t)
	if host, ok := net.Owner(addr("10.0.0.5")); !ok || host != "b" {
		t.Errorf("owner = %q %v", host, ok)
	}
	if _, ok := net.Owner(addr("203.0.113.1")); ok {
		t.Error("phantom owner")
	}
	names := net.NodeNames()
	if len(names) != 3 {
		t.Errorf("names = %v", names)
	}
}

func TestForwardDestinationIsSource(t *testing.T) {
	net := lineNet(t)
	res := net.Forward("a", addr("10.0.0.1"), 30)
	if !res.Reached || len(res.Hops) != 0 {
		t.Errorf("self-destination = %+v", res)
	}
}

func TestForwardTTLExceeded(t *testing.T) {
	// A long chain with maxTTL 2.
	net := NewNetwork()
	mk := func(name string, addrs ...string) *Node {
		n := NewNode(name)
		for i, a := range addrs {
			n.AddAddr(addr(a), "eth"+string(rune('0'+i)))
		}
		return n
	}
	a := mk("a", "10.0.0.1")
	b := mk("b", "10.0.0.2", "10.0.0.5")
	c := mk("c", "10.0.0.6", "10.0.0.9")
	d := mk("d", "10.0.0.10")
	_ = a.FIB.Insert(FIBEntry{Prefix: pfx("10.0.0.0/30"), Connected: true})
	_ = a.FIB.Insert(FIBEntry{Prefix: pfx("10.0.0.8/30"), NextHop: addr("10.0.0.2")})
	_ = b.FIB.Insert(FIBEntry{Prefix: pfx("10.0.0.0/30"), Connected: true})
	_ = b.FIB.Insert(FIBEntry{Prefix: pfx("10.0.0.4/30"), Connected: true})
	_ = b.FIB.Insert(FIBEntry{Prefix: pfx("10.0.0.8/30"), NextHop: addr("10.0.0.6")})
	_ = c.FIB.Insert(FIBEntry{Prefix: pfx("10.0.0.4/30"), Connected: true})
	_ = c.FIB.Insert(FIBEntry{Prefix: pfx("10.0.0.8/30"), Connected: true})
	_ = d.FIB.Insert(FIBEntry{Prefix: pfx("10.0.0.8/30"), Connected: true})
	for _, n := range []*Node{a, b, c, d} {
		if err := net.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	res := net.Forward("a", addr("10.0.0.10"), 2)
	if res.Reached {
		t.Fatal("reached despite TTL 2")
	}
	if res.Reason != "ttl exceeded" {
		t.Errorf("reason = %q", res.Reason)
	}
	// With enough TTL it arrives.
	res = net.Forward("a", addr("10.0.0.10"), 5)
	if !res.Reached || len(res.Hops) != 3 {
		t.Errorf("res = %+v", res)
	}
}

func TestResolveDepthLimit(t *testing.T) {
	// Chain of recursive next hops deeper than maxResolveDepth.
	net := NewNetwork()
	n := NewNode("a")
	n.AddAddr(addr("10.0.0.1"), "eth0")
	_ = n.FIB.Insert(FIBEntry{Prefix: pfx("10.0.0.0/30"), Connected: true})
	// 1.0.0.0/8 -> 2.0.0.1 -> 3.0.0.1 -> ... each via another route.
	for i := 1; i <= 7; i++ {
		_ = n.FIB.Insert(FIBEntry{
			Prefix:  pfx(fmt.Sprintf("%d.0.0.0/8", i)),
			NextHop: addr(fmt.Sprintf("%d.0.0.1", i+1)),
		})
	}
	_ = net.AddNode(n)
	res := net.Forward("a", addr("1.0.0.9"), 30)
	if res.Reached {
		t.Fatal("unresolvable recursion reached")
	}
	if !strings.Contains(res.Reason, "recursion too deep") {
		t.Errorf("reason = %q", res.Reason)
	}
}
