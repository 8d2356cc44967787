// Package dataplane implements the emulated forwarding plane: per-device
// FIBs with longest-prefix-match lookup (a binary trie), hop-by-hop
// forwarding with TTL handling, and the ping/traceroute primitives the
// measurement system drives (paper §5.7). Traceroute over this plane
// behaves like the real tool: each hop answers with the address of the
// interface the probe arrived on, and the result is parsed from text — the
// emulated network is observed, not introspected.
package dataplane

import (
	"fmt"
	"math/bits"
	"net/netip"
	"slices"
)

// FIBEntry is one forwarding entry.
type FIBEntry struct {
	Prefix  netip.Prefix
	NextHop netip.Addr // zero for connected subnets
	OutIf   string
	// Connected marks directly attached subnets (delivery without a next
	// hop).
	Connected bool
}

// FIB is a longest-prefix-match forwarding table over IPv4, implemented as
// a binary trie. The trie lives in two slabs, one of nodes and one of
// entries, linked by index: a table costs its entries, not one heap object
// per trie node.
type FIB struct {
	nodes   []fibNode // nodes[0] is the root
	entries []FIBEntry
	// via[i] says how entries[i] forwards: attached, none (neither
	// connected nor a next hop), or the slot in hops of its NextHop. hops
	// lists the table's distinct next hops: tens, against hundreds to
	// thousands of entries.
	via  []int32
	hops []netip.Addr
	// resolved[s] is where a packet for hops[s] leaves the device. Set by
	// freeze, after which the table is immutable.
	resolved []resolution
	// path holds the trie nodes along the last inserted prefix (its address
	// bits and length in last, lastLen), so an ascending run of inserts, as
	// a merge produces, walks only the bits each prefix does not share with
	// the one before it.
	path    [33]int32
	last    uint32
	lastLen int
}

const (
	none     = -1 // an absent child, entry or next hop
	attached = -2 // in via: a connected subnet, delivered to directly
)

type fibNode struct {
	children [2]int32
	entry    int32
}

// NewFIB returns an empty table.
func NewFIB() *FIB {
	return &FIB{nodes: []fibNode{{children: [2]int32{none, none}, entry: none}}}
}

// Grow makes room for n more entries, so that a builder that knows how many
// it will insert pays for one slab of each kind.
func (f *FIB) Grow(n int) {
	f.entries = slices.Grow(f.entries, n)
	f.via = slices.Grow(f.via, n)
	f.nodes = slices.Grow(f.nodes, 2*n) // what tables of /30s and /32s in a few blocks come to
}

// Insert adds or replaces the entry for its prefix. A table registered with
// a Network (AddNode) takes no more entries.
func (f *FIB) Insert(e FIBEntry) error {
	if !e.Prefix.Addr().Is4() {
		return fmt.Errorf("dataplane: FIB is IPv4-only, got %v", e.Prefix)
	}
	if f.resolved != nil {
		return fmt.Errorf("dataplane: FIB is frozen, cannot insert %v", e.Prefix)
	}
	e.Prefix = e.Prefix.Masked()
	addr, length := addrBits(e.Prefix.Addr()), e.Prefix.Bits()
	shared := min(length, f.lastLen, bits.LeadingZeros32(addr^f.last))
	cur := f.path[shared]
	for i := shared; i < length; i++ {
		b := bit(addr, i)
		next := f.nodes[cur].children[b]
		if next == none {
			next = int32(len(f.nodes))
			f.nodes = append(f.nodes, fibNode{children: [2]int32{none, none}, entry: none})
			f.nodes[cur].children[b] = next
		}
		cur = next
		f.path[i+1] = cur
	}
	f.last, f.lastLen = addr, length

	via := int32(none)
	switch {
	case e.Connected:
		via = attached
	case e.NextHop.IsValid():
		if via = int32(slices.Index(f.hops, e.NextHop)); via == none {
			via = int32(len(f.hops))
			f.hops = append(f.hops, e.NextHop)
		}
	}
	if at := f.nodes[cur].entry; at != none {
		f.entries[at], f.via[at] = e, via
		return nil
	}
	f.nodes[cur].entry = int32(len(f.entries))
	f.entries = append(f.entries, e)
	f.via = append(f.via, via)
	return nil
}

// Holds reports whether inserting entries, in order, into an empty table
// stores exactly what this table stores: each of them, masked, in that
// order. A lab that has the entries of a table's successor keeps the table
// instead of building an equal one.
func (f *FIB) Holds(entries []FIBEntry) bool {
	if len(entries) != len(f.entries) {
		return false
	}
	for i, e := range entries {
		if e.Prefix = e.Prefix.Masked(); e != f.entries[i] {
			return false
		}
	}
	return true
}

// Lookup returns the longest-prefix-match entry for addr.
func (f *FIB) Lookup(addr netip.Addr) (FIBEntry, bool) {
	at := f.lookup(addr)
	if at == none {
		return FIBEntry{}, false
	}
	return f.entries[at], true
}

// lookup is Lookup without the copy: the index of the installed entry (none
// for no match).
func (f *FIB) lookup(addr netip.Addr) int32 {
	if !addr.Is4() {
		return none
	}
	bits := addrBits(addr)
	cur, best := &f.nodes[0], int32(none)
	for i := 0; ; i++ {
		if cur.entry != none {
			best = cur.entry
		}
		if i >= 32 {
			break
		}
		next := cur.children[bit(bits, i)]
		if next == none {
			break
		}
		cur = &f.nodes[next]
	}
	return best
}

// Len returns the number of installed prefixes.
func (f *FIB) Len() int { return len(f.entries) }

// Entries returns all entries in prefix order (depth-first, zeros first),
// which is ascending (address, length).
func (f *FIB) Entries() []FIBEntry {
	out := slices.Grow([]FIBEntry(nil), len(f.entries))
	var walk func(at int32)
	walk = func(at int32) {
		if at == none {
			return
		}
		n := f.nodes[at]
		if n.entry != none {
			out = append(out, f.entries[n.entry])
		}
		walk(n.children[0])
		walk(n.children[1])
	}
	walk(0)
	return out
}

func addrBits(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func bit(v uint32, i int) int {
	return int((v >> (31 - i)) & 1)
}
