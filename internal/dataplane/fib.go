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
	"net/netip"
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
// a binary trie.
type FIB struct {
	root *fibNode
	size int
}

type fibNode struct {
	children [2]*fibNode
	entry    *FIBEntry
}

// NewFIB returns an empty table.
func NewFIB() *FIB { return &FIB{root: &fibNode{}} }

// Insert adds or replaces the entry for its prefix.
func (f *FIB) Insert(e FIBEntry) error {
	if !e.Prefix.Addr().Is4() {
		return fmt.Errorf("dataplane: FIB is IPv4-only, got %v", e.Prefix)
	}
	p := e.Prefix.Masked()
	bits := addrBits(p.Addr())
	cur := f.root
	for i := 0; i < p.Bits(); i++ {
		b := bit(bits, i)
		if cur.children[b] == nil {
			cur.children[b] = &fibNode{}
		}
		cur = cur.children[b]
	}
	if cur.entry == nil {
		f.size++
	}
	e.Prefix = p
	cur.entry = &e
	return nil
}

// Lookup returns the longest-prefix-match entry for addr.
func (f *FIB) Lookup(addr netip.Addr) (FIBEntry, bool) {
	e := f.lookup(addr)
	if e == nil {
		return FIBEntry{}, false
	}
	return *e, true
}

// lookup is Lookup without the copy: the installed entry itself (nil for no
// match). Entries are never mutated once inserted, so forwarding reads them
// in place.
func (f *FIB) lookup(addr netip.Addr) *FIBEntry {
	if !addr.Is4() {
		return nil
	}
	bits := addrBits(addr)
	cur := f.root
	var best *FIBEntry
	for i := 0; ; i++ {
		if cur.entry != nil {
			best = cur.entry
		}
		if i >= 32 {
			break
		}
		next := cur.children[bit(bits, i)]
		if next == nil {
			break
		}
		cur = next
	}
	return best
}

// Len returns the number of installed prefixes.
func (f *FIB) Len() int { return f.size }

// Entries returns all entries in prefix order (depth-first, zeros first).
func (f *FIB) Entries() []FIBEntry {
	var out []FIBEntry
	var walk func(n *fibNode)
	walk = func(n *fibNode) {
		if n == nil {
			return
		}
		if n.entry != nil {
			out = append(out, *n.entry)
		}
		walk(n.children[0])
		walk(n.children[1])
	}
	walk(f.root)
	return out
}

func addrBits(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func bit(v uint32, i int) int {
	return int((v >> (31 - i)) & 1)
}
