package routing

import (
	"fmt"
	"hash/fnv"
	"net/netip"
)

// Reconvergence support: content signatures for device configurations and
// the canonical link-state bookkeeping delta SPF diffs between Converge
// calls. The correctness bar for everything in this file is byte-identity:
// a converge that consults these signatures must produce exactly the state
// a from-scratch converge would.

// ConfigSignature hashes every field of a device configuration that any
// routing engine or the data plane reads: hostname, interfaces (all
// fields), loopback, gateway, and the OSPF/BGP/IS-IS stanzas. Two configs
// with equal signatures drive every engine identically; trajectory replay
// uses this to decide which speakers' recorded state is still trustworthy.
func ConfigSignature(dc *DeviceConfig) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "h%s|lo%v|gw%v|", dc.Hostname, dc.Loopback, dc.Gateway)
	for _, ic := range dc.Interfaces {
		fmt.Fprintf(h, "i%s|%v|%v|%d|%v|", ic.Name, ic.Addr, ic.Prefix, ic.Cost, ic.Passive)
	}
	if dc.OSPF != nil {
		fmt.Fprintf(h, "o%d|", dc.OSPF.ProcessID)
		for _, n := range dc.OSPF.Networks {
			fmt.Fprintf(h, "n%v|%d|", n.Prefix, n.Area)
		}
	}
	if dc.BGP != nil {
		fmt.Fprintf(h, "b%d|%v|", dc.BGP.ASN, dc.BGP.RouterID)
		for _, p := range dc.BGP.Networks {
			fmt.Fprintf(h, "p%v|", p)
		}
		for _, nb := range dc.BGP.Neighbors {
			fmt.Fprintf(h, "nb%v|%d|%s|%s|%v|%d|%d|", nb.Addr, nb.RemoteASN,
				nb.Description, nb.UpdateSource, nb.RRClient, nb.MEDOut, nb.LocalPrefIn)
		}
	}
	if dc.ISIS != nil {
		fmt.Fprintf(h, "s%s|", dc.ISIS.NET)
		for _, name := range dc.ISIS.Interfaces {
			fmt.Fprintf(h, "si%s|", name)
		}
	}
	return h.Sum64()
}

// edgeKey canonically identifies one link-state adjacency: the two hosts
// (a < b by construction — attachments are enumerated in sorted host
// order), their interface names and the shared subnet. n disambiguates the
// pathological case of the same host pair sharing the same subnet through
// identically-named interfaces more than once.
type edgeKey struct {
	a, b     string
	aIf, bIf string
	prefix   netip.Prefix
	n        int
}

// edgeVal carries the per-direction costs (normalized to >= 1, as the SPF
// uses them) and the endpoint addresses (the next-hop each direction
// installs). A value change is treated as remove-old + add-new.
type edgeVal struct {
	ca, cb       int
	aAddr, bAddr netip.Addr
}

// advertSignature hashes the parts of a device that shape every OTHER
// router's routes toward it: its advertised (prefix, cost) pairs in order,
// plus all interface prefixes (which feed the srcAttached suppression on
// the device's own route table). Edge-level facts (adjacency existence,
// link costs, next-hop addresses) are covered by the edge diff instead.
func advertSignature(dc *DeviceConfig) uint64 {
	h := fnv.New64a()
	for _, x := range ospfIfaces(dc) {
		fmt.Fprintf(h, "a%v|%d|", x.ic.Prefix, x.ic.Cost)
	}
	for _, ic := range dc.Interfaces {
		fmt.Fprintf(h, "i%v|", ic.Prefix)
	}
	return h.Sum64()
}

// routesEqual compares two route slices element-wise (Route is
// comparable).
func routesEqual(a, b []Route) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
