// Package routing implements the protocol engines the emulation substrate
// runs: an OSPF link-state engine (per-router SPF over the advertised
// networks) and a BGP path-vector engine with the full decision process,
// route reflection, per-vendor tie-break profiles (§7.2) and oscillation
// detection.
//
// Engines consume DeviceConfig values recovered by parsing the *rendered
// configuration files* (see internal/emul): the pipeline's output artifact
// is executed, not trusted — a mis-generated config produces a
// mis-behaving emulated network, exactly as on the paper's Netkit
// deployments.
//
// A sequential BGP round costs what changed: every speaker keeps a
// versioned adj-RIB-out per export group and a turn consumes only the
// changes its peers published since it last looked (delta evaluation; see
// rib.go).
//
// Both engines persist across reconvergences. The OSPF/IS-IS domain diffs
// the canonical link-state database between Converge calls and re-runs
// Dijkstra only for sources whose shortest-path tree an edge or
// advertisement change can reach (delta SPF; see ospf.go), which is exact:
// the routes are a fresh domain's. The BGP engine is rebound to the edited
// configurations (BGPEngine.Rebind) and runs on from the selections it
// holds, so an incident costs its churn; its runs end at a fixed point of
// the protocol, which is a fresh engine's wherever the configuration has
// one stable state.
package routing

import (
	"fmt"
	"net/netip"
)

// InterfaceConfig is one configured data-plane interface.
type InterfaceConfig struct {
	Name   string
	Addr   netip.Addr
	Prefix netip.Prefix // the attached subnet
	Cost   int          // OSPF interface cost (default 1)
	// Passive marks an OSPF passive-interface: its subnet is advertised as
	// a stub network but no adjacency forms (used on eBGP-facing links).
	Passive bool
}

// OSPFNetwork is one `network <prefix> area <n>` statement.
type OSPFNetwork struct {
	Prefix netip.Prefix
	Area   int
}

// OSPFConfig is a router's OSPF process.
type OSPFConfig struct {
	ProcessID int
	Networks  []OSPFNetwork
}

// BGPNeighbor is one configured BGP session.
type BGPNeighbor struct {
	Addr         netip.Addr
	RemoteASN    int
	Description  string
	UpdateSource string // "lo" for loopback-sourced iBGP sessions
	RRClient     bool   // this neighbor is my route-reflector client
	MEDOut       int    // MED attached to routes advertised to this neighbor (0 = none)
	LocalPrefIn  int    // local-pref applied to routes received from this neighbor (0 = default 100)
}

// BGPConfig is a router's BGP process.
type BGPConfig struct {
	ASN       int
	RouterID  netip.Addr
	Networks  []netip.Prefix // originated prefixes
	Neighbors []BGPNeighbor
}

// ISISConfig is a router's IS-IS process (emulated equivalently to OSPF).
type ISISConfig struct {
	NET        string
	Interfaces []string
}

// DeviceConfig is the protocol state recovered from one device's rendered
// configuration files.
type DeviceConfig struct {
	Hostname   string
	Interfaces []InterfaceConfig
	Loopback   netip.Addr // zero value when absent
	// Gateway is the static default route target (servers).
	Gateway netip.Addr
	OSPF    *OSPFConfig
	BGP     *BGPConfig
	ISIS    *ISISConfig
}

// HasLoopback reports whether a loopback address is configured.
func (dc *DeviceConfig) HasLoopback() bool { return dc.Loopback.IsValid() }

// InterfaceByAddr returns the interface bearing addr.
func (dc *DeviceConfig) InterfaceByAddr(addr netip.Addr) (InterfaceConfig, bool) {
	for _, ic := range dc.Interfaces {
		if ic.Addr == addr {
			return ic, true
		}
	}
	return InterfaceConfig{}, false
}

// Validate performs basic consistency checks on a parsed config.
func (dc *DeviceConfig) Validate() error {
	if dc.Hostname == "" {
		return fmt.Errorf("routing: device has no hostname")
	}
	seen := map[netip.Addr]string{}
	for _, ic := range dc.Interfaces {
		if !ic.Addr.IsValid() || !ic.Prefix.IsValid() {
			return fmt.Errorf("routing: %s: interface %s has invalid addressing", dc.Hostname, ic.Name)
		}
		if !ic.Prefix.Contains(ic.Addr) {
			return fmt.Errorf("routing: %s: interface %s address %v outside subnet %v", dc.Hostname, ic.Name, ic.Addr, ic.Prefix)
		}
		if prev, dup := seen[ic.Addr]; dup {
			return fmt.Errorf("routing: %s: address %v on both %s and %s", dc.Hostname, ic.Addr, prev, ic.Name)
		}
		seen[ic.Addr] = ic.Name
	}
	if dc.BGP != nil && dc.BGP.ASN <= 0 {
		return fmt.Errorf("routing: %s: BGP with invalid ASN %d", dc.Hostname, dc.BGP.ASN)
	}
	return nil
}

// RouteOrigin identifies which protocol installed a route.
type RouteOrigin string

// Route origins in ascending administrative distance.
const (
	OriginConnected RouteOrigin = "connected"
	OriginOSPF      RouteOrigin = "ospf"
	OriginBGP       RouteOrigin = "bgp"
)

// Route is one candidate route for a device's forwarding table.
type Route struct {
	Prefix  netip.Prefix
	NextHop netip.Addr // zero for connected routes
	OutIf   string     // outgoing interface name
	Origin  RouteOrigin
	Metric  int
}
