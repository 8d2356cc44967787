package emul

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"

	"autonetkit/internal/routing"
)

// The per-statement code every parser shares, and the one statement parser
// for the IOS-family grammar that Quagga's daemon files and IOS
// configurations have in common.

// maskLen converts a dotted mask of kind "netmask", or "wildcard" (IOS's
// inverted form, 0.0.0.3), to a prefix length.
func maskLen(mask, kind string) (int, error) {
	a, err := netip.ParseAddr(mask)
	if err != nil || !a.Is4() {
		return 0, fmt.Errorf("bad %s %q", kind, mask)
	}
	b := a.As4()
	v := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	if kind == "wildcard" {
		v = ^v
	}
	bits := 0
	for v&0x80000000 != 0 {
		bits++
		v <<= 1
	}
	if v != 0 {
		return 0, fmt.Errorf("non-contiguous %s %q", kind, mask)
	}
	return bits, nil
}

// parsePrefix parses addr in CIDR form when mask is "", else addr plus a
// dotted mask of kind (maskLen); noun names addr in the error. The prefix
// keeps addr's host bits.
func parsePrefix(noun, addr, mask, kind string) (netip.Prefix, error) {
	if mask == "" {
		p, err := netip.ParsePrefix(addr)
		if err != nil {
			return p, fmt.Errorf("bad %s %q", noun, addr)
		}
		return p, nil
	}
	a, err := netip.ParseAddr(addr)
	if err != nil {
		return netip.Prefix{}, fmt.Errorf("bad %s %q", noun, addr)
	}
	bits, err := maskLen(mask, kind)
	if err != nil {
		return netip.Prefix{}, err
	}
	return netip.PrefixFrom(a, bits), nil
}

// addInterface configures p (address and subnet) on the interface named
// name. A name starting with "lo" is the device's loopback: it becomes
// interface "lo" with a /32, whatever p's length.
func addInterface(dc *routing.DeviceConfig, name string, p netip.Prefix) {
	if strings.HasPrefix(strings.ToLower(name), "lo") {
		dc.Loopback = p.Addr()
		name, p = "lo", netip.PrefixFrom(p.Addr(), 32)
	}
	dc.Interfaces = append(dc.Interfaces, routing.InterfaceConfig{Name: name, Addr: p.Addr(), Prefix: p.Masked(), Cost: 1})
}

// eachInterface applies set to every interface named name or, when name
// is "", attached to subnet p.
func eachInterface(dc *routing.DeviceConfig, name string, p netip.Prefix, set func(*routing.InterfaceConfig)) {
	for i, ic := range dc.Interfaces {
		if (name != "" && ic.Name == name) || (name == "" && ic.Prefix == p) {
			set(&dc.Interfaces[i])
		}
	}
}

// neighbor returns bgp's session with addr, adding it when add is set and
// there is none; found reports whether it was already configured. The
// search runs from the newest session, which is where consecutive
// statements about one neighbor find it.
func neighbor(bgp *routing.BGPConfig, addr netip.Addr, add bool) (nbr *routing.BGPNeighbor, found bool) {
	for i := len(bgp.Neighbors) - 1; i >= 0; i-- {
		if bgp.Neighbors[i].Addr == addr {
			return &bgp.Neighbors[i], true
		}
	}
	if !add {
		return nil, false
	}
	bgp.Neighbors = append(bgp.Neighbors, routing.BGPNeighbor{Addr: addr})
	return &bgp.Neighbors[len(bgp.Neighbors)-1], false
}

// checkHostname warns about a configured hostname that is not the
// machine's: the machine name stays the device's identity.
func checkHostname(dc *routing.DeviceConfig, sink *diagSink, line int, name string) {
	if name != dc.Hostname {
		sink.warnf(line, "hostname %q is not the machine name; the device stays %q", name, dc.Hostname)
	}
}

// parseIOSConfig recovers a DeviceConfig from a rendered IOS configuration
// (one file per router, as produced for the Dynagen platform).
func parseIOSConfig(hostname, conf string) (*routing.DeviceConfig, Diagnostics) {
	dc := &routing.DeviceConfig{Hostname: hostname}
	sink := &diagSink{device: hostname, file: hostname + ".cfg"}
	parseStanzas(dc, conf, sink)
	return dc, sink.diags
}

// parseStanzas reads one file of the IOS-family grammar into dc. A
// statement's shape names its protocol, so Quagga's dialect and IOS's need
// no switch: `network P area A` and `network B W area A` are OSPF,
// `network P` and `network B mask M` are BGP, `ip address` is IOS's and
// `ip router isis` Quagga's. Stanza headers (interface, router, route-map)
// only set the context that `ip ...` and `set` statements need, and an
// `interface` header creates no interface: Quagga's come from the startup
// script, IOS's from `ip address`. A process is installed on dc only when
// its header parsed (IS-IS: when a NET was given); the statements of a
// process whose header is broken are still checked and then dropped.
// Malformed statements are recorded and the parse carries on.
func parseStanzas(dc *routing.DeviceConfig, conf string, sink *diagSink) {
	ospf, bgp, isis := routing.OSPFConfig{ProcessID: 1}, routing.BGPConfig{}, routing.ISISConfig{}
	hasOSPF, hasBGP := false, false
	iface, rmap := "", ""             // the interface / route-map stanza being read
	rmapValues := map[string][2]int{} // route-map -> {med, local-pref}
	var rmapRefs []rmapRef
	for lineNo, raw := range strings.Split(conf, "\n") {
		f := strings.Fields(raw)
		line := lineNo + 1
		switch {
		case len(f) == 0:
		case f[0] == "hostname" && len(f) >= 2:
			checkHostname(dc, sink, line, f[1])
		case f[0] == "interface" || f[0] == "router" || f[0] == "route-map":
			iface, rmap = "", ""
			switch {
			case len(f) < 2:
				sink.errorf(line, "%s without name", f[0])
			case f[0] == "interface":
				iface = f[1]
			case f[0] == "route-map":
				rmap = f[1]
				rmapValues[rmap] = rmapValues[rmap] // defined, even without a set statement
			case f[1] == "ospf" && len(f) >= 3:
				pid, err := strconv.Atoi(f[2])
				if err != nil {
					sink.errorf(line, "bad OSPF process id %q", f[2])
					continue
				}
				ospf.ProcessID, hasOSPF = pid, true
			case f[1] == "ospf":
				hasOSPF = true
			case f[1] == "bgp" && len(f) < 3:
				sink.errorf(line, "router bgp without ASN")
			case f[1] == "bgp":
				asn, err := strconv.Atoi(f[2])
				if err != nil {
					sink.errorf(line, "bad ASN %q", f[2])
					continue
				}
				bgp.ASN, hasBGP = asn, true
			}
		case f[0] == "ip" && len(f) >= 4 && f[1] == "address" && iface != "":
			p, err := parsePrefix("address", f[2], f[3], "netmask")
			if err != nil {
				sink.errorf(line, "%v", err)
				continue
			}
			addInterface(dc, iface, p)
		case f[0] == "ip" && len(f) == 4 && f[1] == "ospf" && f[2] == "cost" && iface != "":
			cost, err := strconv.Atoi(f[3])
			if err != nil {
				sink.errorf(line, "bad cost %q", f[3])
				continue
			}
			eachInterface(dc, iface, netip.Prefix{}, func(ic *routing.InterfaceConfig) { ic.Cost = cost })
		case f[0] == "ip" && len(f) >= 3 && f[1] == "router" && f[2] == "isis" && iface != "":
			isis.Interfaces = append(isis.Interfaces, iface)
		case f[0] == "passive-interface" && len(f) == 2:
			eachInterface(dc, f[1], netip.Prefix{}, func(ic *routing.InterfaceConfig) { ic.Passive = true })
		case f[0] == "network" && (len(f) == 4 && f[2] == "area" || len(f) == 5 && f[3] == "area"):
			mask := "" // Quagga: network P area A; IOS: network B W area A
			if len(f) == 5 {
				mask = f[2]
			}
			p, err := parsePrefix("network", f[1], mask, "wildcard")
			if err != nil {
				sink.errorf(line, "%v", err)
				continue
			}
			p = p.Masked()
			area, err := strconv.Atoi(f[len(f)-1])
			if err != nil {
				sink.errorf(line, "bad area %q", f[len(f)-1])
				continue
			}
			ospf.Networks = append(ospf.Networks, routing.OSPFNetwork{Prefix: p, Area: area})
		case f[0] == "network" && (len(f) == 2 || len(f) == 4 && f[2] == "mask"):
			mask := "" // Quagga: network P; IOS: network B mask M
			if len(f) == 4 {
				mask = f[3]
			}
			p, err := parsePrefix("network", f[1], mask, "netmask")
			if err != nil {
				sink.errorf(line, "%v", err)
				continue
			}
			bgp.Networks = append(bgp.Networks, p.Masked())
		case f[0] == "bgp" && len(f) == 3 && f[1] == "router-id":
			rid, err := netip.ParseAddr(f[2])
			if err != nil {
				sink.errorf(line, "bad router-id %q", f[2])
				continue
			}
			bgp.RouterID = rid
		case f[0] == "neighbor" && len(f) >= 3:
			if ref, ok := neighborStatement(&bgp, f, line, sink); ok {
				rmapRefs = append(rmapRefs, ref)
			}
		case f[0] == "set" && len(f) >= 3 && rmap != "":
			v, err := strconv.Atoi(f[len(f)-1])
			if err != nil {
				sink.errorf(line, "bad set value %q", f[len(f)-1])
				continue
			}
			vals := rmapValues[rmap]
			switch f[1] {
			case "metric":
				vals[0] = v
			case "local-preference":
				vals[1] = v
			}
			rmapValues[rmap] = vals
		case f[0] == "net" && len(f) == 2:
			isis.NET = f[1]
		case f[0] == "net":
			sink.errorf(line, "malformed net %q", strings.TrimSpace(raw))
		}
	}
	for _, ref := range rmapRefs {
		vals, ok := rmapValues[ref.name]
		if !ok {
			sink.errorf(ref.line, "neighbor %v references undefined route-map %q", ref.nbr, ref.name)
			continue
		}
		nbr, _ := neighbor(&bgp, ref.nbr, false)
		if ref.out {
			nbr.MEDOut = vals[0]
		} else {
			nbr.LocalPrefIn = vals[1]
		}
	}
	if hasOSPF {
		dc.OSPF = &ospf
	}
	if hasBGP {
		dc.BGP = &bgp
	}
	if isis.NET != "" {
		dc.ISIS = &isis
	}
}

// rmapRef is a `neighbor <a> route-map <name> in|out` statement, resolved
// once every route-map of the file has been read.
type rmapRef struct {
	nbr  netip.Addr
	name string
	out  bool
	line int
}

// neighborStatement applies `neighbor <a> remote-as | update-source |
// route-reflector-client | description | route-map ...` to bgp; a route-map
// reference is returned for resolution at the end of the file.
func neighborStatement(bgp *routing.BGPConfig, f []string, line int, sink *diagSink) (rmapRef, bool) {
	addr, err := netip.ParseAddr(f[1])
	if err != nil {
		sink.errorf(line, "bad neighbor %q", f[1])
		return rmapRef{}, false
	}
	nbr, _ := neighbor(bgp, addr, true)
	switch {
	case f[2] == "route-reflector-client":
		nbr.RRClient = true
	case f[2] == "description":
		nbr.Description = strings.Join(f[3:], " ")
	case len(f) < 4 && (f[2] == "remote-as" || f[2] == "update-source" || f[2] == "route-map"):
		sink.errorf(line, "%s without argument", f[2])
	case f[2] == "remote-as":
		if asn, err := strconv.Atoi(f[3]); err != nil {
			sink.errorf(line, "bad remote-as %q", f[3])
		} else {
			nbr.RemoteASN = asn
		}
	case f[2] == "update-source":
		nbr.UpdateSource = f[3]
	case f[2] == "route-map":
		return rmapRef{addr, f[3], len(f) > 4 && f[4] == "out", line}, true
	}
	return rmapRef{}, false
}
