package emul

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"

	"autonetkit/internal/routing"
)

// parseIOSConfig recovers a DeviceConfig from a rendered IOS configuration
// (one file per router, as produced for the Dynagen platform). Malformed
// statements are recorded as diagnostics and the parse continues with the
// next statement; a section whose header is unusable (e.g. `router bgp`
// with a bad ASN) is skipped wholesale so its body cannot be
// misattributed.
func parseIOSConfig(hostname, conf string) (*routing.DeviceConfig, Diagnostics) {
	dc := &routing.DeviceConfig{Hostname: hostname}
	sink := &diagSink{device: hostname, file: hostname + ".cfg"}
	var bgp *routing.BGPConfig
	var ospf *routing.OSPFConfig
	type rmapRef struct {
		nbr  netip.Addr
		name string
		out  bool
		line int
	}
	var rmapRefs []rmapRef
	rmapValues := map[string][2]int{}
	nbrIndex := map[netip.Addr]int{}
	getNbr := func(addr netip.Addr) *routing.BGPNeighbor {
		if i, ok := nbrIndex[addr]; ok {
			return &bgp.Neighbors[i]
		}
		bgp.Neighbors = append(bgp.Neighbors, routing.BGPNeighbor{Addr: addr})
		nbrIndex[addr] = len(bgp.Neighbors) - 1
		return &bgp.Neighbors[len(bgp.Neighbors)-1]
	}

	section := "" // "", "interface", "ospf", "bgp", "route-map"
	curIface := -1
	curRmap := ""
	isLoopback := false

	for lineNo, raw := range strings.Split(conf, "\n") {
		line := strings.TrimRight(raw, " \r")
		trimmed := strings.TrimSpace(line)
		fields := strings.Fields(trimmed)
		if len(fields) == 0 || trimmed == "!" {
			continue
		}
		fail := func(msg string) {
			sink.errorf(lineNo+1, "%s in %q", msg, trimmed)
		}
		// Top-level statements reset the section.
		if !strings.HasPrefix(line, " ") {
			section = ""
			curIface = -1
			switch fields[0] {
			case "hostname":
				if len(fields) >= 2 {
					dc.Hostname = fields[1]
				}
			case "interface":
				if len(fields) < 2 {
					fail("interface without name")
					continue
				}
				section = "interface"
				isLoopback = strings.HasPrefix(strings.ToLower(fields[1]), "lo")
				if !isLoopback {
					dc.Interfaces = append(dc.Interfaces, routing.InterfaceConfig{Name: fields[1], Cost: 1})
					curIface = len(dc.Interfaces) - 1
				}
			case "router":
				if len(fields) < 2 {
					fail("bare router")
					continue
				}
				switch fields[1] {
				case "ospf":
					pid := 1
					if len(fields) >= 3 {
						n, err := strconv.Atoi(fields[2])
						if err != nil {
							fail("bad OSPF process id")
							continue
						}
						pid = n
					}
					ospf = &routing.OSPFConfig{ProcessID: pid}
					section = "ospf"
				case "bgp":
					if len(fields) < 3 {
						fail("router bgp without ASN")
						continue
					}
					asn, err := strconv.Atoi(fields[2])
					if err != nil {
						fail("bad ASN")
						continue
					}
					bgp = &routing.BGPConfig{ASN: asn}
					section = "bgp"
				}
			case "route-map":
				if len(fields) < 2 {
					fail("bare route-map")
					continue
				}
				curRmap = fields[1]
				if _, ok := rmapValues[curRmap]; !ok {
					rmapValues[curRmap] = [2]int{}
				}
				section = "route-map"
			}
			continue
		}
		// Indented statements belong to the current section.
		switch section {
		case "interface":
			switch {
			case fields[0] == "ip" && len(fields) >= 4 && fields[1] == "address":
				addr, err := netip.ParseAddr(fields[2])
				if err != nil {
					fail("bad address")
					continue
				}
				bits, err := maskBits(fields[3])
				if err != nil {
					fail(err.Error())
					continue
				}
				if isLoopback {
					dc.Loopback = addr
					dc.Interfaces = append(dc.Interfaces, routing.InterfaceConfig{
						Name: "lo", Addr: addr, Prefix: netip.PrefixFrom(addr, 32), Cost: 1,
					})
				} else if curIface >= 0 {
					dc.Interfaces[curIface].Addr = addr
					dc.Interfaces[curIface].Prefix = netip.PrefixFrom(addr, bits).Masked()
				}
			case fields[0] == "ip" && len(fields) == 4 && fields[1] == "ospf" && fields[2] == "cost":
				cost, err := strconv.Atoi(fields[3])
				if err != nil {
					fail("bad cost")
					continue
				}
				if curIface >= 0 {
					dc.Interfaces[curIface].Cost = cost
				}
			}
		case "ospf":
			if fields[0] == "passive-interface" && len(fields) == 2 {
				for i := range dc.Interfaces {
					if dc.Interfaces[i].Name == fields[1] {
						dc.Interfaces[i].Passive = true
					}
				}
			}
			if fields[0] == "network" && len(fields) == 5 && fields[3] == "area" {
				base, err := netip.ParseAddr(fields[1])
				if err != nil {
					fail("bad network address")
					continue
				}
				bits, err := wildcardBits(fields[2])
				if err != nil {
					fail(err.Error())
					continue
				}
				area, err := strconv.Atoi(fields[4])
				if err != nil {
					fail("bad area")
					continue
				}
				ospf.Networks = append(ospf.Networks, routing.OSPFNetwork{
					Prefix: netip.PrefixFrom(base, bits).Masked(), Area: area,
				})
			}
		case "bgp":
			switch {
			case fields[0] == "bgp" && len(fields) == 3 && fields[1] == "router-id":
				rid, err := netip.ParseAddr(fields[2])
				if err != nil {
					fail("bad router-id")
					continue
				}
				bgp.RouterID = rid
			case fields[0] == "network" && len(fields) == 4 && fields[2] == "mask":
				base, err := netip.ParseAddr(fields[1])
				if err != nil {
					fail("bad network")
					continue
				}
				bits, err := maskBits(fields[3])
				if err != nil {
					fail(err.Error())
					continue
				}
				bgp.Networks = append(bgp.Networks, netip.PrefixFrom(base, bits).Masked())
			case fields[0] == "neighbor" && len(fields) >= 3:
				addr, err := netip.ParseAddr(fields[1])
				if err != nil {
					fail("bad neighbor")
					continue
				}
				nbr := getNbr(addr)
				switch fields[2] {
				case "remote-as":
					if len(fields) < 4 {
						fail("remote-as without ASN")
						continue
					}
					asn, err := strconv.Atoi(fields[3])
					if err != nil {
						fail("bad remote-as")
						continue
					}
					nbr.RemoteASN = asn
				case "update-source":
					if len(fields) < 4 {
						fail("update-source without interface")
						continue
					}
					nbr.UpdateSource = fields[3]
				case "route-reflector-client":
					nbr.RRClient = true
				case "description":
					nbr.Description = strings.Join(fields[3:], " ")
				case "route-map":
					if len(fields) < 4 {
						fail("route-map without name")
						continue
					}
					rmapRefs = append(rmapRefs, rmapRef{addr, fields[3], len(fields) > 4 && fields[4] == "out", lineNo + 1})
				}
			}
		case "route-map":
			if fields[0] == "set" && len(fields) >= 3 {
				v, err := strconv.Atoi(fields[len(fields)-1])
				if err != nil {
					fail("bad set value")
					continue
				}
				vals := rmapValues[curRmap]
				switch fields[1] {
				case "metric":
					vals[0] = v
				case "local-preference":
					vals[1] = v
				}
				rmapValues[curRmap] = vals
			}
		}
	}
	if bgp != nil {
		for _, ref := range rmapRefs {
			vals, ok := rmapValues[ref.name]
			if !ok {
				sink.errorf(ref.line, "undefined route-map %q", ref.name)
				continue
			}
			nbr := getNbr(ref.nbr)
			if ref.out {
				nbr.MEDOut = vals[0]
			} else {
				nbr.LocalPrefIn = vals[1]
			}
		}
	}
	dc.OSPF = ospf
	dc.BGP = bgp
	if !sink.diags.HasErrors() {
		if err := dc.Validate(); err != nil {
			sink.errorf(0, "%v", err)
		}
	}
	return dc, sink.diags
}

// wildcardBits converts an IOS wildcard mask (0.0.0.3) to a prefix length.
func wildcardBits(wc string) (int, error) {
	a, err := netip.ParseAddr(wc)
	if err != nil || !a.Is4() {
		return 0, fmt.Errorf("bad wildcard %q", wc)
	}
	b := a.As4()
	v := ^(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]))
	bits := 0
	for v&0x80000000 != 0 {
		bits++
		v <<= 1
	}
	if v != 0 {
		return 0, fmt.Errorf("non-contiguous wildcard %q", wc)
	}
	return bits, nil
}
