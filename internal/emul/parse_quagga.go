// Package emul implements the emulation platform substrate: labs of
// virtual machines that boot from the *rendered configuration tree*
// (lab.conf, startup scripts, per-daemon config files), recover their
// protocol state by parsing those files, and run the routing engines and
// data plane of internal/routing and internal/dataplane. This substitutes
// for the paper's Netkit/UML deployment while preserving the property that
// matters: the generated configurations are executed, so generation errors
// surface as network misbehaviour.
//
// The ingestion parsers run in error-recovery mode: a malformed statement
// is recorded as a located Diagnostic and the parse continues with the
// next stanza, so one boot reports every problem in a device's
// configuration at once instead of dying on the first bad byte.
//
// Reconvergence after incident injection goes through one pipeline: the
// OSPF and IS-IS domains and the BGP engine live as long as the lab. SPF
// re-runs only for the sources a diffed link-state change can touch (delta
// SPF), the BGP engine is rebound to the edited configs and continues from
// the selections it holds, and every data-plane node is rebuilt. See the
// routing package for the per-engine mechanics and ARCHITECTURE.md
// ("Reconvergence on a persisted engine") for the invariants.
package emul

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"

	"autonetkit/internal/routing"
)

// parseQuaggaVM recovers a DeviceConfig from a Netkit/Quagga machine's
// files: the .startup script (interface addressing) plus
// etc/quagga/{daemons,ospfd.conf,bgpd.conf,isisd.conf}. It never fails
// fast: all problems with the machine's files are returned as
// diagnostics, and the returned config is usable only when none of them
// is error-level.
func parseQuaggaVM(hostname string, files map[string]string) (*routing.DeviceConfig, Diagnostics) {
	dc := &routing.DeviceConfig{Hostname: hostname}
	var all Diagnostics

	startupFile := hostname + ".startup"
	sink := &diagSink{device: hostname, file: startupFile}
	startup, ok := files[startupFile]
	if !ok {
		sink.errorf(0, "no startup script")
	} else {
		parseStartup(dc, startup, sink)
	}
	all = append(all, sink.diags...)

	daemons := files["etc/quagga/daemons"]
	enabled := map[string]bool{}
	for _, line := range strings.Split(daemons, "\n") {
		line = strings.TrimSpace(line)
		if name, val, ok := strings.Cut(line, "="); ok && strings.TrimSpace(val) == "yes" {
			enabled[strings.TrimSpace(name)] = true
		}
	}
	daemonParsers := []struct {
		daemon string
		file   string
		parse  func(*routing.DeviceConfig, string, *diagSink)
	}{
		{"ospfd", "etc/quagga/ospfd.conf", parseQuaggaOspfd},
		{"bgpd", "etc/quagga/bgpd.conf", parseQuaggaBgpd},
		{"isisd", "etc/quagga/isisd.conf", parseQuaggaIsisd},
	}
	for _, dp := range daemonParsers {
		if !enabled[dp.daemon] {
			continue
		}
		sink := &diagSink{device: hostname, file: dp.file}
		conf, ok := files[dp.file]
		if !ok {
			sink.errorf(0, "%s enabled but %s missing", dp.daemon, dp.file)
		} else {
			dp.parse(dc, conf, sink)
		}
		all = append(all, sink.diags...)
	}
	// Whole-device validation only makes sense over a fully parsed config;
	// when stanzas were already rejected, their diagnostics carry the cause.
	if !all.HasErrors() {
		if err := dc.Validate(); err != nil {
			all = append(all, Diagnostic{Severity: SevError, Device: hostname, Message: err.Error()})
		}
	}
	return dc, all
}

// parseStartup reads `/sbin/ifconfig <if> <addr> netmask <mask> ... up`
// lines — the interface addressing of the booted machine. Bad lines are
// recorded and skipped.
func parseStartup(dc *routing.DeviceConfig, startup string, sink *diagSink) {
	for lineNo, line := range strings.Split(startup, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 5 && strings.HasSuffix(fields[0], "route") &&
			fields[1] == "add" && fields[2] == "default" && fields[3] == "gw" {
			gw, err := netip.ParseAddr(fields[4])
			if err != nil {
				sink.errorf(lineNo+1, "bad gateway %q", fields[4])
				continue
			}
			dc.Gateway = gw
			continue
		}
		if len(fields) < 3 || !strings.HasSuffix(fields[0], "ifconfig") {
			continue
		}
		ifName := fields[1]
		addr, err := netip.ParseAddr(fields[2])
		if err != nil {
			sink.errorf(lineNo+1, "bad address %q", fields[2])
			continue
		}
		bits := 32
		badMask := false
		for i := 3; i+1 < len(fields); i++ {
			if fields[i] == "netmask" {
				b, err := maskBits(fields[i+1])
				if err != nil {
					sink.errorf(lineNo+1, "%v", err)
					badMask = true
					break
				}
				bits = b
			}
		}
		if badMask {
			continue
		}
		if strings.HasPrefix(ifName, "lo") {
			dc.Loopback = addr
			dc.Interfaces = append(dc.Interfaces, routing.InterfaceConfig{
				Name: "lo", Addr: addr, Prefix: netip.PrefixFrom(addr, 32), Cost: 1,
			})
			continue
		}
		dc.Interfaces = append(dc.Interfaces, routing.InterfaceConfig{
			Name: ifName, Addr: addr,
			Prefix: netip.PrefixFrom(addr, bits).Masked(), Cost: 1,
		})
	}
}

// maskBits converts a dotted netmask to a prefix length.
func maskBits(mask string) (int, error) {
	a, err := netip.ParseAddr(mask)
	if err != nil || !a.Is4() {
		return 0, fmt.Errorf("bad netmask %q", mask)
	}
	b := a.As4()
	v := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	bits := 0
	for v&0x80000000 != 0 {
		bits++
		v <<= 1
	}
	if v != 0 {
		return 0, fmt.Errorf("non-contiguous netmask %q", mask)
	}
	return bits, nil
}

// parseQuaggaOspfd reads interface costs and `router ospf` network
// statements, recording malformed statements and continuing.
func parseQuaggaOspfd(dc *routing.DeviceConfig, conf string, sink *diagSink) {
	dc.OSPF = &routing.OSPFConfig{ProcessID: 1}
	curIface := ""
	inRouter := false
	for lineNo, raw := range strings.Split(conf, "\n") {
		line := strings.TrimSpace(raw)
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch {
		case fields[0] == "interface" && len(fields) >= 2:
			curIface = fields[1]
			inRouter = false
		case fields[0] == "router" && len(fields) >= 2 && fields[1] == "ospf":
			inRouter = true
			curIface = ""
		case curIface != "" && strings.HasPrefix(line, "ip ospf cost") && len(fields) == 4:
			cost, err := strconv.Atoi(fields[3])
			if err != nil {
				sink.errorf(lineNo+1, "bad cost %q", fields[3])
				continue
			}
			for i := range dc.Interfaces {
				if dc.Interfaces[i].Name == curIface {
					dc.Interfaces[i].Cost = cost
				}
			}
		case inRouter && fields[0] == "passive-interface" && len(fields) == 2:
			for i := range dc.Interfaces {
				if dc.Interfaces[i].Name == fields[1] {
					dc.Interfaces[i].Passive = true
				}
			}
		case inRouter && fields[0] == "network" && len(fields) == 4 && fields[2] == "area":
			p, err := netip.ParsePrefix(fields[1])
			if err != nil {
				sink.errorf(lineNo+1, "bad network %q", fields[1])
				continue
			}
			area, err := strconv.Atoi(fields[3])
			if err != nil {
				sink.errorf(lineNo+1, "bad area %q", fields[3])
				continue
			}
			dc.OSPF.Networks = append(dc.OSPF.Networks, routing.OSPFNetwork{Prefix: p.Masked(), Area: area})
		}
	}
}

// parseQuaggaIsisd reads the `router isis` block (NET address) and the
// interfaces enabled with `ip router isis`.
func parseQuaggaIsisd(dc *routing.DeviceConfig, conf string, sink *diagSink) {
	cfg := &routing.ISISConfig{}
	curIface := ""
	for lineNo, raw := range strings.Split(conf, "\n") {
		line := strings.TrimSpace(raw)
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch {
		case fields[0] == "interface" && len(fields) >= 2:
			curIface = fields[1]
		case fields[0] == "router" && len(fields) >= 3 && fields[1] == "isis":
			curIface = ""
		case fields[0] == "net" && len(fields) == 2:
			cfg.NET = fields[1]
		case curIface != "" && strings.HasPrefix(line, "ip router isis"):
			cfg.Interfaces = append(cfg.Interfaces, curIface)
		case fields[0] == "hostname", fields[0] == "password", fields[0] == "metric-style":
			// header / cosmetic statements
		default:
			if strings.HasPrefix(line, "net ") {
				sink.errorf(lineNo+1, "malformed net %q", line)
			}
		}
	}
	if cfg.NET == "" {
		sink.errorf(0, "isisd.conf has no NET address")
		return
	}
	dc.ISIS = cfg
}

// parseQuaggaBgpd reads the `router bgp` block plus route-maps for MED and
// local-pref policies.
func parseQuaggaBgpd(dc *routing.DeviceConfig, conf string, sink *diagSink) {
	bgp := &routing.BGPConfig{}
	type rmapRef struct {
		nbr  netip.Addr
		name string
		out  bool
		line int
	}
	var rmapRefs []rmapRef
	rmapValues := map[string][2]int{} // name -> {med, localpref}
	curRmap := ""
	nbrIndex := map[netip.Addr]int{}

	getNbr := func(addr netip.Addr) *routing.BGPNeighbor {
		if i, ok := nbrIndex[addr]; ok {
			return &bgp.Neighbors[i]
		}
		bgp.Neighbors = append(bgp.Neighbors, routing.BGPNeighbor{Addr: addr})
		nbrIndex[addr] = len(bgp.Neighbors) - 1
		return &bgp.Neighbors[len(bgp.Neighbors)-1]
	}

	for lineNo, raw := range strings.Split(conf, "\n") {
		line := strings.TrimSpace(raw)
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch {
		case fields[0] == "router" && len(fields) >= 3 && fields[1] == "bgp":
			asn, err := strconv.Atoi(fields[2])
			if err != nil {
				sink.errorf(lineNo+1, "bad ASN %q", fields[2])
				continue
			}
			bgp.ASN = asn
			curRmap = ""
		case fields[0] == "bgp" && len(fields) == 3 && fields[1] == "router-id":
			rid, err := netip.ParseAddr(fields[2])
			if err != nil {
				sink.errorf(lineNo+1, "bad router-id %q", fields[2])
				continue
			}
			bgp.RouterID = rid
		case fields[0] == "network" && len(fields) == 2:
			p, err := netip.ParsePrefix(fields[1])
			if err != nil {
				sink.errorf(lineNo+1, "bad network %q", fields[1])
				continue
			}
			bgp.Networks = append(bgp.Networks, p.Masked())
		case fields[0] == "neighbor" && len(fields) >= 3:
			addr, err := netip.ParseAddr(fields[1])
			if err != nil {
				sink.errorf(lineNo+1, "bad neighbor %q", fields[1])
				continue
			}
			nbr := getNbr(addr)
			switch fields[2] {
			case "remote-as":
				if len(fields) < 4 {
					sink.errorf(lineNo+1, "remote-as without ASN")
					continue
				}
				asn, err := strconv.Atoi(fields[3])
				if err != nil {
					sink.errorf(lineNo+1, "bad remote-as %q", fields[3])
					continue
				}
				nbr.RemoteASN = asn
			case "update-source":
				if len(fields) < 4 {
					sink.errorf(lineNo+1, "update-source without interface")
					continue
				}
				nbr.UpdateSource = fields[3]
			case "route-reflector-client":
				nbr.RRClient = true
			case "description":
				nbr.Description = strings.Join(fields[3:], " ")
			case "route-map":
				if len(fields) < 4 {
					sink.errorf(lineNo+1, "route-map without name")
					continue
				}
				rmapRefs = append(rmapRefs, rmapRef{addr, fields[3], len(fields) > 4 && fields[4] == "out", lineNo + 1})
			}
		case fields[0] == "route-map" && len(fields) >= 2:
			curRmap = fields[1]
			if _, ok := rmapValues[curRmap]; !ok {
				rmapValues[curRmap] = [2]int{}
			}
		case curRmap != "" && fields[0] == "set" && len(fields) >= 3:
			v, err := strconv.Atoi(fields[len(fields)-1])
			if err != nil {
				sink.errorf(lineNo+1, "bad set value %q", fields[len(fields)-1])
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
	// Apply route-maps to neighbors.
	for _, ref := range rmapRefs {
		vals, ok := rmapValues[ref.name]
		if !ok {
			sink.errorf(ref.line, "neighbor %v references undefined route-map %q", ref.nbr, ref.name)
			continue
		}
		nbr := getNbr(ref.nbr)
		if ref.out {
			nbr.MEDOut = vals[0]
		} else {
			nbr.LocalPrefIn = vals[1]
		}
	}
	if bgp.ASN == 0 {
		sink.errorf(0, "bgpd.conf has no router bgp block")
		return
	}
	dc.BGP = bgp
}
