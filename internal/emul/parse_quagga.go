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
	"net/netip"
	"strings"

	"autonetkit/internal/routing"
)

// parseQuaggaVM recovers a DeviceConfig from a Netkit/Quagga machine's
// files: the .startup script (interface addressing) plus the enabled
// daemons' files under etc/quagga, each read by the shared statement
// parser. It never fails fast: all problems with the machine's files are
// returned as diagnostics, and the returned config is usable only when
// none of them is error-level.
func parseQuaggaVM(hostname string, files map[string]string) (*routing.DeviceConfig, Diagnostics) {
	dc := &routing.DeviceConfig{Hostname: hostname}
	sink := &diagSink{device: hostname, file: hostname + ".startup"}
	if startup, ok := files[sink.file]; ok {
		parseStartup(dc, startup, sink)
	} else {
		sink.errorf(0, "no startup script")
	}
	all := sink.diags
	enabled := map[string]bool{}
	for _, line := range strings.Split(files["etc/quagga/daemons"], "\n") {
		if name, val, ok := strings.Cut(strings.TrimSpace(line), "="); ok && strings.TrimSpace(val) == "yes" {
			enabled[strings.TrimSpace(name)] = true
		}
	}
	for _, daemon := range []string{"ospfd", "bgpd", "isisd"} {
		if !enabled[daemon] {
			continue
		}
		sink := &diagSink{device: hostname, file: "etc/quagga/" + daemon + ".conf"}
		conf, ok := files[sink.file]
		if ok {
			parseStanzas(dc, conf, sink)
		}
		switch {
		case !ok:
			sink.errorf(0, "%s enabled but %s missing", daemon, sink.file)
		case daemon == "bgpd" && dc.BGP == nil:
			sink.errorf(0, "bgpd.conf has no router bgp block")
		case daemon == "isisd" && dc.ISIS == nil:
			sink.errorf(0, "isisd.conf has no NET address")
		}
		all = append(all, sink.diags...)
	}
	return dc, all
}

// parseStartup reads `/sbin/ifconfig <if> <addr> netmask <mask> ... up`
// lines — the interface addressing of the booted machine — and the default
// route. Bad lines are recorded and skipped.
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
		mask := "255.255.255.255"
		for i := 3; i+1 < len(fields); i++ {
			if fields[i] == "netmask" {
				mask = fields[i+1]
			}
		}
		p, err := parsePrefix("address", fields[2], mask, "netmask")
		if err != nil {
			sink.errorf(lineNo+1, "%v", err)
			continue
		}
		addInterface(dc, fields[1], p)
	}
}
