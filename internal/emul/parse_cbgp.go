package emul

import (
	"net/netip"
	"strconv"
	"strings"

	"autonetkit/internal/routing"
)

// cbgpLab is the parsed form of a C-BGP script: router configs (keyed by
// loopback, which is the node identity in C-BGP) plus the weighted link
// graph used as the IGP.
type cbgpLab struct {
	devices []*routing.DeviceConfig
	igp     *cbgpIGP
}

// parseCBGPScript parses the lab.cli script the renderer produces.
// Malformed lines are recorded as diagnostics — attributed to the current
// router block's device when inside one — and the parse continues, so one
// pass surfaces every problem in the script.
func parseCBGPScript(script string) (*cbgpLab, Diagnostics) {
	lab := &cbgpLab{igp: newCBGPIGP()}
	byAddr := map[netip.Addr]*routing.DeviceConfig{}
	var current *routing.DeviceConfig
	sink := &diagSink{file: "lab.cli"} // device: the current router block's

	for lineNo, raw := range strings.Split(script, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		fail := func(msg string) { sink.errorf(lineNo+1, "%s in %q", msg, line) }
		switch {
		case fields[0] == "net" && len(fields) >= 4 && fields[1] == "add" && fields[2] == "node":
			addr, err := netip.ParseAddr(fields[3])
			if err != nil {
				fail("bad node address " + strconv.Quote(fields[3]))
				continue
			}
			dc := &routing.DeviceConfig{Hostname: addr.String()}
			addInterface(dc, "lo", netip.PrefixFrom(addr, 32))
			byAddr[addr] = dc
			lab.devices = append(lab.devices, dc)
		case fields[0] == "net" && len(fields) >= 5 && fields[1] == "add" && fields[2] == "link":
			a, err1 := netip.ParseAddr(fields[3])
			b, err2 := netip.ParseAddr(fields[4])
			if err1 != nil || err2 != nil {
				fail("bad link endpoints")
				continue
			}
			w := 1
			if len(fields) >= 6 {
				w, err1 = strconv.Atoi(fields[5])
				if err1 != nil {
					fail("bad link weight " + strconv.Quote(fields[5]))
					continue
				}
			}
			lab.igp.addLink(a, b, w)
		case fields[0] == "bgp" && len(fields) >= 5 && fields[1] == "add" && fields[2] == "router":
			asn, err := strconv.Atoi(fields[3])
			if err != nil {
				fail("bad ASN " + strconv.Quote(fields[3]))
				continue
			}
			addr, err := netip.ParseAddr(fields[4])
			if err != nil {
				fail("bad router address " + strconv.Quote(fields[4]))
				continue
			}
			dc, ok := byAddr[addr]
			if !ok {
				fail("bgp router for undeclared node")
				continue
			}
			dc.BGP = &routing.BGPConfig{ASN: asn, RouterID: addr}
		case fields[0] == "bgp" && len(fields) >= 3 && fields[1] == "router":
			addr, err := netip.ParseAddr(fields[2])
			if err != nil {
				fail("bad router address " + strconv.Quote(fields[2]))
				continue
			}
			current, sink.device = byAddr[addr], ""
			if current == nil || current.BGP == nil {
				current = nil
				fail("router block for undeclared bgp router")
				continue
			}
			sink.device = current.Hostname
		case fields[0] == "add" && len(fields) >= 3 && fields[1] == "network" && current != nil:
			p, err := netip.ParsePrefix(fields[2])
			if err != nil {
				fail("bad network " + strconv.Quote(fields[2]))
				continue
			}
			current.BGP.Networks = append(current.BGP.Networks, p.Masked())
		case fields[0] == "add" && len(fields) >= 4 && fields[1] == "peer" && current != nil:
			asn, err := strconv.Atoi(fields[2])
			if err != nil {
				fail("bad peer ASN " + strconv.Quote(fields[2]))
				continue
			}
			addr, err := netip.ParseAddr(fields[3])
			if err != nil {
				fail("bad peer address " + strconv.Quote(fields[3]))
				continue
			}
			nbr, found := neighbor(current.BGP, addr, true)
			if found {
				fail("duplicate peer " + addr.String())
				continue
			}
			nbr.RemoteASN = asn
		case fields[0] == "peer" && len(fields) >= 3 && current != nil:
			addr, err := netip.ParseAddr(fields[1])
			if err != nil {
				fail("bad peer address " + strconv.Quote(fields[1]))
				continue
			}
			nbr, _ := neighbor(current.BGP, addr, false)
			if nbr == nil {
				fail("statement for undeclared peer")
				continue
			}
			switch fields[2] {
			case "rr-client":
				nbr.RRClient = true
			case "up":
				// Session activation: implicit in the engine.
			case "filter":
				// filter in|out add-rule action "local-pref N" / "metric N"
				_, action, _ := strings.Cut(strings.Join(fields[3:], " "), `action "`)
				av := strings.Fields(strings.TrimSuffix(action, `"`))
				if len(av) != 2 {
					continue
				}
				n, err := strconv.Atoi(av[1])
				if err != nil {
					fail("bad filter action value " + strconv.Quote(av[1]))
					continue
				}
				in := len(fields) > 4 && fields[3] == "in"
				switch {
				case av[0] == "local-pref" && in:
					nbr.LocalPrefIn = n
				case av[0] == "metric" && !in:
					nbr.MEDOut = n
				}
			}
		case fields[0] == "exit":
			current, sink.device = nil, ""
		}
	}
	return lab, sink.diags
}

// cbgpIGP computes shortest-path costs over the script's weighted link
// graph (the `net add link a b w` statements).
type cbgpIGP struct {
	adj map[netip.Addr]map[netip.Addr]int
}

func newCBGPIGP() *cbgpIGP {
	return &cbgpIGP{adj: map[netip.Addr]map[netip.Addr]int{}}
}

func (g *cbgpIGP) addLink(a, b netip.Addr, w int) {
	if g.adj[a] == nil {
		g.adj[a] = map[netip.Addr]int{}
	}
	if g.adj[b] == nil {
		g.adj[b] = map[netip.Addr]int{}
	}
	g.adj[a][b] = w
	g.adj[b][a] = w
}

// IGPCost implements routing.IGPCoster; host is the node's loopback string.
func (g *cbgpIGP) IGPCost(host string, addr netip.Addr) int {
	src, err := netip.ParseAddr(host)
	if err != nil {
		return -1
	}
	if src == addr {
		return 0
	}
	// Dijkstra with deterministic tie-break by address.
	dist := map[netip.Addr]int{src: 0}
	done := map[netip.Addr]bool{}
	for {
		var cur netip.Addr
		curDist := -1
		for a, d := range dist {
			if !done[a] && (curDist < 0 || d < curDist || d == curDist && a.Less(cur)) {
				cur, curDist = a, d
			}
		}
		if curDist < 0 {
			break
		}
		if cur == addr {
			return curDist
		}
		done[cur] = true
		for nb, w := range g.adj[cur] {
			nd := curDist + w
			if old, ok := dist[nb]; !ok || nd < old {
				dist[nb] = nd
			}
		}
	}
	return -1
}
