package emul

import (
	"net/netip"
	"strconv"
	"strings"

	"autonetkit/internal/routing"
)

// JunOS configurations are brace-structured; parse into a generic tree and
// extract the protocol state from it. Both passes recover from malformed
// input: the tree parser skips unbalanced/unterminated lines (recording a
// diagnostic for each) and the extraction pass skips the offending stanza,
// so every independent problem in a config surfaces in one boot.

type junosNode struct {
	name     string
	line     int // 1-based source line of the block header (0 for root)
	children []*junosNode
	leaves   []string // terminal statements (semicolon-terminated)
	leafLine []int    // source line of each leaf
}

func (n *junosNode) child(name string) *junosNode {
	for _, c := range n.children {
		if c.name == name || strings.HasPrefix(c.name, name+" ") {
			return c
		}
	}
	return nil
}

func (n *junosNode) childrenWithPrefix(prefix string) []*junosNode {
	var out []*junosNode
	for _, c := range n.children {
		if strings.HasPrefix(c.name, prefix) {
			out = append(out, c)
		}
	}
	return out
}

// leafValue returns the remainder of the first leaf starting with key.
func (n *junosNode) leafValue(key string) (string, bool) {
	for _, l := range n.leaves {
		if strings.HasPrefix(l, key+" ") {
			return strings.TrimSpace(strings.TrimPrefix(l, key+" ")), true
		}
		if l == key {
			return "", true
		}
	}
	return "", false
}

// parseJunosTree converts brace-structured text into a tree. Structural
// problems — an unmatched '}', a statement without ';' or '{', blocks
// still open at EOF — are recorded and the parse continues, closing what
// it can: a partial tree plus the full problem list beats dying on the
// first bad brace.
func parseJunosTree(conf string, sink *diagSink) *junosNode {
	root := &junosNode{name: "(root)"}
	stack := []*junosNode{root}
	for lineNo, raw := range strings.Split(conf, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case strings.HasSuffix(line, "{"):
			name := strings.TrimSpace(strings.TrimSuffix(line, "{"))
			node := &junosNode{name: name, line: lineNo + 1}
			top := stack[len(stack)-1]
			top.children = append(top.children, node)
			stack = append(stack, node)
		case line == "}":
			if len(stack) == 1 {
				sink.errorf(lineNo+1, "unbalanced '}'")
				continue
			}
			stack = stack[:len(stack)-1]
		case strings.HasSuffix(line, ";"):
			top := stack[len(stack)-1]
			top.leaves = append(top.leaves, strings.TrimSuffix(line, ";"))
			top.leafLine = append(top.leafLine, lineNo+1)
		default:
			sink.errorf(lineNo+1, "unterminated statement %q", line)
		}
	}
	if len(stack) != 1 {
		sink.errorf(0, "config has %d unclosed block(s), first %q opened on line %d",
			len(stack)-1, stack[1].name, stack[1].line)
	}
	return root
}

// parseJunosConfig recovers a DeviceConfig from a rendered JunOS
// configuration.
func parseJunosConfig(hostname, conf string) (*routing.DeviceConfig, Diagnostics) {
	sink := &diagSink{device: hostname, file: hostname + ".conf"}
	root := parseJunosTree(conf, sink)
	dc := &routing.DeviceConfig{Hostname: hostname}
	if sys := root.child("system"); sys != nil {
		if hn, ok := sys.leafValue("host-name"); ok {
			dc.Hostname = hn
		}
	}
	// Interfaces.
	if ifs := root.child("interfaces"); ifs != nil {
		for _, ifNode := range ifs.children {
			name := ifNode.name
			unit := ifNode.child("unit 0")
			if unit == nil {
				continue
			}
			inet := unit.child("family inet")
			if inet == nil {
				continue
			}
			addrStr, ok := inet.leafValue("address")
			if !ok {
				continue
			}
			p, err := netip.ParsePrefix(addrStr)
			if err != nil {
				sink.errorf(inet.line, "interface %s: bad address %q", name, addrStr)
				continue
			}
			if strings.HasPrefix(name, "lo") {
				dc.Loopback = p.Addr()
				dc.Interfaces = append(dc.Interfaces, routing.InterfaceConfig{
					Name: "lo", Addr: p.Addr(), Prefix: netip.PrefixFrom(p.Addr(), 32), Cost: 1,
				})
				continue
			}
			dc.Interfaces = append(dc.Interfaces, routing.InterfaceConfig{
				Name: name, Addr: p.Addr(), Prefix: p.Masked(), Cost: 1,
			})
		}
	}
	protocols := root.child("protocols")
	// OSPF.
	if protocols != nil {
		if ospf := protocols.child("ospf"); ospf != nil {
			cfg := &routing.OSPFConfig{ProcessID: 1}
			for _, area := range ospf.childrenWithPrefix("area ") {
				areaNum, err := strconv.Atoi(strings.TrimPrefix(area.name, "area "))
				if err != nil {
					sink.errorf(area.line, "bad ospf area %q", area.name)
					continue
				}
				for _, ifn := range area.childrenWithPrefix("interface ") {
					pStr := strings.TrimPrefix(ifn.name, "interface ")
					p, err := netip.ParsePrefix(pStr)
					if err != nil {
						sink.errorf(ifn.line, "bad ospf interface %q", pStr)
						continue
					}
					cfg.Networks = append(cfg.Networks, routing.OSPFNetwork{Prefix: p.Masked(), Area: areaNum})
					if _, ok := ifn.leafValue("passive"); ok {
						for i := range dc.Interfaces {
							if dc.Interfaces[i].Prefix == p.Masked() {
								dc.Interfaces[i].Passive = true
							}
						}
					}
					if mStr, ok := ifn.leafValue("metric"); ok {
						m, err := strconv.Atoi(mStr)
						if err != nil {
							sink.errorf(ifn.line, "bad ospf metric %q", mStr)
							continue
						}
						for i := range dc.Interfaces {
							if dc.Interfaces[i].Prefix == p.Masked() {
								dc.Interfaces[i].Cost = m
							}
						}
					}
				}
				// Bare interface statements (no metric block).
				for li, l := range area.leaves {
					if strings.HasPrefix(l, "interface ") {
						pStr := strings.TrimPrefix(l, "interface ")
						p, err := netip.ParsePrefix(pStr)
						if err != nil {
							sink.errorf(area.leafLine[li], "bad ospf interface %q", pStr)
							continue
						}
						cfg.Networks = append(cfg.Networks, routing.OSPFNetwork{Prefix: p.Masked(), Area: areaNum})
					}
				}
			}
			dc.OSPF = cfg
		}
	}
	// BGP.
	var asn int
	var routerID netip.Addr
	if ro := root.child("routing-options"); ro != nil {
		if v, ok := ro.leafValue("autonomous-system"); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				sink.errorf(ro.line, "bad autonomous-system %q", v)
			} else {
				asn = n
			}
		}
		if v, ok := ro.leafValue("router-id"); ok {
			rid, err := netip.ParseAddr(v)
			if err != nil {
				sink.errorf(ro.line, "bad router-id %q", v)
			} else {
				routerID = rid
			}
		}
	}
	if protocols != nil {
		if bgpNode := protocols.child("bgp"); bgpNode != nil {
			if asn == 0 {
				sink.errorf(bgpNode.line, "bgp configured without autonomous-system")
			} else {
				cfg := &routing.BGPConfig{ASN: asn, RouterID: routerID}
				seenNbr := map[netip.Addr]int{} // addr -> first line
				for _, grp := range bgpNode.childrenWithPrefix("group ") {
					typ, _ := grp.leafValue("type")
					peerAS := asn
					if v, ok := grp.leafValue("peer-as"); ok {
						n, err := strconv.Atoi(v)
						if err != nil {
							sink.errorf(grp.line, "group %q: bad peer-as %q", strings.TrimPrefix(grp.name, "group "), v)
							continue
						}
						peerAS = n
					}
					// groupInt reads an optional integer leaf, 0 when absent.
					groupInt := func(key string) int {
						v, ok := grp.leafValue(key)
						if !ok {
							return 0
						}
						n, err := strconv.Atoi(v)
						if err != nil {
							sink.errorf(grp.line, "group %q: bad %s %q", strings.TrimPrefix(grp.name, "group "), key, v)
						}
						return n
					}
					med, lp := groupInt("metric-out"), groupInt("local-preference")
					_, isRRGroup := grp.leafValue("cluster")
					updateSource := ""
					if _, ok := grp.leafValue("local-address"); ok {
						updateSource = "lo"
					}
					for li, l := range grp.leaves {
						if !strings.HasPrefix(l, "neighbor ") {
							continue
						}
						addr, err := netip.ParseAddr(strings.TrimPrefix(l, "neighbor "))
						if err != nil {
							sink.errorf(grp.leafLine[li], "bad neighbor in %q", l)
							continue
						}
						if first, dup := seenNbr[addr]; dup {
							sink.errorf(grp.leafLine[li], "duplicate neighbor %v (first declared on line %d)", addr, first)
							continue
						}
						seenNbr[addr] = grp.leafLine[li]
						cfg.Neighbors = append(cfg.Neighbors, routing.BGPNeighbor{
							Addr: addr, RemoteASN: peerAS,
							MEDOut: med, LocalPrefIn: lp,
							RRClient:     isRRGroup && typ == "internal",
							UpdateSource: updateSource,
						})
					}
				}
				cfg.Networks = junosAdvertisedNetworks(root, sink)
				dc.BGP = cfg
			}
		}
	}
	if !sink.diags.HasErrors() {
		if err := dc.Validate(); err != nil {
			sink.errorf(0, "%v", err)
		}
	}
	return dc, sink.diags
}

// junosAdvertisedNetworks reads the routing-options static advertisements
// rendered by the template (the JunOS equivalent of `network` statements is
// an export policy; the template renders them as annotated statics).
func junosAdvertisedNetworks(root *junosNode, sink *diagSink) []netip.Prefix {
	var out []netip.Prefix
	ro := root.child("routing-options")
	if ro == nil {
		return nil
	}
	for li, l := range ro.leaves {
		if pStr, ok := strings.CutPrefix(l, "advertise "); ok {
			p, err := netip.ParsePrefix(pStr)
			if err != nil {
				sink.errorf(ro.leafLine[li], "bad advertise prefix %q", pStr)
				continue
			}
			out = append(out, p.Masked())
		}
	}
	return out
}
