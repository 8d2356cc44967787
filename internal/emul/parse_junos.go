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

// child returns the first child block named name (or name plus
// arguments); nil when there is none, which child and leafValue accept.
func (n *junosNode) child(name string) *junosNode {
	if n == nil {
		return nil
	}
	for _, c := range n.children {
		if c.name == name || strings.HasPrefix(c.name, name+" ") {
			return c
		}
	}
	return nil
}

// eachChild calls fn with the argument and node of every child block
// named key plus an argument (`group ebgp-2 {`).
func (n *junosNode) eachChild(key string, fn func(arg string, c *junosNode)) {
	for _, c := range n.children {
		if arg, ok := strings.CutPrefix(c.name, key+" "); ok {
			fn(arg, c)
		}
	}
}

// leafValue returns the remainder of the first leaf starting with key and
// that leaf's source line, which is 0 when there is no such leaf.
func (n *junosNode) leafValue(key string) (string, int) {
	if n == nil {
		return "", 0
	}
	for i, l := range n.leaves {
		if v, ok := strings.CutPrefix(l, key+" "); ok {
			return strings.TrimSpace(v), n.leafLine[i]
		}
		if l == key {
			return "", n.leafLine[i]
		}
	}
	return "", 0
}

// eachLeaf calls fn with the remainder and source line of every leaf
// starting with key.
func (n *junosNode) eachLeaf(key string, fn func(v string, line int)) {
	for i, l := range n.leaves {
		if v, ok := strings.CutPrefix(l, key+" "); ok {
			fn(v, n.leafLine[i])
		}
	}
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
		top := stack[len(stack)-1]
		switch {
		case strings.HasSuffix(line, "{"):
			name := strings.TrimSpace(strings.TrimSuffix(line, "{"))
			node := &junosNode{name: name, line: lineNo + 1}
			top.children = append(top.children, node)
			stack = append(stack, node)
		case line == "}":
			if len(stack) == 1 {
				sink.errorf(lineNo+1, "unbalanced '}'")
				continue
			}
			stack = stack[:len(stack)-1]
		case strings.HasSuffix(line, ";"):
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
	if hn, line := root.child("system").leafValue("host-name"); line > 0 {
		checkHostname(dc, sink, line, hn)
	}
	if ifs := root.child("interfaces"); ifs != nil {
		for _, ifNode := range ifs.children {
			inet := ifNode.child("unit 0").child("family inet")
			addrStr, line := inet.leafValue("address")
			if line == 0 {
				continue
			}
			p, err := netip.ParsePrefix(addrStr)
			if err != nil {
				sink.errorf(inet.line, "interface %s: bad address %q", ifNode.name, addrStr)
				continue
			}
			addInterface(dc, ifNode.name, p)
		}
	}
	protocols := root.child("protocols")
	if ospf := protocols.child("ospf"); ospf != nil {
		dc.OSPF = junosOSPF(dc, ospf, sink)
	}
	var asn int
	var routerID netip.Addr
	ro := root.child("routing-options")
	if v, line := ro.leafValue("autonomous-system"); line > 0 {
		if n, err := strconv.Atoi(v); err != nil {
			sink.errorf(ro.line, "bad autonomous-system %q", v)
		} else {
			asn = n
		}
	}
	if v, line := ro.leafValue("router-id"); line > 0 {
		if rid, err := netip.ParseAddr(v); err != nil {
			sink.errorf(ro.line, "bad router-id %q", v)
		} else {
			routerID = rid
		}
	}
	if bgpNode := protocols.child("bgp"); bgpNode != nil {
		if asn == 0 {
			sink.errorf(bgpNode.line, "bgp configured without autonomous-system")
		} else {
			dc.BGP = &routing.BGPConfig{ASN: asn, RouterID: routerID}
			bgpNode.eachChild("group", func(name string, grp *junosNode) { junosGroup(dc.BGP, name, grp, sink) })
			// The template renders the export policy that originates a
			// prefix as an `advertise` statement.
			ro.eachLeaf("advertise", func(v string, line int) {
				p, err := netip.ParsePrefix(v)
				if err != nil {
					sink.errorf(line, "bad advertise prefix %q", v)
					return
				}
				dc.BGP.Networks = append(dc.BGP.Networks, p.Masked())
			})
		}
	}
	return dc, sink.diags
}

// junosOSPF reads `area A { interface P { metric M; passive; } }` blocks
// and bare `interface P;` statements; metric and passive apply to the
// interfaces attached to P.
func junosOSPF(dc *routing.DeviceConfig, ospf *junosNode, sink *diagSink) *routing.OSPFConfig {
	cfg := &routing.OSPFConfig{ProcessID: 1}
	ospf.eachChild("area", func(arg string, area *junosNode) {
		areaNum, err := strconv.Atoi(arg)
		if err != nil {
			sink.errorf(area.line, "bad ospf area %q", area.name)
			return
		}
		// ifn is nil for a bare statement.
		add := func(pStr string, line int, ifn *junosNode) {
			p, err := netip.ParsePrefix(pStr)
			if err != nil {
				sink.errorf(line, "bad ospf interface %q", pStr)
				return
			}
			p = p.Masked()
			cfg.Networks = append(cfg.Networks, routing.OSPFNetwork{Prefix: p, Area: areaNum})
			if _, line := ifn.leafValue("passive"); line > 0 {
				eachInterface(dc, "", p, func(ic *routing.InterfaceConfig) { ic.Passive = true })
			}
			if mStr, line := ifn.leafValue("metric"); line > 0 {
				m, err := strconv.Atoi(mStr)
				if err != nil {
					sink.errorf(ifn.line, "bad ospf metric %q", mStr)
					return
				}
				eachInterface(dc, "", p, func(ic *routing.InterfaceConfig) { ic.Cost = m })
			}
		}
		area.eachChild("interface", func(arg string, ifn *junosNode) { add(arg, ifn.line, ifn) })
		area.eachLeaf("interface", func(arg string, line int) { add(arg, line, nil) })
	})
	return cfg
}

// junosGroup adds a `group` block's neighbors to bgp; every neighbor takes
// the group's peer-as, policy values, route-reflection and local-address.
func junosGroup(bgp *routing.BGPConfig, name string, grp *junosNode, sink *diagSink) {
	// groupInt reads an optional integer leaf, def when absent.
	groupInt := func(key string, def int) (int, bool) {
		v, line := grp.leafValue(key)
		if line == 0 {
			return def, true
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			sink.errorf(grp.line, "group %q: bad %s %q", name, key, v)
		}
		return n, err == nil
	}
	peerAS, ok := groupInt("peer-as", bgp.ASN)
	if !ok {
		return
	}
	med, _ := groupInt("metric-out", 0)
	lp, _ := groupInt("local-preference", 0)
	typ, _ := grp.leafValue("type")
	_, cluster := grp.leafValue("cluster")
	updateSource := ""
	if _, line := grp.leafValue("local-address"); line > 0 {
		updateSource = "lo"
	}
	grp.eachLeaf("neighbor", func(v string, line int) {
		addr, err := netip.ParseAddr(v)
		if err != nil {
			sink.errorf(line, "bad neighbor %q", v)
			return
		}
		if nbr, found := neighbor(bgp, addr, true); found {
			sink.errorf(line, "duplicate neighbor %v", addr)
		} else {
			*nbr = routing.BGPNeighbor{
				Addr: addr, RemoteASN: peerAS, MEDOut: med, LocalPrefIn: lp,
				RRClient: cluster > 0 && typ == "internal", UpdateSource: updateSource,
			}
		}
	})
}
