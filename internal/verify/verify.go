// Package verify implements the pre-deployment verification the paper
// proposes as the natural extension of the system (§8: "Offline
// verification systems could be applied prior to deployment, applying
// static checking or stability detection. Integrating pre- and
// post-deployment verification systems allows test-driven network
// development").
//
// Two layers:
//
//   - Static checks over the Resource Database: address uniqueness and
//     subnet consistency, BGP session symmetry (every neighbor statement
//     must have a matching statement on the peer, with the correct
//     remote-as), OSPF coverage (advertised networks must correspond to
//     attached interfaces), and route-reflection sanity (clients must have
//     a reflector; reflector graphs must be connected per AS).
//
//   - Stability detection: a what-if run of the control plane (the same
//     engines the emulator uses, without deploying) that reports whether
//     BGP converges under a chosen vendor profile — catching §7.2-style
//     oscillations before launch.
package verify

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"autonetkit/internal/nidb"
	"autonetkit/internal/routing"
)

// Severity grades a finding.
type Severity string

// Severities.
const (
	Error   Severity = "error"
	Warning Severity = "warning"
)

// Finding is one verification result.
type Finding struct {
	Check    string // which rule fired
	Severity Severity
	Device   string // "" for network-wide findings
	Detail   string
}

// String renders one finding as "[severity] check device: detail".
func (f Finding) String() string {
	dev := f.Device
	if dev == "" {
		dev = "*"
	}
	return fmt.Sprintf("[%s] %s %s: %s", f.Severity, f.Check, dev, f.Detail)
}

// Report is the outcome of a verification run.
type Report struct {
	Findings []Finding
}

// OK reports whether no error-severity findings exist.
func (r Report) OK() bool {
	for _, f := range r.Findings {
		if f.Severity == Error {
			return false
		}
	}
	return true
}

// Errors returns only the error-severity findings.
func (r Report) Errors() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Severity == Error {
			out = append(out, f)
		}
	}
	return out
}

// String renders the report one finding per line.
func (r Report) String() string {
	if len(r.Findings) == 0 {
		return "verification passed: no findings"
	}
	lines := make([]string, len(r.Findings))
	for i, f := range r.Findings {
		lines[i] = f.String()
	}
	return strings.Join(lines, "\n")
}

func (r *Report) add(check string, sev Severity, device, format string, args ...any) {
	r.Findings = append(r.Findings, Finding{
		Check: check, Severity: sev, Device: device, Detail: fmt.Sprintf(format, args...),
	})
}

// Static runs all static checks over a compiled Resource Database.
func Static(db *nidb.DB) Report {
	var r Report
	checkAddressUniqueness(db, &r)
	checkSubnetConsistency(db, &r)
	checkBGPSessionSymmetry(db, &r)
	checkOSPFCoverage(db, &r)
	checkRouteReflection(db, &r)
	checkCostSymmetry(db, &r)
	sort.SliceStable(r.Findings, func(i, j int) bool {
		if r.Findings[i].Severity != r.Findings[j].Severity {
			return r.Findings[i].Severity == Error
		}
		return r.Findings[i].Device < r.Findings[j].Device
	})
	return r
}

// deviceInterfaces extracts the interface entries of a device tree.
func deviceInterfaces(d *nidb.Device) []map[string]any {
	v, ok := d.Get("interfaces")
	if !ok {
		return nil
	}
	list, _ := v.([]any)
	out := make([]map[string]any, 0, len(list))
	for _, x := range list {
		if m, ok := x.(map[string]any); ok {
			out = append(out, m)
		}
	}
	return out
}

// checkAddressUniqueness: no address appears on two interfaces anywhere.
func checkAddressUniqueness(db *nidb.DB, r *Report) {
	owner := map[netip.Addr]string{}
	record := func(a netip.Addr, dev string) {
		if prev, dup := owner[a]; dup {
			r.add("address-uniqueness", Error, dev,
				"address %v already assigned on %s", a, prev)
			return
		}
		owner[a] = dev
	}
	for _, d := range db.Devices() {
		for _, ifc := range deviceInterfaces(d) {
			if a, ok := ifc["ip_address"].(netip.Addr); ok {
				record(a, string(d.ID))
			}
		}
		if v, ok := d.Get("loopback.ip"); ok {
			if a, ok := v.(netip.Addr); ok {
				record(a, string(d.ID))
			}
		}
	}
}

// checkSubnetConsistency: every interface address lies inside its subnet,
// and devices sharing a collision domain agree on the subnet.
func checkSubnetConsistency(db *nidb.DB, r *Report) {
	cdSubnet := map[string]netip.Prefix{}
	for _, d := range db.Devices() {
		for _, ifc := range deviceInterfaces(d) {
			a, aok := ifc["ip_address"].(netip.Addr)
			p, pok := ifc["network"].(netip.Prefix)
			cd := fmt.Sprint(ifc["cd"])
			if !aok || !pok {
				r.add("subnet-consistency", Error, string(d.ID),
					"interface %v lacks address or network", ifc["id"])
				continue
			}
			if !p.Contains(a) {
				r.add("subnet-consistency", Error, string(d.ID),
					"interface %v address %v outside subnet %v", ifc["id"], a, p)
			}
			if prev, ok := cdSubnet[cd]; ok && prev != p {
				r.add("subnet-consistency", Error, string(d.ID),
					"collision domain %s has conflicting subnets %v and %v", cd, prev, p)
			}
			cdSubnet[cd] = p
		}
	}
}

// checkBGPSessionSymmetry: every neighbor statement must have a matching
// statement on the addressed peer with the correct remote-as — the
// point-to-point consistency burden of §1.
func checkBGPSessionSymmetry(db *nidb.DB, r *Report) {
	// Address ownership across interfaces and loopbacks; devices are
	// numbered in database order so a claim is one integer pair.
	devices := db.Devices()
	owner := map[netip.Addr]int{}
	asnOf := make([]int, len(devices))
	for i, d := range devices {
		for _, ifc := range deviceInterfaces(d) {
			if a, ok := ifc["ip_address"].(netip.Addr); ok {
				owner[a] = i
			}
		}
		if v, ok := d.Get("loopback.ip"); ok {
			if a, ok := v.(netip.Addr); ok {
				owner[a] = i
			}
		}
		asnOf[i] = d.GetInt("bgp.asn", 0)
	}
	neighbors := func(d *nidb.Device) []map[string]any {
		var out []map[string]any
		for _, key := range []string{"bgp.ebgp_neighbors", "bgp.ibgp_neighbors"} {
			if v, ok := d.Get(key); ok {
				if list, ok := v.([]any); ok {
					for _, x := range list {
						if m, ok := x.(map[string]any); ok {
							out = append(out, m)
						}
					}
				}
			}
		}
		return out
	}
	// Collect (local device, peer device) claims.
	type claim struct{ local, peer int }
	claims := map[claim]bool{}
	var ordered []claim
	for i, d := range devices {
		for _, nbr := range neighbors(d) {
			addr, ok := nbr["ip"].(netip.Addr)
			if !ok {
				r.add("bgp-session", Error, string(d.ID), "neighbor entry lacks address: %v", nbr)
				continue
			}
			peer, ok := owner[addr]
			if !ok {
				r.add("bgp-session", Error, string(d.ID),
					"neighbor %v is not an address of any device", addr)
				continue
			}
			remote, _ := nbr["remote_asn"].(int)
			if remote != asnOf[peer] {
				r.add("bgp-session", Error, string(d.ID),
					"neighbor %s configured as remote-as %d but %s is AS%d", addr, remote, devices[peer].ID, asnOf[peer])
			}
			if asnOf[i] == 0 {
				r.add("bgp-session", Error, string(d.ID), "has neighbors but no BGP ASN")
			}
			if c := (claim{i, peer}); !claims[c] {
				claims[c] = true
				ordered = append(ordered, c)
			}
		}
	}
	// Findings come out in (local, peer) id order whatever the database
	// order; only the claims lacking a reverse are sorted, and a consistent
	// build has none.
	var missing []claim
	for _, c := range ordered {
		if !claims[claim{c.peer, c.local}] {
			missing = append(missing, c)
		}
	}
	sort.Slice(missing, func(i, j int) bool {
		a, b := missing[i], missing[j]
		if a.local != b.local {
			return devices[a.local].ID < devices[b.local].ID
		}
		return devices[a.peer].ID < devices[b.peer].ID
	})
	for _, c := range missing {
		r.add("bgp-session", Error, string(devices[c.local].ID),
			"session to %s has no reverse neighbor statement", devices[c.peer].ID)
	}
}

// checkOSPFCoverage: every non-passive OSPF network statement corresponds
// to an attached interface subnet or the loopback.
func checkOSPFCoverage(db *nidb.DB, r *Report) {
	for _, d := range db.Devices() {
		v, ok := d.Get("ospf.ospf_links")
		if !ok {
			continue
		}
		attached := map[netip.Prefix]bool{}
		for _, ifc := range deviceInterfaces(d) {
			if p, ok := ifc["network"].(netip.Prefix); ok {
				attached[p] = true
			}
		}
		if lv, ok := d.Get("loopback.ip"); ok {
			if a, ok := lv.(netip.Addr); ok {
				attached[netip.PrefixFrom(a, 32)] = true
			}
		}
		list, _ := v.([]any)
		for _, x := range list {
			m, ok := x.(map[string]any)
			if !ok {
				continue
			}
			p, ok := m["network"].(netip.Prefix)
			if !ok {
				r.add("ospf-coverage", Error, string(d.ID), "ospf link lacks network: %v", m)
				continue
			}
			if !attached[p] {
				r.add("ospf-coverage", Error, string(d.ID),
					"ospf advertises %v but no interface attaches to it", p)
			}
		}
	}
}

// checkRouteReflection: if any device in an AS is a reflector, every
// non-reflector must have at least one session to a reflector, and iBGP
// sessions must stay within the AS.
func checkRouteReflection(db *nidb.DB, r *Report) {
	type asInfo struct {
		reflectors []string
		clients    []string
	}
	byASN := map[int]*asInfo{}
	clientHasRR := map[string]bool{}
	loopbackOwner := map[netip.Addr]string{}
	isRR := map[string]bool{}
	for _, d := range db.Devices() {
		if v, ok := d.Get("loopback.ip"); ok {
			if a, ok := v.(netip.Addr); ok {
				loopbackOwner[a] = string(d.ID)
			}
		}
		if v, ok := d.Get("bgp.route_reflector"); ok && v == true {
			isRR[string(d.ID)] = true
		}
	}
	for _, d := range db.Devices() {
		asn := d.GetInt("bgp.asn", 0)
		if asn == 0 {
			continue
		}
		info := byASN[asn]
		if info == nil {
			info = &asInfo{}
			byASN[asn] = info
		}
		if isRR[string(d.ID)] {
			info.reflectors = append(info.reflectors, string(d.ID))
		} else {
			info.clients = append(info.clients, string(d.ID))
		}
		if v, ok := d.Get("bgp.ibgp_neighbors"); ok {
			list, _ := v.([]any)
			for _, x := range list {
				m, _ := x.(map[string]any)
				if m == nil {
					continue
				}
				if remote, _ := m["remote_asn"].(int); remote != asn {
					r.add("route-reflection", Error, string(d.ID),
						"iBGP neighbor with remote-as %d outside AS%d", remote, asn)
				}
				if a, ok := m["ip"].(netip.Addr); ok {
					if isRR[loopbackOwner[a]] {
						clientHasRR[string(d.ID)] = true
					}
				}
			}
		}
	}
	// Emit per-AS findings in ASN order, not map order, so the report is
	// byte-stable across repeated builds.
	asns := make([]int, 0, len(byASN))
	for asn := range byASN {
		asns = append(asns, asn)
	}
	sort.Ints(asns)
	for _, asn := range asns {
		info := byASN[asn]
		if len(info.reflectors) == 0 {
			continue // full mesh: nothing to check
		}
		for _, c := range info.clients {
			if !clientHasRR[c] {
				r.add("route-reflection", Error, c,
					"AS%d uses route reflection but this client peers with no reflector", asn)
			}
		}
	}
}

// checkCostSymmetry warns when the two ends of a link carry different OSPF
// costs — legal, occasionally intended, but much more often a copy-paste
// slip (§1: "ensuring that a few values are updated consistently").
func checkCostSymmetry(db *nidb.DB, r *Report) {
	type attach struct {
		dev   string
		iface string
		cost  int
	}
	byCD := map[string][]attach{}
	var order []string
	for _, d := range db.Devices() {
		for _, ifc := range deviceInterfaces(d) {
			cd := fmt.Sprint(ifc["cd"])
			cost, _ := ifc["ospf_cost"].(int)
			if cost == 0 {
				continue
			}
			if _, seen := byCD[cd]; !seen {
				order = append(order, cd)
			}
			byCD[cd] = append(byCD[cd], attach{string(d.ID), fmt.Sprint(ifc["id"]), cost})
		}
	}
	for _, cd := range order {
		atts := byCD[cd]
		for i := 1; i < len(atts); i++ {
			if atts[i].cost != atts[0].cost {
				r.add("cost-symmetry", Warning, atts[i].dev,
					"interface %s costs %d but %s's %s on the same link costs %d",
					atts[i].iface, atts[i].cost, atts[0].dev, atts[0].iface, atts[0].cost)
			}
		}
	}
}

// Stability runs the what-if control-plane check: the BGP engine over the
// parsed-from-rendered (or directly supplied) device configs, under a
// vendor profile, without deploying (§8 "stability detection", catching the
// §7.2 oscillation pre-launch).
func Stability(devices []*routing.DeviceConfig, profile routing.VendorProfile, maxRounds int) (routing.BGPResult, Report) {
	var r Report
	domain := routing.NewOSPFDomain(devices)
	if err := domain.Converge(); err != nil {
		r.add("stability", Error, "", "IGP convergence failed: %v", err)
		return routing.BGPResult{}, r
	}
	igp := routing.NewCompositeIGP()
	for _, dc := range devices {
		if dc.OSPF != nil {
			igp.AddDevice(dc, domain)
		} else {
			igp.AddDevice(dc, nil)
		}
	}
	engine, err := routing.NewBGPEngine(devices, func(string) routing.VendorProfile { return profile }, igp)
	if err != nil {
		r.add("stability", Error, "", "BGP engine: %v", err)
		return routing.BGPResult{}, r
	}
	engine.SetSequential(true)
	for _, down := range engine.SessionsDown() {
		r.add("stability", Error, "", "session would not establish: %s", down)
	}
	res := engine.Run(maxRounds)
	if res.Oscillating {
		r.add("stability", Error, "",
			"BGP does not converge under the %s decision process (cycle length %d after %d rounds)",
			profile.Name, res.CycleLen, res.Rounds)
	}
	return res, r
}
