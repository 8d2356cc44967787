// Package measure implements the measurement system (paper §5.7): a client
// that runs commands on emulated machines (in parallel across the lab),
// parses the textual output with TextFSM templates, maps addresses back to
// the hosts they belong to using the IP allocation, and reconstructs
// measured graphs that can be compared against the design-time overlays —
// the paper's automated validation loop (§8).
package measure

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"autonetkit/internal/graph"
	"autonetkit/internal/measure/textfsm"
)

// Target is the measurement client's view of a running lab; *emul.Lab
// implements it.
type Target interface {
	Exec(machine, command string) (string, error)
	VMNames() []string
}

// Resolver maps an address back to the owning device, as the paper does
// with the IP allocation mapping (§6.1); ipalloc.Table.HostForIP adapts
// directly.
type Resolver func(netip.Addr) string

// Client drives measurements against one lab.
type Client struct {
	target  Target
	resolve Resolver
}

// NewClient returns a client. resolve may be nil (no name mapping).
func NewClient(target Target, resolve Resolver) *Client {
	if resolve == nil {
		resolve = func(netip.Addr) string { return "" }
	}
	return &Client{target: target, resolve: resolve}
}

// Run executes one command on one machine.
func (c *Client) Run(machine, command string) (string, error) {
	return c.target.Exec(machine, command)
}

// Result is one machine's output from a parallel run.
type Result struct {
	Machine string
	Output  string
	Err     error
}

// RunAll executes a command on many machines concurrently — the paper's
// "single measurement client ... speeding up data collection". Results are
// returned sorted by machine name.
func (c *Client) RunAll(machines []string, command string) []Result {
	out := make([]Result, len(machines))
	var wg sync.WaitGroup
	for i, m := range machines {
		wg.Add(1)
		go func(i int, m string) {
			defer wg.Done()
			text, err := c.target.Exec(m, command)
			out[i] = Result{Machine: m, Output: text, Err: err}
		}(i, m)
	}
	wg.Wait()
	sort.Slice(out, func(i, j int) bool { return out[i].Machine < out[j].Machine })
	return out
}

// tracerouteTemplate is the reference Linux-traceroute template the paper
// ships with TextFSM (§5.7).
var tracerouteTemplate = textfsm.MustParse(`Value HOP (\d+)
Value ADDRESS (\d+\.\d+\.\d+\.\d+)

Start
  ^\s*${HOP}\s+${ADDRESS} -> Record
`)

// Hop is one traceroute hop with its reverse-mapped host.
type Hop struct {
	Index int
	Addr  netip.Addr
	Host  string
}

// Traceroute is a parsed, reverse-mapped traceroute.
type Traceroute struct {
	Src     string
	Dst     netip.Addr
	Hops    []Hop
	Reached bool
}

// Path returns the hop hosts prefixed with the source — the paper's §6.1
// "[as300r2, as40r1, ...]" list of overlay nodes.
func (tr Traceroute) Path() []string {
	out := []string{tr.Src}
	for _, h := range tr.Hops {
		if h.Host != "" {
			out = append(out, h.Host)
		} else {
			out = append(out, h.Addr.String())
		}
	}
	return out
}

// ASPath collapses the hop path into the AS-level path — the paper's §6.1
// "this can then be easily and accurately translated into an AS path".
// asnOf maps a hostname to its AS number (0 = unknown, skipped);
// consecutive hops in the same AS collapse to one entry.
func (tr Traceroute) ASPath(asnOf func(host string) int) []int {
	var out []int
	for _, host := range tr.Path() {
		asn := asnOf(host)
		if asn <= 0 {
			continue
		}
		if len(out) == 0 || out[len(out)-1] != asn {
			out = append(out, asn)
		}
	}
	return out
}

// RunTraceroute executes and parses a traceroute from src to dst.
func (c *Client) RunTraceroute(src string, dst netip.Addr) (Traceroute, error) {
	cmd := fmt.Sprintf("traceroute -naU %s", dst)
	text, err := c.target.Exec(src, cmd)
	if err != nil {
		return Traceroute{}, err
	}
	return c.ParseTraceroute(src, dst, text)
}

// ParseTraceroute parses raw traceroute text (the same binary format as
// real Linux traceroute output).
func (c *Client) ParseTraceroute(src string, dst netip.Addr, text string) (Traceroute, error) {
	recs, err := tracerouteTemplate.ParseText(text)
	if err != nil {
		return Traceroute{}, err
	}
	tr := Traceroute{Src: src, Dst: dst}
	for _, r := range recs {
		idx, err := strconv.Atoi(fmt.Sprint(r["HOP"]))
		if err != nil {
			return Traceroute{}, fmt.Errorf("measure: bad hop index %v", r["HOP"])
		}
		addr, err := netip.ParseAddr(fmt.Sprint(r["ADDRESS"]))
		if err != nil {
			return Traceroute{}, fmt.Errorf("measure: bad hop address %v", r["ADDRESS"])
		}
		tr.Hops = append(tr.Hops, Hop{Index: idx, Addr: addr, Host: c.resolve(addr)})
	}
	if n := len(tr.Hops); n > 0 && tr.Hops[n-1].Addr == dst {
		tr.Reached = true
	}
	return tr, nil
}

// ospfNeighborTemplate parses Quagga's `show ip ospf neighbor` table.
var ospfNeighborTemplate = textfsm.MustParse(`Value NEIGHBOR_ID (\d+\.\d+\.\d+\.\d+)
Value ADDRESS (\d+\.\d+\.\d+\.\d+)
Value INTERFACE (\S+)

Start
  ^${NEIGHBOR_ID}\s+\d+\s+\S+\s+[\d:]+\s+${ADDRESS}\s+${INTERFACE} -> Record
`)

// OSPFAdjacency is one measured adjacency.
type OSPFAdjacency struct {
	Local, Remote string // hostnames (Remote resolved from the neighbor address)
	Interface     string
}

// OSPFAdjacencies measures a machine's OSPF neighbors.
func (c *Client) OSPFAdjacencies(machine string) ([]OSPFAdjacency, error) {
	text, err := c.target.Exec(machine, "show ip ospf neighbor")
	if err != nil {
		return nil, err
	}
	recs, err := ospfNeighborTemplate.ParseText(text)
	if err != nil {
		return nil, err
	}
	var out []OSPFAdjacency
	for _, r := range recs {
		addr, err := netip.ParseAddr(fmt.Sprint(r["ADDRESS"]))
		if err != nil {
			return nil, fmt.Errorf("measure: bad neighbor address %v", r["ADDRESS"])
		}
		out = append(out, OSPFAdjacency{
			Local:     machine,
			Remote:    c.resolve(addr),
			Interface: fmt.Sprint(r["INTERFACE"]),
		})
	}
	return out, nil
}

// MeasuredOSPFGraph reconstructs the OSPF adjacency graph of the running
// network by querying every machine — the measured counterpart of the
// design-time OSPF overlay.
func (c *Client) MeasuredOSPFGraph(machines []string) (*graph.Graph, error) {
	g := graph.New()
	sorted := make([]string, len(machines))
	copy(sorted, machines)
	sort.Strings(sorted)
	for _, m := range sorted {
		g.AddNode(graph.ID(m))
	}
	for _, m := range sorted {
		adjs, err := c.OSPFAdjacencies(m)
		if err != nil {
			return nil, fmt.Errorf("measure: %s: %w", m, err)
		}
		for _, a := range adjs {
			if a.Remote == "" {
				return nil, fmt.Errorf("measure: %s: neighbor address unresolvable", m)
			}
			g.AddEdge(graph.ID(a.Local), graph.ID(a.Remote))
		}
	}
	return g, nil
}

// isisNeighborTemplate parses Quagga's `show isis neighbor` table.
var isisNeighborTemplate = textfsm.MustParse(`Value SYSTEM_ID (\S+)
Value INTERFACE (\S+)

Start
  ^${SYSTEM_ID}\s+${INTERFACE}\s+Up\s+ -> Record
`)

// MeasuredISISGraph reconstructs the IS-IS adjacency graph of a running
// IS-IS lab (§7) — the IS-IS counterpart of MeasuredOSPFGraph. IS-IS
// reports neighbours by system id (hostname here), so no address
// resolution is needed.
func (c *Client) MeasuredISISGraph(machines []string) (*graph.Graph, error) {
	g := graph.New()
	sorted := make([]string, len(machines))
	copy(sorted, machines)
	sort.Strings(sorted)
	for _, m := range sorted {
		g.AddNode(graph.ID(m))
	}
	for _, m := range sorted {
		text, err := c.target.Exec(m, "show isis neighbor")
		if err != nil {
			return nil, fmt.Errorf("measure: %s: %w", m, err)
		}
		recs, err := isisNeighborTemplate.ParseText(text)
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			g.AddEdge(graph.ID(m), graph.ID(fmt.Sprint(r["SYSTEM_ID"])))
		}
	}
	return g, nil
}

// bgpTableTemplate parses the `show ip bgp` table shape the emulated
// Quagga produces.
var bgpTableTemplate = textfsm.MustParse(`Value PREFIX (\S+/\d+)
Value NEXTHOP (\d+\.\d+\.\d+\.\d+)
Value MED (\d+)
Value LOCPRF (\d+)
Value PATH ([\d ]*?)

Start
  ^\*>\s+${PREFIX}\s+${NEXTHOP}\s+${MED}\s+${LOCPRF}\s+${PATH}\s*i$ -> Record
`)

// BGPEntry is one parsed `show ip bgp` row.
type BGPEntry struct {
	Prefix    netip.Prefix
	NextHop   netip.Addr
	MED       int
	LocalPref int
	ASPath    []int
}

// BGPTable runs `show ip bgp` on a machine and parses the result.
func (c *Client) BGPTable(machine string) ([]BGPEntry, error) {
	text, err := c.target.Exec(machine, "show ip bgp")
	if err != nil {
		return nil, err
	}
	recs, err := bgpTableTemplate.ParseText(text)
	if err != nil {
		return nil, err
	}
	var out []BGPEntry
	for _, r := range recs {
		p, err := netip.ParsePrefix(fmt.Sprint(r["PREFIX"]))
		if err != nil {
			return nil, fmt.Errorf("measure: bad prefix %v", r["PREFIX"])
		}
		nh, err := netip.ParseAddr(fmt.Sprint(r["NEXTHOP"]))
		if err != nil {
			return nil, fmt.Errorf("measure: bad next hop %v", r["NEXTHOP"])
		}
		med, _ := strconv.Atoi(fmt.Sprint(r["MED"]))
		lp, _ := strconv.Atoi(fmt.Sprint(r["LOCPRF"]))
		entry := BGPEntry{Prefix: p, NextHop: nh, MED: med, LocalPref: lp}
		for _, f := range strings.Fields(fmt.Sprint(r["PATH"])) {
			asn, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("measure: bad AS path element %q", f)
			}
			entry.ASPath = append(entry.ASPath, asn)
		}
		out = append(out, entry)
	}
	return out, nil
}

// MeasuredASGraph reconstructs the AS-level graph visible in the running
// network's BGP tables: each machine's AS (via asnOf) links to the first
// AS of every selected path, and consecutive path elements link onward —
// the §8 "capture ... router status ... compared to the created overlay
// graphs" loop at the AS level.
func (c *Client) MeasuredASGraph(machines []string, asnOf func(host string) int) (*graph.Graph, error) {
	g := graph.New()
	sorted := make([]string, len(machines))
	copy(sorted, machines)
	sort.Strings(sorted)
	for _, m := range sorted {
		if asn := asnOf(m); asn > 0 {
			g.AddNode(graph.ID(fmt.Sprint(asn)))
		}
	}
	for _, m := range sorted {
		local := asnOf(m)
		if local <= 0 {
			continue
		}
		entries, err := c.BGPTable(m)
		if err != nil {
			return nil, fmt.Errorf("measure: %s: %w", m, err)
		}
		for _, e := range entries {
			prev := local
			for _, asn := range e.ASPath {
				if asn != prev {
					g.AddEdge(graph.ID(fmt.Sprint(prev)), graph.ID(fmt.Sprint(asn)))
				}
				prev = asn
			}
		}
	}
	return g, nil
}

// Reachable probes dst from src with a single emulated ping and parses the
// loss line, exactly as the paper's measurement client would against a
// real lab.
func (c *Client) Reachable(src string, dst netip.Addr) (bool, error) {
	out, err := c.target.Exec(src, pingCommand(dst))
	if err != nil {
		return false, err
	}
	return pingAnswered(out), nil
}

func pingCommand(dst netip.Addr) string { return "ping -c 1 " + dst.String() }

func pingAnswered(out string) bool { return strings.Contains(out, " 1 received") }

// Reachability is an N×N reachability matrix over named nodes: the
// post-incident ground truth a chaos scenario diffs against its baseline.
type Reachability struct {
	Nodes []string // sorted probe sources/destinations
	reach []bool   // row-major len(Nodes)²: [src*N+dst] -> ping succeeded
}

// index returns a node's row/column, -1 if it was not probed.
func (m Reachability) index(node string) int {
	if i := sort.SearchStrings(m.Nodes, node); i < len(m.Nodes) && m.Nodes[i] == node {
		return i
	}
	return -1
}

// Reach reports whether src's ping to dst succeeded; false for a pair that
// was not probed (an unknown node, or src == dst).
func (m Reachability) Reach(src, dst string) bool {
	i, j := m.index(src), m.index(dst)
	return i >= 0 && j >= 0 && m.reach[i*len(m.Nodes)+j]
}

// Pairs returns the number of probed (ordered) pairs.
func (m Reachability) Pairs() int { return len(m.Nodes) * (len(m.Nodes) - 1) }

// Reachable counts the pairs that answered.
func (m Reachability) Reachable() int {
	n := 0
	for _, ok := range m.reach {
		if ok {
			n++
		}
	}
	return n
}

// ReachabilityDiff lists the ordered pairs whose reachability changed
// between two matrices, each list in (src, dst) order.
type ReachabilityDiff struct {
	Lost   [][2]string // reachable before, not after
	Gained [][2]string // unreachable before, reachable after
}

// OK reports whether the matrices agree.
func (d ReachabilityDiff) OK() bool { return len(d.Lost) == 0 && len(d.Gained) == 0 }

// String summarises the diff.
func (d ReachabilityDiff) String() string {
	if d.OK() {
		return "reachability unchanged"
	}
	return fmt.Sprintf("reachability changed: %d pairs lost, %d pairs gained", len(d.Lost), len(d.Gained))
}

// DiffReachability compares two matrices probed over the same node set. A
// pair of before's that after did not probe counts as unreachable after.
func DiffReachability(before, after Reachability) ReachabilityDiff {
	var d ReachabilityDiff
	n := len(before.Nodes)
	in := make([]int, n) // before's index -> after's
	for i, node := range before.Nodes {
		in[i] = after.index(node)
	}
	for i, src := range before.Nodes {
		for j, dst := range before.Nodes {
			if i == j {
				continue
			}
			was := before.reach[i*n+j]
			now := in[i] >= 0 && in[j] >= 0 && after.reach[in[i]*len(after.Nodes)+in[j]]
			switch {
			case was && !now:
				d.Lost = append(d.Lost, [2]string{src, dst})
			case !was && now:
				d.Gained = append(d.Gained, [2]string{src, dst})
			}
		}
	}
	return d
}

// ReachabilityMatrix probes every ordered pair of the given nodes (addrOf
// supplies each destination's probe address; nodes whose address is invalid
// are skipped). Self-pairs are not probed. One worker per source walks its
// row in destination order, so the lab sees N concurrent clients; on a
// failed probe the worker abandons its row, and the error returned is the
// first failure in (src, dst) order whatever the scheduling was.
func (c *Client) ReachabilityMatrix(nodes []string, addrOf func(string) netip.Addr) (Reachability, error) {
	sorted := make([]string, 0, len(nodes))
	for _, node := range nodes {
		if addrOf(node).IsValid() {
			sorted = append(sorted, node)
		}
	}
	sort.Strings(sorted)
	sorted = slices.Compact(sorted)
	n := len(sorted)
	commands := make([]string, n) // one per destination, shared by every row
	for j, dst := range sorted {
		commands[j] = pingCommand(addrOf(dst))
	}
	m := Reachability{Nodes: sorted, reach: make([]bool, n*n)}
	failed := make([]error, n) // per row
	var wg sync.WaitGroup
	for i := range sorted {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			row := m.reach[i*n : (i+1)*n]
			for j := range sorted {
				if j == i {
					continue
				}
				out, err := c.target.Exec(sorted[i], commands[j])
				if err != nil {
					failed[i] = fmt.Errorf("measure: probing %s -> %s: %w", sorted[i], sorted[j], err)
					return
				}
				row[j] = pingAnswered(out)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range failed {
		if err != nil {
			return Reachability{}, err
		}
	}
	return m, nil
}

// Diff describes how a measured graph deviates from the designed one.
type Diff struct {
	MissingEdges [][2]graph.ID // designed but not measured
	ExtraEdges   [][2]graph.ID // measured but not designed
	MissingNodes []graph.ID
}

// OK reports whether the graphs agree.
func (d Diff) OK() bool {
	return len(d.MissingEdges) == 0 && len(d.ExtraEdges) == 0 && len(d.MissingNodes) == 0
}

// String summarises the diff.
func (d Diff) String() string {
	if d.OK() {
		return "measured topology matches design"
	}
	return fmt.Sprintf("diff: %d missing edges, %d extra edges, %d missing nodes",
		len(d.MissingEdges), len(d.ExtraEdges), len(d.MissingNodes))
}

// Compare checks a measured graph against the designed one (undirected
// edge-set equality over the designed node set) — the paper's automated
// "assert deployment success" (§8).
func Compare(designed, measured *graph.Graph) Diff {
	var d Diff
	for _, id := range designed.SortedNodeIDs() {
		if !measured.HasNode(id) {
			d.MissingNodes = append(d.MissingNodes, id)
		}
	}
	norm := func(a, b graph.ID) (graph.ID, graph.ID) {
		if b < a {
			return b, a
		}
		return a, b
	}
	want := map[[2]graph.ID]bool{}
	for _, e := range designed.Edges() {
		a, b := norm(e.Src(), e.Dst())
		want[[2]graph.ID{a, b}] = true
	}
	got := map[[2]graph.ID]bool{}
	for _, e := range measured.Edges() {
		a, b := norm(e.Src(), e.Dst())
		got[[2]graph.ID{a, b}] = true
	}
	for k := range want {
		if !got[k] {
			d.MissingEdges = append(d.MissingEdges, k)
		}
	}
	for k := range got {
		if !want[k] {
			d.ExtraEdges = append(d.ExtraEdges, k)
		}
	}
	sortPairs := func(ps [][2]graph.ID) {
		sort.Slice(ps, func(i, j int) bool {
			if ps[i][0] != ps[j][0] {
				return ps[i][0] < ps[j][0]
			}
			return ps[i][1] < ps[j][1]
		})
	}
	sortPairs(d.MissingEdges)
	sortPairs(d.ExtraEdges)
	return d
}
