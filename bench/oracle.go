package main

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"autonetkit/internal/core"
	"autonetkit/internal/graph"
	"autonetkit/internal/render"
)

// topology is the benchmark's own view of an input graph — adjacency and
// AS membership read straight from the node attributes — from which it
// derives what every incident must cost in reachability, without asking
// the system under test.
type topology struct {
	nodes []string // sorted
	adj   map[string][]string
	asn   map[string]int
}

func newTopology(g *graph.Graph) *topology {
	t := &topology{adj: map[string][]string{}, asn: map[string]int{}}
	for _, id := range g.SortedNodeIDs() {
		n := string(id)
		t.nodes = append(t.nodes, n)
		if f, ok := graph.ToFloat(g.Node(id).Get(core.AttrASN)); ok {
			t.asn[n] = int(f)
		}
	}
	for _, e := range g.Edges() {
		a, b := string(e.Src()), string(e.Dst())
		t.adj[a] = append(t.adj[a], b)
		t.adj[b] = append(t.adj[b], a)
	}
	for _, ns := range t.adj {
		sort.Strings(ns)
	}
	return t
}

func edgeKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// cuts finds the bridges and articulation points of the subgraph induced
// by the nodes keep accepts, with one low-link depth-first search.
func (t *topology) cuts(keep func(string) bool) (bridges map[[2]string]bool, artics map[string]bool) {
	bridges, artics = map[[2]string]bool{}, map[string]bool{}
	disc, low := map[string]int{}, map[string]int{}
	clock := 0
	var visit func(u, parent string)
	visit = func(u, parent string) {
		clock++
		disc[u], low[u] = clock, clock
		kids := 0
		for _, v := range t.adj[u] {
			if !keep(v) || v == parent {
				continue
			}
			if disc[v] != 0 {
				low[u] = min(low[u], disc[v])
				continue
			}
			kids++
			visit(v, u)
			low[u] = min(low[u], low[v])
			if low[v] > disc[u] {
				bridges[edgeKey(u, v)] = true
			}
			if parent != "" && low[v] >= disc[u] {
				artics[u] = true
			}
		}
		if parent == "" && kids > 1 {
			artics[u] = true
		}
	}
	for _, n := range t.nodes {
		if keep(n) && disc[n] == 0 {
			visit(n, "")
		}
	}
	return bridges, artics
}

// sideSize counts the nodes reachable from start when the link a-b is
// gone: one side of a bridge.
func (t *topology) sideSize(start, a, b string) int {
	cut := edgeKey(a, b)
	seen := map[string]bool{start: true}
	queue := []string{start}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range t.adj[u] {
			if !seen[v] && edgeKey(u, v) != cut {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return len(seen)
}

// target is one element an incident fails and restores, with the number
// of ordered (src, dst) pairs its failure must cost.
type target struct {
	link     [2]string // set for a link incident
	node     string    // set for a router incident
	wantLost int
}

func (tg target) String() string {
	if tg.node != "" {
		return "router " + tg.node
	}
	return fmt.Sprintf("link %s-%s", tg.link[0], tg.link[1])
}

// incidentCandidates lists every element whose failure has a known cost:
//
//   - intra: links inside one AS that are not a bridge of that AS's own
//     subgraph. The IGP and the iBGP mesh stay whole, so nothing is lost.
//   - inter: links between ASes. A bridge of the whole graph splits it
//     into sides A and B and costs 2·|A|·|B| pairs; any other inter-AS
//     link leaves every AS whole and the AS graph connected, so policy-free
//     BGP still reaches everything and nothing is lost.
//   - routers: routers of degree ≥ 2 that are an articulation point
//     neither of the whole graph nor of their own AS; only the 2·(N−1)
//     pairs with the router itself as an end are lost.
func (t *topology) incidentCandidates() (intra, inter, routers []target) {
	all := func(string) bool { return true }
	bridges, artics := t.cuts(all)
	asBridges, asArtics := map[[2]string]bool{}, map[string]bool{}
	seenAS := map[int]bool{}
	for _, n := range t.nodes {
		as := t.asn[n]
		if seenAS[as] {
			continue
		}
		seenAS[as] = true
		b, a := t.cuts(func(v string) bool { return t.asn[v] == as })
		for k := range b {
			asBridges[k] = true
		}
		for k := range a {
			asArtics[k] = true
		}
	}
	for _, u := range t.nodes {
		for _, v := range t.adj[u] {
			if u > v {
				continue
			}
			k := edgeKey(u, v)
			switch {
			case t.asn[u] == t.asn[v]:
				if !asBridges[k] {
					intra = append(intra, target{link: k})
				}
			case bridges[k]:
				a := t.sideSize(u, u, v)
				inter = append(inter, target{link: k, wantLost: 2 * a * (len(t.nodes) - a)})
			default:
				inter = append(inter, target{link: k})
			}
		}
		if len(t.adj[u]) >= 2 && !artics[u] && !asArtics[u] {
			routers = append(routers, target{node: u, wantLost: 2 * (len(t.nodes) - 1)})
		}
	}
	return intra, inter, routers
}

// pathSum is one rendered file's path and content hash.
type pathSum struct {
	path string
	sum  [sha256.Size]byte
}

// treeSums hashes a rendered tree file by file in sorted path order.
func treeSums(fs *render.FileSet) []pathSum {
	paths := fs.SortedPaths()
	out := make([]pathSum, len(paths))
	for i, p := range paths {
		content, _ := fs.Read(p)
		out[i] = pathSum{p, sha256.Sum256([]byte(content))}
	}
	return out
}

// treeDiff names the first file on which two trees differ, or "".
func treeDiff(want, got []pathSum) string {
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			return want[i].path
		}
	}
	if len(got) > len(want) {
		return got[len(want)].path
	}
	return ""
}
