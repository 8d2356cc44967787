// Package graph implements the attribute graphs that underpin the whole
// system (paper §4.2.1). Nodes and edges carry free-form attribute maps, and
// all iteration is deterministic (insertion order), so everything derived
// from a graph — overlays, the resource database, rendered configurations —
// is byte-stable across runs.
//
// The package supports both undirected graphs (physical topologies, OSPF
// adjacencies) and directed graphs (BGP sessions, RPKI distribution
// hierarchies). It is a simple graph: at most one edge per ordered node
// pair; re-adding an edge merges attributes into the existing one.
package graph

import (
	"fmt"
	"sort"
)

// ID identifies a node within a graph. IDs are free-form strings; loaders
// typically use the node label from the input file.
type ID string

// Attrs is a free-form attribute map attached to graphs, nodes and edges.
type Attrs map[string]any

// Clone returns a shallow copy of the attribute map.
func (a Attrs) Clone() Attrs {
	if a == nil {
		return nil
	}
	out := make(Attrs, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// Merge copies every key of src into a, overwriting existing keys.
func (a Attrs) Merge(src Attrs) {
	for k, v := range src {
		a[k] = v
	}
}

// Node is a vertex with an attribute map. Nodes belong to exactly one Graph.
type Node struct {
	id    ID
	attrs Attrs
	idx   int // position in the graph's node order
}

// ID returns the node's identifier.
func (n *Node) ID() ID { return n.id }

// Index returns the node's position in its graph's insertion order, the
// position it has in Nodes(): a dense key for per-node tables. Removing an
// earlier node shifts it.
func (n *Node) Index() int { return n.idx }

// Attrs returns the node's attribute map. Mutating it mutates the node.
func (n *Node) Attrs() Attrs { return n.attrs }

// Get returns the attribute value for key, or nil when absent.
func (n *Node) Get(key string) any { return n.attrs[key] }

// Set assigns an attribute on the node.
func (n *Node) Set(key string, v any) { n.attrs[key] = v }

// Has reports whether the attribute key is present.
func (n *Node) Has(key string) bool { _, ok := n.attrs[key]; return ok }

// Edge is a connection between two nodes with an attribute map. For
// undirected graphs Src/Dst reflect insertion order only.
type Edge struct {
	src, dst ID
	attrs    Attrs
	idx      int // position in the graph's edge order
}

// Index returns the edge's position in its graph's insertion order, the
// position it has in Edges(); see Node.Index.
func (e *Edge) Index() int { return e.idx }

// Src returns the edge's source (first) endpoint.
func (e *Edge) Src() ID { return e.src }

// Dst returns the edge's destination (second) endpoint.
func (e *Edge) Dst() ID { return e.dst }

// Attrs returns the edge's attribute map. Mutating it mutates the edge.
func (e *Edge) Attrs() Attrs { return e.attrs }

// Get returns the attribute value for key, or nil when absent.
func (e *Edge) Get(key string) any { return e.attrs[key] }

// Set assigns an attribute on the edge.
func (e *Edge) Set(key string, v any) { e.attrs[key] = v }

// Other returns the endpoint of e opposite to id. It returns id itself for
// self-loops and panics if id is not an endpoint.
func (e *Edge) Other(id ID) ID {
	switch id {
	case e.src:
		return e.dst
	case e.dst:
		return e.src
	}
	panic(fmt.Sprintf("graph: node %q is not an endpoint of edge %q-%q", id, e.src, e.dst))
}

// Graph is a deterministic attribute graph.
//
// The zero value is not usable; construct with New or NewDirected.
type Graph struct {
	directed bool
	attrs    Attrs

	nodes map[ID]*Node
	order []ID // node insertion order

	// adj maps src -> dst -> edge. Undirected graphs store each edge under
	// both orientations, pointing at the same *Edge.
	adj       map[ID]map[ID]*Edge
	edgeOrder []*Edge

	// incident indexes edgeOrder per endpoint — outgoing edges for directed
	// graphs, all incident edges (self-loops once) for undirected — and
	// incoming holds the directed in-edges. Both preserve edge-insertion
	// order, so the EdgesOf/InEdgesOf/Neighbors family is O(degree) instead
	// of a scan over every edge in the graph.
	incident map[ID][]*Edge
	incoming map[ID][]*Edge
}

// New returns an empty undirected graph.
func New() *Graph { return newGraph(false) }

// NewDirected returns an empty directed graph.
func NewDirected() *Graph { return newGraph(true) }

func newGraph(directed bool) *Graph {
	return &Graph{
		directed: directed,
		attrs:    Attrs{},
		nodes:    map[ID]*Node{},
		adj:      map[ID]map[ID]*Edge{},
		incident: map[ID][]*Edge{},
		incoming: map[ID][]*Edge{},
	}
}

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// Attrs returns the graph-level attribute map (paper §5.2.1: per-overlay
// data such as per-AS infrastructure blocks live here).
func (g *Graph) Attrs() Attrs { return g.attrs }

// Get returns a graph-level attribute, or nil when absent.
func (g *Graph) Get(key string) any { return g.attrs[key] }

// Set assigns a graph-level attribute.
func (g *Graph) Set(key string, v any) { g.attrs[key] = v }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the edge count (each undirected edge counted once).
func (g *Graph) NumEdges() int { return len(g.edgeOrder) }

// HasNode reports whether id is present.
func (g *Graph) HasNode(id ID) bool { _, ok := g.nodes[id]; return ok }

// Node returns the node with the given id, or nil when absent.
func (g *Graph) Node(id ID) *Node { return g.nodes[id] }

// AddNode inserts a node, or returns the existing node (merging attrs into
// it) when id is already present.
func (g *Graph) AddNode(id ID, attrs ...Attrs) *Node {
	n, ok := g.nodes[id]
	if !ok {
		n = &Node{id: id, attrs: Attrs{}, idx: len(g.order)}
		g.nodes[id] = n
		g.order = append(g.order, id)
		g.adj[id] = map[ID]*Edge{}
	}
	for _, a := range attrs {
		n.attrs.Merge(a)
	}
	return n
}

// RemoveNode deletes a node and all incident edges. Removing an absent node
// is a no-op.
func (g *Graph) RemoveNode(id ID) {
	if !g.HasNode(id) {
		return
	}
	// Drop incident edges first (copy: removeEdgePtr mutates the indexes).
	doomed := append([]*Edge(nil), g.incident[id]...)
	doomed = append(doomed, g.incoming[id]...)
	for _, e := range doomed {
		g.removeEdgePtr(e)
	}
	delete(g.nodes, id)
	delete(g.adj, id)
	delete(g.incident, id)
	delete(g.incoming, id)
	for i, nid := range g.order {
		if nid == id {
			g.order = append(g.order[:i], g.order[i+1:]...)
			for j := i; j < len(g.order); j++ {
				g.nodes[g.order[j]].idx = j
			}
			break
		}
	}
}

// Nodes returns all nodes in insertion order.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, 0, len(g.order))
	for _, id := range g.order {
		out = append(out, g.nodes[id])
	}
	return out
}

// NodeIDs returns all node IDs in insertion order.
func (g *Graph) NodeIDs() []ID {
	out := make([]ID, len(g.order))
	copy(out, g.order)
	return out
}

// SortedNodeIDs returns all node IDs in lexical order.
func (g *Graph) SortedNodeIDs() []ID {
	out := g.NodeIDs()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasEdge reports whether an edge u->v exists (or u-v for undirected).
func (g *Graph) HasEdge(u, v ID) bool {
	m, ok := g.adj[u]
	if !ok {
		return false
	}
	_, ok = m[v]
	return ok
}

// Edge returns the edge u->v (u-v for undirected), or nil when absent.
func (g *Graph) Edge(u, v ID) *Edge {
	if m, ok := g.adj[u]; ok {
		return m[v]
	}
	return nil
}

// AddEdge inserts an edge between u and v, implicitly adding missing
// endpoints. Adding an existing edge merges attrs into it. For undirected
// graphs the edge is reachable from both orientations.
func (g *Graph) AddEdge(u, v ID, attrs ...Attrs) *Edge {
	g.AddNode(u)
	g.AddNode(v)
	if e := g.adj[u][v]; e != nil {
		for _, a := range attrs {
			e.attrs.Merge(a)
		}
		return e
	}
	e := &Edge{src: u, dst: v, attrs: Attrs{}, idx: len(g.edgeOrder)}
	for _, a := range attrs {
		e.attrs.Merge(a)
	}
	g.adj[u][v] = e
	g.incident[u] = append(g.incident[u], e)
	if g.directed {
		g.incoming[v] = append(g.incoming[v], e)
	} else if u != v {
		g.adj[v][u] = e
		g.incident[v] = append(g.incident[v], e)
	}
	g.edgeOrder = append(g.edgeOrder, e)
	return e
}

// RemoveEdge deletes the edge u->v (u-v undirected). Absent edges are a
// no-op.
func (g *Graph) RemoveEdge(u, v ID) {
	if e := g.Edge(u, v); e != nil {
		g.removeEdgePtr(e)
	}
}

func (g *Graph) removeEdgePtr(e *Edge) {
	delete(g.adj[e.src], e.dst)
	g.incident[e.src] = dropEdge(g.incident[e.src], e)
	if g.directed {
		g.incoming[e.dst] = dropEdge(g.incoming[e.dst], e)
	} else if e.src != e.dst {
		delete(g.adj[e.dst], e.src)
		g.incident[e.dst] = dropEdge(g.incident[e.dst], e)
	}
	for i, cur := range g.edgeOrder {
		if cur == e {
			g.edgeOrder = append(g.edgeOrder[:i], g.edgeOrder[i+1:]...)
			for j := i; j < len(g.edgeOrder); j++ {
				g.edgeOrder[j].idx = j
			}
			break
		}
	}
}

// dropEdge removes the first occurrence of e from es, preserving order.
func dropEdge(es []*Edge, e *Edge) []*Edge {
	for i, cur := range es {
		if cur == e {
			return append(es[:i], es[i+1:]...)
		}
	}
	return es
}

// Edges returns all edges in insertion order (undirected edges once each).
func (g *Graph) Edges() []*Edge {
	out := make([]*Edge, len(g.edgeOrder))
	copy(out, g.edgeOrder)
	return out
}

// EdgesOf returns the edges incident to id in deterministic order: for
// directed graphs only outgoing edges, matching the paper's session
// semantics.
func (g *Graph) EdgesOf(id ID) []*Edge {
	es := g.incident[id]
	if len(es) == 0 {
		return nil
	}
	out := make([]*Edge, len(es))
	copy(out, es)
	return out
}

// InEdgesOf returns the edges entering id (directed graphs); for undirected
// graphs it equals EdgesOf.
func (g *Graph) InEdgesOf(id ID) []*Edge {
	if !g.directed {
		return g.EdgesOf(id)
	}
	es := g.incoming[id]
	if len(es) == 0 {
		return nil
	}
	out := make([]*Edge, len(es))
	copy(out, es)
	return out
}

// Neighbors returns the neighbor IDs of id in deterministic (edge insertion)
// order. For directed graphs these are the successors.
func (g *Graph) Neighbors(id ID) []ID {
	es := g.incident[id]
	if len(es) == 0 {
		return nil
	}
	// AddEdge merges parallel edges, so each incident edge contributes a
	// distinct neighbor — no dedup pass needed.
	out := make([]ID, len(es))
	for i, e := range es {
		if e.src == id {
			out[i] = e.dst
		} else {
			out[i] = e.src
		}
	}
	return out
}

// Degree returns the number of edges incident to id (out-degree for
// directed graphs).
func (g *Graph) Degree(id ID) int {
	if g.directed {
		return len(g.adj[id])
	}
	d := len(g.incident[id])
	for _, e := range g.incident[id] {
		if e.src == e.dst {
			d++ // self-loop counts twice, matching NetworkX
		}
	}
	return d
}

// Copy returns a deep copy of the graph structure with shallow-copied
// attribute values.
func (g *Graph) Copy() *Graph {
	out := newGraph(g.directed)
	out.attrs = g.attrs.Clone()
	if out.attrs == nil {
		out.attrs = Attrs{}
	}
	for _, id := range g.order {
		out.AddNode(id, g.nodes[id].attrs.Clone())
	}
	for _, e := range g.edgeOrder {
		out.AddEdge(e.src, e.dst, e.attrs.Clone())
	}
	return out
}

// Subgraph returns a new graph containing only the listed nodes and the
// edges among them, preserving attributes.
func (g *Graph) Subgraph(ids []ID) *Graph {
	keep := make(map[ID]bool, len(ids))
	for _, id := range ids {
		keep[id] = true
	}
	out := newGraph(g.directed)
	out.attrs = g.attrs.Clone()
	if out.attrs == nil {
		out.attrs = Attrs{}
	}
	for _, id := range g.order {
		if keep[id] {
			out.AddNode(id, g.nodes[id].attrs.Clone())
		}
	}
	for _, e := range g.edgeOrder {
		if keep[e.src] && keep[e.dst] {
			out.AddEdge(e.src, e.dst, e.attrs.Clone())
		}
	}
	return out
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	return fmt.Sprintf("graph(%s, %d nodes, %d edges)", kind, g.NumNodes(), g.NumEdges())
}
