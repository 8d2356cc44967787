package graph

// AttrHasher is the token sink used for stable sub-graph hashing. Node and
// Edge commit to the element's attribute map (sorted keys); taking the
// element rather than the map lets a sink that hashes one element into many
// signatures look up an encoding it made once. internal/compile supplies
// the implementations; declaring the interface here keeps the dependency
// pointing at graph, not the other way around.
type AttrHasher interface {
	Str(ss ...string)
	Bool(b bool)
	Node(n *Node)
	Edge(e *Edge)
}

// WriteNodeSignature writes a stable signature of id's local neighbourhood
// in g: the node's presence and attributes plus every incident edge (both
// directions for directed graphs) with its orientation, far endpoint and
// attributes. Edges come in deterministic edge-insertion order, so two
// graphs that agree on this slice produce identical signatures regardless
// of how they were built up elsewhere.
//
// The signature deliberately covers only the one-hop slice: a change two
// hops away must be captured by the caller hashing additional tokens (as
// internal/compile does for collision-domain closures), keeping
// invalidation proportional to real dependencies.
func WriteNodeSignature(h AttrHasher, g *Graph, id ID) {
	h.Str("node", string(id))
	n := g.Node(id)
	if n == nil {
		h.Bool(false)
		return
	}
	h.Bool(true)
	h.Node(n)
	for _, e := range g.incident[id] {
		h.Str("edge", string(e.Other(id)))
		h.Bool(e.Src() == id)
		h.Edge(e)
	}
	if g.Directed() {
		for _, e := range g.incoming[id] {
			h.Str("in-edge", string(e.Src()))
			h.Edge(e)
		}
	}
}
