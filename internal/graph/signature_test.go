package graph

import (
	"fmt"
	"sort"
	"testing"
)

// recordingHasher captures the token stream so tests can compare
// signatures without depending on the cache package.
type recordingHasher struct{ tokens []string }

func (r *recordingHasher) Str(ss ...string) { r.tokens = append(r.tokens, ss...) }
func (r *recordingHasher) Bool(b bool)      { r.tokens = append(r.tokens, fmt.Sprint(b)) }
func (r *recordingHasher) Node(n *Node)     { r.attrs(n.Attrs()) }
func (r *recordingHasher) Edge(e *Edge)     { r.attrs(e.Attrs()) }
func (r *recordingHasher) attrs(a Attrs) {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		r.tokens = append(r.tokens, k, fmt.Sprint(a[k]))
	}
	r.tokens = append(r.tokens, "|")
}

func signatureOf(g *Graph, id ID) string {
	h := &recordingHasher{}
	WriteNodeSignature(h, g, id)
	return fmt.Sprint(h.tokens)
}

func buildTriangle() *Graph {
	g := New()
	g.AddNode("a", Attrs{"asn": 1})
	g.AddNode("b", Attrs{"asn": 1})
	g.AddNode("c", Attrs{"asn": 2})
	g.AddEdge("a", "b", Attrs{"w": 1})
	g.AddEdge("b", "c", Attrs{"w": 2})
	g.AddEdge("c", "a", Attrs{"w": 3})
	return g
}

func TestNodeSignatureStableAcrossRebuilds(t *testing.T) {
	if signatureOf(buildTriangle(), "a") != signatureOf(buildTriangle(), "a") {
		t.Error("identical graphs give different signatures")
	}
}

func TestNodeSignatureSensitivity(t *testing.T) {
	base := signatureOf(buildTriangle(), "a")

	nodeAttr := buildTriangle()
	nodeAttr.Node("a").Set("asn", 9)
	if signatureOf(nodeAttr, "a") == base {
		t.Error("own-attribute change not reflected")
	}

	edgeAttr := buildTriangle()
	edgeAttr.Edge("a", "b").Set("w", 99)
	if signatureOf(edgeAttr, "a") == base {
		t.Error("incident-edge attribute change not reflected")
	}

	edgeGone := buildTriangle()
	edgeGone.RemoveEdge("c", "a")
	if signatureOf(edgeGone, "a") == base {
		t.Error("incident-edge removal not reflected")
	}

	// A change entirely outside the one-hop slice must NOT move the
	// signature — that's the property that makes invalidation selective.
	farAttr := buildTriangle()
	farAttr.Edge("b", "c").Set("w", 99)
	farAttr.Node("b").Set("asn", 7)
	if signatureOf(farAttr, "a") != base {
		t.Error("non-incident change invalidated the signature")
	}
}

func TestNodeSignatureAbsentNode(t *testing.T) {
	g := buildTriangle()
	if signatureOf(g, "missing") == signatureOf(g, "a") {
		t.Error("absent node collides with present node")
	}
	if signatureOf(g, "missing") != signatureOf(New(), "missing") {
		t.Error("absent-node signature not canonical")
	}
}

func TestNodeSignatureDirectedCoversInEdges(t *testing.T) {
	mk := func(w int) *Graph {
		g := NewDirected()
		g.AddEdge("up", "me", Attrs{"w": w})
		g.AddEdge("me", "down", Attrs{"w": 1})
		return g
	}
	if signatureOf(mk(1), "me") == signatureOf(mk(2), "me") {
		t.Error("incoming-edge attribute change not reflected for directed graphs")
	}
}
