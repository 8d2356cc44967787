package compile

import (
	"sync"

	"autonetkit/internal/cache"
	"autonetkit/internal/core"
	"autonetkit/internal/graph"
	"autonetkit/internal/ipalloc"
	"autonetkit/internal/par"
)

// compileDigestTag versions the compile digest space. Bump it whenever
// compileDevice starts reading a model input this digest does not cover —
// stale entries then miss instead of resurrecting records built under the
// old dependency set.
const compileDigestTag = "ank/compile/v2"

// DeviceDigest returns the content address of every model input
// compileDevice reads for node id: the compile options, the device's
// AS infrastructure block, its node slice of every overlay (attributes
// plus incident edges, in deterministic order), its protocol peers'
// overlay attributes and loopbacks, and the two-hop collision-domain
// closure in the allocated ipv4 overlay (domain attributes, ordered
// member lists, member addresses and the protocol edges crossing each
// domain). Two builds whose digests agree for a device produce an
// identical Resource-Database record for it, so the record — and every
// file rendered from it — can be reused.
//
// Each call encodes the whole model's attributes; the compile stage makes
// one digester per build and asks it for every device.
func DeviceDigest(anm *core.ANM, alloc *ipalloc.Result, opts Options, id graph.ID) cache.Digest {
	opts.fill()
	return newDigester(anm, alloc, opts).device(id)
}

// attrTable holds the canonical encoding of one overlay graph's attribute
// maps — the graph-level map, then one entry per node and per edge at its
// graph.Index — made once per build. A device's slice shares most of its
// maps with other devices' slices (an iBGP router's attributes are in every
// mesh peer's, every session edge in both its ends'), so digests fold these
// entries instead of sorting and encoding the same map once per reader.
// Tables are filled before the device workers start and only read after.
type attrTable struct {
	name  string // overlay name
	g     *graph.Graph
	attrs []byte
	nodes [][]byte
	edges [][]byte
}

func newAttrTable(name string, g *graph.Graph) *attrTable {
	nodes, edges := g.Nodes(), g.Edges()
	t := &attrTable{
		name:  name,
		g:     g,
		attrs: cache.AppendAttrs(nil, g.Attrs()),
		nodes: make([][]byte, len(nodes)),
		edges: make([][]byte, len(edges)),
	}
	encodeAttrs(t.nodes, func(i int) graph.Attrs { return nodes[i].Attrs() })
	encodeAttrs(t.edges, func(i int) graph.Attrs { return edges[i].Attrs() })
	return t
}

// encodeAttrs sets out[i] to the encoding of attrsAt(i), one contiguous
// chunk and one buffer per goroutine.
func encodeAttrs(out [][]byte, attrsAt func(int) graph.Attrs) {
	chunks := par.Workers(len(out))
	_ = par.Do(chunks, func(_, c int) error { // never fails
		lo, hi := c*len(out)/chunks, (c+1)*len(out)/chunks
		// Sized for the one short pair most maps hold. An entry sliced
		// out before the buffer grows keeps the array it was written to.
		buf := make([]byte, 0, 32*(hi-lo))
		for i := lo; i < hi; i++ {
			start := len(buf)
			buf = cache.AppendAttrs(buf, attrsAt(i))
			out[i] = buf[start:len(buf):len(buf)]
		}
		return nil
	})
}

// sliceHasher folds entries of one graph's table into a device's digest;
// it is the graph.AttrHasher WriteNodeSignature writes to.
type sliceHasher struct {
	*cache.Hasher
	t *attrTable
}

func (h sliceHasher) Graph()             { h.Bytes(h.t.attrs) }
func (h sliceHasher) Node(n *graph.Node) { h.Bytes(h.t.nodes[n.Index()]) }
func (h sliceHasher) Edge(e *graph.Edge) { h.Bytes(h.t.edges[e.Index()]) }

// digester computes device digests over one state of the model.
type digester struct {
	alloc    *ipalloc.Result
	opts     Options
	phy      *core.Overlay
	overlays []*attrTable // ANM order
	ip       *attrTable   // the allocated ipv4 overlay
	hashers  sync.Pool    // *cache.Hasher, one in use per worker
}

func newDigester(anm *core.ANM, alloc *ipalloc.Result, opts Options) *digester {
	dg := &digester{
		alloc: alloc,
		opts:  opts,
		phy:   anm.Overlay(core.OverlayPhy),
		ip:    newAttrTable("ipv4-alloc", alloc.Overlay.Graph()),
	}
	for _, name := range anm.OverlayNames() {
		dg.overlays = append(dg.overlays, newAttrTable(name, anm.Overlay(name).Graph()))
	}
	return dg
}

func (dg *digester) device(id graph.ID) cache.Digest {
	h, _ := dg.hashers.Get().(*cache.Hasher)
	if h == nil {
		h = cache.NewHasher(compileDigestTag)
	} else {
		h.Reset(compileDigestTag)
	}
	defer dg.hashers.Put(h)

	// Compile options that flow into device records.
	opts := dg.opts
	h.Str(opts.ZebraPassword, opts.DefaultPlatform, opts.DefaultSyntax, opts.DefaultHost)
	h.Int(opts.OSPFProcessID)
	h.Str(string(id))

	// The AS infrastructure block feeds bgp.networks.
	asn := dg.phy.Node(id).ASN()
	h.Int(asn)
	if block, ok := dg.alloc.InfraBlocks[asn]; ok {
		h.Str("infra")
		h.Value(block)
	}

	ip := sliceHasher{h, dg.ip}
	ipg := dg.ip.g

	// Per-overlay node slice: overlay identity and shape, overlay-level
	// data, the node's own attributes and incident edges, and — for
	// protocol overlays — each peer's overlay attributes and loopback
	// (compileBGP reads peer ASN, session attributes and peer loopbacks).
	for _, t := range dg.overlays {
		ov, g := sliceHasher{h, t}, t.g
		h.Str("overlay", t.name)
		h.Bool(g.Directed())
		ov.Graph()
		graph.WriteNodeSignature(ov, g, id)
		// Peer node state is only read through the directed session
		// overlays (compileBGP: peer ASN and loopback); undirected protocol
		// overlays contribute through edges and the CD closure alone, so
		// hashing their peers' attributes here would over-invalidate.
		if !g.Directed() {
			continue
		}
		for _, peer := range g.Neighbors(id) {
			h.Str("peer", string(peer))
			if pn := g.Node(peer); pn != nil {
				ov.Node(pn)
			}
			if lo := ipg.Node(peer); lo != nil {
				h.Str("peer-lo")
				h.Value(lo.Attrs()[ipalloc.AttrLoopback])
			}
		}
	}

	// The allocated ipv4 overlay may not be registered in the ANM's
	// overlay list; hash the node's slice of it explicitly (interface
	// order, addresses and loopback all come from here).
	h.Str("overlay", dg.ip.name)
	ip.Graph()
	graph.WriteNodeSignature(ip, ipg, id)

	// Two-hop collision-domain closure: compileInterfaces, the OSPF/ISIS
	// compilers and the eBGP session builder all read the members of each
	// attached domain — their order (interface descriptions), their
	// addresses on the domain (eBGP neighbor IPs), their ASN and device
	// type (intra-AS and gateway decisions) and the protocol edges between
	// this node and each co-member (OSPF cost and area).
	for _, cdID := range ipg.Neighbors(id) {
		cdNode := ipg.Node(cdID)
		if cdNode == nil {
			continue
		}
		if dt, _ := cdNode.Get(core.AttrDeviceType).(string); dt != core.DeviceCollisionDomain {
			continue
		}
		h.Str("cd", string(cdID))
		ip.Node(cdNode)
		for _, m := range ipg.Neighbors(cdID) {
			if m == id {
				continue
			}
			h.Str("member", string(m))
			if e := ipg.Edge(cdID, m); e != nil {
				ip.Edge(e)
			}
			if mn := ipg.Node(m); mn != nil {
				ip.Node(mn)
			}
			if pn := dg.phy.Graph().Node(m); pn != nil {
				h.Value(pn.Attrs()[core.AttrASN])
				h.Value(pn.Attrs()[core.AttrDeviceType])
			}
			for _, t := range dg.overlays {
				ov, og := sliceHasher{h, t}, t.g
				if e := og.Edge(id, m); e != nil {
					h.Str("cd-edge", t.name)
					ov.Edge(e)
				}
				if og.Directed() {
					if e := og.Edge(m, id); e != nil {
						h.Str("cd-edge-in", t.name)
						ov.Edge(e)
					}
				}
			}
		}
	}
	return h.Sum()
}
