// Package cache implements the content-addressed incremental build layer
// for the design→compile→render pipeline. Each device's compile inputs —
// its overlay-graph slice, design-rule outputs, IP allocations and template
// identity — hash into a per-device digest; devices whose digests are
// unchanged on a rebuild skip compilation and template execution, reusing
// their prior Resource-Database entries and rendered configuration files
// from an on-disk store (.ankcache/) fronted by an in-memory LRU.
//
// The package is deliberately generic: it knows how to digest, encode and
// store values, while the pipeline stages (internal/compile,
// internal/render) decide what goes into each digest. Cache failures are
// never build failures — a corrupt or unreadable entry is a miss, and the
// whole .ankcache directory is always safe to delete.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"

	"autonetkit/internal/graph"
)

// Digest is a content address: the SHA-256 of a canonical encoding of some
// build input.
type Digest [sha256.Size]byte

// Hex returns the digest as lowercase hex, the form used for on-disk file
// names and diagnostics.
func (d Digest) Hex() string { return hex.EncodeToString(d[:]) }

// String implements fmt.Stringer with a short prefix for logs.
func (d Digest) String() string { return d.Hex()[:12] }

// Hasher accumulates canonically-encoded tokens into a digest. Every token
// is length- and type-framed, so concatenation ambiguity ("ab"+"c" vs
// "a"+"bc") cannot collide, and map-valued inputs are hashed with sorted
// keys so digests never depend on Go map iteration order.
type Hasher struct {
	h hash.Hash
	// buf accumulates framed tokens and is flushed to the hash in large
	// chunks: SHA-256 digests long writes far faster than the thousands of
	// few-byte writes a device's model slice would otherwise issue.
	buf []byte
	// vbuf is reused across Value/Attrs calls so hashing an
	// attribute-heavy model slice doesn't allocate per token.
	vbuf []byte
}

// flushThreshold bounds the token buffer; crossing it drains to the hash.
const flushThreshold = 4096

func (h *Hasher) flush() {
	if len(h.buf) > 0 {
		h.h.Write(h.buf)
		h.buf = h.buf[:0]
	}
}

func (h *Hasher) write(p []byte) {
	h.buf = append(h.buf, p...)
	if len(h.buf) >= flushThreshold {
		h.flush()
	}
}

// NewHasher returns a hasher seeded with a domain tag. Distinct tags (for
// example "ank/compile/v2" vs "ank/render/v1") partition the digest space,
// and bumping a tag's version invalidates every existing entry for that
// stage.
func NewHasher(tag string) *Hasher {
	h := &Hasher{h: sha256.New()}
	h.Str(tag)
	return h
}

// Reset restarts the hasher under tag as NewHasher would, keeping its
// buffers: a caller taking thousands of digests reuses one hasher instead
// of regrowing a token buffer for each.
func (h *Hasher) Reset(tag string) {
	h.h.Reset()
	h.buf = h.buf[:0]
	h.Str(tag)
}

func (h *Hasher) frame(kind byte, n int) {
	h.buf = append(h.buf, kind)
	h.buf = appendUvarint(h.buf, uint64(n))
	if len(h.buf) >= flushThreshold {
		h.flush()
	}
}

// Str hashes each string, framed.
func (h *Hasher) Str(ss ...string) {
	for _, s := range ss {
		h.frame('s', len(s))
		h.buf = append(h.buf, s...)
		if len(h.buf) >= flushThreshold {
			h.flush()
		}
	}
}

// Bytes hashes a raw byte slice, framed.
func (h *Hasher) Bytes(b []byte) {
	h.frame('b', len(b))
	h.write(b)
}

// Int hashes each integer.
func (h *Hasher) Int(vs ...int) {
	for _, v := range vs {
		h.frame('i', 8)
		h.writeUint64(uint64(v))
	}
}

// Bool hashes a boolean.
func (h *Hasher) Bool(b bool) {
	if b {
		h.frame('t', 0)
	} else {
		h.frame('f', 0)
	}
}

func (h *Hasher) writeUint64(v uint64) {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	h.write(buf[:])
}

// Value hashes an arbitrary attribute value using the lenient canonical
// encoding: the closed set of pipeline types encodes exactly, and anything
// else falls back to a deterministic string form. Use Value for digests
// only; round-trip storage goes through EncodeValue, which rejects unknown
// types instead.
func (h *Hasher) Value(v any) {
	h.vbuf, _ = appendValue(h.vbuf[:0], v, true)
	h.Bytes(h.vbuf)
}

// Attrs hashes an attribute map with sorted keys, so the digest is
// independent of map iteration order.
func (h *Hasher) Attrs(a graph.Attrs) {
	h.vbuf = AppendAttrs(h.vbuf[:0], a)
	h.Bytes(h.vbuf)
}

// AppendAttrs appends the canonical encoding Attrs hashes — sorted keys,
// lenient values — to dst. A caller that hashes one map into many digests
// encodes it once and passes the result to Bytes.
func AppendAttrs(dst []byte, a graph.Attrs) []byte {
	dst, _ = appendValue(dst, map[string]any(a), true)
	return dst
}

// Sum finalises and returns the digest. The hasher remains usable; further
// writes extend the same stream.
func (h *Hasher) Sum() Digest {
	h.flush()
	var d Digest
	copy(d[:], h.h.Sum(nil))
	return d
}

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}
