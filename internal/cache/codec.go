package cache

import (
	"fmt"
	"math"
	"net/netip"
	"sort"
)

// The canonical binary codec for attribute values. The pipeline's value
// vocabulary is closed — nidb.Device.Data and graph.Attrs hold nil, bool,
// int, int64, float64, string, netip.Addr, netip.Prefix, []any, []string,
// []netip.Prefix and map[string]any — and the codec round-trips exactly
// those Go types. Exactness matters: compile and the template layer
// type-assert `.(int)` and `.(netip.Prefix)` on values read back from the
// NIDB, so a codec that (like JSON) collapsed int to float64 or netip to
// string would break byte-identity between cached and cold builds.
//
// Maps encode with sorted keys, so the same logical value always produces
// the same bytes regardless of insertion or iteration order — a
// requirement both for content addressing and for the determinism tests.

// Value-kind tags. One byte, followed by a kind-specific payload.
const (
	tagNil      = 'z'
	tagFalse    = 'f'
	tagTrue     = 't'
	tagInt      = 'i' // 8-byte little-endian two's complement
	tagInt64    = 'I'
	tagFloat64  = 'd' // 8-byte IEEE-754 bits
	tagString   = 's' // uvarint length + bytes
	tagAddr     = 'a' // uvarint length + netip.Addr binary form
	tagPrefix   = 'p' // uvarint length + netip.Prefix binary form
	tagList     = 'L' // uvarint count + values
	tagStrings  = 'S' // uvarint count + string payloads
	tagPrefixes = 'P' // uvarint count + prefix payloads
	tagMap      = 'M' // uvarint count + sorted (string key, value) pairs
	tagOpaque   = 'x' // uvarint length + "%T|%v" fallback (lenient mode only)

	// Typed nils. A nil []any and an empty []any marshal differently
	// downstream (JSON null vs []), so nil-ness must survive the round
	// trip for cached and cold builds to stay byte-identical.
	tagNilList     = 'l'
	tagNilStrings  = 'w'
	tagNilPrefixes = 'q'
	tagNilMap      = 'm'
)

// EncodeValue canonically encodes a value for storage. It is strict: a
// value outside the pipeline's closed type set returns an error, which
// callers treat as "this record is uncacheable" rather than storing a
// lossy form that could not be restored exactly.
func EncodeValue(v any) ([]byte, error) {
	return appendValue(nil, v, false)
}

func appendValue(b []byte, v any, lenient bool) ([]byte, error) {
	var err error
	switch x := v.(type) {
	case nil:
		b = append(b, tagNil)
	case bool:
		if x {
			b = append(b, tagTrue)
		} else {
			b = append(b, tagFalse)
		}
	case int:
		b = appendFixed64(append(b, tagInt), uint64(x))
	case int64:
		b = appendFixed64(append(b, tagInt64), uint64(x))
	case float64:
		b = appendFixed64(append(b, tagFloat64), math.Float64bits(x))
	case string:
		b = appendBytes(append(b, tagString), []byte(x))
	case netip.Addr:
		raw, e := x.MarshalBinary()
		if e != nil {
			return b, e
		}
		b = appendBytes(append(b, tagAddr), raw)
	case netip.Prefix:
		raw, e := x.MarshalBinary()
		if e != nil {
			return b, e
		}
		b = appendBytes(append(b, tagPrefix), raw)
	case []any:
		if x == nil {
			b = append(b, tagNilList)
			return b, nil
		}
		b = appendUvarint(append(b, tagList), uint64(len(x)))
		for _, el := range x {
			if b, err = appendValue(b, el, lenient); err != nil {
				return b, err
			}
		}
	case []string:
		if x == nil {
			b = append(b, tagNilStrings)
			return b, nil
		}
		b = appendUvarint(append(b, tagStrings), uint64(len(x)))
		for _, s := range x {
			b = appendBytes(b, []byte(s))
		}
	case []netip.Prefix:
		if x == nil {
			b = append(b, tagNilPrefixes)
			return b, nil
		}
		b = appendUvarint(append(b, tagPrefixes), uint64(len(x)))
		for _, p := range x {
			raw, e := p.MarshalBinary()
			if e != nil {
				return b, e
			}
			b = appendBytes(b, raw)
		}
	case map[string]any:
		if x == nil {
			b = append(b, tagNilMap)
			return b, nil
		}
		var few [8]string // attribute maps are small: no allocation to sort their keys
		keys := few[:0]
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = appendUvarint(append(b, tagMap), uint64(len(keys)))
		for _, k := range keys {
			b = appendBytes(b, []byte(k))
			if b, err = appendValue(b, x[k], lenient); err != nil {
				return b, err
			}
		}
	default:
		if !lenient {
			return b, fmt.Errorf("cache: uncacheable value type %T", v)
		}
		// Digest-only fallback: fmt prints maps with sorted keys, so this
		// string is deterministic even for types the codec cannot restore.
		b = appendBytes(append(b, tagOpaque), []byte(fmt.Sprintf("%T|%v", v, v)))
	}
	return b, nil
}

// DecodeValue decodes one canonically-encoded value, rejecting trailing
// garbage. Every error means "treat as a cache miss".
//
// The blob is copied into one string and every decoded string, map keys
// included, is a slice of that copy: a device record is hundreds of short
// strings that live and die together, so they share one allocation.
func DecodeValue(data []byte) (any, error) {
	v, rest, err := decodeValue(string(data))
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("cache: %d trailing bytes after value", len(rest))
	}
	return v, nil
}

func decodeValue(b string) (any, string, error) {
	if len(b) == 0 {
		return nil, "", fmt.Errorf("cache: truncated value")
	}
	tag, b := b[0], b[1:]
	switch tag {
	case tagNil:
		return nil, b, nil
	case tagNilList:
		return []any(nil), b, nil
	case tagNilStrings:
		return []string(nil), b, nil
	case tagNilPrefixes:
		return []netip.Prefix(nil), b, nil
	case tagNilMap:
		return map[string]any(nil), b, nil
	case tagFalse:
		return false, b, nil
	case tagTrue:
		return true, b, nil
	case tagInt, tagInt64, tagFloat64:
		u, rest, err := takeFixed64(b)
		if err != nil {
			return nil, "", err
		}
		switch tag {
		case tagInt:
			return int(int64(u)), rest, nil
		case tagInt64:
			return int64(u), rest, nil
		default:
			return math.Float64frombits(u), rest, nil
		}
	case tagString:
		raw, rest, err := takeBytes(b)
		if err != nil {
			return nil, "", err
		}
		return raw, rest, nil
	case tagAddr:
		raw, rest, err := takeBytes(b)
		if err != nil {
			return nil, "", err
		}
		var a netip.Addr
		if err := a.UnmarshalBinary([]byte(raw)); err != nil {
			return nil, "", err
		}
		return a, rest, nil
	case tagPrefix:
		raw, rest, err := takeBytes(b)
		if err != nil {
			return nil, "", err
		}
		var p netip.Prefix
		if err := p.UnmarshalBinary([]byte(raw)); err != nil {
			return nil, "", err
		}
		return p, rest, nil
	case tagList:
		n, rest, err := takeUvarint(b)
		if err != nil {
			return nil, "", err
		}
		list := make([]any, 0, min(int(n), len(rest)))
		for i := uint64(0); i < n; i++ {
			var el any
			if el, rest, err = decodeValue(rest); err != nil {
				return nil, "", err
			}
			list = append(list, el)
		}
		return list, rest, nil
	case tagStrings:
		n, rest, err := takeUvarint(b)
		if err != nil {
			return nil, "", err
		}
		list := make([]string, 0, min(int(n), len(rest)))
		for i := uint64(0); i < n; i++ {
			var raw string
			if raw, rest, err = takeBytes(rest); err != nil {
				return nil, "", err
			}
			list = append(list, raw)
		}
		return list, rest, nil
	case tagPrefixes:
		n, rest, err := takeUvarint(b)
		if err != nil {
			return nil, "", err
		}
		list := make([]netip.Prefix, 0, min(int(n), len(rest)))
		for i := uint64(0); i < n; i++ {
			var raw string
			if raw, rest, err = takeBytes(rest); err != nil {
				return nil, "", err
			}
			var p netip.Prefix
			if err := p.UnmarshalBinary([]byte(raw)); err != nil {
				return nil, "", err
			}
			list = append(list, p)
		}
		return list, rest, nil
	case tagMap:
		n, rest, err := takeUvarint(b)
		if err != nil {
			return nil, "", err
		}
		m := make(map[string]any, min(int(n), len(rest)))
		for i := uint64(0); i < n; i++ {
			var key string
			if key, rest, err = takeBytes(rest); err != nil {
				return nil, "", err
			}
			var val any
			if val, rest, err = decodeValue(rest); err != nil {
				return nil, "", err
			}
			m[key] = val
		}
		return m, rest, nil
	default:
		return nil, "", fmt.Errorf("cache: unknown value tag %q", tag)
	}
}

func appendFixed64(b []byte, v uint64) []byte {
	for i := 0; i < 8; i++ {
		b = append(b, byte(v>>(8*i)))
	}
	return b
}

func takeFixed64(b string) (uint64, string, error) {
	if len(b) < 8 {
		return 0, "", fmt.Errorf("cache: truncated fixed64")
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v, b[8:], nil
}

func appendBytes(b, raw []byte) []byte {
	b = appendUvarint(b, uint64(len(raw)))
	return append(b, raw...)
}

func takeBytes(b string) (string, string, error) {
	n, rest, err := takeUvarint(b)
	if err != nil {
		return "", "", err
	}
	if uint64(len(rest)) < n {
		return "", "", fmt.Errorf("cache: truncated bytes (want %d, have %d)", n, len(rest))
	}
	return rest[:n], rest[n:], nil
}

func takeUvarint(b string) (uint64, string, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, "", fmt.Errorf("cache: truncated uvarint")
}
