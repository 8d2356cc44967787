package render

import (
	"fmt"

	"autonetkit/internal/cache"
	"autonetkit/internal/nidb"
	"autonetkit/internal/obs"
)

// renderDigestTag versions the render digest space; bump it whenever
// renderDevice starts reading an input this key does not cover.
const renderDigestTag = "ank/render/v1"

// deviceRenderKey content-addresses one device's rendered file list: the
// device identity, its complete (post-finalisation) attribute tree and the
// fingerprint of its syntax's template set. renderDevice is a pure function
// of exactly these inputs, so an equal key guarantees byte-identical files.
//
// When the compile stage stamped the record with its input digest, the tree
// is addressed by that digest plus the tap attributes — the only state lab
// finalisation mutates after the digest was taken — instead of re-encoding
// the whole tree, which would otherwise dominate a fully warm render.
// Records without a digest fall back to canonical encoding; strict encoding
// means a device whose tree holds a value outside the codec's type set is
// simply uncacheable.
func deviceRenderKey(d *nidb.Device) (cache.Digest, error) {
	h := cache.NewHasher(renderDigestTag)
	h.Str(string(d.ID))
	h.Str(SyntaxFingerprint(d.GetString("syntax", "")))
	if d.Digest != ([32]byte{}) {
		h.Str("by-digest")
		h.Bytes(d.Digest[:])
		tap, _ := d.Get("tap")
		h.Value(tap)
		return h.Sum(), nil
	}
	data, err := cache.EncodeValue(d.Data)
	if err != nil {
		return cache.Digest{}, err
	}
	h.Str("by-data")
	h.Bytes(data)
	return h.Sum(), nil
}

// renderDeviceCached wraps renderDevice with the incremental cache: a hit
// decodes the stored file list, a miss renders and stores it. Lab-level
// files are never cached — they depend on the whole device set and are
// cheap relative to per-device templates.
func renderDeviceCached(d *nidb.Device, opts Options) ([]renderedFile, error) {
	if opts.Cache == nil {
		return renderDevice(d, opts.Obs)
	}
	key, err := deviceRenderKey(d)
	if err != nil {
		return renderDevice(d, opts.Obs)
	}
	if data, ok := opts.Cache.Get(key); ok {
		if files, derr := decodeFiles(data); derr == nil {
			opts.Obs.Add(obs.CounterCacheHits, 1)
			opts.Obs.Add(obs.CounterRenderCacheHits, 1)
			opts.Obs.Add(obs.CounterCacheBytes, int64(len(data)))
			return files, nil
		}
	}
	opts.Obs.Add(obs.CounterCacheMisses, 1)
	opts.Obs.Add(obs.CounterRenderCacheMisses, 1)
	files, err := renderDevice(d, opts.Obs)
	if err != nil {
		return nil, err
	}
	if data, eerr := encodeFiles(files); eerr == nil {
		opts.Cache.Put(key, data)
	}
	return files, nil
}

// encodeFiles flattens a file list into the cache codec's list form:
// alternating path and content strings.
func encodeFiles(files []renderedFile) ([]byte, error) {
	flat := make([]any, 0, 2*len(files))
	for _, f := range files {
		flat = append(flat, f.path, f.content)
	}
	return cache.EncodeValue(flat)
}

func decodeFiles(data []byte) ([]renderedFile, error) {
	v, err := cache.DecodeValue(data)
	if err != nil {
		return nil, err
	}
	flat, ok := v.([]any)
	if !ok || len(flat)%2 != 0 {
		return nil, fmt.Errorf("render: cached file list is malformed")
	}
	files := make([]renderedFile, 0, len(flat)/2)
	for i := 0; i < len(flat); i += 2 {
		path, pok := flat[i].(string)
		content, cok := flat[i+1].(string)
		if !pok || !cok {
			return nil, fmt.Errorf("render: cached file list holds non-strings")
		}
		files = append(files, renderedFile{path, content})
	}
	return files, nil
}
