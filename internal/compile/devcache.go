package compile

import (
	"fmt"

	"autonetkit/internal/cache"
	"autonetkit/internal/core"
	"autonetkit/internal/graph"
	"autonetkit/internal/nidb"
	"autonetkit/internal/obs"
)

// compileOrReuse compiles one device, consulting the incremental cache
// when configured: a stored record under the device's input digest is
// decoded and reused; otherwise the device compiles normally and its
// record is stored for the next build. Records are cached *before* lab
// finalisation mutates them (FinalizeLab assigns index-dependent state
// such as tap addresses and always reruns), so a reused record is exactly
// what a cold compile of the same inputs would have produced at this
// point in the pipeline.
func (c *compiler) compileOrReuse(n core.NodeView) (*nidb.Device, error) {
	store := c.opts.Cache
	if store == nil {
		d, err := c.compileDevice(n)
		if err == nil {
			c.opts.Obs.Add(obs.CounterDevicesCompiled, 1)
		}
		return d, err
	}
	dig := c.digests.device(n.ID())
	if data, ok := store.Get(dig); ok {
		if d, err := decodeDevice(n.ID(), data); err == nil {
			d.Digest = dig
			c.opts.Obs.Add(obs.CounterCacheHits, 1)
			c.opts.Obs.Add(obs.CounterCompileCacheHits, 1)
			c.opts.Obs.Add(obs.CounterCacheBytes, int64(len(data)))
			return d, nil
		}
		// Undecodable entries (version skew, corruption past the store's
		// checksum) degrade to a recompile below.
	}
	c.opts.Obs.Add(obs.CounterCacheMisses, 1)
	c.opts.Obs.Add(obs.CounterCompileCacheMisses, 1)
	d, err := c.compileDevice(n)
	if err != nil {
		return nil, err
	}
	d.Digest = dig
	c.opts.Obs.Add(obs.CounterDevicesCompiled, 1)
	if data, err := encodeDevice(d); err == nil {
		// Encoding failures mean the record holds a value outside the
		// codec's closed type set: the device simply stays uncacheable.
		store.Put(dig, data)
	}
	return d, nil
}

// encodeDevice canonically serialises a device record for the cache. It
// is strict — any value the codec cannot round-trip exactly makes the
// device uncacheable rather than risking a lossy restore.
func encodeDevice(d *nidb.Device) ([]byte, error) {
	return cache.EncodeValue(d.Data)
}

// decodeDevice restores a cached record. Each call decodes fresh maps and
// slices, so reused records never alias between builds (FinalizeLab
// mutates them after installation).
func decodeDevice(id graph.ID, data []byte) (*nidb.Device, error) {
	v, err := cache.DecodeValue(data)
	if err != nil {
		return nil, err
	}
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("compile: cached record for %s is %T, not a map", id, v)
	}
	return &nidb.Device{ID: id, Data: m}, nil
}
