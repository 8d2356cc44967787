// Package nidb implements the Resource Database — the paper's Network
// Information DataBase (§5.4): a device-level view of the network produced
// by the compiler, holding for every device a nested, device-independent
// attribute tree (hostnames, interfaces, protocol state) plus render
// metadata (which templates to use, where output files go, §5.5).
//
// The tree for one device is exactly the `node` context pushed into the
// configuration templates; the JSON serialisation mirrors the paper's §5.4
// listing.
package nidb

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"autonetkit/internal/graph"
)

// Device is one network element's compiled state.
type Device struct {
	ID graph.ID
	// Data is the nested attribute tree pushed into templates as `node`.
	Data map[string]any
	// Digest, when non-zero, is the content address of the compile inputs
	// this record was built (or reused) from — set by the compile stage when
	// its cache is enabled. Downstream caches may key on it instead of
	// re-encoding Data, because equal digests guarantee equal records.
	Digest [32]byte
}

// NewDevice returns an empty device record.
func NewDevice(id graph.ID) *Device {
	return &Device{ID: id, Data: map[string]any{}}
}

// Set assigns a value at a dotted path, creating intermediate maps: e.g.
// Set("zebra.password", "1234").
func (d *Device) Set(path string, v any) error {
	parts := strings.Split(path, ".")
	cur := d.Data
	for i, p := range parts[:len(parts)-1] {
		next, ok := cur[p]
		if !ok {
			m := map[string]any{}
			cur[p] = m
			cur = m
			continue
		}
		m, ok := next.(map[string]any)
		if !ok {
			return fmt.Errorf("nidb: %s: %q is a leaf (%T), cannot descend", d.ID, strings.Join(parts[:i+1], "."), next)
		}
		cur = m
	}
	cur[parts[len(parts)-1]] = v
	return nil
}

// MustSet is Set panicking on error; compiler-internal use where the path
// shape is static.
func (d *Device) MustSet(path string, v any) {
	if err := d.Set(path, v); err != nil {
		panic(err)
	}
}

// Get reads a value at a dotted path; ok is false when any component is
// absent.
func (d *Device) Get(path string) (any, bool) {
	parts := strings.Split(path, ".")
	var cur any = d.Data
	for _, p := range parts {
		m, ok := cur.(map[string]any)
		if !ok {
			return nil, false
		}
		cur, ok = m[p]
		if !ok {
			return nil, false
		}
	}
	return cur, true
}

// GetString reads a string at a dotted path with a default.
func (d *Device) GetString(path, def string) string {
	if v, ok := d.Get(path); ok {
		if s, ok := v.(string); ok {
			return s
		}
	}
	return def
}

// GetInt reads an int at a dotted path with a default.
func (d *Device) GetInt(path string, def int) int {
	if v, ok := d.Get(path); ok {
		if f, ok := graph.ToFloat(v); ok {
			return int(f)
		}
	}
	return def
}

// Hostname returns the device's hostname (set by the platform compiler).
func (d *Device) Hostname() string { return d.GetString("hostname", string(d.ID)) }

// Link is a device-level adjacency in the resource database: two devices
// sharing a collision domain, with their interface bindings. Deployment
// (lab.conf) and measurement both read these.
type Link struct {
	A, B   graph.ID // devices
	AIface string   // interface id on A (e.g. "eth0")
	BIface string   // interface id on B
	CD     graph.ID // collision domain id
}

// DB is the Resource Database: every compiled device plus the device-level
// topology, in deterministic order.
type DB struct {
	devices map[graph.ID]*Device
	order   []graph.ID
	links   []Link
	// Lab holds per-(host,platform) lab-wide data (machine list, collision
	// domains, TAP subnet) used to render platform files such as Netkit's
	// lab.conf.
	labs map[string]map[string]any
}

// New returns an empty database.
func New() *DB {
	return &DB{devices: map[graph.ID]*Device{}, labs: map[string]map[string]any{}}
}

// AddDevice creates (or returns the existing) device record.
func (db *DB) AddDevice(id graph.ID) *Device {
	if d, ok := db.devices[id]; ok {
		return d
	}
	d := NewDevice(id)
	db.devices[id] = d
	db.order = append(db.order, id)
	return d
}

// InstallDevice inserts a device record built elsewhere (e.g. by a compile
// worker), replacing any existing record with the same ID while preserving
// the original insertion position. Callers install records serially, in the
// order the devices should iterate.
func (db *DB) InstallDevice(d *Device) {
	if _, ok := db.devices[d.ID]; !ok {
		db.order = append(db.order, d.ID)
	}
	db.devices[d.ID] = d
}

// Device returns the record for id, or nil when absent.
func (db *DB) Device(id graph.ID) *Device { return db.devices[id] }

// Devices returns all records in insertion order.
func (db *DB) Devices() []*Device {
	out := make([]*Device, 0, len(db.order))
	for _, id := range db.order {
		out = append(out, db.devices[id])
	}
	return out
}

// DevicesWhere returns devices whose tree value at path equals want.
func (db *DB) DevicesWhere(path string, want any) []*Device {
	var out []*Device
	for _, d := range db.Devices() {
		if v, ok := d.Get(path); ok && fmt.Sprint(v) == fmt.Sprint(want) {
			out = append(out, d)
		}
	}
	return out
}

// Routers returns the devices with device_type router.
func (db *DB) Routers() []*Device { return db.DevicesWhere("device_type", "router") }

// Len returns the device count.
func (db *DB) Len() int { return len(db.order) }

// AddLink records a device-level adjacency.
func (db *DB) AddLink(l Link) { db.links = append(db.links, l) }

// Links returns the device-level adjacencies in insertion order.
func (db *DB) Links() []Link {
	out := make([]Link, len(db.links))
	copy(out, db.links)
	return out
}

// LinksOf returns the links incident to a device.
func (db *DB) LinksOf(id graph.ID) []Link {
	var out []Link
	for _, l := range db.links {
		if l.A == id || l.B == id {
			out = append(out, l)
		}
	}
	return out
}

// Lab returns (creating if needed) the lab-wide data map for a
// (host, platform) pair.
func (db *DB) Lab(host, platform string) map[string]any {
	key := host + "/" + platform
	m, ok := db.labs[key]
	if !ok {
		m = map[string]any{"host": host, "platform": platform}
		db.labs[key] = m
	}
	return m
}

// LabKeys returns the (host, platform) keys in sorted order.
func (db *DB) LabKeys() []string {
	out := make([]string, 0, len(db.labs))
	for k := range db.labs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// MarshalJSON serialises the database deterministically (devices in
// insertion order).
func (db *DB) MarshalJSON() ([]byte, error) {
	type devOut struct {
		ID   string         `json:"id"`
		Data map[string]any `json:"data"`
	}
	type linkOut struct {
		A, B, AIface, BIface, CD string
	}
	out := struct {
		Devices []devOut  `json:"devices"`
		Links   []linkOut `json:"links"`
	}{}
	for _, d := range db.Devices() {
		out.Devices = append(out.Devices, devOut{ID: string(d.ID), Data: d.Data})
	}
	for _, l := range db.links {
		out.Links = append(out.Links, linkOut{string(l.A), string(l.B), l.AIface, l.BIface, string(l.CD)})
	}
	return json.MarshalIndent(out, "", "  ")
}

// DumpDevice renders one device's tree as indented JSON (the paper's §5.4
// listing format).
func (db *DB) DumpDevice(id graph.ID) (string, error) {
	d := db.Device(id)
	if d == nil {
		return "", fmt.Errorf("nidb: no device %q", id)
	}
	b, err := json.MarshalIndent(d.Data, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b), nil
}
