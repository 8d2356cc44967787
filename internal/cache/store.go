package cache

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// Store is a content-addressed blob store: an in-memory LRU in front of an
// optional on-disk directory (conventionally `.ankcache/`). Entries are
// keyed by digest, so a stored payload is immutable by construction — a
// different payload has a different key. All methods are goroutine-safe.
//
// The store is strictly an accelerator: every failure mode (missing file,
// torn write, checksum mismatch, permission error) degrades to a cache
// miss and the corrupt entry is dropped, never surfaced as a build error.
// Deleting the directory wholesale is always safe.
type Store struct {
	dir string

	mu    sync.Mutex
	mem   *lru
	stats Stats
}

// Options bounds the in-memory layer. Zero values select defaults.
type Options struct {
	// MaxEntries caps the number of in-memory entries (default 16384).
	MaxEntries int
	// MaxBytes caps the in-memory payload bytes (default 256 MiB).
	MaxBytes int64
}

// Stats is a point-in-time snapshot of store activity.
type Stats struct {
	Hits         int64 // Get calls served (memory or disk)
	Misses       int64 // Get calls not served
	MemoryHits   int64 // subset of Hits served without touching disk
	Evictions    int64 // LRU entries displaced
	BytesRead    int64 // payload bytes returned by Get
	BytesWritten int64 // payload bytes accepted by Put
	DiskErrors   int64 // disk failures silently degraded to misses
}

// Entry header: magic, then the SHA-256 of the payload. The checksum is of
// the *payload*, independent of the digest key, so a truncated or bit-
// flipped file is detected even though its name still looks valid.
var diskMagic = [8]byte{'A', 'N', 'K', 'C', 'A', 'C', 'H', '1'}

// Open returns a store backed by dir, creating it if needed. An empty dir
// gives a memory-only store (Open never fails in that case).
func Open(dir string, opts Options) (*Store, error) {
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = 16384
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = 256 << 20
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("cache: open %s: %w", dir, err)
		}
	}
	return &Store{dir: dir, mem: newLRU(opts.MaxEntries, opts.MaxBytes)}, nil
}

// NewMemory returns a memory-only store with default bounds.
func NewMemory() *Store {
	s, _ := Open("", Options{})
	return s
}

// Dir reports the backing directory ("" for memory-only stores).
func (s *Store) Dir() string { return s.dir }

// Get returns the payload stored under key, consulting memory first and
// then disk. The returned slice must not be modified by the caller.
//
// The lock covers the LRU and the counters only; file I/O runs outside it,
// so workers reading or storing different keys overlap. Content addressing
// plus temp-and-rename makes racing writers of one key idempotent, and a
// reader sees a whole entry or none.
func (s *Store) Get(key Digest) ([]byte, bool) {
	s.mu.Lock()
	if data, ok := s.mem.get(key); ok {
		s.stats.Hits++
		s.stats.MemoryHits++
		s.stats.BytesRead += int64(len(data))
		s.mu.Unlock()
		return data, true
	}
	s.mu.Unlock()

	data, err := s.readDisk(key)

	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.stats.DiskErrors++
		}
		s.stats.Misses++
		return nil, false
	}
	s.mem.put(key, data)
	s.stats.Evictions = s.mem.evictions
	s.stats.Hits++
	s.stats.BytesRead += int64(len(data))
	return data, true
}

// Put stores payload under key in memory and, when configured, on disk.
// The store takes ownership of data; callers must not modify it afterwards.
func (s *Store) Put(key Digest, data []byte) {
	s.mu.Lock()
	s.mem.put(key, data)
	s.stats.Evictions = s.mem.evictions
	s.stats.BytesWritten += int64(len(data))
	s.mu.Unlock()
	if s.dir == "" {
		return
	}
	if err := s.writeDisk(key, data); err != nil {
		s.mu.Lock()
		s.stats.DiskErrors++
		s.mu.Unlock()
	}
}

// Stats returns a snapshot of activity counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Len reports the number of in-memory entries (tests and diagnostics).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem.entries)
}

// path fans entries out over 256 subdirectories by the first digest byte,
// keeping any single directory listing short on large stores.
func (s *Store) path(key Digest) string {
	hex := key.Hex()
	return filepath.Join(s.dir, hex[:2], hex[2:]+".bin")
}

// readDisk returns the verified payload of key's entry. A missing entry
// (every entry of a memory-only store) is fs.ErrNotExist; a torn or
// bit-flipped one is removed and reported.
func (s *Store) readDisk(key Digest) ([]byte, error) {
	if s.dir == "" {
		return nil, fs.ErrNotExist
	}
	path := s.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	headerLen := len(diskMagic) + sha256.Size
	if len(raw) < headerLen || [8]byte(raw[:len(diskMagic)]) != diskMagic ||
		sha256.Sum256(raw[headerLen:]) != [sha256.Size]byte(raw[len(diskMagic):headerLen]) {
		os.Remove(path)
		return nil, fmt.Errorf("cache: corrupt entry %s", path)
	}
	return raw[headerLen:], nil
}

func (s *Store) writeDisk(key Digest, data []byte) error {
	path := s.path(key)
	if _, err := os.Stat(path); err == nil {
		return nil // content-addressed: an existing entry is already identical
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	sum := sha256.Sum256(data)
	buf := make([]byte, 0, len(diskMagic)+len(sum)+len(data))
	buf = append(buf, diskMagic[:]...)
	buf = append(buf, sum[:]...)
	buf = append(buf, data...)
	// Write-to-temp, fsync, then rename, so readers never observe a torn
	// entry AND a crash just after the rename cannot leave an empty or
	// partial file under the final name (rename durability needs the data
	// on disk first, and the directory entry flushed after).
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(buf)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if err := errors.Join(werr, serr, cerr); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}
