package autonetkit

import (
	"io/fs"
	"path/filepath"
	"testing"

	"autonetkit/internal/cache"
	"autonetkit/internal/obs"
	"autonetkit/internal/topogen"
)

// storeDirUsage counts the entries of an on-disk store and their total size.
func storeDirUsage(t *testing.T, dir string) (files int, bytes int64) {
	t.Helper()
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		files++
		bytes += info.Size()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files, bytes
}

// TestEditRebuildWritesOnlyWhatChanged is the write side of "a rebuild
// costs what changed": against a populated on-disk store, a build with one
// node attribute edited adds exactly the two entries it missed (that
// device's record and its rendered files) and nothing model-sized, and a
// rebuild with nothing edited writes nothing at all.
func TestEditRebuildWritesOnlyWhatChanged(t *testing.T) {
	g, err := topogen.NREN(topogen.NRENConfig{ASes: 4, Routers: 60, Links: 75, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := cache.Open(dir, cache.Options{})
	if err != nil {
		t.Fatal(err)
	}

	populate := buildCached(t, g.Copy(), store)
	devices := populate.DB.Len()
	files0, bytes0 := storeDirUsage(t, dir)
	written0 := store.Stats().BytesWritten
	if files0 != 2*devices {
		t.Fatalf("populate left %d entries for %d devices, want one record and one file list each", files0, devices)
	}
	// Every entry is its payload behind a fixed header.
	header := (bytes0 - written0) / int64(files0)
	if header <= 0 || bytes0 != written0+header*int64(files0) {
		t.Fatalf("populate: %d bytes on disk for %d payload bytes in %d entries", bytes0, written0, files0)
	}

	edited := g.Copy()
	ids := edited.SortedNodeIDs()
	edited.Node(ids[len(ids)/2]).Set("note", "edited")
	for i, wantMisses := range []int64{2, 0} {
		net := buildCached(t, edited.Copy(), store)
		c := net.Stats().Counters
		if c[obs.CounterCacheMisses] != wantMisses || c[obs.CounterCacheHits] != int64(2*devices)-wantMisses {
			t.Fatalf("rebuild %d: %d hits, %d misses, want %d misses of %d lookups",
				i, c[obs.CounterCacheHits], c[obs.CounterCacheMisses], wantMisses, 2*devices)
		}
		files1, bytes1 := storeDirUsage(t, dir)
		written1 := store.Stats().BytesWritten
		if int64(files1-files0) != wantMisses {
			t.Errorf("rebuild %d added %d entries, want %d", i, files1-files0, wantMisses)
		}
		if bytes1-bytes0 != written1-written0+header*wantMisses {
			t.Errorf("rebuild %d grew the store by %d bytes for %d payload bytes in %d entries",
				i, bytes1-bytes0, written1-written0, wantMisses)
		}
		files0, bytes0, written0 = files1, bytes1, written1
	}
}
