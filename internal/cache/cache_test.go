package cache

import (
	"bytes"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"autonetkit/internal/graph"
)

// roundTripValues is the pipeline's closed value vocabulary; every entry
// must encode strictly and decode back to the exact same Go type.
var roundTripValues = []any{
	nil,
	true,
	false,
	int(42),
	int(-7),
	int64(1 << 40),
	float64(3.25),
	"",
	"hello world",
	netip.MustParseAddr("10.0.0.1"),
	netip.MustParseAddr("2001:db8::1"),
	netip.MustParsePrefix("192.168.0.0/24"),
	[]string{"b", "a"},
	[]any(nil),
	[]string(nil),
	[]netip.Prefix(nil),
	map[string]any(nil),
	[]any{},
	[]netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
	[]any{int(1), "two", netip.MustParseAddr("10.0.0.3"), nil},
	map[string]any{
		"zebra":    map[string]any{"password": "1234"},
		"asn":      int(100),
		"loopback": netip.MustParseAddr("10.0.0.32"),
		"ifaces":   []any{map[string]any{"id": "eth0", "cost": int(5)}},
	},
}

func TestCodecRoundTripExactTypes(t *testing.T) {
	for _, v := range roundTripValues {
		enc, err := EncodeValue(v)
		if err != nil {
			t.Fatalf("encode %#v: %v", v, err)
		}
		dec, err := DecodeValue(enc)
		if err != nil {
			t.Fatalf("decode %#v: %v", v, err)
		}
		if !reflect.DeepEqual(dec, v) {
			t.Errorf("round trip %#v -> %#v", v, dec)
		}
		if v != nil && reflect.TypeOf(dec) != reflect.TypeOf(v) {
			t.Errorf("type drift: %T -> %T", v, dec)
		}
	}
}

func TestCodecDeterministicMapOrder(t *testing.T) {
	// Build "the same" map twice with different insertion orders; the
	// canonical encoding must be identical.
	a := map[string]any{}
	for _, k := range []string{"alpha", "beta", "gamma", "delta"} {
		a[k] = k + "-v"
	}
	b := map[string]any{}
	for _, k := range []string{"delta", "gamma", "beta", "alpha"} {
		b[k] = k + "-v"
	}
	ea, _ := EncodeValue(a)
	eb, _ := EncodeValue(b)
	if !bytes.Equal(ea, eb) {
		t.Error("canonical encodings differ for equal maps")
	}
}

func TestCodecStrictRejectsUnknownTypes(t *testing.T) {
	type custom struct{ X int }
	for _, v := range []any{custom{1}, int32(5), []int{1, 2}, map[int]string{1: "x"}} {
		if _, err := EncodeValue(v); err == nil {
			t.Errorf("EncodeValue(%T) = nil error, want uncacheable", v)
		}
	}
}

func TestCodecRejectsTrailingGarbage(t *testing.T) {
	enc, _ := EncodeValue("x")
	if _, err := DecodeValue(append(enc, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := DecodeValue(enc[:len(enc)-1]); err == nil {
		t.Error("truncated value accepted")
	}
	if _, err := DecodeValue(nil); err == nil {
		t.Error("empty value accepted")
	}
}

func TestHasherLenientFallbackAndFraming(t *testing.T) {
	h1 := NewHasher("t")
	h1.Str("ab", "c")
	h2 := NewHasher("t")
	h2.Str("a", "bc")
	if h1.Sum() == h2.Sum() {
		t.Error("framing collision: [ab c] == [a bc]")
	}
	// Lenient Value must accept arbitrary types without differing run to
	// run (fmt prints map keys sorted).
	type odd struct{ A, B int }
	h3 := NewHasher("t")
	h3.Value(odd{1, 2})
	h4 := NewHasher("t")
	h4.Value(odd{1, 2})
	if h3.Sum() != h4.Sum() {
		t.Error("lenient fallback is unstable")
	}
	h5 := NewHasher("t")
	h5.Value(odd{1, 3})
	if h3.Sum() == h5.Sum() {
		t.Error("lenient fallback ignores value content")
	}
}

func TestHasherAttrsOrderIndependent(t *testing.T) {
	a := graph.Attrs{"x": 1, "y": "two", "z": netip.MustParseAddr("10.0.0.1")}
	b := graph.Attrs{"z": netip.MustParseAddr("10.0.0.1"), "y": "two", "x": 1}
	h1 := NewHasher("t")
	h1.Attrs(a)
	h2 := NewHasher("t")
	h2.Attrs(b)
	if h1.Sum() != h2.Sum() {
		t.Error("attr digest depends on construction order")
	}
}

func TestStoreMemoryRoundTrip(t *testing.T) {
	s := NewMemory()
	key := NewHasher("k").Sum()
	if _, ok := s.Get(key); ok {
		t.Fatal("empty store hit")
	}
	s.Put(key, []byte("payload"))
	got, ok := s.Get(key)
	if !ok || string(got) != "payload" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit 1 miss", st)
	}
}

func TestStoreDiskPersistenceAndCorruption(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := NewHasher("persist").Sum()
	s1.Put(key, []byte("durable"))

	// A second store over the same directory sees the entry.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(key)
	if !ok || string(got) != "durable" {
		t.Fatalf("reopened Get = %q, %v", got, ok)
	}

	// Flip a payload bit on disk: the entry must degrade to a miss and be
	// removed, never returned corrupt.
	path := s2.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s3, _ := Open(dir, Options{})
	if _, ok := s3.Get(key); ok {
		t.Fatal("corrupt entry served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt entry not dropped from disk")
	}

	// Garbage that is not even a valid header is equally survivable.
	short := filepath.Join(dir, "zz", "short.bin")
	os.MkdirAll(filepath.Dir(short), 0o755)
	os.WriteFile(short, []byte("x"), 0o644)
	if _, ok := s3.Get(key); ok {
		t.Fatal("miss expected after corruption")
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s, _ := Open("", Options{MaxEntries: 2})
	keys := make([]Digest, 3)
	for i := range keys {
		h := NewHasher("evict")
		h.Int(i)
		keys[i] = h.Sum()
		s.Put(keys[i], []byte{byte(i)})
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if _, ok := s.Get(keys[0]); ok {
		t.Error("oldest entry not evicted")
	}
	for _, k := range keys[1:] {
		if _, ok := s.Get(k); !ok {
			t.Error("recent entry evicted")
		}
	}
	if s.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Stats().Evictions)
	}
}

func TestStoreByteBoundEviction(t *testing.T) {
	s, _ := Open("", Options{MaxBytes: 10})
	big := NewHasher("big").Sum()
	s.Put(big, bytes.Repeat([]byte{1}, 64))
	// A single oversized entry survives (never evict the just-inserted
	// entry), but inserting another displaces it.
	if s.Len() != 1 {
		t.Fatalf("Len = %d after oversized insert", s.Len())
	}
	other := NewHasher("other").Sum()
	s.Put(other, []byte{2})
	if _, ok := s.Get(big); ok {
		t.Error("oversized entry survived a second insert")
	}
}

// TestStoreConcurrentPutGet drives one on-disk store from many goroutines,
// every one writing a shared key, writing keys of its own and reading both
// back. Disk I/O runs outside the store's lock, so this is the test the race
// detector needs to see: payloads must come back whole and the counters
// must still add up to the calls made.
func TestStoreConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir(), Options{MaxEntries: 8}) // small LRU: most Gets go to disk
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 20
	shared := NewHasher("shared").Sum()
	payload := func(w, i int) []byte { return []byte(fmt.Sprintf("payload-%d-%d", w, i)) }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.Put(shared, []byte("same bytes from everyone"))
				h := NewHasher("own")
				h.Int(w, i)
				key := h.Sum()
				s.Put(key, payload(w, i))
				if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload(w, i)) {
					t.Errorf("worker %d key %d read back %q, %v", w, i, got, ok)
				}
				if got, ok := s.Get(shared); !ok || string(got) != "same bytes from everyone" {
					t.Errorf("shared key read back %q, %v", got, ok)
				}
				h.Str("never stored")
				if _, ok := s.Get(h.Sum()); ok {
					t.Error("hit on a key nobody stored")
				}
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	const calls = workers * perWorker
	if st.Hits != 2*calls || st.Misses != calls || st.DiskErrors != 0 {
		t.Errorf("stats = %+v, want %d hits, %d misses, no disk errors", st, 2*calls, calls)
	}
	var wantWritten int64
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			wantWritten += int64(len(payload(w, i)) + len("same bytes from everyone"))
		}
	}
	if st.BytesWritten != wantWritten {
		t.Errorf("BytesWritten = %d, want %d", st.BytesWritten, wantWritten)
	}
	// A fresh store over the directory sees every entry, whole.
	s2, err := Open(s.Dir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		h := NewHasher("own")
		h.Int(w, perWorker-1)
		if got, ok := s2.Get(h.Sum()); !ok || !bytes.Equal(got, payload(w, perWorker-1)) {
			t.Errorf("reopened store: worker %d's last entry reads %q, %v", w, got, ok)
		}
	}
}
