package deploy

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"autonetkit/internal/compile"
	"autonetkit/internal/core"
	"autonetkit/internal/design"
	"autonetkit/internal/graph"
	"autonetkit/internal/ipalloc"
	"autonetkit/internal/render"
	"autonetkit/internal/retry"
)

func renderedLab(t *testing.T) *render.FileSet {
	t.Helper()
	anm := core.NewANM()
	in, err := anm.AddOverlay(core.OverlayInput)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []struct {
		id  graph.ID
		asn int
	}{{"r1", 1}, {"r2", 1}, {"r3", 2}} {
		in.AddNode(n.id, graph.Attrs{core.AttrASN: n.asn, core.AttrDeviceType: core.DeviceRouter})
	}
	in.AddEdge("r1", "r2", graph.Attrs{"type": "physical"})
	in.AddEdge("r2", "r3", graph.Attrs{"type": "physical"})
	if err := design.BuildAll(anm, design.Options{}); err != nil {
		t.Fatal(err)
	}
	alloc, err := ipalloc.NewDefault().Allocate(anm)
	if err != nil {
		t.Fatal(err)
	}
	db, err := compile.Compile(anm, alloc, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := render.Render(db)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestArchiveExtractRoundTrip(t *testing.T) {
	fs := renderedLab(t)
	bundle, err := Archive(fs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Extract(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != fs.Len() {
		t.Fatalf("files: %d vs %d", back.Len(), fs.Len())
	}
	for _, p := range fs.Paths() {
		a, _ := fs.Read(p)
		b, ok := back.Read(p)
		if !ok || a != b {
			t.Errorf("file %s corrupted in transit", p)
		}
	}
}

func TestArchiveDeterministic(t *testing.T) {
	fs := renderedLab(t)
	a, err := Archive(fs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Archive(fs)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("archive bytes differ across runs")
	}
}

func TestExtractRejectsEscapes(t *testing.T) {
	for _, name := range []string{"../x", "/abs", "..", "./..", "a/../.."} {
		fs := render.NewFileSet()
		fs.Write(name, "x")
		bundle, err := Archive(fs)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := Extract(bundle); err == nil {
			t.Errorf("entry %q accepted, extracted as %v", name, got.Paths())
		}
	}
	if _, err := Extract([]byte("not a gzip")); err == nil {
		t.Error("garbage archive accepted")
	}
}

// TestExtractLyingSize: an entry whose header promises more than the stream
// holds is an error, and costs what the stream held, not what was promised.
func TestExtractLyingSize(t *testing.T) {
	var bundle bytes.Buffer
	gz := gzip.NewWriter(&bundle)
	tw := tar.NewWriter(gz)
	if err := tw.WriteHeader(&tar.Header{Name: "localhost/netkit/lab.conf", Mode: 0o644, Size: 1 << 30}); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Write([]byte("LAB_DESCRIPTION=truncated\n")); err != nil {
		t.Fatal(err)
	}
	// No tw.Close: it would refuse the short entry. The stream just ends.
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := Extract(bundle.Bytes())
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "deploy: extracting localhost/netkit/lab.conf") {
		t.Errorf("truncated entry: err = %v, extracted %v", err, got)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("a 26-byte entry claiming 1 GiB made Extract allocate %d bytes", grew)
	}
}

// raceDetector is set by race_test.go in -race builds.
var raceDetector bool

// TestExtractAllocatesPerByteNotPerFile: unpacking costs a small multiple of
// the payload, however many files it is split into (a copy buffer per entry
// once made a 0.8 MB tree cost 37 MB).
func TestExtractAllocatesPerByteNotPerFile(t *testing.T) {
	fs, payload := render.NewFileSet(), 0
	for i := 0; i < 1000; i++ {
		content := strings.Repeat(fmt.Sprintf("interface eth%d\n ip address 10.0.%d.1/30\n", i%8, i%250), 16)
		fs.Write(fmt.Sprintf("localhost/netkit/r%04d/etc/quagga/zebra.conf", i), content)
		payload += len(content)
	}
	bundle, err := Archive(fs)
	if err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := Extract(bundle)
			if err != nil || got.Len() != fs.Len() {
				b.Fatalf("extracted %v files, err %v", got.Len(), err)
			}
		}
	})
	t.Logf("Extract: %d bytes/op, %d allocs/op for %d payload bytes", res.AllocedBytesPerOp(), res.AllocsPerOp(), payload)
	if perOp := res.AllocedBytesPerOp(); perOp > 3*int64(payload) && !raceDetector {
		t.Errorf("Extract allocates %d bytes for a %d-byte payload in %d files (over 3x)", perOp, payload, fs.Len())
	}
}

func TestRunDeployment(t *testing.T) {
	fs := renderedLab(t)
	var live []Event
	dep, err := Run(fs, Options{OnEvent: func(e Event) { live = append(live, e) }})
	if err != nil {
		t.Fatal(err)
	}
	lab := dep.Lab()
	if lab == nil || len(lab.VMNames()) != 3 {
		t.Fatalf("lab = %v", lab)
	}
	if !lab.BGPResult().Converged {
		t.Errorf("bgp = %+v", lab.BGPResult())
	}
	stages := map[string]bool{}
	for _, e := range dep.Events() {
		stages[e.Stage] = true
	}
	for _, want := range []string{"archive", "transfer", "extract", "lstart", "machine", "done"} {
		if !stages[want] {
			t.Errorf("missing stage %q in %v", want, dep.Events())
		}
	}
	if len(live) != len(dep.Events()) {
		t.Error("live event callback missed events")
	}
	// The running lab answers measurement commands.
	out, err := lab.Exec("r1", "show ip ospf neighbor")
	if err != nil || !strings.Contains(out, "r2") && !strings.Contains(out, "Full") {
		t.Errorf("lab not responsive: %v\n%s", err, out)
	}
}

func TestRunDefaults(t *testing.T) {
	fs := renderedLab(t)
	dep, err := Run(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dep.Host != "localhost" || dep.Platform != "netkit" {
		t.Errorf("defaults = %s/%s", dep.Host, dep.Platform)
	}
}

func TestCrossHostLinks(t *testing.T) {
	placement := Placement{"a": "h1", "b": "h1", "c": "h2"}
	links := [][2]string{{"a", "b"}, {"b", "c"}, {"a", "c"}}
	cross := CrossHostLinks(placement, links)
	if len(cross) != 2 {
		t.Fatalf("cross = %v", cross)
	}
	if cross[0] != [2]string{"a", "c"} || cross[1] != [2]string{"b", "c"} {
		t.Errorf("cross = %v (want sorted)", cross)
	}
}

func TestRetryPolicyDelay(t *testing.T) {
	exact := retry.Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Jitter: -1}
	for attempt, want := range map[int]time.Duration{
		1: 100 * time.Millisecond,
		2: 200 * time.Millisecond,
		3: 400 * time.Millisecond,
		4: 800 * time.Millisecond,
		5: time.Second, // capped
		9: time.Second,
	} {
		if got := exact.Delay("h1", attempt); got != want {
			t.Errorf("attempt %d: delay = %v, want %v", attempt, got, want)
		}
	}

	jittered := retry.Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	if a, b := jittered.Delay("h1", 1), jittered.Delay("h1", 1); a != b {
		t.Errorf("jittered delay not deterministic: %v vs %v", a, b)
	}
	base := 100 * time.Millisecond
	if d := jittered.Delay("h1", 1); d < base || d > base+base/2 {
		t.Errorf("jittered delay %v outside [base, base*1.5]", d)
	}
	// Different hosts de-synchronise.
	if jittered.Delay("h1", 1) == jittered.Delay("h2", 1) {
		t.Log("hosts h1/h2 hashed to equal jitter (allowed, just unlucky)")
	}
	// The cap holds even after jitter is added.
	if d := jittered.Delay("h1", 9); d > time.Second {
		t.Errorf("jittered delay %v exceeds cap", d)
	}

	// Defaults.
	var zero retry.Policy
	if zero.Attempts() != 3 {
		t.Errorf("default attempts = %d", zero.Attempts())
	}
	if d := zero.Delay("h", 1); d < 50*time.Millisecond || d > 75*time.Millisecond {
		t.Errorf("default first delay = %v", d)
	}
}

func eventStages(events []Event) map[string]int {
	stages := map[string]int{}
	for _, e := range events {
		stages[e.Stage]++
	}
	return stages
}
