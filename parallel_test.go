package autonetkit

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"autonetkit/internal/compile"
	"autonetkit/internal/core"
	"autonetkit/internal/deploy"
	"autonetkit/internal/design"
	"autonetkit/internal/ipalloc"
	"autonetkit/internal/obs"
	"autonetkit/internal/render"
	"autonetkit/internal/topogen"
)

// fileSetHash digests a rendered tree including its iteration order, so two
// runs hash equal only when they are byte-identical files in an identical
// order.
func fileSetHash(t *testing.T, fs *render.FileSet) string {
	t.Helper()
	h := sha256.New()
	for _, p := range fs.Paths() {
		c, _ := fs.Read(p)
		fmt.Fprintf(h, "%s\x00%s\x00", p, c)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// buildAtProcs builds a 96-router topology at the given GOMAXPROCS.
func buildAtProcs(t *testing.T, procs int) *Network {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	g, err := topogen.NREN(topogen.NRENConfig{ASes: 8, Routers: 96, Links: 120, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	net, err := LoadGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Build(BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	return net
}

// The fan-out must not change a single output byte: builds of the same
// topology at GOMAXPROCS 1 and 8 produce identical file trees in identical
// order. CI runs this under -race, which also exercises the fan-out for
// data races.
func TestParallelBuildDeterminism(t *testing.T) {
	serial := buildAtProcs(t, 1)
	parallel := buildAtProcs(t, 8)
	if serial.Files.Len() == 0 {
		t.Fatal("nothing rendered")
	}
	hs, hp := fileSetHash(t, serial.Files), fileSetHash(t, parallel.Files)
	if hs != hp {
		t.Fatalf("GOMAXPROCS=1 and GOMAXPROCS=8 trees differ: %s vs %s", hs, hp)
	}
}

// Every stage refuses to run before its predecessor, with the uniform
// "X before Y" error shape.
func TestStageOrderGuards(t *testing.T) {
	fresh := func() *Network {
		net, err := LoadGraph(topogen.Fig5())
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	steps := []struct {
		want string
		run  func(n *Network) error
	}{
		{"autonetkit: Design before Allocate", func(n *Network) error { return n.Allocate(ipalloc.Config{}) }},
		{"autonetkit: Allocate before Compile", func(n *Network) error { return n.Compile(compile.Options{}) }},
		{"autonetkit: Compile before Render", func(n *Network) error { return n.Render() }},
		{"autonetkit: Render before Deploy", func(n *Network) error { _, err := n.Deploy(deploy.Options{}); return err }},
		{"autonetkit: Render before SaveConfigs", func(n *Network) error { return n.SaveConfigs(t.TempDir()) }},
		{"autonetkit: Compile before Verify", func(n *Network) error { _, err := n.Verify(); return err }},
	}
	for _, s := range steps {
		err := s.run(fresh())
		if err == nil || err.Error() != s.want {
			t.Errorf("got %v, want %q", err, s.want)
		}
	}
	// Design itself guards on a loaded input overlay.
	empty := &Network{ANM: core.NewANM(), obs: obs.NewCollector()}
	if err := empty.Design(design.Options{}); err == nil || err.Error() != "autonetkit: Load before Design" {
		t.Errorf("Design guard: got %v", err)
	}
}

// A full build populates the stats snapshot: one span per stage, sub-spans
// under Compile and Render, and non-zero work counters.
func TestNetworkStats(t *testing.T) {
	net, err := LoadGraph(topogen.SmallInternet())
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Build(BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	for _, stage := range []string{"Design", "Allocate", "Compile", "Render"} {
		s, ok := st.Span(stage)
		if !ok {
			t.Fatalf("no %s span in %v", stage, st.Spans)
		}
		if s.Running {
			t.Errorf("%s span still running", stage)
		}
	}
	compileSpan, _ := st.Span("Compile")
	if len(compileSpan.Children) == 0 {
		t.Error("Compile span has no sub-spans")
	}
	if n := st.Counters[obs.CounterDevicesCompiled]; n != 14 {
		t.Errorf("devices_compiled = %d, want 14", n)
	}
	if st.Counters[obs.CounterFilesRendered] != int64(net.Files.Len()) {
		t.Errorf("files_rendered = %d, want %d", st.Counters[obs.CounterFilesRendered], net.Files.Len())
	}
	if st.Counters[obs.CounterBytesWritten] != int64(net.Files.TotalBytes()) {
		t.Errorf("bytes_written = %d, want %d", st.Counters[obs.CounterBytesWritten], net.Files.TotalBytes())
	}
	if st.Counters[obs.CounterTemplatesExecuted] == 0 {
		t.Error("templates_executed is zero")
	}
	var sb strings.Builder
	if err := net.WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "devices_compiled") {
		t.Errorf("trace missing counters:\n%s", sb.String())
	}
}

// A compile error on one device stops the fan-out and surfaces the error.
func TestParallelCompileErrorWins(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	g := topogen.SmallInternet()
	// An unknown syntax makes exactly one device fail to compile.
	g.Node("as100r2").Set("syntax", "no-such-syntax")
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		net, err := LoadGraph(g.Copy())
		if err != nil {
			t.Fatal(err)
		}
		err = net.Build(BuildOptions{})
		if err == nil || !strings.Contains(err.Error(), "no-such-syntax") {
			t.Fatalf("GOMAXPROCS=%d: got %v, want syntax error", procs, err)
		}
	}
}
