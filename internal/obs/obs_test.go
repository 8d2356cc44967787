package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock makes span durations deterministic: every read advances 1ms.
func fakeClock() func() time.Time {
	t := time.Unix(0, 0)
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

func TestSpanNesting(t *testing.T) {
	c := NewCollector()
	c.now = fakeClock()
	root := c.StartSpan("Compile")
	child := c.StartSpan("devices")
	child.End()
	root.End()
	other := c.StartSpan("Render")
	other.End()

	st := c.Snapshot()
	if len(st.Spans) != 2 {
		t.Fatalf("roots = %d, want 2", len(st.Spans))
	}
	compile, ok := st.Span("Compile")
	if !ok || len(compile.Children) != 1 || compile.Children[0].Name != "devices" {
		t.Fatalf("Compile span tree wrong: %+v", compile)
	}
	if compile.Duration <= 0 || compile.Children[0].Duration <= 0 {
		t.Errorf("durations not recorded: %+v", compile)
	}
	if compile.Running {
		t.Error("ended span reported running")
	}
}

func TestEndClosesOpenDescendants(t *testing.T) {
	c := NewCollector()
	c.now = fakeClock()
	root := c.StartSpan("stage")
	c.StartSpan("leaked") // never explicitly ended
	root.End()
	st := c.Snapshot()
	s, _ := st.Span("stage")
	if len(s.Children) != 1 || s.Children[0].Running {
		t.Fatalf("descendant not closed by parent End: %+v", s)
	}
}

// TestCountersConcurrent: Snapshot, Counter and WriteTrace read while
// writers Add; every read is a value some moment held (never below an
// earlier read), and the final total is exact.
func TestCountersConcurrent(t *testing.T) {
	c := NewCollector()
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last int64
			monotone := func(v int64, via string) {
				if v < last || v > 8000 {
					t.Errorf("%s read %d after %d", via, v, last)
				}
				last = v
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				monotone(c.Counter(CounterDevicesCompiled), "Counter")
				monotone(c.Snapshot().Counters[CounterDevicesCompiled], "Snapshot")
				var sb strings.Builder
				if err := c.WriteTrace(&sb); err != nil {
					t.Error(err)
				}
				var v int64
				if i := strings.Index(sb.String(), CounterDevicesCompiled); i >= 0 {
					if _, err := fmt.Sscan(sb.String()[i+len(CounterDevicesCompiled):], &v); err != nil {
						t.Errorf("WriteTrace counter line: %v\n%s", err, sb.String())
					}
				}
				monotone(v, "WriteTrace")
			}
		}()
	}
	for i := 0; i < 8; i++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for j := 0; j < 1000; j++ {
				c.Add(CounterDevicesCompiled, 1)
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
	if got := c.Counter(CounterDevicesCompiled); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
}

// TestWriteTraceZeroCounter: a counter added with delta 0 exists and is
// printed, and the counters print in sorted order.
func TestWriteTraceZeroCounter(t *testing.T) {
	c := NewCollector()
	c.now = fakeClock()
	s := c.StartSpan("Measure")
	s.End()
	c.Add(CounterPingProbes, 3)
	c.Add(CounterHopTreesBuilt, 0)
	c.Add(CounterPingProbes, 4)
	var sb strings.Builder
	if err := c.WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
	const want = "pipeline trace:\n" +
		"  Measure                         1ms\n" +
		"counters:\n" +
		"  hop_trees_built          0\n" +
		"  ping_probes              7\n"
	if got := sb.String(); got != want {
		t.Errorf("trace:\n got %q\nwant %q", got, want)
	}
}

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	s := c.StartSpan("x")
	s.End()
	c.Add("n", 1)
	if c.Counter("n") != 0 {
		t.Error("nil counter non-zero")
	}
	st := c.Snapshot()
	if len(st.Spans) != 0 {
		t.Error("nil snapshot has spans")
	}
	var sb strings.Builder
	if err := c.WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestWriteTrace(t *testing.T) {
	c := NewCollector()
	c.now = fakeClock()
	s := c.StartSpan("Render")
	ch := c.StartSpan("devices")
	ch.End()
	s.End()
	c.Add(CounterFilesRendered, 42)
	out := c.Snapshot().String()
	for _, want := range []string{"pipeline trace:", "Render", "devices", "counters:", "files_rendered", "42"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}
