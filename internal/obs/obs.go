// Package obs instruments the configuration pipeline: named, nestable
// timing spans for each stage (Design → Allocate → Compile → Render →
// Deploy) plus monotonic counters for the work the stages perform (devices
// compiled, templates executed, files rendered, bytes written). The paper's
// §3.2 scale experiment reports exactly these quantities; collecting them
// in-process lets every run regenerate that table and lets future
// optimisation PRs prove their wins against a recorded baseline.
//
// All methods are safe on a nil *Collector / nil *Span, so instrumented
// code never needs a guard: an un-instrumented run simply passes nil and
// pays only a nil check. All methods are also safe for concurrent use —
// worker pools bump counters from many goroutines, and every emulated ping
// bumps one, so counters are atomics that take no lock once they exist.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Standard counter names reported by the pipeline. User code may add its
// own names freely; these are the ones the built-in stages maintain.
const (
	CounterDevicesCompiled   = "devices_compiled"
	CounterFilesRendered     = "files_rendered"
	CounterTemplatesExecuted = "templates_executed"
	CounterBytesWritten      = "bytes_written"
	CounterLabsFinalized     = "labs_finalized"
	// CounterDevicesQuarantined counts devices excluded from a lenient
	// boot because their configurations carried error diagnostics.
	CounterDevicesQuarantined = "devices_quarantined"

	// Incremental-build cache counters. The aggregate pair sums both
	// pipeline stages; the per-stage pairs let tests assert exactly which
	// devices recompiled vs re-rendered after an edit.
	CounterCacheHits          = "cache_hits"
	CounterCacheMisses        = "cache_misses"
	CounterCacheBytes         = "cache_bytes"
	CounterCompileCacheHits   = "compile_cache_hits"
	CounterCompileCacheMisses = "compile_cache_misses"
	CounterRenderCacheHits    = "render_cache_hits"
	CounterRenderCacheMisses  = "render_cache_misses"

	// Convergence-watchdog counters: one per rung of the supervision
	// escalation ladder (observe → bigger budget → soft reset → quarantine),
	// plus runs and recoveries, so the full ladder a lab climbed is readable
	// from Network.Stats().
	CounterWatchdogRuns              = "watchdog_runs"
	CounterWatchdogRecovered         = "watchdog_recovered"
	CounterWatchdogBudgetEscalations = "watchdog_budget_escalations"
	CounterWatchdogSoftResets        = "watchdog_soft_resets"
	CounterWatchdogQuarantines       = "watchdog_quarantines"

	// Reconvergence counters, emitted by the lab's converge loop: the delta
	// SPF pair on every converge after a lab's first, and fib_nodes_reused,
	// the nodes a data-plane generation carried over from the one before
	// because their FIB entries and addresses did not change.
	// bgp_speakers_restored and rounds_skipped are retired (nothing emits
	// them): bench/ still names the constants, and they leave with the
	// benchmark change that drops the metrics built on them.
	CounterSPFDeltaRecomputes  = "spf_delta_recomputes"
	CounterSPFSourcesSkipped   = "spf_sources_skipped"
	CounterBGPSpeakersRestored = "bgp_speakers_restored"
	CounterRoundsSkipped       = "rounds_skipped"
	CounterFIBNodesReused      = "fib_nodes_reused"

	// Delta-evaluation counters (internal/routing/rib.go), summed over the
	// BGP engine's per-round record on every converge: speaker turns that
	// found no session with anything new and did no work, and prefixes whose
	// selection was re-decided.
	CounterBGPSpeakersSkipped = "bgp_speakers_skipped"
	CounterBGPPrefixesDecided = "bgp_prefixes_decided"

	// Sharded-convergence counters (internal/routing/shard.go): the number
	// of structural per-AS shards in the converged topology, rounds
	// evaluated by the parallel wavefront driver, and adj-RIB-in changes
	// taken across shard boundaries (eBGP sessions). All zero when the
	// sequential sweep ran (shards knob <= 1).
	CounterBGPShards           = "bgp_shards"
	CounterShardRoundsParallel = "shard_rounds_parallel"
	CounterCrossShardAdverts   = "cross_shard_adverts"

	// Measurement counters, emitted by the lab where probes are answered:
	// emulated pings served, and per-destination hop trees built to serve
	// them (dataplane.HopsTo, at most one per destination and network
	// generation). Their ratio is the number of probes that shared one walk.
	CounterPingProbes    = "ping_probes"
	CounterHopTreesBuilt = "hop_trees_built"

	// Cluster-scheduler counters (internal/sched): cordon/drain lifecycle,
	// fair-share queueing, and live re-placement. drain_duration accumulates
	// milliseconds across drains.
	CounterHostCordoned       = "host_cordoned"
	CounterVMsReplaced        = "vms_replaced"
	CounterReservationsQueued = "reservations_queued"
	CounterDrainDuration      = "drain_duration"
	CounterHostsUnhealthy     = "hosts_unhealthy"

	// Liveness + preemption counters (internal/sched leases): lease state
	// transitions, and reservations evicted to make room for
	// higher-weight work.
	CounterLeasesSuspected = "leases_suspected"
	CounterLeasesExpired   = "leases_expired"
	CounterLeasesRenewed   = "leases_renewed"
	CounterPreemptions     = "reservations_preempted"

	// Durable-state counters (internal/journal + sched.Open): records
	// appended, snapshot compactions, recoveries performed, torn wal tails
	// truncated during recovery, and records replayed into a cluster.
	CounterJournalAppends        = "journal_appends"
	CounterJournalSnapshots      = "journal_snapshots"
	CounterJournalRecoveries     = "journal_recoveries"
	CounterJournalTruncatedTails = "journal_truncated_tails"
	CounterJournalReplayed       = "journal_replayed_records"
)

// Collector accumulates spans and counters for one pipeline run. mu guards
// the spans only.
type Collector struct {
	mu       sync.Mutex
	roots    []*Span
	open     []*Span          // innermost-last stack of un-ended spans
	counters sync.Map         // name -> *atomic.Int64
	now      func() time.Time // test seam; defaults to time.Now
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{now: time.Now}
}

// Span is one timed region of the pipeline. Spans started while another
// span is open nest under it, forming the trace tree that WriteTrace
// prints.
type Span struct {
	c        *Collector
	name     string
	start    time.Time
	duration time.Duration
	ended    bool
	children []*Span
}

// StartSpan opens a named span. If another span is currently open, the new
// span becomes its child; otherwise it is a root. Close it with End.
func (c *Collector) StartSpan(name string) *Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &Span{c: c, name: name, start: c.now()}
	if n := len(c.open); n > 0 {
		parent := c.open[n-1]
		parent.children = append(parent.children, s)
	} else {
		c.roots = append(c.roots, s)
	}
	c.open = append(c.open, s)
	return s
}

// End closes the span, fixing its duration. Ending a span also ends any
// still-open descendants (mis-nested instrumentation degrades gracefully
// instead of corrupting the tree).
func (s *Span) End() {
	if s == nil || s.c == nil {
		return
	}
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.ended {
		return
	}
	end := c.now()
	// Pop the open stack down to (and including) this span, closing any
	// unclosed children on the way.
	for i := len(c.open) - 1; i >= 0; i-- {
		sp := c.open[i]
		if !sp.ended {
			sp.ended = true
			sp.duration = end.Sub(sp.start)
		}
		if sp == s {
			c.open = c.open[:i]
			return
		}
	}
	// Span was not on the stack (already popped by an ancestor's End); its
	// duration was fixed above.
}

// Add increments a named counter by delta. The first Add of a name creates
// its counter, even with delta 0.
func (c *Collector) Add(name string, delta int64) {
	if c == nil {
		return
	}
	v, ok := c.counters.Load(name)
	if !ok {
		v, _ = c.counters.LoadOrStore(name, new(atomic.Int64))
	}
	v.(*atomic.Int64).Add(delta)
}

// Counter returns the current value of a named counter.
func (c *Collector) Counter(name string) int64 {
	if c == nil {
		return 0
	}
	if v, ok := c.counters.Load(name); ok {
		return v.(*atomic.Int64).Load()
	}
	return 0
}

// SpanStat is one node of a snapshot's span tree.
type SpanStat struct {
	Name     string
	Duration time.Duration
	Running  bool // true when the span had not ended at snapshot time
	Children []SpanStat
}

// Stats is an immutable snapshot of a collector.
type Stats struct {
	Spans    []SpanStat
	Counters map[string]int64
}

// Snapshot returns a copy of the collector's state. Still-open spans are
// reported with their duration so far and Running=true. Each counter is
// read once; counters bumped while Snapshot runs may be read before or
// after the bump.
func (c *Collector) Snapshot() Stats {
	if c == nil {
		return Stats{Counters: map[string]int64{}}
	}
	st := Stats{Counters: map[string]int64{}}
	c.counters.Range(func(k, v any) bool {
		st.Counters[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	for _, s := range c.roots {
		st.Spans = append(st.Spans, snapshotSpan(s, now))
	}
	return st
}

func snapshotSpan(s *Span, now time.Time) SpanStat {
	out := SpanStat{Name: s.name, Duration: s.duration, Running: !s.ended}
	if !s.ended {
		out.Duration = now.Sub(s.start)
	}
	for _, ch := range s.children {
		out.Children = append(out.Children, snapshotSpan(ch, now))
	}
	return out
}

// Span returns the snapshot's span stat with the given root name, if any.
func (st Stats) Span(name string) (SpanStat, bool) {
	for _, s := range st.Spans {
		if s.Name == name {
			return s, true
		}
	}
	return SpanStat{}, false
}

// WriteTrace prints the snapshot as a human-readable trace: the span tree
// with durations, then the counters in sorted order. This is the output of
// `ankbuild -trace`.
func (st Stats) WriteTrace(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "pipeline trace:"); err != nil {
		return err
	}
	var walk func(s SpanStat, depth int) error
	walk = func(s SpanStat, depth int) error {
		suffix := ""
		if s.Running {
			suffix = " (running)"
		}
		pad := strings.Repeat("  ", depth+1)
		if _, err := fmt.Fprintf(w, "%s%-*s %10s%s\n", pad, 24-2*depth, s.Name, s.Duration.Round(time.Microsecond), suffix); err != nil {
			return err
		}
		for _, ch := range s.Children {
			if err := walk(ch, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	for _, s := range st.Spans {
		if err := walk(s, 0); err != nil {
			return err
		}
	}
	if len(st.Counters) == 0 {
		return nil
	}
	if _, err := fmt.Fprintln(w, "counters:"); err != nil {
		return err
	}
	names := make([]string, 0, len(st.Counters))
	for k := range st.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if _, err := fmt.Fprintf(w, "  %-24s %d\n", k, st.Counters[k]); err != nil {
			return err
		}
	}
	return nil
}

// WriteTrace snapshots the collector and prints it; see Stats.WriteTrace.
func (c *Collector) WriteTrace(w io.Writer) error { return c.Snapshot().WriteTrace(w) }

// String renders the trace to a string, for logs and tests.
func (st Stats) String() string {
	var sb strings.Builder
	_ = st.WriteTrace(&sb)
	return sb.String()
}
