// Durable cluster state over internal/journal. Every public mutation
// appends one typed record; Open replays snapshot + wal tail into a
// cluster whose observable state matches the pre-crash one exactly.
//
// Two record styles, chosen per operation:
//
//   - Command records (reserve/release/cordon/uncordon) carry the request.
//     These operations are deterministic functions of (state, request,
//     seed), so replay re-runs the same locked code path and re-derives
//     placement, queueing, admission and healing identically.
//   - Outcome records carry what the backend's answers decided: a probe
//     round's verdicts, or the health verdict, committed moves and
//     stranded VMs of a drain, host failure or lease transition. The live
//     operation applies each decision through the same functions replay
//     applies the record through (applyProbeLocked; setHealthLocked,
//     moveLocked and strandLocked), so there is one apply path. Replay
//     never touches the backend.
//
// Every mutation applies first and journals second; a journal failure
// poisons the cluster. One mutator call = at most one record (Drain folds
// its implicit cordon in), so any crash leaves the journal at an
// operation boundary: recovery observes either the state before the op or
// after it, never between.
//
// Recovery must run under the seed, preemption mode and host set the
// journal was written under. A snapshot records them; so does the first
// record of a journal that has no snapshot yet (its Base), so both
// recovery paths check them through restoreSnapshotLocked.
package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"autonetkit/internal/journal"
	"autonetkit/internal/obs"
)

// Record kinds.
const (
	recReserve  = "reserve"
	recRelease  = "release"
	recCordon   = "cordon"
	recUncordon = "uncordon"
	recDrain    = "drain"
	recFailHost = "fail-host"
	recProbe    = "probe"
	// recLease is a pure lease state delta (suspected, or resurrected to
	// healthy); recLeaseDead is the outcome record of a lease expiry —
	// health plus the re-placements it triggered, like fail-host.
	recLease     = "lease"
	recLeaseDead = "lease-dead"
)

// record is one journaled mutation. Exactly one of the payload groups is
// populated, per Kind.
type record struct {
	Kind     string         `json:"kind"`
	Spec     *Spec          `json:"spec,omitempty"`     // reserve
	Name     string         `json:"name,omitempty"`     // release
	Host     string         `json:"host,omitempty"`     // cordon/uncordon/drain/fail-host/lease
	Moves    []Move         `json:"moves,omitempty"`    // drain/fail-host/lease-dead outcomes
	Stranded []string       `json:"stranded,omitempty"` // fail-host/lease-dead orphans with no capacity
	Probes   []probeOutcome `json:"probes,omitempty"`   // probe round outcomes
	To       Health         `json:"to,omitempty"`       // lease transition target
	// Base is the empty cluster's snapshot, carried by the first record
	// of a journal begun without one, so a wal-only recovery checks the
	// seed, preemption mode and host set as a snapshot recovery does.
	Base json.RawMessage `json:"base,omitempty"`
}

// probeOutcome is one host's verdict from a journaled probe round.
type probeOutcome struct {
	Host string `json:"host"`
	OK   bool   `json:"ok"`
}

// snapshotState is the full durable state, compacted into one snapshot.
// Hosts and reservations are sorted (name / arrival seq) so the encoding
// is byte-deterministic.
type snapshotState struct {
	Seed         uint64         `json:"seed"`
	Preempt      bool           `json:"preempt,omitempty"`
	ResSeq       int            `json:"res_seq"`
	Hosts        []snapshotHost `json:"hosts"`
	Reservations []snapshotRes  `json:"reservations,omitempty"`
	Weights      map[string]int `json:"weights,omitempty"`
}

type snapshotHost struct {
	Name     string `json:"name"`
	Capacity int    `json:"capacity"`
	Cordoned bool   `json:"cordoned,omitempty"`
	Health   Health `json:"health"`
	Fails    int    `json:"fails,omitempty"`
	Oks      int    `json:"oks,omitempty"`
}

type snapshotRes struct {
	Spec      Spec              `json:"spec"`
	State     ResState          `json:"state"`
	Seq       int               `json:"seq"`
	Placement map[string]string `json:"placement,omitempty"`
	Stranded  []string          `json:"stranded,omitempty"`
	Preempted bool              `json:"preempted,omitempty"`
}

// RecoveryInfo summarises what Open restored.
type RecoveryInfo struct {
	// Recovered is true when any prior state (snapshot or records) was
	// found; false for a fresh state directory.
	Recovered bool
	// SnapshotRestored is true when a snapshot seeded the state.
	SnapshotRestored bool
	// Records is how many wal records were replayed on top.
	Records int
	// Epoch is the journal epoch recovered into.
	Epoch uint64
	// TruncatedBytes counts torn-tail bytes dropped from the wal.
	TruncatedBytes int64
}

func (ri RecoveryInfo) String() string {
	if !ri.Recovered {
		return "fresh state"
	}
	src := "wal"
	if ri.SnapshotRestored {
		src = "snapshot+wal"
	}
	s := fmt.Sprintf("recovered from %s: epoch %d, %d records replayed", src, ri.Epoch, ri.Records)
	if ri.TruncatedBytes > 0 {
		s += fmt.Sprintf(", %d torn bytes truncated", ri.TruncatedBytes)
	}
	return s
}

// Open builds a cluster over the backend's hosts and makes it durable in
// dir: prior state (snapshot + wal tail) is replayed first, then every
// mutation is journaled before its call returns. The recovered cluster's
// observable state — Status, placements, queue order, probe streaks — is
// identical to the pre-crash cluster's; its event log starts fresh
// (events are observability, not state). Close the cluster to release
// the journal.
func Open(dir string, b Backend, opts Options) (*Cluster, RecoveryInfo, error) {
	var info RecoveryInfo
	jopts := opts.Journal
	if jopts.Obs == nil {
		jopts.Obs = opts.Obs
	}
	log, rec, err := journal.Open(dir, jopts)
	if err != nil {
		return nil, info, err
	}
	c, err := New(b, opts)
	if err != nil {
		log.Close()
		return nil, info, err
	}
	info.Epoch = rec.Epoch
	info.TruncatedBytes = rec.TruncatedBytes
	info.SnapshotRestored = rec.Snapshot != nil
	info.Records = len(rec.Records)
	info.Recovered = rec.Snapshot != nil || len(rec.Records) > 0

	c.mu.Lock()
	c.replaying = true
	if rec.Snapshot != nil {
		if err := c.restoreSnapshotLocked(rec.Snapshot); err != nil {
			c.replaying = false
			c.mu.Unlock()
			log.Close()
			return nil, info, err
		}
	}
	for i, raw := range rec.Records {
		var r record
		if err := json.Unmarshal(raw, &r); err != nil {
			c.replaying = false
			c.mu.Unlock()
			log.Close()
			return nil, info, fmt.Errorf("%w: record %d: %v", journal.ErrCorrupt, i, err)
		}
		if err := c.applyRecordLocked(r); err != nil {
			c.replaying = false
			c.mu.Unlock()
			log.Close()
			return nil, info, fmt.Errorf("sched: replaying record %d (%s): %w", i, r.Kind, err)
		}
	}
	c.replaying = false
	c.journal = log
	if !info.Recovered {
		if c.base, err = c.snapshotLocked(); err != nil {
			c.mu.Unlock()
			log.Close()
			return nil, info, fmt.Errorf("sched: encoding snapshot: %w", err)
		}
	}
	if opts.Lease.Enabled {
		// Replay restored suspected/dead verdicts; now re-arm the renewal
		// windows — lease clocks are not durable (a restarted scheduler
		// must not condemn every host for its own downtime).
		c.armLeasesLocked(c.now())
	}
	c.mu.Unlock()

	opts.Obs.Add(obs.CounterJournalReplayed, int64(len(rec.Records)))
	if info.Recovered {
		c.mu.Lock()
		c.emit("recover", "%s (dir %s)", info, dir)
		c.mu.Unlock()
	}
	return c, info, nil
}

// Close releases the journal (flushing it first). The cluster itself
// remains readable; further mutations fail until a new Open. A cluster
// built with New (no journal) closes as a no-op.
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal == nil {
		return nil
	}
	err := c.journal.Close()
	c.journal = nil
	if c.journalErr == nil {
		c.journalErr = errors.New("sched: cluster closed")
	}
	return err
}

// journalAppend persists one record and drives snapshot compaction (lock
// held). No-op without a journal or during replay. Any journal failure
// poisons the cluster: in-memory state may be ahead of disk, so every
// later mutation refuses until a reopen reconciles them.
func (c *Cluster) journalAppend(rec record) error {
	if c.journal == nil || c.replaying {
		return nil
	}
	rec.Base = c.base
	raw, err := json.Marshal(rec)
	if err != nil {
		c.journalErr = err
		return fmt.Errorf("sched: encoding %s record: %w", rec.Kind, err)
	}
	if err := c.journal.Append(raw); err != nil {
		c.journalErr = err
		return fmt.Errorf("sched: journaling %s: %w", rec.Kind, err)
	}
	c.base = nil
	c.appendsSince++
	if c.appendsSince >= c.opts.snapshotEvery() {
		state, err := c.snapshotLocked()
		if err != nil {
			c.journalErr = err
			return fmt.Errorf("sched: encoding snapshot: %w", err)
		}
		if err := c.journal.Snapshot(state); err != nil {
			c.journalErr = err
			return fmt.Errorf("sched: compacting journal: %w", err)
		}
		c.appendsSince = 0
	}
	return nil
}

// applyRecordLocked replays one journaled mutation (lock held, replaying
// set). Command records re-run the deterministic locked cores; outcome
// records go through the reducers the live operation used, without
// backend calls.
func (c *Cluster) applyRecordLocked(r record) error {
	if r.Base != nil {
		if err := c.restoreSnapshotLocked(r.Base); err != nil {
			return err
		}
	}
	switch r.Kind {
	case recReserve:
		if r.Spec == nil {
			return errors.New("reserve record without spec")
		}
		_, err := c.reserveLocked(*r.Spec)
		return err
	case recRelease:
		return c.releaseLocked(r.Name)
	case recCordon:
		return c.cordonLocked(r.Host)
	case recUncordon:
		return c.uncordonLocked(r.Host)
	case recProbe:
		for _, p := range r.Probes {
			var perr error
			if !p.OK {
				perr = errProbeReplayed
			}
			c.applyProbeLocked(p.Host, perr)
		}
		return nil
	case recLease:
		h, err := c.hostLocked(r.Host)
		if err != nil {
			return err
		}
		if r.To != Suspected && r.To != Healthy {
			return fmt.Errorf("lease record with unexpected target state %q", r.To)
		}
		c.setHealthLocked(h, r.To)
		return nil
	case recDrain, recFailHost, recLeaseDead:
		h, err := c.hostLocked(r.Host)
		if err != nil {
			return err
		}
		switch r.Kind {
		case recDrain:
			h.cordoned = true
		case recFailHost:
			c.setHealthLocked(h, Failed)
		default:
			c.setHealthLocked(h, Dead)
		}
		op := r.Kind + " " + r.Host // names events, which replay silences
		for _, m := range r.Moves {
			if err := c.moveLocked(op, m); err != nil {
				return err
			}
		}
		for _, vm := range r.Stranded {
			if err := c.strandLocked(h, vm); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown record kind %q", r.Kind)
	}
}

// errProbeReplayed stands in for the live probe error during replay; only
// its non-nilness matters to the threshold state machine.
var errProbeReplayed = errors.New("probe failed (replayed)")

// snapshotLocked encodes the full durable state (lock held).
func (c *Cluster) snapshotLocked() ([]byte, error) {
	st := snapshotState{Seed: c.opts.Seed, Preempt: c.opts.Preempt, ResSeq: c.resSeq}
	for _, name := range c.hostNames {
		h := c.hosts[name]
		st.Hosts = append(st.Hosts, snapshotHost{
			Name:     name,
			Capacity: h.info.Capacity,
			Cordoned: h.cordoned,
			Health:   h.health,
			Fails:    h.fails,
			Oks:      h.oks,
		})
	}
	for _, r := range c.resByArrival() {
		sr := snapshotRes{Spec: r.spec, State: r.state, Seq: r.seq, Preempted: r.preempted}
		if len(r.placement) > 0 {
			sr.Placement = make(map[string]string, len(r.placement))
			for vm, host := range r.placement {
				sr.Placement[vm] = host
			}
		}
		for vm := range r.stranded {
			sr.Stranded = append(sr.Stranded, vm)
		}
		sort.Strings(sr.Stranded)
		st.Reservations = append(st.Reservations, sr)
	}
	if len(c.weights) > 0 {
		st.Weights = make(map[string]int, len(c.weights))
		for t, w := range c.weights {
			st.Weights[t] = w
		}
	}
	return json.Marshal(st)
}

// restoreSnapshotLocked loads a snapshot (or a first record's Base) into
// a freshly built cluster (lock held, replaying set). It must agree with
// the backend's discovered hosts, the configured seed and the preemption
// mode: recovering yesterday's state onto a different substrate or
// tie-break key would silently misplace.
func (c *Cluster) restoreSnapshotLocked(data []byte) error {
	var st snapshotState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("%w: snapshot: %v", journal.ErrCorrupt, err)
	}
	if st.Seed != c.opts.Seed {
		return fmt.Errorf("sched: journal seed %d != configured seed %d", st.Seed, c.opts.Seed)
	}
	if st.Preempt != c.opts.Preempt {
		// The wal records after this snapshot were decided under the
		// snapshot's preemption mode; replaying them under the other mode
		// would silently diverge from the recorded history.
		return fmt.Errorf("sched: journal preempt=%v != configured preempt=%v", st.Preempt, c.opts.Preempt)
	}
	if len(st.Hosts) != len(c.hostNames) {
		return fmt.Errorf("sched: journal has %d hosts, backend discovered %d", len(st.Hosts), len(c.hostNames))
	}
	for _, sh := range st.Hosts {
		h, ok := c.hosts[sh.Name]
		if !ok {
			return fmt.Errorf("sched: journal host %s not discovered by backend", sh.Name)
		}
		if h.info.Capacity != sh.Capacity {
			return fmt.Errorf("sched: host %s capacity %d in journal, %d discovered", sh.Name, sh.Capacity, h.info.Capacity)
		}
		h.cordoned = sh.Cordoned
		h.health = sh.Health
		h.fails = sh.Fails
		h.oks = sh.Oks
	}
	c.resSeq = st.ResSeq
	for _, sr := range st.Reservations {
		r := &reservation{
			spec:      sr.Spec,
			vms:       sr.Spec.vmNames(),
			state:     sr.State,
			placement: map[string]string{},
			stranded:  map[string]bool{},
			seq:       sr.Seq,
			preempted: sr.Preempted,
		}
		for vm, host := range sr.Placement {
			h, ok := c.hosts[host]
			if !ok {
				return fmt.Errorf("sched: snapshot places %s on unknown host %s", vm, host)
			}
			r.placement[vm] = host
			h.vms[vm] = sr.Spec.Name
		}
		for _, vm := range sr.Stranded {
			r.stranded[vm] = true
		}
		c.res[sr.Spec.Name] = r
	}
	for t, w := range st.Weights {
		c.weights[t] = w
	}
	for name, h := range c.hosts {
		if len(h.vms) > h.info.Capacity {
			return fmt.Errorf("sched: snapshot overfills host %s: %d VMs on capacity %d", name, len(h.vms), h.info.Capacity)
		}
	}
	return nil
}
