// Package sched is the reservation-based cluster scheduler over emulation
// host pools: named reservations request VM capacity, a deterministic
// bin-packer places them across hundreds of hosts, and a fair-share queue
// absorbs demand beyond capacity instead of failing it. Robustness is the
// point — health probes mark flaky hosts unhealthy, Cordon stops
// new placements, and Drain live re-places a host's VMs onto surviving
// capacity with bounded retry + backoff, degrading gracefully (ErrDegraded
// with a structured capacity report) when the cluster cannot absorb the
// load. The substrate sits behind the Backend interface: in-process
// emulation now (StaticBackend, the deploy package's lab hosts), real
// netkit/StarBed fleets later — the igor-style reservation model from
// minimega, grown onto the paper's §3.3 multi-host deployments.
//
// Determinism: every placement and queue decision is byte-deterministic
// given (specs, seed). Hosts are ranked by (free capacity, seed-keyed FNV
// hash, name) — the hash de-correlates which physical host fills first
// across seeds while keeping any single seed fully reproducible; VMs place
// in sorted name order; tenants admit in sorted (share, name) order; every
// event sequence replays identically.
package sched

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"

	"autonetkit/internal/journal"
	"autonetkit/internal/obs"
	"autonetkit/internal/retry"
)

// Health is one host's probed health dimension (cordoning is tracked
// separately: a cordoned host can be perfectly healthy).
type Health string

// Host health states.
const (
	Healthy   Health = "healthy"
	Unhealthy Health = "unhealthy"
	Failed    Health = "failed"
	// Suspected: the host missed its lease-renewal window — it may be
	// dead or merely silent. No new placements; its VMs stay put until
	// the grace window decides.
	Suspected Health = "suspected"
	// Dead: the host stayed silent past the grace window. Its capacity
	// is gone and its VMs were re-placed (or stranded) like a FailHost,
	// but a late heartbeat can still resurrect it (unlike Failed, which
	// is an operator verdict).
	Dead Health = "dead"
)

// ResState is a reservation's lifecycle state.
type ResState string

// Reservation states.
const (
	// ResActive: every VM is placed on a host.
	ResActive ResState = "active"
	// ResQueued: waiting in the fair-share queue for capacity.
	ResQueued ResState = "queued"
	// ResDegraded: placed, but some VMs are stranded (their host failed
	// and no surviving capacity could absorb them yet). Stranded VMs
	// re-place automatically as capacity frees.
	ResDegraded ResState = "degraded"
)

// HealthPolicy configures the probe thresholds.
type HealthPolicy struct {
	// FailAfter marks a host unhealthy after this many consecutive probe
	// failures (<= 0 selects 3).
	FailAfter int
	// RecoverAfter returns an unhealthy host to service after this many
	// consecutive probe successes (<= 0 selects 2).
	RecoverAfter int
}

func (p HealthPolicy) failAfter() int {
	if p.FailAfter <= 0 {
		return 3
	}
	return p.FailAfter
}

func (p HealthPolicy) recoverAfter() int {
	if p.RecoverAfter <= 0 {
		return 2
	}
	return p.RecoverAfter
}

// Options configures a Cluster.
type Options struct {
	// Seed keys the deterministic tie-breaks between equally-free hosts.
	// Any value (including 0) is fully reproducible; different seeds
	// de-correlate which host fills first.
	Seed uint64
	// Health configures the probe thresholds.
	Health HealthPolicy
	// Lease configures heartbeat leases (liveness under silence): hosts
	// that stop renewing are suspected, then declared dead and their VMs
	// re-placed. Disabled unless Lease.Enabled.
	Lease LeasePolicy
	// Preempt lets a reservation whose tenant has strictly higher
	// fair-share weight evict lower-weight reservations when it cannot
	// fit — the minimal-cost victim set, deterministically chosen.
	// Victims re-queue (keeping their arrival order) instead of failing.
	Preempt bool
	// Retry bounds per-VM migration attempts during drains (the shared
	// deploy retry policy: exponential backoff, deterministic jitter).
	Retry retry.Policy
	// Obs, when set, collects scheduler counters (host_cordoned,
	// vms_replaced, reservations_queued, drain_duration, ...).
	Obs *obs.Collector
	// OnEvent, when set, receives every cluster event as it happens.
	OnEvent func(Event)
	// Now is the drain-duration clock (test seam; nil selects time.Now).
	Now func() time.Time
	// Journal configures the durability log used by Open (fsync policy,
	// crash-injection seam); New ignores it. Journal.Obs defaults to Obs.
	Journal journal.Options
	// SnapshotEvery compacts the journal after this many appended records
	// (<= 0 selects 64). Open only.
	SnapshotEvery int
}

func (o Options) snapshotEvery() int {
	if o.SnapshotEvery <= 0 {
		return 64
	}
	return o.SnapshotEvery
}

// Event is one cluster state change, in sequence order.
type Event struct {
	Seq    int
	Kind   string // reserve, queue, admit, release, cordon, uncordon, unhealthy, recovered, host-failed, replace, stranded, drain, degraded
	Detail string
}

func (e Event) String() string { return fmt.Sprintf("#%03d %-11s %s", e.Seq, e.Kind, e.Detail) }

// ErrDegraded is wrapped by every error the cluster returns when
// surviving capacity cannot absorb a request or a re-placement: the
// operation completed as far as possible (state intact, partial moves
// committed) instead of failing or hanging.
var ErrDegraded = errors.New("sched: degraded: insufficient surviving capacity")

// DegradedError is the structured degradation report: which operation
// degraded, which VMs are stranded, and the cluster's capacity at that
// moment. errors.Is(err, ErrDegraded) holds.
type DegradedError struct {
	Op       string
	Stranded []string
	Report   CapacityReport
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("%v: %s stranded %d VMs (%s); %s",
		ErrDegraded, e.Op, len(e.Stranded), strings.Join(e.Stranded, ", "), e.Report.Summary())
}

func (e *DegradedError) Unwrap() error { return ErrDegraded }

// Move records one VM's re-placement.
type Move struct {
	VM, From, To string
	Reservation  string
}

// DrainResult is the outcome of a Drain or FailHost: the moves that
// happened, the VMs that could not be re-placed, and how long it took.
type DrainResult struct {
	Host     string
	Moves    []Move   // sorted by VM
	Stranded []string // sorted; non-empty iff the error wraps ErrDegraded
	Duration time.Duration
	Report   CapacityReport
}

type hostState struct {
	info     HostInfo
	cordoned bool
	health   Health
	vms      map[string]string // vm -> reservation
	fails    int               // consecutive probe failures
	oks      int               // consecutive probe successes while unhealthy
	// renewedAt is the host's last lease renewal (leases enabled only).
	// Not durable: Open re-arms fresh windows rather than condemning
	// every host for the downtime.
	renewedAt time.Time
}

func (h *hostState) free() int { return h.info.Capacity - len(h.vms) }

func (h *hostState) schedulable() bool { return h.health == Healthy && !h.cordoned }

// stateLabel renders the host's combined state for status output; the
// most serious dimension wins.
func (h *hostState) stateLabel() string {
	switch {
	case h.health == Failed:
		return string(Failed)
	case h.health == Dead:
		return string(Dead)
	case h.health == Suspected:
		return string(Suspected)
	case h.health == Unhealthy:
		return string(Unhealthy)
	case h.cordoned:
		return "cordoned"
	default:
		return string(Healthy)
	}
}

type reservation struct {
	spec      Spec
	vms       []string // sorted, fixed at Reserve
	state     ResState
	placement map[string]string // vm -> host
	stranded  map[string]bool
	seq       int  // arrival order (FIFO within tenant)
	preempted bool // evicted by a higher-weight reservation; cleared on re-admission
}

// Cluster owns a pool of substrate hosts and schedules reservations onto
// them. All methods are safe for concurrent use; mutations serialise on
// one lock, so interleaved Reserve/Drain/Fail sequences stay atomic.
type Cluster struct {
	mu      sync.Mutex
	backend Backend
	opts    Options

	hosts     map[string]*hostState
	hostNames []string // sorted
	res       map[string]*reservation
	weights   map[string]int // tenant -> fair-share weight
	resSeq    int
	eventSeq  int
	events    []Event

	// Durability (set by Open; nil journal = in-memory only, as New).
	journal      *journal.Log
	journalErr   error // first journal failure; poisons all mutators
	replaying    bool  // replay in progress: suppress events, counters, appends
	appendsSince int   // records since the last snapshot compaction
	// base is the empty cluster's snapshot, pending until the first record
	// of a fresh journal carries it (record.Base).
	base []byte
}

// New builds a cluster over the backend's discovered hosts.
func New(b Backend, opts Options) (*Cluster, error) {
	infos, err := b.Discover()
	if err != nil {
		return nil, fmt.Errorf("sched: discovering hosts: %w", err)
	}
	if len(infos) == 0 {
		return nil, fmt.Errorf("sched: backend has no hosts")
	}
	c := &Cluster{
		backend: b,
		opts:    opts,
		hosts:   map[string]*hostState{},
		res:     map[string]*reservation{},
		weights: map[string]int{},
	}
	for _, info := range infos {
		if info.Name == "" {
			return nil, fmt.Errorf("sched: backend discovered a host with an empty name")
		}
		if info.Capacity <= 0 {
			return nil, fmt.Errorf("sched: host %s discovered with non-positive capacity %d (backend misconfigured?)", info.Name, info.Capacity)
		}
		if _, dup := c.hosts[info.Name]; dup {
			return nil, fmt.Errorf("sched: backend discovered duplicate host %s (capacity would double-count)", info.Name)
		}
		c.hosts[info.Name] = &hostState{info: info, health: Healthy, vms: map[string]string{}}
		c.hostNames = append(c.hostNames, info.Name)
	}
	sort.Strings(c.hostNames)
	if opts.Lease.Enabled {
		c.armLeasesLocked(c.now())
	}
	return c, nil
}

func (c *Cluster) now() time.Time {
	if c.opts.Now != nil {
		return c.opts.Now()
	}
	return time.Now()
}

// emit appends an event (lock held). Events are observability, not
// durable state: replay re-derives the state silently, so a recovered
// cluster's event log starts fresh rather than re-announcing history.
func (c *Cluster) emit(kind, format string, args ...any) {
	if c.replaying {
		return
	}
	c.eventSeq++
	ev := Event{Seq: c.eventSeq, Kind: kind, Detail: fmt.Sprintf(format, args...)}
	c.events = append(c.events, ev)
	if c.opts.OnEvent != nil {
		c.opts.OnEvent(ev)
	}
}

// count bumps an obs counter unless a replay is re-deriving state (the
// work being counted already happened, in the previous process).
func (c *Cluster) count(name string, delta int64) {
	if c.replaying {
		return
	}
	c.opts.Obs.Add(name, delta)
}

// hostLocked looks a host up by name (lock held).
func (c *Cluster) hostLocked(name string) (*hostState, error) {
	h, ok := c.hosts[name]
	if !ok {
		return nil, fmt.Errorf("sched: no host %s", name)
	}
	return h, nil
}

// usableLocked refuses mutations after a journal failure: the in-memory
// state may be ahead of disk, and only a reopen (sched.Open) re-establishes
// agreement. Lock held.
func (c *Cluster) usableLocked() error {
	if c.journalErr != nil {
		return fmt.Errorf("sched: journal failed, reopen required: %w", c.journalErr)
	}
	return nil
}

// Events returns every cluster event so far, in sequence order.
func (c *Cluster) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// tieKey is the seed-keyed deterministic tie-break between equally-free
// hosts: FNV-1a over (seed, host name).
func (c *Cluster) tieKey(host string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", c.opts.Seed, host)
	return h.Sum64()
}

// rankedHosts returns the schedulable hosts able to take at least one more
// VM of the given reservation, ordered for its policy: pack = ascending
// free capacity (fill the fullest first), spread = descending free
// capacity; ties break on (seed-keyed hash, name). exclude names a host to
// skip (the drain source). Lock held.
func (c *Cluster) rankedHosts(r *reservation, exclude string) []*hostState {
	spreadCap := r.spec.Spread
	perHost := map[string]int{}
	for _, h := range r.placement {
		perHost[h]++
	}
	var out []*hostState
	for _, name := range c.hostNames {
		h := c.hosts[name]
		if name == exclude || !h.schedulable() || h.free() <= 0 {
			continue
		}
		if spreadCap > 0 && perHost[name] >= spreadCap {
			continue
		}
		out = append(out, h)
	}
	asc := r.spec.policy() == PolicyPack
	sort.Slice(out, func(i, j int) bool {
		fi, fj := out[i].free(), out[j].free()
		if fi != fj {
			if asc {
				return fi < fj
			}
			return fi > fj
		}
		ki, kj := c.tieKey(out[i].info.Name), c.tieKey(out[j].info.Name)
		if ki != kj {
			return ki < kj
		}
		return out[i].info.Name < out[j].info.Name
	})
	return out
}

// tryPlace attempts all-or-nothing placement of the reservation's
// unplaced VMs (lock held). On success the assignments are committed and
// true is returned; on failure the cluster is untouched.
func (c *Cluster) tryPlace(r *reservation) bool {
	var todo []string
	for _, vm := range r.vms {
		if _, ok := r.placement[vm]; !ok {
			todo = append(todo, vm)
		}
	}
	if len(todo) == 0 {
		return true
	}
	assign, ok := c.planPlacement(r, todo, "")
	if !ok {
		return false
	}
	c.commit(r, assign)
	return true
}

// planPlacement computes host assignments for the given VMs without
// mutating state. Pack fills hosts in rank order; spread deals VMs
// round-robin across the ranked hosts. Returns ok=false if any VM cannot
// be placed. Lock held.
func (c *Cluster) planPlacement(r *reservation, vms []string, exclude string) (map[string]string, bool) {
	ranked := c.rankedHosts(r, exclude)
	if len(ranked) == 0 {
		return nil, false
	}
	// Scratch per-host headroom: free slots, further bounded by the
	// reservation's spread cap.
	room := make([]int, len(ranked))
	for i, h := range ranked {
		room[i] = h.free()
		if cap := r.spec.Spread; cap > 0 {
			already := 0
			for _, ph := range r.placement {
				if ph == h.info.Name {
					already++
				}
			}
			if rem := cap - already; rem < room[i] {
				room[i] = rem
			}
		}
	}
	assign := make(map[string]string, len(vms))
	switch r.spec.policy() {
	case PolicySpread:
		// Deal one VM per host, cycling the ranked ring, skipping
		// exhausted hosts.
		i := 0
		for _, vm := range vms {
			placed := false
			for probe := 0; probe < len(ranked); probe++ {
				j := (i + probe) % len(ranked)
				if room[j] > 0 {
					assign[vm] = ranked[j].info.Name
					room[j]--
					i = j + 1
					placed = true
					break
				}
			}
			if !placed {
				return nil, false
			}
		}
	default: // pack
		j := 0
		for _, vm := range vms {
			for j < len(ranked) && room[j] == 0 {
				j++
			}
			if j >= len(ranked) {
				return nil, false
			}
			assign[vm] = ranked[j].info.Name
			room[j]--
		}
	}
	return assign, true
}

// commit applies a planned placement (lock held).
func (c *Cluster) commit(r *reservation, assign map[string]string) {
	for vm, host := range assign {
		r.placement[vm] = host
		delete(r.stranded, vm)
		c.hosts[host].vms[vm] = r.spec.Name
	}
}

// ReservationStatus is a reservation's public snapshot.
type ReservationStatus struct {
	Name      string            `json:"name"`
	Tenant    string            `json:"tenant"`
	State     ResState          `json:"state"`
	Weight    int               `json:"weight"`
	VMs       int               `json:"vms"`
	Hosts     []string          `json:"hosts,omitempty"`
	Stranded  []string          `json:"stranded,omitempty"`
	Placement map[string]string `json:"placement,omitempty"`
	Preempted bool              `json:"preempted,omitempty"`
}

// Reserve requests capacity. When the cluster can hold the whole
// reservation it places immediately (state active); otherwise the request
// joins the fair-share queue (state queued) and admits automatically as
// capacity frees — queueing is not an error.
func (c *Cluster) Reserve(sp Spec) (ReservationStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.usableLocked(); err != nil {
		return ReservationStatus{}, err
	}
	st, err := c.reserveLocked(sp)
	if err != nil {
		return st, err
	}
	if jerr := c.journalAppend(record{Kind: recReserve, Spec: &sp}); jerr != nil {
		return st, jerr
	}
	return st, nil
}

// reserveLocked is Reserve's deterministic core: placement and queueing
// decided purely by (state, spec, seed), so replaying the journaled spec
// through it re-derives the identical outcome. Lock held.
func (c *Cluster) reserveLocked(sp Spec) (ReservationStatus, error) {
	if err := sp.Validate(); err != nil {
		return ReservationStatus{}, err
	}
	if _, dup := c.res[sp.Name]; dup {
		return ReservationStatus{}, fmt.Errorf("sched: reservation %s already exists", sp.Name)
	}
	vms := sp.vmNames()
	for _, vm := range vms {
		for _, other := range c.res {
			if _, clash := other.placement[vm]; clash || other.stranded[vm] {
				return ReservationStatus{}, fmt.Errorf("sched: VM %s already held by reservation %s", vm, other.spec.Name)
			}
			for _, ovm := range other.vms {
				if ovm == vm {
					return ReservationStatus{}, fmt.Errorf("sched: VM %s already held by reservation %s", vm, other.spec.Name)
				}
			}
		}
	}
	tenant := sp.tenant()
	if sp.Weight > 0 {
		c.weights[tenant] = sp.Weight
	} else if _, ok := c.weights[tenant]; !ok {
		c.weights[tenant] = 1
	}
	c.resSeq++
	r := &reservation{
		spec:      sp,
		vms:       vms,
		placement: map[string]string{},
		stranded:  map[string]bool{},
		seq:       c.resSeq,
	}
	c.res[sp.Name] = r
	// FIFO within tenant: a new request never jumps the tenant's own
	// queue, even if it would fit right now.
	if c.queuedHead(tenant) != nil {
		r.state = ResQueued
		c.count(obs.CounterReservationsQueued, 1)
		c.emit("queue", "%s: %d VMs queued behind tenant %s's earlier request", sp.Name, len(vms), tenant)
		return c.statusOf(r), nil
	}
	placed, preempted := c.tryPlace(r), false
	if !placed && c.preemptLocked(r) {
		placed, preempted = true, true
	}
	if placed {
		r.state = ResActive
		c.emit("reserve", "%s: %d VMs placed across %d hosts (tenant %s, policy %s)",
			sp.Name, len(vms), len(hostSet(r.placement)), tenant, sp.policy())
		if preempted {
			// Evicted victims may still fit in the capacity left over.
			c.admit()
		}
	} else {
		r.state = ResQueued
		c.count(obs.CounterReservationsQueued, 1)
		c.emit("queue", "%s: %d VMs queued behind capacity (tenant %s)", sp.Name, len(vms), tenant)
	}
	return c.statusOf(r), nil
}

// Release frees a reservation's capacity (or dequeues it) and admits
// whatever the freed slots can now hold.
func (c *Cluster) Release(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.usableLocked(); err != nil {
		return err
	}
	if err := c.releaseLocked(name); err != nil {
		return err
	}
	return c.journalAppend(record{Kind: recRelease, Name: name})
}

// releaseLocked is Release's deterministic core (the freed-capacity
// admission pass re-derives identically on replay). Lock held.
func (c *Cluster) releaseLocked(name string) error {
	r, ok := c.res[name]
	if !ok {
		return fmt.Errorf("sched: no reservation %s", name)
	}
	for vm, host := range r.placement {
		delete(c.hosts[host].vms, vm)
	}
	delete(c.res, name)
	c.emit("release", "%s: %d VMs freed", name, len(r.vms))
	c.admit()
	return nil
}

// Cordon marks a host unschedulable for new placements. Existing VMs stay
// put until a Drain.
func (c *Cluster) Cordon(host string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.usableLocked(); err != nil {
		return err
	}
	if err := c.cordonLocked(host); err != nil {
		return err
	}
	return c.journalAppend(record{Kind: recCordon, Host: host})
}

func (c *Cluster) cordonLocked(host string) error {
	h, ok := c.hosts[host]
	if !ok {
		return fmt.Errorf("sched: no host %s", host)
	}
	if h.health == Failed || h.health == Dead {
		return fmt.Errorf("sched: host %s has failed", host)
	}
	if h.cordoned {
		return fmt.Errorf("sched: host %s is already cordoned", host)
	}
	h.cordoned = true
	c.count(obs.CounterHostCordoned, 1)
	c.emit("cordon", "%s unschedulable (%d VMs stay until drained)", host, len(h.vms))
	return nil
}

// Uncordon returns a cordoned host to service and admits queued work.
func (c *Cluster) Uncordon(host string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.usableLocked(); err != nil {
		return err
	}
	if err := c.uncordonLocked(host); err != nil {
		return err
	}
	return c.journalAppend(record{Kind: recUncordon, Host: host})
}

func (c *Cluster) uncordonLocked(host string) error {
	h, ok := c.hosts[host]
	if !ok {
		return fmt.Errorf("sched: no host %s", host)
	}
	if !h.cordoned {
		return fmt.Errorf("sched: host %s is not cordoned", host)
	}
	h.cordoned = false
	c.emit("uncordon", "%s schedulable again (%d free slots)", host, h.free())
	c.admit()
	return nil
}

// Drain cordons a host and live re-places its VMs onto surviving
// capacity, one VM at a time in sorted order, each move running the
// backend's Migrate under the bounded retry policy. VMs that cannot move
// (no capacity, or migration kept failing) stay on the cordoned host and
// are reported; the error then wraps ErrDegraded with a capacity report.
func (c *Cluster) Drain(host string) (DrainResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.usableLocked(); err != nil {
		return DrainResult{}, err
	}
	start := c.now()
	h, err := c.hostLocked(host)
	if err != nil {
		return DrainResult{}, err
	}
	if h.health == Failed || h.health == Dead {
		return DrainResult{}, fmt.Errorf("sched: host %s has failed", host)
	}
	if !h.cordoned {
		if err := c.cordonLocked(host); err != nil {
			return DrainResult{}, err
		}
	}
	op := "drain " + host
	res := c.replaceLocked(op, h, true)
	c.emit("drain", "%s: %d VMs re-placed, %d stranded in place", host, len(res.Moves), len(res.Stranded))
	// The drain's durable effect is the cordon + the committed moves; a
	// live drain's stranded VMs simply stayed where they were. The record
	// folds the implicit cordon in, so one journal record = one Drain call.
	err = c.journalAppend(record{Kind: recDrain, Host: host, Moves: res.Moves})
	return c.finishLocked(op, start, res, err)
}

// FailHost marks a host failed (its capacity is gone for good) and
// re-places its now-orphaned VMs onto surviving capacity. Orphans that
// cannot be placed are recorded as stranded on their reservations
// (state degraded) and re-place automatically as capacity frees; the
// error then wraps ErrDegraded.
func (c *Cluster) FailHost(host string) (DrainResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.usableLocked(); err != nil {
		return DrainResult{}, err
	}
	start := c.now()
	h, err := c.hostLocked(host)
	if err != nil {
		return DrainResult{}, err
	}
	if h.health == Failed || h.health == Dead {
		return DrainResult{}, fmt.Errorf("sched: host %s has already failed", host)
	}
	op := "fail-host " + host
	res, err := c.loseHostLocked(op, h, Failed, recFailHost)
	return c.finishLocked(op, start, res, err)
}

// loseHostLocked declares a host lost, Failed by an operator or Dead by
// its lease, re-places its orphaned VMs and journals one outcome record of
// the given kind. Lock held.
func (c *Cluster) loseHostLocked(op string, h *hostState, verdict Health, kind string) (DrainResult, error) {
	c.setHealthLocked(h, verdict)
	res := c.replaceLocked(op, h, false)
	return res, c.journalAppend(record{Kind: kind, Host: h.info.Name, Moves: res.Moves, Stranded: res.Stranded})
}

// finishLocked is the closing step of Drain, FailHost and ExpireLease: it
// times the operation and reports stranded VMs as a degradation. err is
// the operation's journal error. Lock held.
func (c *Cluster) finishLocked(op string, start time.Time, res DrainResult, err error) (DrainResult, error) {
	res.Duration = c.now().Sub(start)
	c.count(obs.CounterDrainDuration, res.Duration.Milliseconds())
	return res, c.degradeLocked(op, &res, err)
}

// degradeLocked fills the capacity report of an operation that stranded
// VMs and, unless its journal append failed (err), announces the
// degradation and returns it as a *DegradedError. Lock held.
func (c *Cluster) degradeLocked(op string, res *DrainResult, err error) error {
	if len(res.Stranded) == 0 {
		return err
	}
	res.Report = c.capacityLocked(len(res.Stranded))
	if err != nil {
		return err
	}
	c.emit("degraded", "%s: %s", op, res.Report.Summary())
	return &DegradedError{Op: op, Stranded: res.Stranded, Report: res.Report}
}

// replaceLocked moves every VM off the given host in sorted order.
// live=true is a drain: the source still runs each VM until its move
// commits, so a VM that cannot move stays in place. live=false is a host
// loss: the VMs are orphans, and one with nowhere to go strands on its
// reservation. Lock held.
func (c *Cluster) replaceLocked(op string, h *hostState, live bool) DrainResult {
	res := DrainResult{Host: h.info.Name}
	vms := make([]string, 0, len(h.vms))
	for vm := range h.vms {
		vms = append(vms, vm)
	}
	sort.Strings(vms)
	for _, vm := range vms {
		r := c.res[h.vms[vm]]
		if target, ok := c.migrateVM(r, vm, h); ok {
			m := Move{VM: vm, From: h.info.Name, To: target, Reservation: r.spec.Name}
			_ = c.moveLocked(op, m) // planned against this state, so it applies
			res.Moves = append(res.Moves, m)
			continue
		}
		if !live {
			_ = c.strandLocked(h, vm) // vm is on h, so it applies
		}
		res.Stranded = append(res.Stranded, vm)
	}
	return res
}

// setHealthLocked moves a host to a verdict of the host-loss and lease
// machinery: Failed (an operator's fail-host), Dead (a lease expiry),
// Suspected (a missed renewal), or Healthy (a heartbeat resurrecting a
// suspected or dead host). Live operations and journal replay both call
// it; replay silences its events and counters. Lock held.
func (c *Cluster) setHealthLocked(h *hostState, to Health) {
	from, name := h.health, h.info.Name
	h.health = to
	switch to {
	case Failed:
		c.emit("host-failed", "%s dead with %d VMs aboard", name, len(h.vms))
	case Dead:
		c.count(obs.CounterLeasesExpired, 1)
		c.emit("lease-expired", "%s silent past the grace window: declared dead with %d VMs aboard", name, len(h.vms))
	case Suspected:
		c.count(obs.CounterLeasesSuspected, 1)
		c.emit("lease-suspect", "%s missed its lease renewal (%d VMs stay until the grace window)", name, len(h.vms))
	case Healthy:
		h.fails, h.oks = 0, 0
		c.count(obs.CounterLeasesRenewed, 1)
		c.emit("lease-renewed", "%s resurrected by heartbeat (%s -> healthy)", name, from)
		c.admit()
	}
}

// moveLocked re-places one VM. The move is checked against the current
// state, so a journaled move that disagrees with it fails replay instead
// of corrupting the cluster. Lock held.
func (c *Cluster) moveLocked(op string, m Move) error {
	from, to, r := c.hosts[m.From], c.hosts[m.To], c.res[m.Reservation]
	if from == nil || to == nil || r == nil || from.vms[m.VM] != m.Reservation || to.free() <= 0 {
		return fmt.Errorf("move of %s from %s to %s (reservation %s) does not apply", m.VM, m.From, m.To, m.Reservation)
	}
	delete(from.vms, m.VM)
	r.placement[m.VM] = m.To
	to.vms[m.VM] = m.Reservation
	c.count(obs.CounterVMsReplaced, 1)
	c.emit("replace", "%s: %s -> %s (reservation %s)", op, m.VM, m.To, m.Reservation)
	return nil
}

// strandLocked takes an orphaned VM off a lost host and records it as
// stranded on its reservation, which degrades until the VM heals. Lock
// held.
func (c *Cluster) strandLocked(h *hostState, vm string) error {
	r := c.res[h.vms[vm]]
	if r == nil {
		return fmt.Errorf("stranded VM %s not on host %s", vm, h.info.Name)
	}
	delete(h.vms, vm)
	delete(r.placement, vm)
	r.stranded[vm] = true
	r.state = ResDegraded
	c.emit("stranded", "%s has no surviving capacity (reservation %s)", vm, r.spec.Name)
	return nil
}

// migrateVM picks the best surviving target for one VM and runs the
// backend migration under the bounded retry policy. Returns the target,
// or ok=false when no target could accept the VM. Lock held; the
// backend's Migrate must not call back into the cluster.
func (c *Cluster) migrateVM(r *reservation, vm string, from *hostState) (string, bool) {
	plan, ok := c.planPlacement(r, []string{vm}, from.info.Name)
	if !ok {
		return "", false
	}
	target := plan[vm]
	err := c.opts.Retry.Do(context.Background(), target, func(attempt int) error {
		return c.backend.Migrate(vm, from.info.Name, target, attempt)
	})
	if err == nil {
		return target, true
	}
	var ex *retry.ExhaustedError
	if errors.As(err, &ex) {
		c.emit("stranded", "%s: migration to %s failed after %d attempts: %v", vm, target, ex.Attempts, ex.Last)
	} else {
		c.emit("stranded", "%s: migration to %s failed: %v", vm, target, err)
	}
	return "", false
}

// admit re-places stranded VMs and then admits queued reservations in
// fair-share order: tenants ranked by share = placed VMs / weight
// (ascending, ties by name), FIFO within each tenant, head-of-line only —
// a tenant's second request never jumps its first. Lock held.
func (c *Cluster) admit() {
	// Stranded VMs of degraded reservations heal first, oldest
	// reservation first, VMs in sorted order.
	for _, r := range c.resByArrival() {
		if r.state != ResDegraded {
			continue
		}
		vms := make([]string, 0, len(r.stranded))
		for vm := range r.stranded {
			vms = append(vms, vm)
		}
		sort.Strings(vms)
		for _, vm := range vms {
			plan, ok := c.planPlacement(r, []string{vm}, "")
			if !ok {
				continue
			}
			target := plan[vm]
			delete(r.stranded, vm)
			r.placement[vm] = target
			c.hosts[target].vms[vm] = r.spec.Name
			c.count(obs.CounterVMsReplaced, 1)
			c.emit("replace", "heal: %s -> %s (reservation %s)", vm, target, r.spec.Name)
		}
		if len(r.stranded) == 0 {
			r.state = ResActive
			c.emit("admit", "%s healed: all VMs placed again", r.spec.Name)
		}
	}
	// Fair-share admission of queued reservations.
	for {
		admitted := false
		for _, tenant := range c.tenantsByShare() {
			head := c.queuedHead(tenant)
			if head == nil {
				continue
			}
			if !c.tryPlace(head) {
				continue
			}
			head.state = ResActive
			head.preempted = false
			c.emit("admit", "%s: %d VMs admitted from queue (tenant %s, share %s)",
				head.spec.Name, len(head.vms), tenant, c.shareString(tenant))
			admitted = true
			break // shares changed; re-rank
		}
		if !admitted {
			return
		}
	}
}

// resByArrival returns all reservations sorted by arrival sequence.
func (c *Cluster) resByArrival() []*reservation {
	out := make([]*reservation, 0, len(c.res))
	for _, r := range c.res {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// tenantsByShare ranks tenants with queued work by ascending fair share
// (placed VMs / weight), ties by name. Lock held.
func (c *Cluster) tenantsByShare() []string {
	placed := map[string]int{}
	queuedTenants := map[string]bool{}
	for _, r := range c.res {
		t := r.spec.tenant()
		if r.state == ResQueued {
			queuedTenants[t] = true
			continue
		}
		placed[t] += len(r.placement)
	}
	out := make([]string, 0, len(queuedTenants))
	for t := range queuedTenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		si := float64(placed[out[i]]) / float64(c.weight(out[i]))
		sj := float64(placed[out[j]]) / float64(c.weight(out[j]))
		if si != sj {
			return si < sj
		}
		return out[i] < out[j]
	})
	return out
}

func (c *Cluster) weight(tenant string) int {
	if w := c.weights[tenant]; w > 0 {
		return w
	}
	return 1
}

func (c *Cluster) shareString(tenant string) string {
	placed := 0
	for _, r := range c.res {
		if r.spec.tenant() == tenant && r.state != ResQueued {
			placed += len(r.placement)
		}
	}
	return fmt.Sprintf("%d/%d", placed, c.weight(tenant))
}

// queuedHead returns the tenant's oldest queued reservation (FIFO), nil
// when none.
func (c *Cluster) queuedHead(tenant string) *reservation {
	var head *reservation
	for _, r := range c.res {
		if r.state != ResQueued || r.spec.tenant() != tenant {
			continue
		}
		if head == nil || r.seq < head.seq {
			head = r
		}
	}
	return head
}

// ProbeResult is one host's outcome from a probe round.
type ProbeResult struct {
	Host    string `json:"host"`
	Healthy bool   `json:"healthy"`
	Err     string `json:"err,omitempty"`
	State   string `json:"state"`
}

// ProbeAll runs one health-probe round over every non-failed host (in
// sorted order, probes outside the lock) and applies the thresholds:
// FailAfter consecutive failures mark a host unhealthy; RecoverAfter
// consecutive successes return it to service.
func (c *Cluster) ProbeAll() []ProbeResult {
	c.mu.Lock()
	if c.journalErr != nil {
		c.mu.Unlock()
		return nil
	}
	names := make([]string, 0, len(c.hostNames))
	for _, name := range c.hostNames {
		// Suspected and dead hosts belong to the lease state machine; a
		// probe answer is not a lease renewal, so skip them here.
		if h := c.hosts[name].health; h == Healthy || h == Unhealthy {
			names = append(names, name)
		}
	}
	c.mu.Unlock()

	errs := make(map[string]error, len(names))
	for _, name := range names {
		errs[name] = c.backend.Probe(name)
	}

	c.mu.Lock()
	if c.journalErr != nil {
		c.mu.Unlock()
		return nil
	}
	var out []ProbeResult
	var outcomes []probeOutcome
	changed := false
	for _, name := range names {
		h, ok := c.hosts[name]
		if !ok || (h.health != Healthy && h.health != Unhealthy) {
			continue
		}
		err := errs[name]
		// A failed probe always moves the fails counter; a success only
		// changes state when it resets a streak or heals an unhealthy
		// host. All-quiet rounds skip the journal entirely.
		if err != nil || h.fails > 0 || h.health == Unhealthy {
			changed = true
		}
		c.applyProbeLocked(name, err)
		outcomes = append(outcomes, probeOutcome{Host: name, OK: err == nil})
		res := ProbeResult{Host: name, Healthy: err == nil, State: h.stateLabel()}
		if err != nil {
			res.Err = err.Error()
		}
		out = append(out, res)
	}
	if changed {
		// Probe streaks (fails/oks) gate future health transitions, so
		// they are durable state: journal the round's outcomes; replay
		// re-runs the same threshold logic.
		_ = c.journalAppend(record{Kind: recProbe, Probes: outcomes})
	}
	c.mu.Unlock()
	return out
}

// applyProbeLocked applies one host's probe outcome to the threshold state
// machine. Lock held; shared by ProbeAll and journal replay.
func (c *Cluster) applyProbeLocked(name string, probeErr error) {
	h, ok := c.hosts[name]
	if !ok || (h.health != Healthy && h.health != Unhealthy) {
		return
	}
	if probeErr != nil {
		h.fails++
		h.oks = 0
		if h.health == Healthy && h.fails >= c.opts.Health.failAfter() {
			h.health = Unhealthy
			c.count(obs.CounterHostsUnhealthy, 1)
			c.emit("unhealthy", "%s failed %d consecutive probes: %v", name, h.fails, probeErr)
		}
		return
	}
	h.fails = 0
	if h.health == Unhealthy {
		h.oks++
		if h.oks >= c.opts.Health.recoverAfter() {
			h.health = Healthy
			h.oks = 0
			c.emit("recovered", "%s healthy after %d consecutive probe successes", name, c.opts.Health.recoverAfter())
			c.admit()
		}
	}
}

// Reservation returns one reservation's snapshot.
func (c *Cluster) Reservation(name string) (ReservationStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.res[name]
	if !ok {
		return ReservationStatus{}, false
	}
	return c.statusOf(r), true
}

// VMsOn returns the VMs currently placed on a host, sorted.
func (c *Cluster) VMsOn(host string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.hosts[host]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(h.vms))
	for vm := range h.vms {
		out = append(out, vm)
	}
	sort.Strings(out)
	return out
}

func (c *Cluster) statusOf(r *reservation) ReservationStatus {
	st := ReservationStatus{
		Name:      r.spec.Name,
		Tenant:    r.spec.tenant(),
		State:     r.state,
		Weight:    c.weight(r.spec.tenant()),
		VMs:       len(r.vms),
		Preempted: r.preempted,
	}
	if len(r.placement) > 0 {
		st.Placement = make(map[string]string, len(r.placement))
		for vm, host := range r.placement {
			st.Placement[vm] = host
		}
		st.Hosts = hostSet(r.placement)
	}
	for vm := range r.stranded {
		st.Stranded = append(st.Stranded, vm)
	}
	sort.Strings(st.Stranded)
	return st
}

// hostSet returns the sorted distinct hosts of a placement.
func hostSet(placement map[string]string) []string {
	seen := map[string]bool{}
	var out []string
	for _, h := range placement {
		if !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	sort.Strings(out)
	return out
}
