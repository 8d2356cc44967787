package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"autonetkit/internal/obs"
	"autonetkit/internal/retry"
)

// fastRetry is a no-sleep retry policy for tests.
func fastRetry(attempts int) retry.Policy {
	return retry.Policy{MaxAttempts: attempts, Sleep: func(time.Duration) {}}
}

func newTestCluster(t *testing.T, b Backend, opts Options) *Cluster {
	t.Helper()
	if opts.Retry.Sleep == nil {
		opts.Retry = fastRetry(3)
	}
	c, err := New(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkInvariant asserts the multiset invariant: every reservation's VMs
// are exactly (placed ∪ stranded), every placed VM sits on exactly one
// host, and host occupancy mirrors the placements.
func checkInvariant(t *testing.T, c *Cluster) {
	t.Helper()
	st := c.Status()
	onHost := map[string]string{}
	for _, h := range st.Hosts {
		if h.Used != len(h.VMs) {
			t.Fatalf("host %s used=%d but holds %d VMs", h.Name, h.Used, len(h.VMs))
		}
		if h.Used > h.Capacity {
			t.Fatalf("host %s over capacity: %d > %d", h.Name, h.Used, h.Capacity)
		}
		for _, vm := range h.VMs {
			if prev, dup := onHost[vm]; dup {
				t.Fatalf("VM %s duplicated on %s and %s", vm, prev, h.Name)
			}
			onHost[vm] = h.Name
		}
	}
	placedTotal := 0
	for _, r := range st.Reservations {
		if r.State == ResQueued {
			if len(r.Placement) != 0 || len(r.Stranded) != 0 {
				t.Fatalf("queued reservation %s has placements/stranded", r.Name)
			}
			continue
		}
		if len(r.Placement)+len(r.Stranded) != r.VMs {
			t.Fatalf("reservation %s: %d placed + %d stranded != %d VMs (lost or duplicated)",
				r.Name, len(r.Placement), len(r.Stranded), r.VMs)
		}
		for vm, host := range r.Placement {
			if onHost[vm] != host {
				t.Fatalf("reservation %s says %s on %s; hosts say %q", r.Name, vm, host, onHost[vm])
			}
			placedTotal++
		}
		if r.State == ResActive && len(r.Stranded) != 0 {
			t.Fatalf("active reservation %s has stranded VMs %v", r.Name, r.Stranded)
		}
		if r.State == ResDegraded && len(r.Stranded) == 0 {
			t.Fatalf("degraded reservation %s has no stranded VMs", r.Name)
		}
	}
	if placedTotal != len(onHost) {
		t.Fatalf("placement count mismatch: reservations place %d, hosts hold %d", placedTotal, len(onHost))
	}
}

func TestReservePack(t *testing.T) {
	c := newTestCluster(t, Uniform(4, 4), Options{Seed: 1})
	st, err := c.Reserve(Spec{Name: "a", Count: 6})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != ResActive {
		t.Fatalf("state = %s, want active", st.State)
	}
	// Pack keeps the footprint minimal: 6 unit VMs over 4-slot hosts need
	// exactly 2 hosts.
	if len(st.Hosts) != 2 {
		t.Fatalf("pack used %d hosts (%v), want 2", len(st.Hosts), st.Hosts)
	}
	checkInvariant(t, c)
}

func TestReserveSpread(t *testing.T) {
	c := newTestCluster(t, Uniform(4, 4), Options{Seed: 1})
	st, err := c.Reserve(Spec{Name: "a", Count: 8, Policy: PolicySpread})
	if err != nil {
		t.Fatal(err)
	}
	// Spread deals across all 4 hosts: 2 VMs each.
	if len(st.Hosts) != 4 {
		t.Fatalf("spread used %d hosts, want 4", len(st.Hosts))
	}
	perHost := map[string]int{}
	for _, h := range st.Placement {
		perHost[h]++
	}
	for h, n := range perHost {
		if n != 2 {
			t.Fatalf("spread uneven: host %s has %d VMs, want 2 (%v)", h, n, perHost)
		}
	}
	checkInvariant(t, c)
}

func TestSpreadCapAntiAffinity(t *testing.T) {
	c := newTestCluster(t, Uniform(4, 4), Options{Seed: 1})
	st, err := c.Reserve(Spec{Name: "a", Count: 4, Policy: PolicySpread, Spread: 1})
	if err != nil {
		t.Fatal(err)
	}
	perHost := map[string]int{}
	for _, h := range st.Placement {
		perHost[h]++
	}
	for h, n := range perHost {
		if n > 1 {
			t.Fatalf("anti-affinity violated: host %s has %d VMs of one reservation", h, n)
		}
	}
	// A fifth VM cannot fit under spread=1 on 4 hosts: queues instead.
	st2, err := c.Reserve(Spec{Name: "b", Count: 5, Policy: PolicySpread, Spread: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != ResQueued {
		t.Fatalf("over-constrained reservation should queue, got %s", st2.State)
	}
	checkInvariant(t, c)
}

func TestQueueAndFairShareAdmission(t *testing.T) {
	col := obs.NewCollector()
	c := newTestCluster(t, Uniform(2, 4), Options{Seed: 1, Obs: col})
	// Fill the cluster under tenant alice (weight 1).
	if _, err := c.Reserve(Spec{Name: "a1", Count: 8, Tenant: "alice"}); err != nil {
		t.Fatal(err)
	}
	// Queue one more from alice, then two from bob (weight 2). Bob's head
	// must admit first on release: alice's share (8/1) dwarfs bob's (0/2).
	for _, sp := range []Spec{
		{Name: "a2", Count: 4, Tenant: "alice"},
		{Name: "b1", Count: 4, Tenant: "bob", Weight: 2},
		{Name: "b2", Count: 2, Tenant: "bob"},
	} {
		st, err := c.Reserve(sp)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != ResQueued {
			t.Fatalf("%s should queue, got %s", sp.Name, st.State)
		}
	}
	if got := col.Counter(obs.CounterReservationsQueued); got != 3 {
		t.Fatalf("reservations_queued = %d, want 3", got)
	}
	if err := c.Release("a1"); err != nil {
		t.Fatal(err)
	}
	// 8 slots freed: bob's b1 (4) admits first, then FIFO gives b2 (2)
	// only after... share(bob)=4/2=2 vs share(alice)=0/1=0, so alice's a2
	// (4) admits next, then bob's b2 (2) — all three fit in 8 slots? a2=4,
	// b1=4, b2=2 total 10 > 8. b1 admits (share 0), then alice a2 (share 0 < 2)
	// admits, then b2 needs 2 slots but 0 remain: stays queued.
	for name, want := range map[string]ResState{"b1": ResActive, "a2": ResActive, "b2": ResQueued} {
		st, ok := c.Reservation(name)
		if !ok {
			t.Fatalf("reservation %s missing", name)
		}
		if st.State != want {
			t.Fatalf("%s state = %s, want %s", name, st.State, want)
		}
	}
	checkInvariant(t, c)
}

func TestQueueFIFOWithinTenant(t *testing.T) {
	c := newTestCluster(t, Uniform(1, 4), Options{Seed: 1})
	if _, err := c.Reserve(Spec{Name: "r0", Count: 4}); err != nil {
		t.Fatal(err)
	}
	// Queue big-then-small for the same tenant. The small one would fit
	// after release, but FIFO head-of-line means the big one must go first;
	// since it fits too (4 slots), order is observable via events.
	if _, err := c.Reserve(Spec{Name: "big", Count: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reserve(Spec{Name: "small", Count: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Release("r0"); err != nil {
		t.Fatal(err)
	}
	big, _ := c.Reservation("big")
	small, _ := c.Reservation("small")
	if big.State != ResActive {
		t.Fatalf("head-of-line big should admit, got %s", big.State)
	}
	if small.State != ResQueued {
		t.Fatalf("small should still wait behind capacity, got %s", small.State)
	}
	// Head-of-line blocking is strict: even though small would fit if big
	// were skipped, a tenant's later request never jumps its earlier one.
	c2 := newTestCluster(t, Uniform(1, 4), Options{Seed: 1})
	if _, err := c2.Reserve(Spec{Name: "r0", Count: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Reserve(Spec{Name: "big", Count: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Reserve(Spec{Name: "small", Count: 1}); err != nil {
		t.Fatal(err)
	}
	small2, _ := c2.Reservation("small")
	if small2.State != ResQueued {
		t.Fatalf("small must not jump big's head-of-line slot, got %s", small2.State)
	}
	checkInvariant(t, c)
}

func TestCordonUncordon(t *testing.T) {
	col := obs.NewCollector()
	c := newTestCluster(t, Uniform(2, 2), Options{Seed: 1, Obs: col})
	if err := c.Cordon("h01"); err != nil {
		t.Fatal(err)
	}
	if err := c.Cordon("h01"); err == nil {
		t.Fatal("double cordon should error")
	}
	if got := col.Counter(obs.CounterHostCordoned); got != 1 {
		t.Fatalf("host_cordoned = %d, want 1", got)
	}
	// Only h02's 2 slots remain: 3 VMs queue.
	st, err := c.Reserve(Spec{Name: "a", Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != ResQueued {
		t.Fatalf("want queued while cordoned, got %s", st.State)
	}
	if err := c.Uncordon("h01"); err != nil {
		t.Fatal(err)
	}
	st2, _ := c.Reservation("a")
	if st2.State != ResActive {
		t.Fatalf("uncordon should admit queued work, got %s", st2.State)
	}
	if err := c.Uncordon("h01"); err == nil {
		t.Fatal("uncordon of schedulable host should error")
	}
	checkInvariant(t, c)
}

func TestProbeThresholds(t *testing.T) {
	b := Uniform(2, 2)
	col := obs.NewCollector()
	c := newTestCluster(t, b, Options{
		Seed:   1,
		Obs:    col,
		Health: HealthPolicy{FailAfter: 3, RecoverAfter: 2},
	})
	b.SetProbeFunc(func(host string) error {
		if host == "h01" {
			return errors.New("ssh: connection refused")
		}
		return nil
	})
	// Two failures: still healthy (threshold is 3).
	c.ProbeAll()
	c.ProbeAll()
	if st := c.Status(); st.Hosts[0].State != "healthy" {
		t.Fatalf("after 2 fails h01 = %s, want healthy", st.Hosts[0].State)
	}
	c.ProbeAll()
	if st := c.Status(); st.Hosts[0].State != "unhealthy" {
		t.Fatalf("after 3 fails h01 = %s, want unhealthy", st.Hosts[0].State)
	}
	if got := col.Counter(obs.CounterHostsUnhealthy); got != 1 {
		t.Fatalf("hosts_unhealthy = %d, want 1", got)
	}
	// Unhealthy hosts take no new placements.
	st, err := c.Reserve(Spec{Name: "a", Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != ResQueued {
		t.Fatalf("3 VMs on one healthy 2-slot host should queue, got %s", st.State)
	}
	// Recovery needs 2 consecutive successes; one success + one failure
	// resets the streak.
	b.SetProbeFunc(nil)
	c.ProbeAll()
	b.SetProbeFunc(func(host string) error {
		if host == "h01" {
			return errors.New("flap")
		}
		return nil
	})
	c.ProbeAll()
	if st := c.Status(); st.Hosts[0].State != "unhealthy" {
		t.Fatalf("success streak should reset on failure; h01 = %s", st.Hosts[0].State)
	}
	b.SetProbeFunc(nil)
	c.ProbeAll()
	c.ProbeAll()
	if st := c.Status(); st.Hosts[0].State != "healthy" {
		t.Fatalf("after 2 consecutive successes h01 = %s, want healthy", st.Hosts[0].State)
	}
	// Recovery admits the queued reservation.
	rst, _ := c.Reservation("a")
	if rst.State != ResActive {
		t.Fatalf("recovery should admit queued work, got %s", rst.State)
	}
	checkInvariant(t, c)
}

func TestDrainLiveReplacement(t *testing.T) {
	col := obs.NewCollector()
	now := time.Unix(1700000000, 0)
	c := newTestCluster(t, Uniform(3, 4), Options{
		Seed: 1,
		Obs:  col,
		Now: func() time.Time {
			now = now.Add(125 * time.Millisecond)
			return now
		},
	})
	if _, err := c.Reserve(Spec{Name: "a", Count: 8, Policy: PolicySpread}); err != nil {
		t.Fatal(err)
	}
	victims := c.VMsOn("h02")
	if len(victims) == 0 {
		t.Fatal("expected VMs on h02")
	}
	res, err := c.Drain("h02")
	if err != nil {
		t.Fatalf("drain should absorb into surviving capacity: %v", err)
	}
	if len(res.Moves) != len(victims) {
		t.Fatalf("moved %d VMs, want %d", len(res.Moves), len(victims))
	}
	if !sort.SliceIsSorted(res.Moves, func(i, j int) bool { return res.Moves[i].VM < res.Moves[j].VM }) {
		t.Fatalf("moves not sorted by VM: %v", res.Moves)
	}
	if res.Duration <= 0 {
		t.Fatalf("duration = %v, want > 0 (Now seam)", res.Duration)
	}
	if got := c.VMsOn("h02"); len(got) != 0 {
		t.Fatalf("h02 still holds %v after drain", got)
	}
	if got := col.Counter(obs.CounterVMsReplaced); got != int64(len(victims)) {
		t.Fatalf("vms_replaced = %d, want %d", got, len(victims))
	}
	if got := col.Counter(obs.CounterDrainDuration); got <= 0 {
		t.Fatalf("drain_duration = %d, want > 0", got)
	}
	// The host is left cordoned, not failed: uncordon restores it.
	if st := c.Status(); st.Hosts[1].State != "cordoned" {
		t.Fatalf("h02 = %s after drain, want cordoned", st.Hosts[1].State)
	}
	checkInvariant(t, c)
}

func TestDrainMigrationRetry(t *testing.T) {
	b := Uniform(2, 4)
	var mu sync.Mutex
	attempts := map[string]int{}
	b.SetMigrateFunc(func(vm, from, to string, attempt int) error {
		mu.Lock()
		defer mu.Unlock()
		attempts[vm]++
		if attempts[vm] < 3 {
			return fmt.Errorf("transient: %s attempt %d", vm, attempt)
		}
		return nil
	})
	c := newTestCluster(t, b, Options{Seed: 1, Retry: fastRetry(3)})
	if _, err := c.Reserve(Spec{Name: "a", Count: 4, Policy: PolicySpread}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Drain("h01")
	if err != nil {
		t.Fatalf("retry should ride out transient migration failures: %v", err)
	}
	if len(res.Stranded) != 0 {
		t.Fatalf("stranded = %v, want none", res.Stranded)
	}
	for vm, n := range attempts {
		if n != 3 {
			t.Fatalf("VM %s migrated in %d attempts, want 3", vm, n)
		}
	}
	checkInvariant(t, c)
}

func TestDrainDegradedStaysInPlace(t *testing.T) {
	c := newTestCluster(t, Uniform(2, 4), Options{Seed: 1})
	// Fill both hosts completely: no surviving capacity for a drain.
	if _, err := c.Reserve(Spec{Name: "a", Count: 8, Policy: PolicySpread}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Drain("h01")
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("err = %v, want ErrDegraded", err)
	}
	var de *DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("err %T is not *DegradedError", err)
	}
	if de.Report.FreeSlots != 0 || de.Report.Schedulable != 1 {
		t.Fatalf("capacity report wrong: %+v", de.Report)
	}
	if len(res.Stranded) != 4 {
		t.Fatalf("stranded %d VMs, want 4", len(res.Stranded))
	}
	// Live drain: un-movable VMs keep running on the cordoned source.
	if got := c.VMsOn("h01"); len(got) != 4 {
		t.Fatalf("h01 should still run its 4 VMs, holds %v", got)
	}
	st, _ := c.Reservation("a")
	if st.State != ResActive {
		t.Fatalf("reservation still fully placed, want active, got %s", st.State)
	}
	checkInvariant(t, c)
}

func TestDrainMigrationExhaustedStrands(t *testing.T) {
	b := Uniform(2, 4)
	b.SetMigrateFunc(func(vm, from, to string, attempt int) error {
		return errors.New("target refuses")
	})
	c := newTestCluster(t, b, Options{Seed: 1, Retry: fastRetry(2)})
	if _, err := c.Reserve(Spec{Name: "a", Count: 2}); err != nil {
		t.Fatal(err)
	}
	st, _ := c.Reservation("a")
	host := st.Placement["a-vm001"]
	_, err := c.Drain(host)
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("exhausted migrations should degrade, got %v", err)
	}
	// VMs still on the source: nothing lost.
	if got := c.VMsOn(host); len(got) != 2 {
		t.Fatalf("source should keep un-migratable VMs, holds %v", got)
	}
	checkInvariant(t, c)
}

func TestFailHostStrandsAndHeals(t *testing.T) {
	c := newTestCluster(t, Uniform(2, 4), Options{Seed: 1})
	if _, err := c.Reserve(Spec{Name: "a", Count: 8, Policy: PolicySpread}); err != nil {
		t.Fatal(err)
	}
	res, err := c.FailHost("h01")
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("full cluster host failure should degrade, got %v", err)
	}
	if len(res.Stranded) != 4 {
		t.Fatalf("stranded %d, want 4", len(res.Stranded))
	}
	st, _ := c.Reservation("a")
	if st.State != ResDegraded || len(st.Stranded) != 4 {
		t.Fatalf("reservation = %s with %d stranded, want degraded/4", st.State, len(st.Stranded))
	}
	// A dead host cannot be drained or failed again.
	if _, err := c.Drain("h01"); err == nil {
		t.Fatal("drain of failed host should error")
	}
	if _, err := c.FailHost("h01"); err == nil {
		t.Fatal("double fail should error")
	}
	checkInvariant(t, c)
}

func TestFailHostHealsIntoFreedCapacity(t *testing.T) {
	c := newTestCluster(t, Uniform(3, 4), Options{Seed: 1})
	if _, err := c.Reserve(Spec{Name: "a", Count: 4, Policy: PolicySpread, Spread: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reserve(Spec{Name: "pad", Count: 8}); err != nil {
		t.Fatal(err)
	}
	// Cluster is full (12/12). Kill a host carrying a's VMs: they strand.
	st, _ := c.Reservation("a")
	host := st.Placement["a-vm001"]
	if _, err := c.FailHost(host); !errors.Is(err, ErrDegraded) {
		t.Fatalf("want ErrDegraded, got %v", err)
	}
	st, _ = c.Reservation("a")
	if st.State != ResDegraded {
		t.Fatalf("want degraded, got %s", st.State)
	}
	checkInvariant(t, c)
	// Releasing pad frees capacity: stranded VMs re-place automatically.
	if err := c.Release("pad"); err != nil {
		t.Fatal(err)
	}
	st, _ = c.Reservation("a")
	if st.State != ResActive || len(st.Stranded) != 0 {
		t.Fatalf("stranded VMs should heal after release: %s %v", st.State, st.Stranded)
	}
	checkInvariant(t, c)
}

func TestReserveErrors(t *testing.T) {
	c := newTestCluster(t, Uniform(2, 4), Options{Seed: 1})
	if _, err := c.Reserve(Spec{Name: "a", Count: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reserve(Spec{Name: "a", Count: 1}); err == nil {
		t.Fatal("duplicate reservation name should error")
	}
	if _, err := c.Reserve(Spec{Name: "b", VMs: []string{"a-vm001"}}); err == nil {
		t.Fatal("VM name clash across reservations should error")
	}
	if _, err := c.Reserve(Spec{Name: ""}); err == nil {
		t.Fatal("invalid spec should error")
	}
	if err := c.Release("ghost"); err == nil {
		t.Fatal("release of unknown reservation should error")
	}
	if err := c.Cordon("ghost"); err == nil {
		t.Fatal("cordon of unknown host should error")
	}
	if _, err := c.Drain("ghost"); err == nil {
		t.Fatal("drain of unknown host should error")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(NewStaticBackend(), Options{}); err == nil {
		t.Fatal("empty backend should error")
	}
	if _, err := New(NewStaticBackend(HostInfo{Name: "h", Capacity: 0}), Options{}); err == nil {
		t.Fatal("zero capacity should error")
	}
	if _, err := New(NewStaticBackend(HostInfo{Name: "h", Capacity: 1}, HostInfo{Name: "h", Capacity: 1}), Options{}); err == nil {
		t.Fatal("duplicate host should error")
	}
	if _, err := New(NewStaticBackend(HostInfo{Name: "h", Capacity: -3}), Options{}); err == nil {
		t.Fatal("negative capacity should error")
	}
	if _, err := New(NewStaticBackend(HostInfo{Name: "", Capacity: 4}), Options{}); err == nil {
		t.Fatal("empty host name should error")
	}
	// Open validates Discover the same way New does.
	if _, _, err := Open(t.TempDir(), NewStaticBackend(HostInfo{Name: "", Capacity: 4}), Options{}); err == nil {
		t.Fatal("Open with empty host name should error")
	}
}

// TestPlacementDeterminism: identical (specs, seed) yield byte-identical
// placements, events, and status, run after run; different seeds
// de-correlate the host fill order.
func TestPlacementDeterminism(t *testing.T) {
	run := func(seed uint64) (Status, []Event) {
		c := newTestCluster(t, Uniform(16, 8), Options{Seed: seed})
		specs := []Spec{
			{Name: "web", Count: 20, Tenant: "alice"},
			{Name: "db", Count: 12, Tenant: "bob", Policy: PolicySpread, Weight: 2},
			{Name: "cache", Count: 9, Tenant: "alice", Policy: PolicySpread, Spread: 1},
			{Name: "batch", Count: 70, Tenant: "carol"}, // queues
			{Name: "probe", Count: 6, Tenant: "bob"},
		}
		for _, sp := range specs {
			if _, err := c.Reserve(sp); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Drain("h03"); err != nil && !errors.Is(err, ErrDegraded) {
			t.Fatal(err)
		}
		if _, err := c.FailHost("h07"); err != nil && !errors.Is(err, ErrDegraded) {
			t.Fatal(err)
		}
		if err := c.Release("web"); err != nil {
			t.Fatal(err)
		}
		checkInvariant(t, c)
		return c.Status(), c.Events()
	}
	st1, ev1 := run(42)
	st2, ev2 := run(42)
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("same seed produced different status:\n%s\nvs\n%s", st1.JSON(), st2.JSON())
	}
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("same seed produced different event streams")
	}
	// Different seeds should shuffle which equal hosts fill first for at
	// least one of several tries.
	base, _ := run(1)
	varied := false
	for seed := uint64(2); seed <= 6; seed++ {
		st, _ := run(seed)
		if !reflect.DeepEqual(base.Hosts, st.Hosts) {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("seeds 1..6 all produced identical placements; tie-break not seed-keyed")
	}
}

// TestEqualCapacityTieBreak documents the tie-break: among equally-free
// hosts the order is (seed-keyed FNV hash, then name) — stable at any map
// iteration order, verified by running the same single placement many
// times.
func TestEqualCapacityTieBreak(t *testing.T) {
	var first string
	for i := 0; i < 20; i++ {
		c := newTestCluster(t, Uniform(12, 4), Options{Seed: 9})
		st, err := c.Reserve(Spec{Name: "a", Count: 1})
		if err != nil {
			t.Fatal(err)
		}
		host := st.Placement["a-vm001"]
		if i == 0 {
			first = host
		} else if host != first {
			t.Fatalf("run %d placed on %s, run 0 on %s: tie-break unstable", i, host, first)
		}
	}
}

// TestDrainPropertyNeverLosesVMs drives a random-but-seeded op sequence
// against a model and asserts the multiset invariant after every step:
// drain and fail never lose or duplicate a VM.
func TestDrainPropertyNeverLosesVMs(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		b := Uniform(8, 6)
		c := newTestCluster(t, b, Options{Seed: uint64(seed)})
		hosts := make([]string, 8)
		for i := range hosts {
			hosts[i] = fmt.Sprintf("h%02d", i+1)
		}
		resSeq := 0
		var live []string
		for step := 0; step < 120; step++ {
			switch op := rng.Intn(6); {
			case op <= 1: // reserve
				resSeq++
				name := fmt.Sprintf("r%03d", resSeq)
				sp := Spec{Name: name, Count: 1 + rng.Intn(10), Tenant: fmt.Sprintf("t%d", rng.Intn(3))}
				if rng.Intn(2) == 0 {
					sp.Policy = PolicySpread
				}
				if _, err := c.Reserve(sp); err != nil {
					t.Fatalf("seed %d step %d reserve: %v", seed, step, err)
				}
				live = append(live, name)
			case op == 2 && len(live) > 0: // release
				i := rng.Intn(len(live))
				if err := c.Release(live[i]); err != nil {
					t.Fatalf("seed %d step %d release: %v", seed, step, err)
				}
				live = append(live[:i], live[i+1:]...)
			case op == 3: // drain (tolerate per-state errors)
				h := hosts[rng.Intn(len(hosts))]
				if _, err := c.Drain(h); err != nil && !errors.Is(err, ErrDegraded) {
					// unknown-state errors (already failed) are fine
					_ = err
				}
			case op == 4: // cordon/uncordon toggle
				h := hosts[rng.Intn(len(hosts))]
				if err := c.Cordon(h); err != nil {
					_ = c.Uncordon(h)
				}
			case op == 5 && rng.Intn(4) == 0: // rare hard failure
				h := hosts[rng.Intn(len(hosts))]
				_, _ = c.FailHost(h)
			}
			checkInvariant(t, c)
		}
	}
}

// TestConcurrentFailPlaceDrain exercises interleaved Reserve, Drain,
// FailHost, probe rounds, and status reads under the race detector.
func TestConcurrentFailPlaceDrain(t *testing.T) {
	b := Uniform(12, 8)
	c := newTestCluster(t, b, Options{Seed: 7, Health: HealthPolicy{FailAfter: 2}})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				name := fmt.Sprintf("w%d-r%d", w, i)
				if _, err := c.Reserve(Spec{Name: name, Count: 3, Tenant: fmt.Sprintf("t%d", w)}); err != nil {
					t.Errorf("reserve %s: %v", name, err)
					return
				}
				if i%3 == 2 {
					_ = c.Release(name)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			h := fmt.Sprintf("h%02d", i+1)
			_, _ = c.Drain(h)
			_ = c.Uncordon(h)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = c.FailHost("h12")
		for i := 0; i < 5; i++ {
			c.ProbeAll()
			_ = c.Status()
			_ = c.Events()
		}
	}()
	wg.Wait()
	checkInvariant(t, c)
}

// TestStatusRendering covers the table and JSON output shapes.
func TestStatusRendering(t *testing.T) {
	c := newTestCluster(t, Uniform(2, 4), Options{Seed: 1})
	if _, err := c.Reserve(Spec{Name: "a", Count: 3, Tenant: "alice"}); err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	table := st.Table()
	for _, want := range []string{"HOST", "RESERVATION", "h01", "h02", "alice", "capacity:"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	js := st.JSON()
	for _, want := range []string{`"hosts"`, `"reservations"`, `"capacity"`, `"a-vm001"`} {
		if !strings.Contains(js, want) {
			t.Errorf("JSON missing %q:\n%s", want, js)
		}
	}
	if got := st.Table(); got != table {
		t.Fatal("Table() not deterministic")
	}
}
