package sched

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func preemptOpts() Options {
	return Options{Seed: 2013, Preempt: true, Retry: fastRetry(2)}
}

func resState(t *testing.T, c *Cluster, name string) ReservationStatus {
	t.Helper()
	for _, r := range c.Status().Reservations {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("no reservation %s", name)
	return ReservationStatus{}
}

func TestPreemptEvictsLowerWeight(t *testing.T) {
	c := newTestCluster(t, Uniform(2, 3), preemptOpts())
	// Fill the cluster with a weight-1 tenant.
	if _, err := c.Reserve(Spec{Name: "batch", Count: 6, Tenant: "batch", Weight: 1}); err != nil {
		t.Fatal(err)
	}
	// A weight-5 tenant arrives needing room: the batch job is evicted.
	st, err := c.Reserve(Spec{Name: "prod", Count: 4, Tenant: "prod", Weight: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != ResActive {
		t.Fatalf("prod state = %s", st.State)
	}
	victim := resState(t, c, "batch")
	if victim.State != ResQueued || !victim.Preempted {
		t.Fatalf("victim = %+v", victim)
	}
	checkInvariant(t, c)
	// Releasing prod re-admits the victim and clears the flag.
	if err := c.Release("prod"); err != nil {
		t.Fatal(err)
	}
	victim = resState(t, c, "batch")
	if victim.State != ResActive || victim.Preempted {
		t.Fatalf("victim after release = %+v", victim)
	}
	checkInvariant(t, c)
}

func TestPreemptDisabledByDefault(t *testing.T) {
	c := newTestCluster(t, Uniform(2, 3), Options{Seed: 2013})
	if _, err := c.Reserve(Spec{Name: "batch", Count: 6, Tenant: "batch", Weight: 1}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Reserve(Spec{Name: "prod", Count: 4, Tenant: "prod", Weight: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != ResQueued {
		t.Fatalf("without Preempt, prod should queue, got %s", st.State)
	}
	if v := resState(t, c, "batch"); v.State != ResActive {
		t.Fatalf("batch = %+v", v)
	}
}

func TestPreemptNeverEvictsEqualOrHigherWeight(t *testing.T) {
	c := newTestCluster(t, Uniform(2, 3), preemptOpts())
	if _, err := c.Reserve(Spec{Name: "a", Count: 6, Tenant: "ta", Weight: 3}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Reserve(Spec{Name: "b", Count: 4, Tenant: "tb", Weight: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != ResQueued {
		t.Fatalf("equal weight preempted: %s", st.State)
	}
	if v := resState(t, c, "a"); v.State != ResActive {
		t.Fatalf("a = %+v", v)
	}
}

// TestPreemptVictimOrder: lowest weight evicts first; within a weight,
// the youngest arrival goes first.
func TestPreemptVictimOrder(t *testing.T) {
	c := newTestCluster(t, Uniform(3, 2), preemptOpts())
	// Three 2-VM jobs fill 6 slots: weight 2 (oldest), weight 1 older,
	// weight 1 younger.
	for _, sp := range []Spec{
		{Name: "mid", Count: 2, Tenant: "mid", Weight: 2},
		{Name: "low-old", Count: 2, Tenant: "low1", Weight: 1},
		{Name: "low-young", Count: 2, Tenant: "low2", Weight: 1},
	} {
		if _, err := c.Reserve(sp); err != nil {
			t.Fatal(err)
		}
	}
	// Needs exactly 2 slots: only the youngest weight-1 job is evicted.
	if _, err := c.Reserve(Spec{Name: "prod", Count: 2, Tenant: "prod", Weight: 5}); err != nil {
		t.Fatal(err)
	}
	if v := resState(t, c, "low-young"); v.State != ResQueued || !v.Preempted {
		t.Fatalf("low-young = %+v", v)
	}
	for _, name := range []string{"mid", "low-old"} {
		if v := resState(t, c, name); v.State != ResActive || v.Preempted {
			t.Fatalf("%s = %+v", name, v)
		}
	}
	checkInvariant(t, c)
}

// TestPreemptRollsBackWhenHopeless: when even evicting every candidate
// cannot fit the newcomer, no victim is touched.
func TestPreemptRollsBackWhenHopeless(t *testing.T) {
	c := newTestCluster(t, Uniform(2, 3), preemptOpts())
	if _, err := c.Reserve(Spec{Name: "batch", Count: 6, Tenant: "batch", Weight: 1}); err != nil {
		t.Fatal(err)
	}
	before := c.Status().Hosts
	// 8 VMs can never fit a 6-slot cluster.
	st, err := c.Reserve(Spec{Name: "huge", Count: 8, Tenant: "prod", Weight: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != ResQueued {
		t.Fatalf("huge = %s", st.State)
	}
	if v := resState(t, c, "batch"); v.State != ResActive || v.Preempted {
		t.Fatalf("victim touched by hopeless preemption: %+v", v)
	}
	// Only the new queued reservation differs; every host's placement is
	// exactly as before.
	if after := c.Status().Hosts; !reflect.DeepEqual(before, after) {
		t.Fatalf("host placements changed by hopeless preemption:\nbefore %+v\nafter  %+v", before, after)
	}
	checkInvariant(t, c)
}

// TestPreemptEvictedVictimMayRefit: after eviction, leftover capacity is
// offered back to the queue — a small victim can land elsewhere at once.
func TestPreemptEvictedVictimMayRefit(t *testing.T) {
	c := newTestCluster(t, Uniform(3, 2), preemptOpts())
	if _, err := c.Reserve(Spec{Name: "small", Count: 2, Tenant: "batch", Weight: 1, Policy: PolicyPack}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reserve(Spec{Name: "mid", Count: 2, Tenant: "ops", Weight: 2, Policy: PolicyPack}); err != nil {
		t.Fatal(err)
	}
	// 4 free slots remain but the newcomer wants 4 spread across hosts
	// with 2 free each — eviction of "small" frees a host, and "small"
	// can then re-land on the leftovers.
	if _, err := c.Reserve(Spec{Name: "prod", Count: 4, Tenant: "prod", Weight: 5, Policy: PolicyPack}); err != nil {
		t.Fatal(err)
	}
	prod := resState(t, c, "prod")
	if prod.State != ResActive {
		t.Fatalf("prod = %+v", prod)
	}
	small := resState(t, c, "small")
	if small.State == ResActive && small.Preempted {
		t.Fatalf("re-admitted victim kept its preempted flag: %+v", small)
	}
	checkInvariant(t, c)
}

// TestPreemptReplaysThroughJournal: the eviction happens inside the
// journaled reserve command, so reopening replays it byte-identically.
func TestPreemptReplaysThroughJournal(t *testing.T) {
	for _, snapEvery := range []int{1, 1000} {
		dir := t.TempDir()
		opts := preemptOpts()
		opts.SnapshotEvery = snapEvery
		c, _, err := Open(dir, Uniform(2, 3), opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Reserve(Spec{Name: "batch", Count: 6, Tenant: "batch", Weight: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Reserve(Spec{Name: "prod", Count: 4, Tenant: "prod", Weight: 5}); err != nil {
			t.Fatal(err)
		}
		before := []byte(c.Status().JSON())
		c.Close()
		rec, _, err := Open(dir, Uniform(2, 3), opts)
		if err != nil {
			t.Fatalf("snapEvery=%d: %v", snapEvery, err)
		}
		if after := []byte(rec.Status().JSON()); !bytes.Equal(before, after) {
			t.Fatalf("snapEvery=%d: preemption drifted across replay:\n--- before\n%s\n--- after\n%s",
				snapEvery, before, after)
		}
		rec.Close()
	}
}

// TestPreemptSnapshotModeMismatchRejected: a journal written under one
// preemption mode cannot be reopened under the other — its records were
// decided under that mode.
func TestPreemptSnapshotModeMismatchRejected(t *testing.T) {
	for _, row := range identityRows {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := preemptOpts()
			opts.SnapshotEvery = row.snapshotEvery
			c, _, err := Open(dir, Uniform(2, 3), opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Reserve(Spec{Name: "batch", Count: 2, Tenant: "batch"}); err != nil {
				t.Fatal(err)
			}
			c.Close()
			opts.Preempt = false
			if _, _, err := Open(dir, Uniform(2, 3), opts); err == nil {
				t.Fatal("reopen with flipped preempt mode succeeded")
			} else if !strings.Contains(err.Error(), "preempt") {
				t.Fatalf("unexpected error: %v", err)
			}
		})
	}
}
