package sched

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"autonetkit/internal/journal"
	"autonetkit/internal/retry"
)

// instantRetry keeps drain retries deterministic and sleepless.
func instantRetry() retry.Policy {
	return retry.Policy{MaxAttempts: 2, Sleep: func(time.Duration) {}}
}

func statusJSON(t *testing.T, c *Cluster) []byte {
	t.Helper()
	return []byte(c.Status().JSON())
}

// durableState snapshots a cluster's full durable state for DeepEqual
// comparison (the same encoding compaction persists).
func durableState(t *testing.T, c *Cluster) []byte {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	raw, err := c.snapshotLocked()
	if err != nil {
		t.Fatalf("snapshotLocked: %v", err)
	}
	return raw
}

func TestOpenFreshThenReopenByteIdentical(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Seed: 2013, Retry: instantRetry()}
	c, info, err := Open(dir, Uniform(4, 4), opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if info.Recovered {
		t.Fatalf("fresh dir reported recovery: %+v", info)
	}
	mustReserve := func(spec string) {
		sp, err := ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Reserve(sp); err != nil {
			t.Fatalf("Reserve(%s): %v", spec, err)
		}
	}
	mustReserve("alpha vms=5 tenant=ops")
	mustReserve("beta vms=3 tenant=dev policy=spread")
	mustReserve("gamma vms=9 tenant=ops") // queues: 17 > capacity 16 - placed 8
	if err := c.Cordon("h02"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Drain("h03"); err != nil && !errors.Is(err, ErrDegraded) {
		t.Fatal(err)
	}
	before := statusJSON(t, c)
	beforeState := durableState(t, c)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := c.Reserve(Spec{Name: "late", Count: 1}); err == nil {
		t.Fatal("Reserve after Close succeeded")
	}

	c2, info2, err := Open(dir, Uniform(4, 4), opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer c2.Close()
	if !info2.Recovered || info2.Records == 0 {
		t.Fatalf("reopen info = %+v", info2)
	}
	if after := statusJSON(t, c2); !bytes.Equal(before, after) {
		t.Fatalf("status drifted across reopen:\n--- before\n%s\n--- after\n%s", before, after)
	}
	if afterState := durableState(t, c2); !bytes.Equal(beforeState, afterState) {
		t.Fatalf("durable state drifted across reopen:\n%s\nvs\n%s", beforeState, afterState)
	}
	// And the recovered cluster keeps working: freed + uncordoned capacity
	// admits the queued reservation.
	if err := c2.Release("alpha"); err != nil {
		t.Fatal(err)
	}
	if err := c2.Uncordon("h02"); err != nil {
		t.Fatal(err)
	}
	if err := c2.Uncordon("h03"); err != nil {
		t.Fatal(err)
	}
	st, ok := c2.Reservation("gamma")
	if !ok || st.State != ResActive {
		t.Fatalf("gamma after release = %+v", st)
	}
}

// Each mismatch test runs twice: with a snapshot after every record, and
// with the default compaction interval, where the journal is wal-only and
// its first record's Base carries the identity the snapshot would.
var identityRows = []struct {
	name          string
	snapshotEvery int
}{{"snapshot", 1}, {"wal-only", 0}}

func TestOpenSeedMismatchRejected(t *testing.T) {
	for _, row := range identityRows {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Seed: 1, SnapshotEvery: row.snapshotEvery}
			c, _, err := Open(dir, Uniform(2, 2), opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Reserve(Spec{Name: "r", Count: 1}); err != nil {
				t.Fatal(err)
			}
			c.Close()
			if _, _, err := Open(dir, Uniform(2, 2), Options{Seed: 2}); err == nil {
				t.Fatal("seed mismatch accepted")
			} else if !strings.Contains(err.Error(), "seed") {
				t.Fatalf("unexpected error: %v", err)
			}
			rc, _, err := Open(dir, Uniform(2, 2), opts)
			if err != nil {
				t.Fatalf("matching reopen: %v", err)
			}
			rc.Close()
		})
	}
}

func TestOpenBackendMismatchRejected(t *testing.T) {
	for _, row := range identityRows {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Seed: 7, SnapshotEvery: row.snapshotEvery}
			c, _, err := Open(dir, Uniform(3, 4), opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Reserve(Spec{Name: "r", Count: 1}); err != nil {
				t.Fatal(err)
			}
			c.Close()
			if _, _, err := Open(dir, Uniform(4, 4), opts); err == nil {
				t.Fatal("host-count mismatch accepted")
			}
			if _, _, err := Open(dir, Uniform(3, 8), opts); err == nil {
				t.Fatal("capacity mismatch accepted")
			}
		})
	}
}

// durableOp is one scripted mutation for the property and crash tests.
// Every op is deterministic given the backend's pure fault injectors.
type durableOp struct {
	desc string
	run  func(c *Cluster) error
}

// opSequence builds a deterministic pseudo-random op sequence. The rng
// only picks which ops appear — each op's behaviour is a pure function of
// cluster state, so the same sequence always produces the same states.
func opSequence(rng *rand.Rand, n int) []durableOp {
	return opSequenceLease(rng, n, false)
}

// opSequenceLease optionally mixes in lease collapses (ExpireLease).
// Those journal two records per op, so the crash matrix — whose
// invariant is "recovered state matches pre- or post-op exactly" —
// keeps them out and covers them in a dedicated mid-expiry test.
func opSequenceLease(rng *rand.Rand, n int, withExpire bool) []durableOp {
	hosts := []string{"h01", "h02", "h03", "h04", "h05"}
	var ops []durableOp
	resSeq := 0
	for i := 0; i < n; i++ {
		pick := rng.Intn(12)
		if !withExpire && pick == 10 {
			pick = 11
		}
		switch pick {
		case 0, 1, 2:
			resSeq++
			name := fmt.Sprintf("res%02d", resSeq)
			tenant := []string{"ops", "dev", "qa"}[rng.Intn(3)]
			count := 1 + rng.Intn(6)
			policy := PolicyPack
			if rng.Intn(2) == 0 {
				policy = PolicySpread
			}
			// Distinct weights make preemption live when Options.Preempt
			// is on; the rng only picks the weight, so the op itself stays
			// a pure function of cluster state.
			sp := Spec{Name: name, Tenant: tenant, Count: count, Policy: policy, Weight: 1 + rng.Intn(3)}
			ops = append(ops, durableOp{
				desc: "reserve " + name,
				run:  func(c *Cluster) error { _, err := c.Reserve(sp); return err },
			})
		case 3:
			name := fmt.Sprintf("res%02d", 1+rng.Intn(resSeq+1))
			ops = append(ops, durableOp{
				desc: "release " + name,
				run:  func(c *Cluster) error { return c.Release(name) },
			})
		case 4:
			h := hosts[rng.Intn(len(hosts))]
			ops = append(ops, durableOp{
				desc: "cordon " + h,
				run:  func(c *Cluster) error { return c.Cordon(h) },
			})
		case 5:
			h := hosts[rng.Intn(len(hosts))]
			ops = append(ops, durableOp{
				desc: "uncordon " + h,
				run:  func(c *Cluster) error { return c.Uncordon(h) },
			})
		case 6:
			h := hosts[rng.Intn(len(hosts))]
			ops = append(ops, durableOp{
				desc: "drain " + h,
				run:  func(c *Cluster) error { _, err := c.Drain(h); return err },
			})
		case 7:
			h := hosts[rng.Intn(len(hosts))]
			ops = append(ops, durableOp{
				desc: "fail-host " + h,
				run:  func(c *Cluster) error { _, err := c.FailHost(h); return err },
			})
		case 9:
			h := hosts[rng.Intn(len(hosts))]
			ops = append(ops, durableOp{
				desc: "heartbeat " + h,
				run: func(c *Cluster) error {
					err := c.Heartbeat(h)
					if err != nil && !strings.Contains(err.Error(), "not enabled") &&
						!strings.Contains(err.Error(), "has failed") {
						return err
					}
					return nil
				},
			})
		case 10:
			h := hosts[rng.Intn(len(hosts))]
			ops = append(ops, durableOp{
				desc: "expire-lease " + h,
				run: func(c *Cluster) error {
					_, err := c.ExpireLease(h)
					return err
				},
			})
		default:
			ops = append(ops, durableOp{
				desc: "probe round",
				run:  func(c *Cluster) error { c.ProbeAll(); return nil },
			})
		}
	}
	return ops
}

// flakyBackend returns a 5-host backend whose probe and migrate faults
// are pure functions of their arguments — replay determinism depends on
// the backend giving the same answer to the same question every time.
func flakyBackend() *StaticBackend {
	b := Uniform(5, 4)
	b.SetProbeFunc(func(host string) error {
		if host == "h04" {
			return errors.New("h04 times out")
		}
		return nil
	})
	b.SetMigrateFunc(func(vm, from, to string, attempt int) error {
		if vm == "res02-vm002" { // this VM never migrates successfully
			return errors.New("stuck VM")
		}
		return nil
	})
	return b
}

// TestReplayEquivalenceProperty journals random op sequences and checks,
// per (seed × snapshot cadence), that the recovered cluster's full state
// DeepEquals the live one's.
func TestReplayEquivalenceProperty(t *testing.T) {
	for _, seed := range []int64{1, 42, 2013} {
		for _, every := range []int{1, 3, 1000} { // compact constantly / often / never
			t.Run(fmt.Sprintf("seed=%d/snapshotEvery=%d", seed, every), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				ops := opSequenceLease(rng, 40, true)
				dir := t.TempDir()
				opts := Options{
					Seed:          uint64(seed),
					Retry:         instantRetry(),
					SnapshotEvery: every,
					Health:        HealthPolicy{FailAfter: 2, RecoverAfter: 1},
					Lease:         LeasePolicy{Enabled: true},
					Preempt:       true,
				}
				live, _, err := Open(dir, flakyBackend(), opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, op := range ops {
					if err := op.run(live); err != nil && !errors.Is(err, ErrDegraded) &&
						(errors.Is(err, journal.ErrCrashed) || errors.Is(err, journal.ErrInjected)) {
						t.Fatalf("%s: unexpected journal failure: %v", op.desc, err)
					}
				}
				liveState := durableState(t, live)
				liveStatus := statusJSON(t, live)
				live.Close()

				rec, info, err := Open(dir, flakyBackend(), opts)
				if err != nil {
					t.Fatalf("recovery Open: %v", err)
				}
				defer rec.Close()
				if !info.Recovered {
					t.Fatalf("nothing recovered: %+v", info)
				}
				recState := durableState(t, rec)
				if !reflect.DeepEqual(liveState, recState) {
					t.Fatalf("recovered state != live state\n--- live\n%s\n--- recovered\n%s", liveState, recState)
				}
				if recStatus := statusJSON(t, rec); !bytes.Equal(liveStatus, recStatus) {
					t.Fatalf("recovered status != live status\n--- live\n%s\n--- recovered\n%s", liveStatus, recStatus)
				}
			})
		}
	}
}

// checkInvariants asserts the placement consistency properties that no
// crash is allowed to break: every reservation's VMs are placed or
// stranded exactly once, host maps mirror placements, no host exceeds
// capacity, and no VM appears under two reservations.
func checkInvariants(t *testing.T, c *Cluster, tag string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	vmOwner := map[string]string{}
	for name, r := range c.res {
		placed := map[string]bool{}
		for vm, host := range r.placement {
			h, ok := c.hosts[host]
			if !ok {
				t.Fatalf("%s: %s places %s on unknown host %s", tag, name, vm, host)
			}
			if h.vms[vm] != name {
				t.Fatalf("%s: host %s map says %s owns %s, reservation %s claims it", tag, host, h.vms[vm], vm, name)
			}
			if r.stranded[vm] {
				t.Fatalf("%s: %s has VM %s both placed and stranded", tag, name, vm)
			}
			placed[vm] = true
			if prev, dup := vmOwner[vm]; dup {
				t.Fatalf("%s: VM %s owned by both %s and %s", tag, vm, prev, name)
			}
			vmOwner[vm] = name
		}
		inVMs := map[string]bool{}
		for _, vm := range r.vms {
			inVMs[vm] = true
		}
		for vm := range r.placement {
			if !inVMs[vm] {
				t.Fatalf("%s: %s placed unknown VM %s", tag, name, vm)
			}
		}
		for vm := range r.stranded {
			if !inVMs[vm] {
				t.Fatalf("%s: %s stranded unknown VM %s", tag, name, vm)
			}
		}
		switch r.state {
		case ResActive:
			if len(r.placement) != len(r.vms) || len(r.stranded) != 0 {
				t.Fatalf("%s: active %s has %d/%d placed, %d stranded", tag, name, len(r.placement), len(r.vms), len(r.stranded))
			}
		case ResQueued:
			if len(r.placement) != 0 {
				t.Fatalf("%s: queued %s has placements", tag, name)
			}
		}
	}
	for host, h := range c.hosts {
		if len(h.vms) > h.info.Capacity {
			t.Fatalf("%s: host %s holds %d VMs on capacity %d", tag, host, len(h.vms), h.info.Capacity)
		}
		for vm, resName := range h.vms {
			r, ok := c.res[resName]
			if !ok {
				t.Fatalf("%s: host %s holds VM %s of unknown reservation %s", tag, host, vm, resName)
			}
			if r.placement[vm] != host {
				t.Fatalf("%s: host %s holds %s but reservation places it on %s", tag, host, vm, r.placement[vm])
			}
		}
	}
}

// TestSchedCrashMatrix is the tentpole's robustness proof: it kills the
// journal at every I/O step of a randomized op sequence (with whole and
// torn final writes) and asserts that sched.Open always recovers a
// consistent cluster whose status is byte-identical to the state either
// before or after the op in flight — no reservation lost, duplicated, or
// double-placed, extending the drain multiset property to crashes.
func TestSchedCrashMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ops := opSequence(rng, 25)
	opts := func(fp *journal.Failpoints) Options {
		return Options{
			Seed:          99,
			Retry:         instantRetry(),
			SnapshotEvery: 5, // exercise compaction crash points too
			Health:        HealthPolicy{FailAfter: 2, RecoverAfter: 1},
			Lease:         LeasePolicy{Enabled: true},
			Preempt:       true,
			Journal:       journal.Options{Fail: fp},
		}
	}

	// Dry run: record the status after every op and count I/O steps.
	fp := &journal.Failpoints{}
	dry, _, err := Open(t.TempDir(), flakyBackend(), opts(fp))
	if err != nil {
		t.Fatal(err)
	}
	fp.Arm(0, 0)
	statuses := make([][]byte, 0, len(ops)+1)
	statuses = append(statuses, statusJSON(t, dry))
	for _, op := range ops {
		if err := op.run(dry); err != nil && (errors.Is(err, journal.ErrCrashed) || errors.Is(err, journal.ErrInjected)) {
			t.Fatalf("dry run: %s: %v", op.desc, err)
		}
		statuses = append(statuses, statusJSON(t, dry))
	}
	steps := fp.Steps()
	dry.Close()
	if steps < len(ops) {
		t.Fatalf("only %d I/O steps for %d ops", steps, len(ops))
	}

	crashed := func(c *Cluster) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.journalErr != nil
	}

	for failAt := 1; failAt <= steps; failAt++ {
		for _, torn := range []float64{0, 0.6, 1} {
			tag := fmt.Sprintf("failAt=%d torn=%.1f", failAt, torn)
			dir := t.TempDir()
			mfp := &journal.Failpoints{}
			c, _, err := Open(dir, flakyBackend(), opts(mfp))
			if err != nil {
				t.Fatalf("%s: Open: %v", tag, err)
			}
			mfp.Arm(failAt, torn)
			k := -1 // index of the op the crash hit
			for i, op := range ops {
				op.run(c)
				if crashed(c) {
					k = i
					break
				}
			}
			fired, point := mfp.Fired()
			if !fired || k < 0 {
				t.Fatalf("%s: failpoint did not fire during ops (fired=%v)", tag, fired)
			}
			c.Close()

			mfp.Arm(0, 0)
			rec, _, err := Open(dir, flakyBackend(), opts(mfp))
			if err != nil {
				t.Fatalf("%s (point %s, op %q): recovery failed: %v", tag, point, ops[k].desc, err)
			}
			checkInvariants(t, rec, tag)
			got := statusJSON(t, rec)
			if !bytes.Equal(got, statuses[k]) && !bytes.Equal(got, statuses[k+1]) {
				t.Fatalf("%s (point %s, op %q): recovered status matches neither pre- nor post-op state\n--- recovered\n%s\n--- pre\n%s\n--- post\n%s",
					tag, point, ops[k].desc, got, statuses[k], statuses[k+1])
			}
			// The recovered cluster must accept new work.
			if _, err := rec.Reserve(Spec{Name: "post-crash", Tenant: "qa", Count: 1}); err != nil && !errors.Is(err, ErrDegraded) {
				if !errors.Is(err, journal.ErrCrashed) && !errors.Is(err, journal.ErrInjected) {
					// Queued is fine; only journal failures are fatal here.
					t.Fatalf("%s: post-recovery Reserve: %v", tag, err)
				}
				t.Fatalf("%s: journal unusable after recovery: %v", tag, err)
			}
			rec.Close()
		}
	}
}

// TestCrashMidPreemption kills the journal at every I/O step of a
// preempting reserve. The eviction lives inside one reserve command
// record, so recovery lands exactly pre- or post-reserve: either the
// victim is still active and the newcomer absent, or the victim is
// preempted/queued and the newcomer placed — never half an eviction.
func TestCrashMidPreemption(t *testing.T) {
	setup := func(fp *journal.Failpoints) (string, *Cluster) {
		dir := t.TempDir()
		opts := Options{
			Seed:          3,
			Retry:         instantRetry(),
			SnapshotEvery: 2, // the preempting reserve also crosses a compaction
			Preempt:       true,
			Journal:       journal.Options{Fail: fp},
		}
		c, _, err := Open(dir, Uniform(2, 3), opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Reserve(Spec{Name: "batch", Count: 6, Tenant: "batch", Weight: 1}); err != nil {
			t.Fatal(err)
		}
		return dir, c
	}

	// Dry run: how many I/O steps does the preempting reserve take?
	fp := &journal.Failpoints{}
	_, dry := setup(fp)
	fp.Arm(0, 0)
	if _, err := dry.Reserve(Spec{Name: "prod", Count: 4, Tenant: "prod", Weight: 5}); err != nil {
		t.Fatal(err)
	}
	steps := fp.Steps()
	pre := `"batch","tenant":"batch","state":"active"`
	dry.Close()
	if steps == 0 {
		t.Fatal("preempting reserve performed no journal I/O")
	}
	_ = pre

	for failAt := 1; failAt <= steps; failAt++ {
		for _, torn := range []float64{0, 1} {
			tag := fmt.Sprintf("failAt=%d torn=%.0f", failAt, torn)
			mfp := &journal.Failpoints{}
			dir, c := setup(mfp)
			preStatus := statusJSON(t, c)
			mfp.Arm(failAt, torn)
			_, rerr := c.Reserve(Spec{Name: "prod", Count: 4, Tenant: "prod", Weight: 5})
			if rerr == nil {
				t.Fatalf("%s: reserve survived the armed failpoint", tag)
			}
			c.Close()
			mfp.Arm(0, 0)
			rec, _, err := Open(dir, Uniform(2, 3), Options{
				Seed: 3, Retry: instantRetry(), SnapshotEvery: 2, Preempt: true,
				Journal: journal.Options{Fail: mfp},
			})
			if err != nil {
				t.Fatalf("%s: recovery: %v", tag, err)
			}
			checkInvariants(t, rec, tag)
			st := rec.Status()
			var batch, prod *ReservationStatus
			for i := range st.Reservations {
				switch st.Reservations[i].Name {
				case "batch":
					batch = &st.Reservations[i]
				case "prod":
					prod = &st.Reservations[i]
				}
			}
			if batch == nil {
				t.Fatalf("%s: victim reservation lost", tag)
			}
			switch {
			case prod == nil: // pre-reserve state
				if got := statusJSON(t, rec); !bytes.Equal(got, preStatus) {
					t.Fatalf("%s: pre-reserve state drifted\n--- recovered\n%s\n--- pre\n%s", tag, got, preStatus)
				}
			default: // post-reserve state
				if prod.State != ResActive || batch.State != ResQueued || !batch.Preempted {
					t.Fatalf("%s: half-applied preemption: prod=%+v batch=%+v", tag, prod, batch)
				}
			}
			rec.Close()
		}
	}
}

// TestCrashMidLeaseExpiry: ExpireLease journals two records (suspect,
// then dead-with-moves). A crash between them recovers a Suspected host
// — a valid intermediate state the lease loop finishes off — and a
// crash after either boundary recovers exactly that boundary.
func TestCrashMidLeaseExpiry(t *testing.T) {
	mkOpts := func(fp *journal.Failpoints) Options {
		return Options{
			Seed:          11,
			Retry:         instantRetry(),
			SnapshotEvery: 1000,
			Lease:         LeasePolicy{Enabled: true},
			Journal:       journal.Options{Fail: fp},
		}
	}
	setup := func(fp *journal.Failpoints) (string, *Cluster) {
		dir := t.TempDir()
		c, _, err := Open(dir, Uniform(3, 4), mkOpts(fp))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Reserve(Spec{Name: "web", Count: 6, Tenant: "ops"}); err != nil {
			t.Fatal(err)
		}
		return dir, c
	}

	fp := &journal.Failpoints{}
	_, dry := setup(fp)
	fp.Arm(0, 0)
	if _, err := dry.ExpireLease("h01"); err != nil && !errors.Is(err, ErrDegraded) {
		t.Fatal(err)
	}
	steps := fp.Steps()
	dry.Close()
	if steps < 2 {
		t.Fatalf("expire journaled %d I/O steps, want >= 2 (suspect + dead)", steps)
	}

	for failAt := 1; failAt <= steps; failAt++ {
		for _, torn := range []float64{0, 1} {
			tag := fmt.Sprintf("failAt=%d torn=%.0f", failAt, torn)
			mfp := &journal.Failpoints{}
			dir, c := setup(mfp)
			mfp.Arm(failAt, torn)
			if _, err := c.ExpireLease("h01"); err == nil {
				t.Fatalf("%s: expire survived the armed failpoint", tag)
			}
			c.Close()
			mfp.Arm(0, 0)
			rec, _, err := Open(dir, Uniform(3, 4), mkOpts(mfp))
			if err != nil {
				t.Fatalf("%s: recovery: %v", tag, err)
			}
			checkInvariants(t, rec, tag)
			rec.mu.Lock()
			h := rec.hosts["h01"].health
			vms := len(rec.hosts["h01"].vms)
			rec.mu.Unlock()
			switch h {
			case Healthy: // crash before the suspect record landed
			case Suspected: // valid intermediate: VMs still aboard
				if vms == 0 {
					t.Fatalf("%s: suspected host already emptied", tag)
				}
				// The lease machinery can finish the collapse after recovery.
				if _, err := rec.ExpireLease("h01"); err != nil && !errors.Is(err, ErrDegraded) {
					t.Fatalf("%s: finishing the collapse: %v", tag, err)
				}
				if got := hostHealth(rec, "h01"); got != Dead {
					t.Fatalf("%s: collapse did not finish: %s", tag, got)
				}
			case Dead: // both records landed
				if vms != 0 {
					t.Fatalf("%s: dead host still holds %d VMs", tag, vms)
				}
			default:
				t.Fatalf("%s: unexpected health %s", tag, h)
			}
			checkInvariants(t, rec, tag+" (post)")
			rec.Close()
		}
	}
}
