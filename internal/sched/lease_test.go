package sched

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// testClock is the injectable lease clock: no wall time in lease tests.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock { return &testClock{t: time.Unix(0, 0).UTC()} }

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func leaseOpts(clk *testClock) Options {
	return Options{
		Seed:  2013,
		Retry: fastRetry(2),
		Lease: LeasePolicy{Enabled: true, TTL: 10 * time.Second, Grace: 20 * time.Second},
		Now:   clk.now,
	}
}

func hostHealth(c *Cluster, host string) Health {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hosts[host].health
}

func TestLeaseSuspectThenDead(t *testing.T) {
	clk := newTestClock()
	c := newTestCluster(t, Uniform(3, 4), leaseOpts(clk))
	if _, err := c.Reserve(Spec{Name: "web", Count: 6}); err != nil {
		t.Fatal(err)
	}

	// Everyone renews inside the TTL: nothing happens.
	clk.advance(8 * time.Second)
	if got := c.HeartbeatAll(); len(got) != 3 {
		t.Fatalf("HeartbeatAll renewed %v", got)
	}
	if tr := c.CheckLeases(); len(tr) != 0 {
		t.Fatalf("transitions after renewal: %v", tr)
	}

	// h01 goes silent: next renewals skip it (simulate by renewing the
	// others explicitly), and past the TTL it is suspected.
	clk.advance(11 * time.Second)
	for _, h := range []string{"h02", "h03"} {
		if err := c.Heartbeat(h); err != nil {
			t.Fatal(err)
		}
	}
	tr := c.CheckLeases()
	if len(tr) != 1 || tr[0].Host != "h01" || tr[0].To != Suspected {
		t.Fatalf("transitions = %v", tr)
	}
	if got := hostHealth(c, "h01"); got != Suspected {
		t.Fatalf("h01 health = %s", got)
	}
	// Suspected: unschedulable, but its VMs stay put.
	if vms := c.VMsOn("h01"); len(vms) == 0 {
		t.Fatal("suspected host lost its VMs prematurely")
	}
	checkInvariant(t, c)

	// Still silent one grace window later: dead, VMs re-placed.
	before := len(c.VMsOn("h01"))
	clk.advance(21 * time.Second)
	for _, h := range []string{"h02", "h03"} {
		if err := c.Heartbeat(h); err != nil {
			t.Fatal(err)
		}
	}
	tr = c.CheckLeases()
	if len(tr) != 1 || tr[0].Host != "h01" || tr[0].To != Dead {
		t.Fatalf("transitions = %v", tr)
	}
	if got := hostHealth(c, "h01"); got != Dead {
		t.Fatalf("h01 health = %s", got)
	}
	if moved := len(tr[0].Moves) + len(tr[0].Stranded); moved != before {
		t.Fatalf("dead transition accounted for %d of %d VMs", moved, before)
	}
	if vms := c.VMsOn("h01"); len(vms) != 0 {
		t.Fatalf("dead host still holds %v", vms)
	}
	checkInvariant(t, c)

	// A late heartbeat resurrects the host.
	if err := c.Heartbeat("h01"); err != nil {
		t.Fatal(err)
	}
	if got := hostHealth(c, "h01"); got != Healthy {
		t.Fatalf("h01 health after late heartbeat = %s", got)
	}
	checkInvariant(t, c)
}

func TestLeaseNeverJumpsHealthyToDead(t *testing.T) {
	clk := newTestClock()
	c := newTestCluster(t, Uniform(2, 2), leaseOpts(clk))
	// Silent far past TTL+Grace: first check only suspects.
	clk.advance(time.Hour)
	tr := c.CheckLeases()
	for _, x := range tr {
		if x.To != Suspected {
			t.Fatalf("first observation produced %v", x)
		}
	}
	// Second observation (still past the windows) may now expire.
	clk.advance(time.Second)
	tr = c.CheckLeases()
	for _, x := range tr {
		if x.To != Dead {
			t.Fatalf("second observation produced %v", x)
		}
	}
}

func TestLeaseSilenceViaFlakyBackendLoop(t *testing.T) {
	clk := newTestClock()
	fb := NewFlakyBackend(Uniform(3, 4), 2013)
	c := newTestCluster(t, fb, leaseOpts(clk))
	if _, err := c.Reserve(Spec{Name: "web", Count: 5}); err != nil {
		t.Fatal(err)
	}
	fb.Silence("h02")
	victims := c.VMsOn("h02")

	// One heartbeat round: everyone but h02 renews.
	clk.advance(5 * time.Second)
	renewed := c.HeartbeatAll()
	if strings.Join(renewed, ",") != "h01,h03" {
		t.Fatalf("renewed = %v", renewed)
	}
	// TTL passes for h02 (the others renewed at +5s).
	clk.advance(6 * time.Second)
	c.HeartbeatAll()
	tr := c.CheckLeases()
	if len(tr) != 1 || tr[0].Host != "h02" || tr[0].To != Suspected {
		t.Fatalf("transitions = %v", tr)
	}
	// Grace passes: dead, and the silenced host's VMs re-place.
	clk.advance(31 * time.Second)
	c.HeartbeatAll()
	tr = c.CheckLeases()
	if len(tr) != 1 || tr[0].To != Dead {
		t.Fatalf("transitions = %v", tr)
	}
	if len(victims) > 0 && len(tr[0].Moves) == 0 && len(tr[0].Stranded) == 0 {
		t.Fatal("dead host's VMs neither moved nor stranded")
	}
	checkInvariant(t, c)

	// Unsilence + heartbeat: resurrection through the same loop.
	fb.Unsilence("h02")
	c.HeartbeatAll()
	if got := hostHealth(c, "h02"); got != Healthy {
		t.Fatalf("h02 after unsilence = %s", got)
	}
}

func TestExpireLeaseSeam(t *testing.T) {
	clk := newTestClock()
	c := newTestCluster(t, Uniform(3, 4), leaseOpts(clk))
	if _, err := c.Reserve(Spec{Name: "web", Count: 4}); err != nil {
		t.Fatal(err)
	}
	res, err := c.ExpireLease("h01")
	if err != nil && !errors.Is(err, ErrDegraded) {
		t.Fatal(err)
	}
	if got := hostHealth(c, "h01"); got != Dead {
		t.Fatalf("h01 health = %s", got)
	}
	if len(res.Moves)+len(res.Stranded) == 0 && res.Host != "h01" {
		t.Fatalf("ExpireLease result = %+v", res)
	}
	checkInvariant(t, c)
	// Idempotence guard: expiring a dead host errors.
	if _, err := c.ExpireLease("h01"); err == nil {
		t.Fatal("ExpireLease on a dead host succeeded")
	}
}

func TestLeaseDisabledIsInert(t *testing.T) {
	c := newTestCluster(t, Uniform(2, 2), Options{Seed: 1})
	if err := c.Heartbeat("h01"); err == nil {
		t.Fatal("Heartbeat succeeded without leases")
	}
	if tr := c.CheckLeases(); tr != nil {
		t.Fatalf("CheckLeases without leases = %v", tr)
	}
	if _, err := c.ExpireLease("h01"); err == nil {
		t.Fatal("ExpireLease succeeded without leases")
	}
}

// TestLeaseTransitionsRecoverByteIdentically: every lease transition is
// journaled, so a crash-and-reopen reproduces suspected/dead state (and
// the re-placements) byte-for-byte.
func TestLeaseTransitionsRecoverByteIdentically(t *testing.T) {
	clk := newTestClock()
	dir := t.TempDir()
	opts := leaseOpts(clk)
	fb := NewFlakyBackend(Uniform(4, 3), 7)
	c, _, err := Open(dir, fb, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reserve(Spec{Name: "web", Count: 6, Tenant: "ops"}); err != nil {
		t.Fatal(err)
	}
	fb.Silence("h01")
	clk.advance(11 * time.Second)
	for _, h := range []string{"h02", "h03", "h04"} {
		if err := c.Heartbeat(h); err != nil {
			t.Fatal(err)
		}
	}
	c.CheckLeases() // h01 suspected
	clk.advance(31 * time.Second)
	for _, h := range []string{"h02", "h03", "h04"} {
		if err := c.Heartbeat(h); err != nil {
			t.Fatal(err)
		}
	}
	c.CheckLeases() // h01 dead, VMs re-placed
	// h04 suspected, left mid-flight at the crash.
	fb.Silence("h04")
	clk.advance(11 * time.Second)
	for _, h := range []string{"h02", "h03"} {
		if err := c.Heartbeat(h); err != nil {
			t.Fatal(err)
		}
	}
	c.CheckLeases()
	if got := hostHealth(c, "h04"); got != Suspected {
		t.Fatalf("h04 = %s", got)
	}

	before := []byte(c.Status().JSON())
	c.Close()

	rec, info, err := Open(dir, NewFlakyBackend(Uniform(4, 3), 7), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if !info.Recovered {
		t.Fatalf("nothing recovered: %+v", info)
	}
	if after := []byte(rec.Status().JSON()); !bytes.Equal(before, after) {
		t.Fatalf("lease state drifted across recovery:\n--- before\n%s\n--- after\n%s", before, after)
	}
	// The recovered suspected host keeps only the grace window: one
	// grace later it dies without a fresh TTL.
	clk.advance(21 * time.Second)
	tr := rec.CheckLeases()
	found := false
	for _, x := range tr {
		if x.Host == "h04" && x.To == Dead {
			found = true
		}
	}
	if !found {
		t.Fatalf("recovered suspected host did not expire after grace: %v", tr)
	}
}

// TestLeaseResurrectionRecovers: the renewed transition (suspected ->
// healthy) is a journal record too.
func TestLeaseResurrectionRecovers(t *testing.T) {
	clk := newTestClock()
	dir := t.TempDir()
	opts := leaseOpts(clk)
	c, _, err := Open(dir, Uniform(2, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(11 * time.Second)
	if err := c.Heartbeat("h02"); err != nil {
		t.Fatal(err)
	}
	c.CheckLeases() // h01 suspected
	if err := c.Heartbeat("h01"); err != nil {
		t.Fatal(err)
	}
	if got := hostHealth(c, "h01"); got != Healthy {
		t.Fatalf("h01 = %s", got)
	}
	before := []byte(c.Status().JSON())
	c.Close()
	rec, _, err := Open(dir, Uniform(2, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if after := []byte(rec.Status().JSON()); !bytes.Equal(before, after) {
		t.Fatalf("resurrection lost across recovery:\n--- before\n%s\n--- after\n%s", before, after)
	}
}

// TestLeaseExpiryConcurrentDrain interleaves clock-driven lease expiry
// with a concurrent drain and concurrent reservations under -race: the
// invariant (every VM placed or stranded exactly once) must hold
// whatever the interleaving.
func TestLeaseExpiryConcurrentDrain(t *testing.T) {
	clk := newTestClock()
	opts := leaseOpts(clk)
	opts.Retry = fastRetry(2)
	c := newTestCluster(t, Uniform(6, 4), opts)
	for i := 0; i < 4; i++ {
		if _, err := c.Reserve(Spec{Name: fmt.Sprintf("r%d", i), Count: 4, Tenant: fmt.Sprintf("t%d", i)}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			clk.advance(2 * time.Second)
			// h01 never renews; the rest do.
			for _, h := range []string{"h02", "h03", "h04", "h05", "h06"} {
				_ = c.Heartbeat(h)
			}
			c.CheckLeases()
		}
	}()
	go func() {
		defer wg.Done()
		_, _ = c.Drain("h02")
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			name := fmt.Sprintf("extra%d", i)
			_, _ = c.Reserve(Spec{Name: name, Count: 1, Tenant: "spare"})
			_ = c.Release(name)
		}
	}()
	wg.Wait()
	if got := hostHealth(c, "h01"); got != Dead {
		t.Fatalf("h01 after sustained silence = %s", got)
	}
	checkInvariant(t, c)
}
