package deploy

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"autonetkit/internal/emul"
	"autonetkit/internal/obs"
	"autonetkit/internal/retry"
	"autonetkit/internal/sched"
)

func TestRunClusterHappyPath(t *testing.T) {
	fs := renderedLab(t)
	col := obs.NewCollector()
	dep, err := RunCluster(context.Background(), fs, sched.Uniform(2, 2), ClusterOptions{Options: Options{Obs: col}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dep.Lab() == nil || len(dep.Lab().VMNames()) != 3 {
		t.Fatalf("lab = %v", dep.Lab())
	}
	if len(dep.Placement) != 3 || len(dep.FailedHosts) != 0 || len(dep.StrandedVMs) != 0 {
		t.Errorf("deployment = %+v", dep.Deployment)
	}
	stages := eventStages(dep.Events())
	for _, want := range []string{"archive", "transfer", "extract", "place", "boot", "sched", "lstart", "done"} {
		if stages[want] == 0 {
			t.Errorf("missing stage %q in %v", want, dep.Events())
		}
	}
	if stages["boot"] != 2 {
		t.Errorf("boot events = %d, want one per host", stages["boot"])
	}
	st, ok := dep.Cluster.Reservation(dep.Reservation)
	if !ok || st.State != sched.ResActive {
		t.Fatalf("reservation = %+v", st)
	}
	if _, ok := col.Snapshot().Span("ClusterDeploy"); !ok {
		t.Error("no ClusterDeploy span")
	}
}

func TestRunClusterQueuedCapacityDegrades(t *testing.T) {
	fs := renderedLab(t)
	dep, err := RunCluster(context.Background(), fs, sched.Uniform(1, 2), ClusterOptions{Seed: 1})
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("err = %v, want ErrDegraded for 3 VMs on 2 slots", err)
	}
	if dep.Lab() != nil {
		t.Error("queued deployment launched a lab")
	}
	if eventStages(dep.Events())["degraded"] != 1 {
		t.Errorf("events = %v", dep.Events())
	}
}

func TestRunClusterReplacesDeadBootHost(t *testing.T) {
	fs := renderedLab(t)
	b := sched.NewStaticBackend(
		sched.HostInfo{Name: "h1", Capacity: 2},
		sched.HostInfo{Name: "h2", Capacity: 4},
	)
	col := obs.NewCollector()
	dep, err := RunCluster(context.Background(), fs, b, ClusterOptions{
		Options: Options{Obs: col},
		Seed:    1,
		Boot: func(host string, vms []string, attempt int) error {
			if host == "h1" {
				return fmt.Errorf("host is on fire")
			}
			return nil
		},
		Retry: retry.Policy{MaxAttempts: 2, Sleep: func(time.Duration) {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dep.Lab() == nil {
		t.Fatal("no lab after graceful re-placement")
	}
	if len(dep.FailedHosts) != 1 || dep.FailedHosts[0] != "h1" {
		t.Errorf("failed hosts = %v", dep.FailedHosts)
	}
	for vm, host := range dep.Placement {
		if host != "h2" {
			t.Errorf("%s placed on %s after h1 died", vm, host)
		}
	}
	stages := eventStages(dep.Events())
	if stages["host-failed"] != 1 || stages["replace"] != 2 {
		t.Errorf("events = %v", dep.Events())
	}
	snap := col.Snapshot()
	if snap.Counters[CounterHostsFailed] != 1 || snap.Counters[obs.CounterVMsReplaced] != 2 {
		t.Errorf("counters = %v", snap.Counters)
	}
	if got := dep.Cluster.VMsOn("h1"); len(got) != 0 {
		t.Errorf("dead host still holds %v", got)
	}
}

func TestRunClusterDegradesWithoutSurvivingCapacity(t *testing.T) {
	fs := renderedLab(t)
	b := sched.NewStaticBackend(
		sched.HostInfo{Name: "h1", Capacity: 2},
		sched.HostInfo{Name: "h2", Capacity: 1},
	)
	dep, err := RunCluster(context.Background(), fs, b, ClusterOptions{
		Seed: 1,
		Boot: func(host string, vms []string, attempt int) error {
			if host == "h1" {
				return fmt.Errorf("host is on fire")
			}
			return nil
		},
		Retry: retry.Policy{MaxAttempts: 2, Sleep: func(time.Duration) {}},
	})
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("err = %v, want ErrDegraded", err)
	}
	if dep == nil {
		t.Fatal("degraded deployment state discarded")
	}
	if dep.Lab() != nil {
		t.Error("degraded deployment launched a partial lab")
	}
	if len(dep.StrandedVMs) != 2 {
		t.Errorf("stranded = %v", dep.StrandedVMs)
	}
	if eventStages(dep.Events())["degraded"] != 1 {
		t.Errorf("events = %v", dep.Events())
	}
}

func TestClusterDeploymentDrainHost(t *testing.T) {
	fs := renderedLab(t)
	col := obs.NewCollector()
	dep, err := RunCluster(context.Background(), fs, sched.Uniform(3, 2), ClusterOptions{Options: Options{Obs: col}, Seed: 1, Policy: sched.PolicySpread})
	if err != nil {
		t.Fatal(err)
	}
	// Find a host carrying VMs and drain it live.
	var victim string
	for _, host := range dep.Placement {
		victim = host
		break
	}
	moved, stranded, err := dep.DrainHost(victim)
	if err != nil {
		t.Fatalf("drain %s: %v", victim, err)
	}
	if len(stranded) != 0 {
		t.Fatalf("stranded = %v", stranded)
	}
	if len(moved) == 0 {
		t.Fatal("nothing moved")
	}
	if got := dep.Cluster.VMsOn(victim); len(got) != 0 {
		t.Fatalf("%s still holds %v", victim, got)
	}
	for _, vm := range moved {
		if dep.Placement[vm] == victim {
			t.Fatalf("placement map still points %s at drained host", vm)
		}
	}
	// The moved VMs re-booted their device configs in one batch.
	var rebooted bool
	for _, ev := range dep.Lab().Events() {
		if strings.Contains(ev, "re-placement re-booted") {
			rebooted = true
		}
	}
	if !rebooted {
		t.Errorf("no batch re-boot in lab log: %v", dep.Lab().Events())
	}
	if got := col.Snapshot().Counters[obs.CounterHostCordoned]; got != 1 {
		t.Errorf("host_cordoned = %d", got)
	}
}

func TestClusterDeploymentFailHost(t *testing.T) {
	fs := renderedLab(t)
	dep, err := RunCluster(context.Background(), fs, sched.Uniform(3, 3), ClusterOptions{Seed: 1, Policy: sched.PolicySpread})
	if err != nil {
		t.Fatal(err)
	}
	var victim string
	for _, host := range dep.Placement {
		victim = host
		break
	}
	moved, stranded, err := dep.FailHost(victim)
	if err != nil {
		t.Fatalf("fail %s: %v", victim, err)
	}
	if len(stranded) != 0 {
		t.Fatalf("stranded = %v", stranded)
	}
	if len(moved) == 0 {
		t.Fatal("nothing re-placed")
	}
	// The outage was visible (batch down) and then healed (batch re-boot).
	var sawDown, sawReboot bool
	for _, ev := range dep.Lab().Events() {
		if strings.Contains(ev, "host failure downed") {
			sawDown = true
		}
		if strings.Contains(ev, "re-placement re-booted") {
			sawReboot = true
		}
	}
	if !sawDown || !sawReboot {
		t.Errorf("lab log missing outage/heal: down=%v reboot=%v", sawDown, sawReboot)
	}
	// A failed host cannot be drained afterwards.
	if _, _, err := dep.DrainHost(victim); err == nil {
		t.Error("drain of failed host should error")
	}
}

func TestRunClusterDurableCrashRecover(t *testing.T) {
	fs := renderedLab(t)
	dir := t.TempDir()
	dep, err := RunCluster(context.Background(), fs, sched.Uniform(3, 2), ClusterOptions{
		Seed:     2013,
		Policy:   sched.PolicySpread,
		StateDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	var victim string
	for _, host := range dep.Placement {
		victim = host
		break
	}
	if _, _, err := dep.DrainHost(victim); err != nil {
		t.Fatalf("drain %s: %v", victim, err)
	}
	before := dep.Cluster.Status().JSON()

	summary, err := dep.CrashSched()
	if err != nil {
		t.Fatalf("crash-sched: %v", err)
	}
	if !strings.Contains(summary, "byte-identical") {
		t.Errorf("summary = %q", summary)
	}
	if got := dep.Cluster.Status().JSON(); got != before {
		t.Errorf("status changed across crash:\nbefore: %s\nafter: %s", before, got)
	}
	// The recovered scheduler keeps working: uncordon the drained host and
	// drain another one.
	if err := dep.Cluster.Uncordon(victim); err != nil {
		t.Fatalf("uncordon after recovery: %v", err)
	}
	if eventStages(dep.Events())["crash-sched"] == 0 {
		t.Errorf("no crash-sched event: %v", dep.Events())
	}
}

func TestRunClusterReleasesStaleRecoveredReservation(t *testing.T) {
	fs := renderedLab(t)
	dir := t.TempDir()
	first, err := RunCluster(context.Background(), fs, sched.Uniform(2, 2), ClusterOptions{Seed: 7, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Cluster.Close(); err != nil {
		t.Fatal(err)
	}
	// Same state dir, same seed: the prior run's "lab" reservation must be
	// released and re-reserved, not collide.
	second, err := RunCluster(context.Background(), renderedLab(t), sched.Uniform(2, 2), ClusterOptions{Seed: 7, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Cluster.Close()
	if !second.Recovery.Recovered {
		t.Error("second run did not recover prior state")
	}
	if eventStages(second.Events())["recover"] == 0 {
		t.Errorf("no recover event: %v", second.Events())
	}
	st, ok := second.Cluster.Reservation(second.Reservation)
	if !ok || st.State != sched.ResActive {
		t.Fatalf("reservation after recovery = %+v", st)
	}
}

func TestCrashSchedRequiresStateDir(t *testing.T) {
	fs := renderedLab(t)
	dep, err := RunCluster(context.Background(), fs, sched.Uniform(2, 2), ClusterOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.CrashSched(); err == nil {
		t.Fatal("crash-sched without StateDir should error")
	}
}

func TestClusterDeploymentSilenceHost(t *testing.T) {
	fs := renderedLab(t)
	fb := sched.NewFlakyBackend(sched.Uniform(3, 2), 7)
	dep, err := RunCluster(context.Background(), fs, fb, ClusterOptions{
		Seed:   7,
		Policy: sched.PolicySpread,
		Lease:  sched.LeasePolicy{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	var victim string
	for _, host := range dep.Placement {
		victim = host
		break
	}
	moved, stranded, err := dep.SilenceHost(victim)
	if err != nil {
		t.Fatalf("silence %s: %v", victim, err)
	}
	if len(stranded) != 0 {
		t.Fatalf("stranded = %v", stranded)
	}
	if len(moved) == 0 {
		t.Fatal("nothing re-placed after the silenced host died")
	}
	if !fb.Silenced(victim) {
		t.Error("backend does not report the host silenced")
	}
	if got := dep.Cluster.VMsOn(victim); len(got) != 0 {
		t.Fatalf("silenced host still holds %v", got)
	}
	// The outage was visible (batch down), then healed (batch re-boot).
	var sawDown, sawReboot bool
	for _, ev := range dep.Lab().Events() {
		if strings.Contains(ev, "host failure downed") {
			sawDown = true
		}
		if strings.Contains(ev, "re-placement re-booted") {
			sawReboot = true
		}
	}
	if !sawDown || !sawReboot {
		t.Errorf("lab log missing outage/heal: down=%v reboot=%v", sawDown, sawReboot)
	}
	if eventStages(dep.Events())["silence"] == 0 {
		t.Errorf("no silence event: %v", dep.Events())
	}
}

// TestClusterDeploymentRefusedHostLossChangesNothing: when the scheduler
// refuses a host loss (leases off for a silence, a closed journal for a
// fail), the deployment is left exactly as it was: no lab incident, the
// same placement, the backend not silenced.
func TestClusterDeploymentRefusedHostLossChangesNothing(t *testing.T) {
	fs := renderedLab(t)
	for _, tc := range []struct {
		name string
		opts ClusterOptions
		lose func(*ClusterDeployment, string) ([]string, []string, error)
	}{
		{"silence without leases", ClusterOptions{Seed: 7}, (*ClusterDeployment).SilenceHost},
		{"fail on a closed journal", ClusterOptions{Seed: 7, StateDir: t.TempDir()}, func(d *ClusterDeployment, host string) ([]string, []string, error) {
			if err := d.Cluster.Close(); err != nil {
				t.Fatal(err)
			}
			return d.FailHost(host)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fb := sched.NewFlakyBackend(sched.Uniform(3, 2), 7)
			tc.opts.Policy = sched.PolicySpread
			dep, err := RunCluster(context.Background(), fs, fb, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			victim := dep.Placement[dep.Lab().VMNames()[0]]
			before := dep.Cluster.Status().JSON()
			if _, _, err := tc.lose(dep, victim); err == nil {
				t.Fatal("the scheduler accepted the host loss")
			}
			for _, ev := range dep.Lab().Events() {
				if strings.Contains(ev, "host failure downed") {
					t.Errorf("refused host loss reached the lab: %s", ev)
				}
			}
			if after := dep.Cluster.Status().JSON(); after != before {
				t.Errorf("placement moved:\n%s\nwant\n%s", after, before)
			}
			if fb.Silenced(victim) || len(dep.FailedHosts) != 0 {
				t.Errorf("silenced=%v failed hosts=%v after a refusal", fb.Silenced(victim), dep.FailedHosts)
			}
		})
	}
}

func TestClusterDeploymentSilenceNeedsFlakyBackend(t *testing.T) {
	fs := renderedLab(t)
	dep, err := RunCluster(context.Background(), fs, sched.Uniform(2, 2), ClusterOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dep.SilenceHost("h01"); err == nil {
		t.Fatal("silence without a flaky backend should error")
	}
	if err := dep.FlakyHost("h01", 0.5); err == nil {
		t.Fatal("flaky-host without a flaky backend should error")
	}
}

func TestClusterDeploymentFlakyHostAndReservationState(t *testing.T) {
	fs := renderedLab(t)
	fb := sched.NewFlakyBackend(sched.Uniform(2, 2), 3)
	dep, err := RunCluster(context.Background(), fs, fb, ClusterOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.FlakyHost("h02", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := dep.FlakyHost("h02", 1.5); err == nil {
		t.Fatal("out-of-range rate accepted")
	}
	state, err := dep.ReservationState(dep.Reservation)
	if err != nil || state != "active" {
		t.Fatalf("ReservationState = %q, %v", state, err)
	}
	if _, err := dep.ReservationState("ghost"); err == nil {
		t.Fatal("unknown reservation should error")
	}
}

func TestRunClusterRetriesFlakyHost(t *testing.T) {
	fs := renderedLab(t)
	b := sched.NewStaticBackend(
		sched.HostInfo{Name: "h1", Capacity: 2},
		sched.HostInfo{Name: "h2", Capacity: 2},
	)
	var slept []time.Duration
	attempts := map[string]int{}
	col := obs.NewCollector()
	dep, err := RunCluster(context.Background(), fs, b, ClusterOptions{
		Options: Options{Obs: col},
		Seed:    1,
		Boot: func(host string, vms []string, attempt int) error {
			attempts[host]++
			if host == "h1" && attempt < 3 {
				return fmt.Errorf("transient boot wedge")
			}
			return nil
		},
		Retry: retry.Policy{Sleep: func(d time.Duration) { slept = append(slept, d) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dep.Lab() == nil {
		t.Fatal("no lab after recovered boot")
	}
	if attempts["h1"] != 3 || attempts["h2"] != 1 {
		t.Errorf("attempts = %v", attempts)
	}
	// Exponential backoff between the failed attempts, no sleep after success.
	if len(slept) != 2 || slept[1] <= slept[0] {
		t.Errorf("backoff sleeps = %v", slept)
	}
	if got := eventStages(dep.Events())["retry"]; got != 2 {
		t.Errorf("retry events = %d", got)
	}
	if got := col.Snapshot().Counters[CounterBootRetries]; got != 2 {
		t.Errorf("retry counter = %d", got)
	}
	if len(dep.FailedHosts) != 0 {
		t.Errorf("failed hosts = %v", dep.FailedHosts)
	}
}

func TestRunClusterAttemptTimeout(t *testing.T) {
	fs := renderedLab(t)
	release := make(chan struct{})
	defer close(release)
	fired := make(chan time.Time, 8)
	for i := 0; i < 8; i++ {
		fired <- time.Time{}
	}
	dep, err := RunCluster(context.Background(), fs, sched.NewStaticBackend(sched.HostInfo{Name: "h1", Capacity: 4}), ClusterOptions{
		Boot: func(host string, vms []string, attempt int) error {
			<-release // a wedged host: never returns on its own
			return fmt.Errorf("released")
		},
		Retry: retry.Policy{
			MaxAttempts:    2,
			AttemptTimeout: time.Millisecond,
			Sleep:          func(time.Duration) {},
			After:          func(time.Duration) <-chan time.Time { return fired },
		},
	})
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("err = %v, want ErrDegraded (sole host dead, nowhere to re-place)", err)
	}
	var sawTimeout bool
	for _, e := range dep.Events() {
		if e.Stage == "retry" && strings.Contains(e.Detail, "timed out") {
			sawTimeout = true
		}
	}
	if !sawTimeout {
		t.Errorf("no timeout event in %v", dep.Events())
	}
}

func TestRunClusterContextCancelledDuringBackoff(t *testing.T) {
	fs := renderedLab(t)
	b := sched.NewStaticBackend(
		sched.HostInfo{Name: "h1", Capacity: 2},
		sched.HostInfo{Name: "h2", Capacity: 3},
	)
	ctx, cancel := context.WithCancel(context.Background())
	dep, err := RunCluster(ctx, fs, b, ClusterOptions{
		Boot: func(host string, vms []string, attempt int) error {
			cancel() // caller gives up while the first attempt is failing
			return fmt.Errorf("still booting")
		},
		// An hour-long backoff: only SleepCtx's cancellation path can let
		// the test finish.
		Retry: retry.Policy{MaxAttempts: 3, BaseDelay: time.Hour},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancellation aborts the deployment; it does not condemn the host.
	if len(dep.FailedHosts) != 0 {
		t.Errorf("failed hosts = %v, want none on cancellation", dep.FailedHosts)
	}
	if eventStages(dep.Events())["abort"] == 0 {
		t.Errorf("no abort event: %v", dep.Events())
	}
}

func TestRunClusterContextCancelledMidAttempt(t *testing.T) {
	fs := renderedLab(t)
	ctx, cancel := context.WithCancel(context.Background())
	block := make(chan struct{})
	defer close(block)
	dep, err := RunCluster(ctx, fs, sched.NewStaticBackend(sched.HostInfo{Name: "h1", Capacity: 5}), ClusterOptions{
		Boot: func(host string, vms []string, attempt int) error {
			cancel()
			<-block // a wedged host: only the ctx.Done select can return
			return nil
		},
		Retry: retry.Policy{MaxAttempts: 1},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if dep.Lab() != nil {
		t.Error("cancelled deployment launched a lab")
	}
	if len(dep.FailedHosts) != 0 || eventStages(dep.Events())["abort"] == 0 {
		t.Errorf("failed hosts = %v, events = %v; want no condemned host and an abort event", dep.FailedHosts, dep.Events())
	}
}

// TestPlaceTieBreakStableNameOrder: a deployment's placement over
// equal-capacity hosts is a pure function of (host set, VM set, seed) —
// the order the backend lists its hosts in never moves a VM.
func TestPlaceTieBreakStableNameOrder(t *testing.T) {
	hosts := []sched.HostInfo{{Name: "hb", Capacity: 2}, {Name: "ha", Capacity: 2}, {Name: "hc", Capacity: 2}}
	var want Placement
	for rot := 0; rot < len(hosts); rot++ {
		dep, err := RunCluster(context.Background(), renderedLab(t), sched.NewStaticBackend(hosts...), ClusterOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = dep.Placement
		} else if !reflect.DeepEqual(dep.Placement, want) {
			t.Fatalf("host order %v changed placement: %v vs %v", hosts, dep.Placement, want)
		}
		hosts = append(hosts[1:], hosts[0])
	}
}

// TestFailEmitsSortedOrphans: failing a host under a running lab emits one
// structured host-failed event and returns the re-placed VMs sorted,
// whatever order they were placed in.
func TestFailEmitsSortedOrphans(t *testing.T) {
	b := sched.NewStaticBackend(
		sched.HostInfo{Name: "h1", Capacity: 3},
		sched.HostInfo{Name: "h2", Capacity: 3},
	)
	dep, err := RunCluster(context.Background(), renderedLab(t), b, ClusterOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	victim := dep.Placement["r1"]
	before := eventStages(dep.Events())["host-failed"]
	moved, stranded, err := dep.FailHost(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) != 3 || len(stranded) != 0 || !sort.StringsAreSorted(moved) {
		t.Fatalf("moved = %v, stranded = %v; want r1 r2 r3 sorted, none stranded", moved, stranded)
	}
	if got := eventStages(dep.Events())["host-failed"] - before; got != 1 {
		t.Fatalf("host-failed events = %d, want 1: %v", got, dep.Events())
	}
	if _, _, err := dep.FailHost(victim); err == nil {
		t.Fatal("double fail should error")
	}
}

// launchTrace is the part of a deployment's event stream that Run and
// RunCluster share: the scheduling stage's events are dropped and the
// transfer destination (one named host vs. N hosts) is normalised.
func launchTrace(events []Event) []Event {
	clusterOnly := map[string]bool{"recover": true, "place": true, "boot": true, "retry": true,
		"sched": true, "host-failed": true, "replace": true}
	var out []Event
	for _, e := range events {
		if clusterOnly[e.Stage] {
			continue
		}
		if e.Stage == "transfer" {
			bytes, _, _ := strings.Cut(e.Detail, " to ")
			e.Detail = bytes + " to <dest>"
		}
		out = append(out, e)
	}
	return out
}

// TestLaunchParity: there is one launch — Run and RunCluster over the same
// file set emit the same (Stage, Detail) sequence outside the scheduling
// stage, for a clean boot and for a lenient partial boot.
func TestLaunchParity(t *testing.T) {
	for _, lenient := range []bool{false, true} {
		fs := renderedLab(t)
		wantErr := error(nil)
		if lenient {
			fs.Write("localhost/netkit/r3/etc/quagga/bgpd.conf", "router bgp 2\n  bgp router-id junk\n")
			wantErr = emul.ErrPartialBoot
		}
		opts := Options{Lenient: lenient}
		single, err := Run(fs, opts)
		if !errors.Is(err, wantErr) {
			t.Fatalf("lenient=%v: Run error = %v, want %v", lenient, err, wantErr)
		}
		multi, err := RunCluster(context.Background(), fs, sched.Uniform(2, 2), ClusterOptions{Options: opts, Seed: 1})
		if !errors.Is(err, wantErr) {
			t.Fatalf("lenient=%v: RunCluster error = %v, want %v", lenient, err, wantErr)
		}
		a, b := launchTrace(single.Events()), launchTrace(multi.Events())
		if !reflect.DeepEqual(a, b) {
			t.Errorf("lenient=%v: launch traces differ\nRun:        %v\nRunCluster: %v", lenient, a, b)
		}
		stages := eventStages(a)
		if lenient && (stages["quarantine"] != 1 || a[len(a)-1] != (Event{"done", "lab running (partial)"})) {
			t.Errorf("partial boot not reported: %v", a)
		}
		if stages["archive"] != 1 || stages["lstart"] != 1 || stages["done"] != 1 {
			t.Errorf("lenient=%v: trace = %v", lenient, a)
		}
	}
}
