package deploy

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"autonetkit/internal/emul"
	"autonetkit/internal/render"
	"autonetkit/internal/retry"
	"autonetkit/internal/sched"
)

// Counter names maintained by scheduled deployments (re-placed VMs are
// counted by the scheduler, under obs.CounterVMsReplaced).
const (
	CounterBootRetries = "deploy_boot_retries"
	CounterHostsFailed = "deploy_hosts_failed"
)

// BootFunc launches one emulation host's share of the lab. attempt is
// 1-based. The production hosts here are in-process and always come up;
// the hook exists so tests and chaos experiments can model flaky hardware
// (transient boot failures, hangs) — the §3.3 StarBed deployments met
// plenty of both.
type BootFunc func(host string, vms []string, attempt int) error

// ErrDegraded is returned (wrapped) by RunCluster when the cluster could
// not hold the lab, or surviving capacity could not absorb a failed host's
// VMs: the deployment terminated gracefully — events and placement intact
// — instead of hanging or launching a partial lab.
var ErrDegraded = errors.New("deploy: degraded: insufficient surviving capacity")

// ClusterOptions configures a scheduled deployment: the launch settings
// of Run, plus the scheduling stage that internal/sched carries out
// (placement, health, host-failure handling).
type ClusterOptions struct {
	// Options are the lab-level launch settings, exactly as Run takes
	// them (scheduler events reach OnEvent with Stage "sched"; Obs also
	// collects the scheduler's spans and counters). A zero ConvergeTimeout
	// falls back to Retry.AttemptTimeout, so a hung convergence cannot
	// stall the deployment any more than a hung host boot can.
	Options
	// Retry governs per-host boot attempts AND per-VM migrations during
	// drains.
	Retry retry.Policy
	// Boot, when set, is invoked per host boot attempt (fault-injection
	// seam; nil always succeeds).
	Boot BootFunc

	// Seed keys the scheduler's deterministic placement tie-breaks.
	Seed uint64
	// Health configures the scheduler's probe thresholds.
	Health sched.HealthPolicy
	// Reservation names the lab's reservation ("lab" when empty).
	Reservation string
	// Tenant owns the reservation for fair-share accounting.
	Tenant string
	// Policy is the placement policy (sched.PolicyPack when empty).
	Policy sched.Policy
	// Spread caps the lab's VMs per host (0 = unbounded).
	Spread int
	// Weight is the tenant's fair-share weight (0 keeps the scheduler
	// default of 1). Under Preempt, higher-weight labs may evict
	// lower-weight reservations that block them.
	Weight int
	// Lease configures the scheduler's heartbeat leases: hosts silent past
	// the TTL are suspected, and past the grace window declared dead with
	// their VMs re-placed.
	Lease sched.LeasePolicy
	// Preempt lets reservations with strictly higher tenant weight evict
	// lower-weight ones when the cluster is otherwise full.
	Preempt bool

	// StateDir, when set, makes the scheduler durable: every mutation is
	// journaled under the directory and RunCluster recovers any prior
	// state before deploying (see internal/journal).
	StateDir string
	// SnapshotEvery compacts the journal after this many records
	// (0 = scheduler default).
	SnapshotEvery int
}

// ClusterDeployment is the outcome of RunCluster: a deployment whose
// placement lives in a cluster scheduler, so hosts can be cordoned,
// drained, and failed while the lab runs.
type ClusterDeployment struct {
	Deployment
	// Cluster is the scheduler owning the deployment's placement.
	Cluster *sched.Cluster
	// Reservation is the lab's reservation name.
	Reservation string
	// Recovery describes what a durable deployment restored from its
	// state directory (zero for in-memory deployments).
	Recovery sched.RecoveryInfo
	backend  sched.Backend
	opts     ClusterOptions
}

// schedOptions builds the scheduler options for this deployment; emit
// bridges scheduler events into the deployment's stream.
func (opts ClusterOptions) schedOptions(emit func(Event)) sched.Options {
	return sched.Options{
		Seed:          opts.Seed,
		Health:        opts.Health,
		Retry:         opts.Retry,
		Lease:         opts.Lease,
		Preempt:       opts.Preempt,
		Obs:           opts.Obs,
		SnapshotEvery: opts.SnapshotEvery,
		OnEvent: func(ev sched.Event) {
			emit(Event{"sched", fmt.Sprintf("%s: %s", ev.Kind, ev.Detail)})
		},
	}
}

// newSchedCluster builds the deployment's scheduler: durable via
// sched.Open when StateDir is set, in-memory via sched.New otherwise.
func newSchedCluster(backend sched.Backend, opts ClusterOptions, emit func(Event)) (*sched.Cluster, sched.RecoveryInfo, error) {
	if opts.StateDir != "" {
		return sched.Open(opts.StateDir, backend, opts.schedOptions(emit))
	}
	c, err := sched.New(backend, opts.schedOptions(emit))
	return c, sched.RecoveryInfo{}, err
}

// RunCluster deploys a rendered lab across a substrate backend via the
// cluster scheduler: archive → transfer → extract → reserve (deterministic
// bin-packing) → boot each placed host (with retry, backoff + jitter, and
// per-attempt timeouts) → launch. A host that exhausts its boot attempts
// is failed in the scheduler and its VMs re-place onto surviving capacity;
// if none remains, RunCluster returns the partial state wrapped in
// ErrDegraded. Cancelling ctx interrupts backoff sleeps and in-flight boot
// attempts and returns the partial state with the context's error; the
// host being booted is not failed — the caller gave up, the host didn't.
// The returned deployment drains and fails hosts live via
// DrainHost/FailHost.
func RunCluster(ctx context.Context, fs *render.FileSet, backend sched.Backend, opts ClusterOptions) (*ClusterDeployment, error) {
	if opts.Platform == "" {
		opts.Platform = "netkit"
	}
	if opts.Reservation == "" {
		opts.Reservation = "lab"
	}
	if opts.ConvergeTimeout == 0 {
		opts.ConvergeTimeout = opts.Retry.AttemptTimeout
	}
	span := opts.Obs.StartSpan("ClusterDeploy")
	defer span.End()
	d := &ClusterDeployment{
		Deployment:  Deployment{Platform: opts.Platform, onEvent: opts.OnEvent},
		Reservation: opts.Reservation, backend: backend, opts: opts,
	}

	cluster, rinfo, err := newSchedCluster(backend, opts, d.emit)
	if err != nil {
		return nil, err
	}
	d.Cluster = cluster
	d.Recovery = rinfo
	if rinfo.Recovered {
		d.emit(Event{"recover", rinfo.String()})
		// A prior run's reservation under the same name would collide (and
		// its VMs hold capacity the fresh lab needs); release it — this is
		// a new deployment of the lab, not a resumption of its processes.
		if _, ok := cluster.Reservation(opts.Reservation); ok {
			if rerr := cluster.Release(opts.Reservation); rerr != nil {
				return d, fmt.Errorf("deploy: releasing recovered reservation %s: %w", opts.Reservation, rerr)
			}
			d.emit(Event{"recover", fmt.Sprintf("released stale reservation %s from prior run", opts.Reservation)})
		}
	}

	extracted, err := d.ship(fs, fmt.Sprintf("%d hosts", cluster.Capacity().Hosts))
	if err != nil {
		return nil, err
	}
	// The rendered tree is keyed by design-time host; the scheduler
	// re-homes that single lab across the substrate's hosts.
	lab, err := firstLab(extracted, opts.Platform)
	if err != nil {
		return nil, err
	}
	d.Host = lab.Host

	st, err := cluster.Reserve(sched.Spec{
		Name:   opts.Reservation,
		Tenant: opts.Tenant,
		VMs:    lab.VMNames(),
		Policy: opts.Policy,
		Spread: opts.Spread,
		Weight: opts.Weight,
	})
	if err != nil {
		return d, err
	}
	if st.State == sched.ResQueued {
		rep := cluster.Capacity()
		d.emit(Event{"degraded", fmt.Sprintf("reservation %s queued: %s", opts.Reservation, rep.Summary())})
		return d, fmt.Errorf("%w: %d VMs exceed cluster capacity (%s)", ErrDegraded, st.VMs, rep.Summary())
	}
	d.Placement = Placement{}
	for vm, host := range st.Placement {
		d.Placement[vm] = host
	}
	d.emit(Event{"place", fmt.Sprintf("%d VMs across %d hosts (seed %d)", len(st.Placement), len(st.Hosts), opts.Seed)})

	// Boot every host that holds VMs, in name order. A failed boot fails
	// the host in the scheduler; its VMs re-place onto survivors (a host
	// later in the boot order absorbs them before its own boot).
	booted := map[string]bool{}
	for {
		host := nextUnbooted(cluster, d.Placement, booted)
		if host == "" {
			break
		}
		booted[host] = true
		if err := d.bootHost(ctx, host); err == nil {
			continue
		}
		if cerr := ctx.Err(); cerr != nil {
			d.emit(Event{"abort", fmt.Sprintf("deployment cancelled while booting %s: %v", host, cerr)})
			return d, fmt.Errorf("deploy: cancelled: %w", cerr)
		}
		opts.Obs.Add(CounterHostsFailed, 1)
		d.FailedHosts = append(d.FailedHosts, host)
		res, ferr := cluster.FailHost(host)
		d.emit(Event{"host-failed", fmt.Sprintf("%s abandoned after %d attempts; re-placing %d VMs",
			host, opts.Retry.Attempts(), len(res.Moves)+len(res.Stranded))})
		d.rehome(res, true) // the lab is not up yet: nothing to re-boot, so no error to handle
		if ferr != nil {
			d.emit(Event{"degraded", fmt.Sprintf("cannot re-place %d VMs (%s): %s",
				len(res.Stranded), strings.Join(res.Stranded, ", "), res.Report.Summary())})
			return d, fmt.Errorf("%w: %d VMs stranded after %s failed", ErrDegraded, len(res.Stranded), host)
		}
	}

	return d, d.launch(lab, opts.Options)
}

// nextUnbooted returns the name-smallest host holding VMs that has not
// booted yet ("" when none remain).
func nextUnbooted(cluster *sched.Cluster, placement Placement, booted map[string]bool) string {
	next := ""
	for _, h := range placement {
		if !booted[h] && (next == "" || h < next) && len(cluster.VMsOn(h)) > 0 {
			next = h
		}
	}
	return next
}

// bootHost attempts one host's boot under the retry policy, emitting an
// event per attempt. The attempt loop and backoff live in
// retry.Policy.Do; cancelling ctx interrupts the backoff sleep and
// surfaces as the returned error.
func (d *ClusterDeployment) bootHost(ctx context.Context, host string) error {
	span := d.opts.Obs.StartSpan("boot " + host)
	defer span.End()
	vms := d.Cluster.VMsOn(host)
	pol := d.opts.Retry
	pol.OnRetry = func(h string, attempt int, err error) {
		d.emit(Event{"retry", fmt.Sprintf("%s boot attempt %d failed: %v", h, attempt, err)})
		d.opts.Obs.Add(CounterBootRetries, 1)
	}
	return pol.Do(ctx, host, func(attempt int) error {
		err := attemptBoot(ctx, d.opts.Boot, host, vms, attempt, pol)
		if err == nil {
			d.emit(Event{"boot", fmt.Sprintf("%s up (%d VMs, attempt %d)", host, len(vms), attempt)})
		}
		return err
	})
}

// attemptBoot runs one boot attempt under the per-attempt timeout. A
// timed-out attempt counts as failed; the stray goroutine's eventual
// result is discarded (buffered channel), so a wedged host cannot hang the
// deployment. Context cancellation abandons the attempt the same way.
func attemptBoot(ctx context.Context, boot BootFunc, host string, vms []string, attempt int, pol retry.Policy) error {
	if boot == nil {
		return nil
	}
	if pol.AttemptTimeout <= 0 && ctx.Done() == nil {
		return boot(host, vms, attempt)
	}
	ch := make(chan error, 1)
	go func() { ch <- boot(host, vms, attempt) }()
	var timeout <-chan time.Time
	if pol.AttemptTimeout > 0 {
		timeout = pol.AfterChan(pol.AttemptTimeout)
	}
	select {
	case err := <-ch:
		return err
	case <-timeout:
		return fmt.Errorf("deploy: boot of %s attempt %d timed out after %v", host, attempt, pol.AttemptTimeout)
	case <-ctx.Done():
		return fmt.Errorf("deploy: boot of %s attempt %d cancelled: %w", host, attempt, ctx.Err())
	}
}

// firstLab loads the lab for the (sole) design-time host under the given
// platform from an extracted tree.
func firstLab(fs *render.FileSet, platform string) (*emul.Lab, error) {
	for _, p := range fs.SortedPaths() {
		host, rest, ok := strings.Cut(p, "/")
		if !ok {
			continue
		}
		if plat, _, ok := strings.Cut(rest, "/"); ok && plat == platform {
			return emul.Load(fs, host, platform)
		}
	}
	return nil, fmt.Errorf("deploy: no %s lab in rendered tree", platform)
}

// labOnly filters VM names down to machines the running lab actually
// booted. Reservations besides the lab's (batch work sharing the
// substrate) place VMs the emulation never knew; incident injection and
// re-boots must skip them or the lab rejects the batch.
func (d *ClusterDeployment) labOnly(names []string) []string {
	if d.lab == nil {
		return nil
	}
	known := map[string]bool{}
	for _, vm := range d.lab.VMNames() {
		known[vm] = true
	}
	var out []string
	for _, vm := range names {
		if known[vm] {
			out = append(out, vm)
		}
	}
	return out
}

// rehome folds a scheduler re-placement into the running deployment: the
// placement map follows the moves and the moved lab VMs re-boot on their
// new hosts (one batch, one re-convergence). dark says the source host is
// gone, so whatever could not re-place is stranded dark rather than still
// live on a cordoned source. Returns the moved VM names, sorted.
func (d *ClusterDeployment) rehome(res sched.DrainResult, dark bool) ([]string, error) {
	moved := make([]string, 0, len(res.Moves))
	for _, m := range res.Moves {
		d.Placement[m.VM] = m.To
		d.emit(Event{"replace", fmt.Sprintf("%s re-placed onto %s", m.VM, m.To)})
		moved = append(moved, m.VM)
	}
	sort.Strings(moved)
	if dark && len(res.Stranded) > 0 {
		d.StrandedVMs = append(d.StrandedVMs, res.Stranded...)
		sort.Strings(d.StrandedVMs)
	}
	if reboot := d.labOnly(moved); len(reboot) > 0 {
		if _, err := d.lab.Apply(emul.Change{Reboot: reboot}); err != nil {
			return moved, fmt.Errorf("deploy: re-booting re-placed VMs: %w", err)
		}
	}
	return moved, nil
}

// DrainHost live-drains a substrate host: the scheduler cordons it and
// re-places its VMs onto surviving capacity, then the moved VMs re-boot
// their device configurations in the running lab (one batch, one
// re-convergence). Returns the moved and stranded VM names, sorted; a
// degraded drain (stranded VMs stay live on the cordoned source) returns
// them alongside an error wrapping sched.ErrDegraded.
func (d *ClusterDeployment) DrainHost(host string) (moved, stranded []string, err error) {
	res, derr := d.Cluster.Drain(host)
	if derr != nil && !errors.Is(derr, sched.ErrDegraded) {
		return nil, nil, derr
	}
	if moved, err = d.rehome(res, false); err != nil {
		return moved, res.Stranded, err
	}
	d.emit(Event{"drain", fmt.Sprintf("%s drained: %d VMs moved, %d stranded", host, len(moved), len(res.Stranded))})
	return moved, res.Stranded, derr
}

// FailHost hard-fails a substrate host: every VM it carried goes dark in
// the lab (one batch, one re-convergence), the scheduler re-places the
// orphans, and the survivors re-boot on their new hosts (a second
// convergence — the outage window is visible to measurements, unlike
// DrainHost's live move). Stranded orphans stay dark and re-place
// automatically as capacity frees; the error then wraps sched.ErrDegraded.
func (d *ClusterDeployment) FailHost(host string) (moved, stranded []string, err error) {
	return d.loseHost(host, d.Cluster.FailHost, func() { d.FailedHosts = append(d.FailedHosts, host) },
		"host-failed", "%s failed: %d VMs re-placed, %d stranded dark")
}

// SilenceHost models a substrate host going dark without a single error
// returned: the backend (which must be a sched.FlakyBackend) stops
// answering for the host, its VMs go dark in the lab, and the lease
// machinery's deterministic collapse (suspect → dead) re-places them
// onto surviving capacity, where they re-boot. Requires heartbeat
// leases (ClusterOptions.Lease.Enabled); stranded orphans return
// alongside an error wrapping sched.ErrDegraded.
func (d *ClusterDeployment) SilenceHost(host string) (moved, stranded []string, err error) {
	fb, ok := d.backend.(*sched.FlakyBackend)
	if !ok {
		return nil, nil, fmt.Errorf("deploy: silence-host needs a flaky backend (wrap the backend in sched.NewFlakyBackend)")
	}
	return d.loseHost(host, d.Cluster.ExpireLease, func() { fb.Silence(host) },
		"silence", "%s silenced: lease expired, %d VMs re-placed, %d stranded dark")
}

// loseHost is FailHost's and SilenceHost's body. The scheduler decides
// first (lose), so a refusal (leases off, journal poisoned, host already
// lost) leaves the deployment untouched. Only once it accepts does
// accepted run, the host's lab VMs go dark in one batch and the
// re-placed ones re-boot; the closing event reports the outcome.
func (d *ClusterDeployment) loseHost(host string, lose func(string) (sched.DrainResult, error), accepted func(), kind, format string) (moved, stranded []string, err error) {
	victims := d.labOnly(d.Cluster.VMsOn(host))
	res, serr := lose(host)
	if serr != nil && !errors.Is(serr, sched.ErrDegraded) {
		return nil, nil, serr
	}
	accepted()
	if len(victims) > 0 {
		if _, err := d.lab.Apply(emul.Change{HostDown: victims}); err != nil {
			return nil, nil, fmt.Errorf("deploy: failing %s's VMs: %w", host, err)
		}
	}
	if moved, err = d.rehome(res, true); err != nil {
		return moved, res.Stranded, err
	}
	d.emit(Event{kind, fmt.Sprintf(format, host, len(moved), len(res.Stranded))})
	return moved, res.Stranded, serr
}

// FlakyHost sets the scheduled migration-failure rate for moves onto the
// host (0 clears it). The backend must be a sched.FlakyBackend; faults
// are a pure function of (seed, vm, host, attempt), so drills reproduce
// byte-identically.
func (d *ClusterDeployment) FlakyHost(host string, rate float64) error {
	fb, ok := d.backend.(*sched.FlakyBackend)
	if !ok {
		return fmt.Errorf("deploy: flaky-host needs a flaky backend (wrap the backend in sched.NewFlakyBackend)")
	}
	if rate < 0 || rate > 1 {
		return fmt.Errorf("deploy: flaky-host rate %v out of [0,1]", rate)
	}
	fb.SetMigrateFailRate(host, rate)
	d.emit(Event{"flaky", fmt.Sprintf("%s: migration failure rate set to %.2f", host, rate)})
	return nil
}

// ReservationState reports one reservation's scheduler state for chaos
// assertions: "active", "queued", "degraded", or "preempted" (a queued
// reservation evicted by a higher-weight one).
func (d *ClusterDeployment) ReservationState(name string) (string, error) {
	st, ok := d.Cluster.Reservation(name)
	if !ok {
		return "", fmt.Errorf("deploy: no reservation %s", name)
	}
	if st.Preempted {
		return "preempted", nil
	}
	return string(st.State), nil
}

// CrashSched kills and recovers the durable scheduler in place: the
// journal is closed mid-flight (as a crash would leave it), a fresh
// scheduler reopens from the state directory, and the recovered state is
// byte-compared against the pre-crash Status. The lab itself keeps
// running — only the control plane restarts — so this is the chaos-drill
// equivalent of the §3.3 manager process dying and coming back. Returns
// a deterministic summary (no paths) for golden comparison.
func (d *ClusterDeployment) CrashSched() (string, error) {
	if d.opts.StateDir == "" {
		return "", fmt.Errorf("deploy: crash-sched needs a durable scheduler (StateDir unset)")
	}
	before := d.Cluster.Status().JSON()
	if err := d.Cluster.Close(); err != nil {
		return "", fmt.Errorf("deploy: closing scheduler journal: %w", err)
	}
	cluster, rinfo, err := sched.Open(d.opts.StateDir, d.backend, d.opts.schedOptions(d.emit))
	if err != nil {
		return "", fmt.Errorf("deploy: recovering scheduler: %w", err)
	}
	after := cluster.Status().JSON()
	if before != after {
		cluster.Close()
		return "", fmt.Errorf("deploy: recovered scheduler state diverged from pre-crash state")
	}
	d.Cluster = cluster
	summary := fmt.Sprintf("scheduler crashed and %s; status byte-identical", rinfo)
	d.emit(Event{"crash-sched", summary})
	return summary, nil
}
