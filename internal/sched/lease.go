package sched

import (
	"fmt"
	"time"
)

// Heartbeat leases: liveness under silence. Probes distinguish "host
// answered unhealthy" from "host answered healthy", but a host that
// stops answering *anything* needs a different machine — the igor/
// minimega clusters this models lose whole nodes to power and switch
// failures without a single probe error ever returning. Every host
// holds a lease renewed by heartbeats; a missed renewal window moves it
// to Suspected (no new placements, VMs stay), and a grace window later
// to Dead (capacity gone, VMs re-placed through the same machinery as
// FailHost). A late heartbeat resurrects a suspected or dead host.
//
// Determinism: lease decisions depend only on the injected clock
// (Options.Now) and renewal calls — no wall time in tests — and every
// transition is journaled, so a recovered cluster reports the same
// suspected/dead hosts byte-for-byte. Lease *clocks* are deliberately
// not durable: Open re-arms fresh windows (a restarted scheduler should
// not condemn every host for its own downtime); suspected hosts restart
// with only the grace window remaining.

// LeasePolicy configures heartbeat leases. The zero value disables
// them; set Enabled (and optionally the windows) to turn them on.
type LeasePolicy struct {
	// Enabled turns the lease state machine on.
	Enabled bool
	// TTL is the renewal window: a host silent for longer is Suspected
	// (<= 0 selects 15s).
	TTL time.Duration
	// Grace is the additional window a Suspected host gets before it is
	// declared Dead and its VMs re-placed (<= 0 selects 30s).
	Grace time.Duration
}

func (p LeasePolicy) ttl() time.Duration {
	if p.TTL <= 0 {
		return 15 * time.Second
	}
	return p.TTL
}

func (p LeasePolicy) grace() time.Duration {
	if p.Grace <= 0 {
		return 30 * time.Second
	}
	return p.Grace
}

// LeaseTransition records one host's lease state change from a
// CheckLeases pass (or an ExpireLease call).
type LeaseTransition struct {
	Host     string
	From, To Health
	// Moves/Stranded are populated for transitions to Dead: the VM
	// re-placements the death triggered.
	Moves    []Move
	Stranded []string
}

func (t LeaseTransition) String() string {
	switch t.To {
	case Dead:
		return fmt.Sprintf("%s: %s -> %s (%d VMs moved, %d stranded)",
			t.Host, t.From, t.To, len(t.Moves), len(t.Stranded))
	default:
		return fmt.Sprintf("%s: %s -> %s", t.Host, t.From, t.To)
	}
}

// armLeasesLocked starts (or restarts) every host's renewal window at
// now. Suspected hosts keep only the grace window: their TTL is already
// spent, and pretending otherwise would let a dead host linger an extra
// TTL after every restart. Lock held.
func (c *Cluster) armLeasesLocked(now time.Time) {
	ttl := c.opts.Lease.ttl()
	for _, name := range c.hostNames {
		h := c.hosts[name]
		switch h.health {
		case Suspected:
			h.renewedAt = now.Add(-ttl)
		default:
			h.renewedAt = now
		}
	}
}

// Heartbeat renews one host's lease. A renewal while Suspected or Dead
// resurrects the host (journaled, since it is a lease transition);
// renewals in ordinary states just move the window and are not durable.
// Renewing a Failed host is an error — operator verdicts outlive
// heartbeats.
func (c *Cluster) Heartbeat(host string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.usableLocked(); err != nil {
		return err
	}
	if !c.opts.Lease.Enabled {
		return fmt.Errorf("sched: leases not enabled")
	}
	h, err := c.hostLocked(host)
	if err != nil {
		return err
	}
	if h.health == Failed {
		return fmt.Errorf("sched: host %s has failed", host)
	}
	h.renewedAt = c.now()
	if h.health != Suspected && h.health != Dead {
		return nil
	}
	c.setHealthLocked(h, Healthy)
	return c.journalAppend(record{Kind: recLease, Host: host, To: Healthy})
}

// Heartbeater is an optional Backend extension: backends that can tell
// whether a host's heartbeat arrived implement it, and HeartbeatAll
// consults them (an error means silence — no renewal). Backends without
// it renew every non-failed host (the in-process substrate cannot go
// silent on its own).
type Heartbeater interface {
	Heartbeat(host string) error
}

// HeartbeatAll runs one heartbeat round: every host's lease renews
// unless the backend (when it implements Heartbeater) reports silence.
// Returns the hosts that renewed, sorted.
func (c *Cluster) HeartbeatAll() []string {
	c.mu.Lock()
	if c.journalErr != nil || !c.opts.Lease.Enabled {
		c.mu.Unlock()
		return nil
	}
	names := make([]string, 0, len(c.hostNames))
	for _, name := range c.hostNames {
		if c.hosts[name].health != Failed {
			names = append(names, name)
		}
	}
	c.mu.Unlock()

	hb, _ := c.backend.(Heartbeater)
	var renewed []string
	for _, name := range names {
		if hb != nil && hb.Heartbeat(name) != nil {
			continue // silent: no renewal
		}
		if err := c.Heartbeat(name); err == nil {
			renewed = append(renewed, name)
		}
	}
	return renewed
}

// CheckLeases evaluates every host's lease against the injected clock:
// hosts silent past TTL become Suspected; hosts already Suspected and
// silent past TTL+Grace become Dead, their VMs re-placed like a host
// failure. A host never jumps Healthy -> Dead in one pass — death
// requires a second observation a grace window later. Every transition
// is journaled. Returns the transitions, in host order.
func (c *Cluster) CheckLeases() []LeaseTransition {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journalErr != nil || !c.opts.Lease.Enabled {
		return nil
	}
	now := c.now()
	ttl, grace := c.opts.Lease.ttl(), c.opts.Lease.grace()
	var out []LeaseTransition
	for _, name := range c.hostNames {
		h := c.hosts[name]
		switch h.health {
		case Healthy, Unhealthy:
			if now.Sub(h.renewedAt) > ttl {
				out = append(out, c.suspectLocked(h))
			}
		case Suspected:
			if now.Sub(h.renewedAt) > ttl+grace {
				op := "lease-expired " + name
				res, err := c.loseHostLocked(op, h, Dead, recLeaseDead)
				_ = c.degradeLocked(op, &res, err) // the transition carries the outcome; a journal error has poisoned the cluster
				out = append(out, LeaseTransition{Host: name, From: Suspected, To: Dead, Moves: res.Moves, Stranded: res.Stranded})
			}
		}
	}
	return out
}

// suspectLocked moves a host to Suspected and journals the transition.
// Lock held.
func (c *Cluster) suspectLocked(h *hostState) LeaseTransition {
	from := h.health
	c.setHealthLocked(h, Suspected)
	_ = c.journalAppend(record{Kind: recLease, Host: h.info.Name, To: Suspected})
	return LeaseTransition{Host: h.info.Name, From: from, To: Suspected}
}

// ExpireLease forces one host through the full lease collapse right now
// — suspect (if not already), then dead with re-placement — without
// waiting on the clock. This is the deterministic seam chaos drills use
// to model sudden silence; both transitions journal exactly as the
// clock-driven path would (a crash between them recovers a Suspected
// host, a valid intermediate state).
func (c *Cluster) ExpireLease(host string) (DrainResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.usableLocked(); err != nil {
		return DrainResult{}, err
	}
	if !c.opts.Lease.Enabled {
		return DrainResult{}, fmt.Errorf("sched: leases not enabled")
	}
	start := c.now()
	h, err := c.hostLocked(host)
	if err != nil {
		return DrainResult{}, err
	}
	switch h.health {
	case Failed:
		return DrainResult{}, fmt.Errorf("sched: host %s has failed", host)
	case Dead:
		return DrainResult{}, fmt.Errorf("sched: host %s is already dead", host)
	case Suspected:
	default:
		c.suspectLocked(h)
		if err := c.usableLocked(); err != nil { // the suspect record may have failed
			return DrainResult{}, err
		}
	}
	op := "lease-expired " + host
	res, err := c.loseHostLocked(op, h, Dead, recLeaseDead)
	return c.finishLocked(op, start, res, err)
}
