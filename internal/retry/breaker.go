package retry

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"
)

// BreakerState is one of the three classic circuit-breaker states.
type BreakerState string

const (
	// BreakerClosed passes attempts through and counts consecutive
	// failures.
	BreakerClosed BreakerState = "closed"
	// BreakerOpen rejects attempts outright until the reopen deadline.
	BreakerOpen BreakerState = "open"
	// BreakerHalfOpen lets probe attempts through; a success closes the
	// breaker, a failure re-opens it.
	BreakerHalfOpen BreakerState = "half-open"
)

// BreakerConfig tunes a BreakerSet. The zero value selects the defaults.
type BreakerConfig struct {
	// FailAfter is the number of consecutive failures that opens a
	// host's breaker (<= 0 selects 5).
	FailAfter int
	// OpenFor is the base open window before the breaker moves to
	// half-open (<= 0 selects 30s).
	OpenFor time.Duration
	// ReopenJitter stretches each open window by up to this fraction of
	// OpenFor, derived from a hash of (host, generation) so repeated
	// openings of the same host spread deterministically rather than
	// re-probing in lockstep. Negative disables; zero selects 0.5.
	ReopenJitter float64
	// HalfOpenSuccesses is the number of consecutive half-open probe
	// successes required to close the breaker (<= 0 selects 1).
	HalfOpenSuccesses int
	// Now is the clock seam (nil selects time.Now). Tests drive the
	// breaker with a fake clock; no wall-clock leaks into behaviour.
	Now func() time.Time
}

func (c BreakerConfig) failAfter() int {
	if c.FailAfter <= 0 {
		return 5
	}
	return c.FailAfter
}

func (c BreakerConfig) openFor() time.Duration {
	if c.OpenFor <= 0 {
		return 30 * time.Second
	}
	return c.OpenFor
}

func (c BreakerConfig) reopenJitter() float64 {
	switch {
	case c.ReopenJitter < 0:
		return 0
	case c.ReopenJitter == 0:
		return 0.5
	case c.ReopenJitter > 1:
		return 1
	}
	return c.ReopenJitter
}

func (c BreakerConfig) halfOpenSuccesses() int {
	if c.HalfOpenSuccesses <= 0 {
		return 1
	}
	return c.HalfOpenSuccesses
}

func (c BreakerConfig) now() time.Time {
	if c.Now != nil {
		return c.Now()
	}
	return time.Now()
}

// breaker is the per-host state machine.
type breaker struct {
	state      BreakerState
	fails      int       // consecutive failures while closed
	oks        int       // consecutive successes while half-open
	generation int       // how many times this breaker has opened
	openUntil  time.Time // when an open breaker admits a half-open probe
}

// BreakerSet holds one circuit breaker per host. It is safe for
// concurrent use; deploy host boots and sched migrations share one set
// so a host condemned by either stops burning both retry budgets.
type BreakerSet struct {
	cfg BreakerConfig
	// OnTransition, when set, observes every state change. Called
	// without the set's lock held.
	OnTransition func(host string, from, to BreakerState)

	mu sync.Mutex
	m  map[string]*breaker
}

// NewBreakerSet builds an empty breaker set with the given config.
func NewBreakerSet(cfg BreakerConfig) *BreakerSet {
	return &BreakerSet{cfg: cfg, m: make(map[string]*breaker)}
}

func (s *BreakerSet) get(host string) *breaker {
	b, ok := s.m[host]
	if !ok {
		b = &breaker{state: BreakerClosed}
		s.m[host] = b
	}
	return b
}

// reopenDelay is the FNV-jittered open window for the given host and
// opening generation: OpenFor * (1 + jitter*frac) with frac a
// deterministic hash in [0,1). Same host, same generation, same delay —
// reproducible across runs, spread across hosts.
func (s *BreakerSet) reopenDelay(host string, generation int) time.Duration {
	d := s.cfg.openFor()
	if j := s.cfg.reopenJitter(); j > 0 {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s/%d", host, generation)
		frac := float64(h.Sum64()%1000) / 1000.0
		d += time.Duration(float64(d) * j * frac)
	}
	return d
}

// Allow reports whether an attempt against the host may proceed. An
// open breaker past its reopen deadline moves to half-open and admits
// the probe.
func (s *BreakerSet) Allow(host string) bool {
	s.mu.Lock()
	b := s.get(host)
	switch b.state {
	case BreakerOpen:
		if s.cfg.now().Before(b.openUntil) {
			s.mu.Unlock()
			return false
		}
		b.state = BreakerHalfOpen
		b.oks = 0
		s.mu.Unlock()
		s.notify(host, BreakerOpen, BreakerHalfOpen)
		return true
	default:
		s.mu.Unlock()
		return true
	}
}

// Success records a successful attempt against the host.
func (s *BreakerSet) Success(host string) {
	s.mu.Lock()
	b := s.get(host)
	switch b.state {
	case BreakerHalfOpen:
		b.oks++
		if b.oks >= s.cfg.halfOpenSuccesses() {
			b.state = BreakerClosed
			b.fails, b.oks = 0, 0
			s.mu.Unlock()
			s.notify(host, BreakerHalfOpen, BreakerClosed)
			return
		}
	default:
		b.fails = 0
	}
	s.mu.Unlock()
}

// Failure records a failed attempt against the host, opening the
// breaker when the consecutive-failure threshold is reached (or
// immediately when a half-open probe fails).
func (s *BreakerSet) Failure(host string) {
	s.mu.Lock()
	b := s.get(host)
	switch b.state {
	case BreakerHalfOpen:
		s.openLocked(host, b, BreakerHalfOpen)
		return // openLocked unlocks
	case BreakerClosed:
		b.fails++
		if b.fails >= s.cfg.failAfter() {
			s.openLocked(host, b, BreakerClosed)
			return // openLocked unlocks
		}
	}
	s.mu.Unlock()
}

// openLocked transitions to open and releases the lock.
func (s *BreakerSet) openLocked(host string, b *breaker, from BreakerState) {
	b.generation++
	b.state = BreakerOpen
	b.fails, b.oks = 0, 0
	b.openUntil = s.cfg.now().Add(s.reopenDelay(host, b.generation))
	s.mu.Unlock()
	s.notify(host, from, BreakerOpen)
}

func (s *BreakerSet) notify(host string, from, to BreakerState) {
	if s.OnTransition != nil && from != to {
		s.OnTransition(host, from, to)
	}
}

// State returns the host's current breaker state (closed for hosts
// never seen). It does not advance open → half-open; Allow does.
func (s *BreakerSet) State(host string) BreakerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.m[host]; ok {
		return b.state
	}
	return BreakerClosed
}

// Reset forgets the host's breaker entirely (e.g. after an operator
// replaces the hardware).
func (s *BreakerSet) Reset(host string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, host)
}
