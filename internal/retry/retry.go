// Package retry provides the shared bounded-retry policy used wherever
// the system talks to flaky substrate: per-host boot attempts in scheduled
// deployments (deploy.RunCluster) and live VM re-placement during cluster
// drains (sched.Cluster.Drain). Exponential backoff with deterministic
// jitter — the jitter is a hash of (host, attempt), so spreading retries
// never costs reproducibility.
package retry

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"
)

// ExhaustedError is returned by Do when every permitted attempt failed.
// Unwrap exposes the last attempt's error.
type ExhaustedError struct {
	Host     string
	Attempts int // attempts actually made
	Last     error
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("retry: host %s: %d attempts exhausted: %v", e.Host, e.Attempts, e.Last)
}

func (e *ExhaustedError) Unwrap() error { return e.Last }

// Policy governs bounded retry attempts: exponential backoff with
// deterministic jitter and a per-attempt timeout. The zero value selects
// the defaults.
type Policy struct {
	// MaxAttempts is the number of attempts before the operation is
	// declared failed (<= 0 selects 3).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; each further
	// attempt doubles it (<= 0 selects 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (<= 0 selects 2s).
	MaxDelay time.Duration
	// Jitter spreads each delay by up to this fraction of itself (0..1),
	// derived from a hash of (host, attempt) so runs are reproducible.
	// Negative disables; zero selects 0.5.
	Jitter float64
	// AttemptTimeout bounds one attempt; an attempt still running when
	// it expires counts as a failure (0 disables the bound).
	AttemptTimeout time.Duration
	// Sleep is the backoff sleep (test seam; nil selects time.Sleep).
	Sleep func(time.Duration)
	// After is the attempt-timeout clock (test seam; nil selects
	// time.After).
	After func(time.Duration) <-chan time.Time
	// OnRetry, when set, observes each failed attempt before the
	// backoff sleep (attempt is 1-based). Not called for attempts cut
	// short by context cancellation.
	OnRetry func(host string, attempt int, err error)
}

// Attempts returns the effective attempt bound (MaxAttempts, defaulted).
func (p Policy) Attempts() int {
	if p.MaxAttempts <= 0 {
		return 3
	}
	return p.MaxAttempts
}

func (p Policy) base() time.Duration {
	if p.BaseDelay <= 0 {
		return 50 * time.Millisecond
	}
	return p.BaseDelay
}

func (p Policy) cap() time.Duration {
	if p.MaxDelay <= 0 {
		return 2 * time.Second
	}
	return p.MaxDelay
}

func (p Policy) jitter() float64 {
	switch {
	case p.Jitter < 0:
		return 0
	case p.Jitter == 0:
		return 0.5
	case p.Jitter > 1:
		return 1
	}
	return p.Jitter
}

// Delay returns the backoff to sleep after the given failed attempt
// (1-based) on the given host: base * 2^(attempt-1), capped at MaxDelay,
// stretched by the deterministic jitter fraction. Spreading retries
// prevents a pool of simultaneously flaky hosts from thundering back in
// lockstep, while the hash keeps every run byte-reproducible.
func (p Policy) Delay(host string, attempt int) time.Duration {
	d := p.base()
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= p.cap() {
			d = p.cap()
			break
		}
	}
	if j := p.jitter(); j > 0 {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s/%d", host, attempt)
		frac := float64(h.Sum64()%1000) / 1000.0 // deterministic in [0,1)
		d += time.Duration(float64(d) * j * frac)
	}
	if d > p.cap() {
		d = p.cap()
	}
	return d
}

// Do runs fn under the policy: up to Attempts() tries against the named
// host, backoff with Delay between failures. fn receives the 1-based
// attempt number. Returns nil on the first success, the context's error
// when cancelled, or an *ExhaustedError carrying the last failure
// otherwise.
func (p Policy) Do(ctx context.Context, host string, fn func(attempt int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var last error
	for attempt := 1; attempt <= p.Attempts(); attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if last = fn(attempt); last == nil {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if p.OnRetry != nil {
			p.OnRetry(host, attempt, last)
		}
		if attempt < p.Attempts() {
			if err := p.SleepCtx(ctx, p.Delay(host, attempt)); err != nil {
				return err
			}
		}
	}
	return &ExhaustedError{Host: host, Attempts: p.Attempts(), Last: last}
}

// SleepFor sleeps the given backoff through the policy's sleep seam.
func (p Policy) SleepFor(d time.Duration) {
	if p.Sleep != nil {
		p.Sleep(d)
		return
	}
	time.Sleep(d)
}

// AfterChan returns a timer channel for the given duration through the
// policy's clock seam.
func (p Policy) AfterChan(d time.Duration) <-chan time.Time {
	if p.After != nil {
		return p.After(d)
	}
	return time.After(d)
}

// SleepCtx sleeps the given backoff but aborts early when the context is
// cancelled, returning ctx.Err(). A host boot mid-backoff stops
// within one select instead of finishing the sleep. The Sleep seam is
// honoured when set (tests that stub Sleep stay instantaneous), but the
// context is still checked before and after the stubbed sleep.
func (p Policy) SleepCtx(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if p.Sleep != nil {
		p.Sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
