package retry

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestPolicyDelay(t *testing.T) {
	exact := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Jitter: -1}
	for attempt, want := range map[int]time.Duration{
		1: 100 * time.Millisecond,
		2: 200 * time.Millisecond,
		3: 400 * time.Millisecond,
		4: 800 * time.Millisecond,
		5: time.Second, // capped
		9: time.Second,
	} {
		if got := exact.Delay("h1", attempt); got != want {
			t.Errorf("attempt %d: delay = %v, want %v", attempt, got, want)
		}
	}

	jittered := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	if a, b := jittered.Delay("h1", 1), jittered.Delay("h1", 1); a != b {
		t.Errorf("jittered delay not deterministic: %v vs %v", a, b)
	}
	base := 100 * time.Millisecond
	if d := jittered.Delay("h1", 1); d < base || d > base+base/2 {
		t.Errorf("jittered delay %v outside [base, base*1.5]", d)
	}
	// The cap holds even after jitter is added.
	if d := jittered.Delay("h1", 9); d > time.Second {
		t.Errorf("jittered delay %v exceeds cap", d)
	}
}

func TestPolicyDefaults(t *testing.T) {
	var zero Policy
	if zero.Attempts() != 3 {
		t.Errorf("default attempts = %d", zero.Attempts())
	}
	if d := zero.Delay("h", 1); d < 50*time.Millisecond || d > 75*time.Millisecond {
		t.Errorf("default first delay = %v", d)
	}
	if got := (Policy{MaxAttempts: 7}).Attempts(); got != 7 {
		t.Errorf("attempts = %d", got)
	}
}

// TestPolicyDelayEdgeCases covers the corners the production callers
// never hit but fuzzers and operators do: empty and non-ASCII host
// names, attempt 0, and the jitter envelope at its maximum.
func TestPolicyDelayEdgeCases(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Jitter: 1.0}
	for _, host := range []string{"", "höst-ü", "ホスト01", "h/with/slashes"} {
		a, b := p.Delay(host, 1), p.Delay(host, 1)
		if a != b {
			t.Errorf("host %q: delay not deterministic: %v vs %v", host, a, b)
		}
		// Jitter: 1.0 means [base, 2*base).
		base := 100 * time.Millisecond
		if a < base || a >= 2*base {
			t.Errorf("host %q: delay %v outside [base, 2*base)", host, a)
		}
	}

	// Attempt 0 (and negatives) never double the base and stay inside
	// the same jitter envelope instead of underflowing.
	for _, attempt := range []int{0, -1, -7} {
		d := p.Delay("h1", attempt)
		if d < 100*time.Millisecond || d > time.Second {
			t.Errorf("attempt %d: delay %v outside [base, cap]", attempt, d)
		}
	}

	// Jitter above 1 clamps to 1; the cap still holds.
	wild := Policy{BaseDelay: 900 * time.Millisecond, MaxDelay: time.Second, Jitter: 5}
	if d := wild.Delay("h1", 1); d > time.Second {
		t.Errorf("clamped jitter exceeds cap: %v", d)
	}

	// Different hosts spread: at least two distinct delays among a pool.
	seen := map[time.Duration]bool{}
	for i := 0; i < 8; i++ {
		seen[p.Delay(fmt.Sprintf("h%02d", i), 1)] = true
	}
	if len(seen) < 2 {
		t.Error("jitter does not spread delays across hosts")
	}
}

func TestPolicySeams(t *testing.T) {
	ch := make(chan time.Time, 1)
	p := Policy{After: func(time.Duration) <-chan time.Time { return ch }}
	if p.AfterChan(time.Hour) != (<-chan time.Time)(ch) {
		t.Error("after seam not used")
	}
}

func instantPolicy(attempts int) Policy {
	return Policy{MaxAttempts: attempts, Sleep: func(time.Duration) {}}
}

// failN fails the first n calls with "boom" and succeeds after.
func failN(n int) func(attempt int) error {
	calls := 0
	return func(attempt int) error {
		calls++
		if calls <= n {
			return errors.New("boom")
		}
		return nil
	}
}

func TestDoSucceedsAfterRetries(t *testing.T) {
	p := instantPolicy(3)
	var retried []int
	p.OnRetry = func(host string, attempt int, err error) { retried = append(retried, attempt) }
	if err := p.Do(context.Background(), "h1", failN(2)); err != nil {
		t.Fatalf("Do = %v", err)
	}
	if len(retried) != 2 || retried[0] != 1 || retried[1] != 2 {
		t.Fatalf("OnRetry attempts = %v", retried)
	}
}

func TestDoExhausted(t *testing.T) {
	p := instantPolicy(3)
	err := p.Do(context.Background(), "h1", failN(99))
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("Do = %v, want ExhaustedError", err)
	}
	if ex.Host != "h1" || ex.Attempts != 3 {
		t.Fatalf("ExhaustedError = %+v", ex)
	}
	if ex.Last == nil || ex.Last.Error() != "boom" {
		t.Fatalf("Last = %v", ex.Last)
	}
}

// TestDoCancelledMidAttempt: an attempt cancelled mid-flight returns the
// context's error and is not reported as a failed attempt — the caller
// gave up, the host did not fail.
func TestDoCancelledMidAttempt(t *testing.T) {
	p := instantPolicy(5)
	retried := 0
	p.OnRetry = func(string, int, error) { retried++ }
	ctx, cancel := context.WithCancel(context.Background())
	err := p.Do(ctx, "h1", func(int) error {
		cancel()
		return errors.New("interrupted")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do = %v, want context.Canceled", err)
	}
	if retried != 0 {
		t.Fatalf("cancelled attempt reported to OnRetry %d times", retried)
	}
}
