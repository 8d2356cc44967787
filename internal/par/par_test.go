package par

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// Every index runs exactly once, on a goroutine numbered below Workers(n),
// and its result lands in its own slot, at any GOMAXPROCS.
func TestDoResultsInIndexOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		const n = 257
		out := make([]int, n)
		calls := make([]atomic.Int32, n)
		err := Do(n, func(w, i int) error {
			if w < 0 || w >= Workers(n) {
				return fmt.Errorf("index %d on goroutine %d of %d", i, w, Workers(n))
			}
			calls[i].Add(1)
			out[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		for i := range out {
			if out[i] != i*i || calls[i].Load() != 1 {
				t.Fatalf("GOMAXPROCS=%d: slot %d = %d after %d calls, want %d after 1", procs, i, out[i], calls[i].Load(), i*i)
			}
		}
	}
}

// Index 0 fails only after index 5 has failed: the error is still index 0's.
func TestDoLowestIndexErrorWins(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	err0, err5 := errors.New("index 0"), errors.New("index 5")
	for range 50 {
		fiveFailed := make(chan struct{})
		err := Do(10, func(_, i int) error {
			switch i {
			case 0:
				<-fiveFailed
				return err0
			case 5:
				close(fiveFailed)
				return err5
			}
			return nil
		})
		if err != err0 {
			t.Fatalf("Do = %v, want %v", err, err0)
		}
	}
}

// Once a failure is seen no higher index starts: every goroutine but the
// failing one is held in a call above the failure until that goroutine has
// exited, and then none of them takes another index. Later calls above the
// failure are counted but not held, so a Do that keeps going fails the
// count instead of hanging.
func TestDoStopsAboveFailure(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const n, failAt = 1000, 5
	workers := Workers(n)
	var above atomic.Int32
	release := make(chan struct{})
	done := make(chan error)
	go func() {
		done <- Do(n, func(_, i int) error {
			switch {
			case i == failAt:
				for above.Load() < int32(workers-1) {
					runtime.Gosched()
				}
				return errors.New("fail")
			case i > failAt && above.Add(1) < int32(workers):
				<-release
			}
			return nil
		})
	}()
	// Wait for every goroutine but the failing one to be held, then for
	// the failing one to exit.
	stacks := make([]byte, 1<<20)
	for above.Load() < int32(workers-1) || running(stacks) > workers-1 {
		runtime.Gosched()
	}
	close(release)
	if err := <-done; err == nil {
		t.Fatal("Do succeeded with a failing index")
	}
	if got := above.Load(); got != int32(workers-1) {
		t.Fatalf("%d calls above the failed index, want %d (one per held goroutine)", got, workers-1)
	}
}

// running counts the goroutines in Do's loop, using buf for the dump.
func running(buf []byte) int {
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "internal/par.Do.func1(")
}

func TestDoEmpty(t *testing.T) {
	if err := Do(0, func(_, _ int) error { return errors.New("called") }); err != nil {
		t.Fatal(err)
	}
}
