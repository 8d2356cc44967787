// Package par is the one fan-out the build and the lab share: an index map
// over GOMAXPROCS goroutines whose results and error do not depend on the
// schedule.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the number of goroutines Do(n, …) runs on: min(GOMAXPROCS, n).
func Workers(n int) int { return min(runtime.GOMAXPROCS(0), n) }

// Do calls fn(w, i) for every i in [0, n) on Workers(n) goroutines and
// returns once every call has returned. w, in [0, Workers(n)), names the
// goroutine making the call, so fn may keep per-goroutine scratch in a slice
// indexed by w; results belong in caller-owned slots indexed by i.
//
// Do returns the error of the lowest failing i, whatever the schedule.
// Indices are handed out in ascending order, so when i fails every lower
// index has already been handed out and still runs (one of them may fail
// too), and no higher index starts once the failure is seen.
//
// The caller hands indices out over an unbuffered channel, selecting
// against the first failure. Letting the goroutines claim them from a
// shared counter is faster but leaves no P idle for the GC, which then
// marks with assists and sets a higher heap goal: on a 2-core host
// build-nren1158 peaks at 249 MB instead of 215.
//
// One fan-out keeps its own goroutines on purpose: measure's
// ReachabilityMatrix starts one per source row. Against Do over rows,
// BenchmarkP14_ReachabilityMatrix (240 routers, five alternated runs on a
// 2-core host) reads a fresh matrix in 28.7 ms (23.6–30.7) instead of 36.4
// (32.9–40.2) at two procs; an unchanged matrix, and either at one proc,
// is equal within the runs' spread. Do's workers walk their rows in the
// same destination order, so they likely queue on one destination's
// hop-tree build while the row goroutines spread the builds out.
func Do(n int, fn func(w, i int) error) error {
	errs := make([]error, n)
	var stop atomic.Int64 // the lowest failed index, n while none has failed
	stop.Store(int64(n))
	next, failed := make(chan int), make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	for w := range Workers(n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if int64(i) > stop.Load() {
					continue // handed out before the failure was seen
				}
				if errs[i] = fn(w, i); errs[i] != nil {
					for s := stop.Load(); int64(i) < s && !stop.CompareAndSwap(s, int64(i)); s = stop.Load() {
					}
					once.Do(func() { close(failed) })
				}
			}
		}()
	}
feed:
	for i := range n {
		select {
		case next <- i:
		case <-failed:
			break feed
		}
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
