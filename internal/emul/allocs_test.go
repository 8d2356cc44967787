package emul

import (
	"runtime"
	"testing"

	"autonetkit/internal/design"
)

// TestIncidentAllocationCeiling: one link fail and restore on a running
// 60-router lab (two reconvergences, each with its data-plane generation)
// allocates no more than a ceiling: the measured value plus a margin for
// the run-to-run spread. A change that lowers the measured value lowers the
// ceiling with it. The link is an AS's uplink, so the incident moves BGP
// routes on every router of the AS and the bound covers the route lists as
// well as the IGP and the data plane. GOMAXPROCS is pinned because the
// data-plane fan-out keeps scratch per goroutine. The first round trip
// after boot sizes the lists and scratch buffers and is not counted.
func TestIncidentAllocationCeiling(t *testing.T) {
	// Measured with go1.24.0 at GOMAXPROCS=2: 9.93–9.94 MB. The ceiling is
	// that plus 8 %. With a 168-byte route per list entry instead of a prefix
	// and a shared attribute record it read 10.68–10.73 MB; copying each
	// changed route list whole instead of patching it in place, 12.13 MB;
	// before lists were patched in place, unchanged nodes carried over and
	// speakers rewired in their own arrays, 14.81 MB.
	const ceiling = 10_736_000
	if raceDetector {
		t.Skip("allocation bytes not asserted under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	lab := nrenLab(t, 60, "netkit", "quagga", design.IGPOSPF)
	if err := lab.Boot(BootOptions{}); err != nil {
		t.Fatal(err)
	}
	link := lab.Links()[3]
	roundTrip := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := lab.FailLink(link[0], link[1]); err != nil {
			t.Fatal(err)
		}
		if err := lab.RestoreLink(link[0], link[1]); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first := roundTrip()
	got := roundTrip()
	t.Logf("fail+restore of %v allocates %d bytes (%d on the first round trip)", link, got, first)
	if got > ceiling {
		t.Errorf("fail+restore of %v allocates %d bytes, ceiling %d", link, got, ceiling)
	}
}

// TestColdConvergeAllocationCeiling: a soft reset of every speaker on a
// running 60-router lab (BenchmarkP9's cold run at a quarter of its size: a
// full BGP convergence from empty tables, and its data-plane generation)
// allocates no more than a ceiling, the measured value plus a margin. It
// bounds what a route list entry and its attributes cost: every adj-RIB-in,
// selection and adj-RIB-out grows from empty. GOMAXPROCS is pinned as in
// TestIncidentAllocationCeiling, and the first reset, which sizes the
// scratch buffers, is not counted.
func TestColdConvergeAllocationCeiling(t *testing.T) {
	// Measured with go1.24.0 at GOMAXPROCS=2: 1.375–1.384 MB. The ceiling is
	// that plus 8 %. With a 168-byte route per list entry, and a fresh AS
	// path per advertisement, it read 3.18 MB.
	const ceiling = 1_495_000
	if raceDetector {
		t.Skip("allocation bytes not asserted under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	lab := nrenLab(t, 60, "netkit", "quagga", design.IGPOSPF)
	if err := lab.Boot(BootOptions{}); err != nil {
		t.Fatal(err)
	}
	all := lab.LiveVMNames()
	cold := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := lab.Apply(Change{SoftReset: all})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("soft reset of every speaker: %+v", res)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first := cold()
	got := cold()
	t.Logf("a cold converge allocates %d bytes (%d on the first)", got, first)
	if got > ceiling {
		t.Errorf("a cold converge allocates %d bytes, ceiling %d", got, ceiling)
	}
}
