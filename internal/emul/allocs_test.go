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
	// Measured with go1.24.0 at GOMAXPROCS=2: 10.68–10.73 MB. The ceiling is
	// that plus 8 %. Copying each changed route list whole instead of
	// patching it in place reads 12.13 MB; before lists were patched in
	// place, unchanged nodes carried over and speakers rewired in their own
	// arrays, 14.81 MB.
	const ceiling = 11_590_000
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
