package emul

import (
	"strings"
	"testing"
)

// TestFailNodesBatchConvergesOnce pins the host batches: a whole host's
// worth of machines goes down under a single re-convergence, and a Reboot
// brings them all back byte-identical to their boot-time configs.
func TestFailNodesBatchConvergesOnce(t *testing.T) {
	lab, _ := incidentLab(t)
	before := lab.LastIncidentID()
	if _, err := lab.Apply(Change{HostDown: []string{"r2", "r1"}}); err != nil {
		t.Fatal(err)
	}
	// One incident id for the whole batch (one converge).
	if got := lab.LastIncidentID(); got != before+1 {
		t.Fatalf("incident id advanced by %d, want 1", got-before)
	}
	for _, name := range []string{"r1", "r2"} {
		vm, _ := lab.VM(name)
		for _, ic := range vm.Config.Interfaces {
			if ic.Name != "lo" {
				t.Fatalf("%s still has data-plane interface %s", name, ic.Name)
			}
		}
	}
	// Logs are in sorted name order.
	var downLines []string
	for _, ev := range lab.Events() {
		if strings.Contains(ev, "down (") {
			downLines = append(downLines, ev)
		}
	}
	if len(downLines) != 2 || !strings.Contains(downLines[0], "r1") || !strings.Contains(downLines[1], "r2") {
		t.Fatalf("down lines not sorted: %v", downLines)
	}

	// Re-boot the batch: one more converge, configs restored.
	if _, err := lab.Apply(Change{Reboot: []string{"r2", "r1"}}); err != nil {
		t.Fatal(err)
	}
	if got := lab.LastIncidentID(); got != before+2 {
		t.Fatalf("incident id advanced by %d after reboot, want 2", got-before)
	}
	for _, name := range []string{"r1", "r2"} {
		vm, _ := lab.VM(name)
		data := 0
		for _, ic := range vm.Config.Interfaces {
			if ic.Name != "lo" {
				data++
			}
		}
		if data == 0 {
			t.Fatalf("%s has no data-plane interfaces after re-boot", name)
		}
	}
}

func TestFailNodesBatchErrors(t *testing.T) {
	lab, _ := incidentLab(t)
	hostDown := func(names ...string) error { _, err := lab.Apply(Change{HostDown: names}); return err }
	reboot := func(names ...string) error { _, err := lab.Apply(Change{Reboot: names}); return err }
	if err := hostDown("ghost"); err == nil {
		t.Fatal("unknown machine should error")
	}
	if err := hostDown("r1"); err != nil {
		t.Fatal(err)
	}
	// Failing an already-down machine again (alone) is an error; mixed
	// batches skip the already-down ones.
	if err := hostDown("r1"); err == nil {
		t.Fatal("all-down batch should error")
	}
	if err := hostDown("r1", "r2"); err != nil {
		t.Fatalf("mixed batch should skip the downed machine: %v", err)
	}
	if err := reboot("ghost"); err == nil {
		t.Fatal("unknown machine in reboot should error")
	}
	// Re-boot is idempotent: intact machines re-install as a no-op.
	if err := reboot("r1", "r2", "r3"); err != nil {
		t.Fatal(err)
	}
}
