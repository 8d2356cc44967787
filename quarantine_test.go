package autonetkit

import (
	"errors"
	"net/netip"
	"os"
	"strings"
	"testing"

	"autonetkit/internal/deploy"
	"autonetkit/internal/emul"
	"autonetkit/internal/obs"
)

// Golden partial-boot drill: one device of the Small-Internet lab ships a
// bgpd.conf with three independent errors; a lenient deployment
// quarantines exactly that device, boots the other 13, and the quarantine
// report is byte-identical to testdata/quarantine/report.golden
// (regenerate deliberately with UPDATE_QUARANTINE_GOLDEN=1 go test -run
// TestGoldenQuarantineDrill).
func TestGoldenQuarantineDrill(t *testing.T) {
	net, err := Load(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Build(BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	const victim = "as100r2"
	confPath := "localhost/netkit/" + victim + "/etc/quagga/bgpd.conf"
	if _, ok := net.Files.Read(confPath); !ok {
		t.Fatalf("fixture renders no %s", confPath)
	}
	net.Files.Write(confPath, "router bgp 100\n"+
		"  bgp router-id junk\n"+
		"  network nonsense\n"+
		"  neighbor bad-addr remote-as 20\n")

	dep, err := net.Deploy(deploy.Options{Lenient: true})
	if !errors.Is(err, emul.ErrPartialBoot) {
		t.Fatalf("lenient deploy error = %v, want emul.ErrPartialBoot", err)
	}
	lab := dep.Lab()
	if q := lab.Quarantined(); len(q) != 1 || q[0] != victim {
		t.Fatalf("quarantined = %v, want [%s]", q, victim)
	}
	if got := net.Stats().Counters[obs.CounterDevicesQuarantined]; got != 1 {
		t.Errorf("%s counter = %d, want 1", obs.CounterDevicesQuarantined, got)
	}

	// The quarantine report: the machine list plus every diagnostic in
	// canonical sorted form — exactly what ankdeploy -lenient prints.
	var sb strings.Builder
	sb.WriteString("quarantined: " + strings.Join(lab.Quarantined(), ", ") + "\n")
	for _, d := range lab.Diagnostics().Sorted() {
		sb.WriteString(d.String() + "\n")
	}
	report := sb.String()
	goldenPath := "testdata/quarantine/report.golden"
	if os.Getenv("UPDATE_QUARANTINE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, []byte(report), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if report != string(golden) {
		t.Errorf("quarantine report differs from golden:\n--- got ---\n%s--- want ---\n%s", report, golden)
	}

	// The degraded lab is measurable: a reachability matrix over the 13
	// survivors runs to completion, and routers away from the quarantined
	// stub still reach each other.
	survivors := make([]string, 0, len(lab.VMNames()))
	for _, name := range lab.VMNames() {
		if name != victim {
			survivors = append(survivors, name)
		}
	}
	loopbacks := map[string]netip.Addr{}
	for _, e := range net.Alloc.Table.Entries() {
		if e.Loopback {
			loopbacks[string(e.Node)] = e.Addr
		}
	}
	client := net.Measure(lab)
	matrix, err := client.ReachabilityMatrix(survivors, func(n string) netip.Addr { return loopbacks[n] })
	if err != nil {
		t.Fatalf("reachability over survivors: %v", err)
	}
	if len(matrix.Nodes) != len(survivors) {
		t.Errorf("matrix covers %d nodes, want %d", len(matrix.Nodes), len(survivors))
	}
	if !matrix.Reach("as300r2", "as1r1") {
		t.Error("survivor as300r2 cannot reach as1r1 in the degraded lab")
	}
}
