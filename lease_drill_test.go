package autonetkit

import (
	"os"
	"strings"
	"testing"

	"autonetkit/internal/chaos"
	"autonetkit/internal/deploy"
	"autonetkit/internal/sched"
)

// runLeaseDrill builds the Small-Internet fixture and deploys it through a
// lease-enabled, preemption-enabled scheduler whose backend is a seeded
// fault decorator. The lab (weight 5) shares the cluster with a low-weight
// batch reservation that fills every spare slot and a mid-weight probe
// reservation that must preempt it. Then testdata/lease/lease_drill.chaos
// injects scheduled migration faults and silences a host, and the report
// is returned.
func runLeaseDrill(t *testing.T) string {
	t.Helper()
	net, err := Load(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Build(BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	backend := sched.NewFlakyBackend(sched.Uniform(4, 8), 2013)
	dep, err := net.DeployCluster(backend, deploy.ClusterOptions{
		Seed:    2013,
		Weight:  5,
		Preempt: true,
		Lease:   sched.LeasePolicy{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Fill the spare capacity with weight-1 batch work, then admit a
	// weight-3 probe that can only fit by evicting it. Sizes derive from
	// the lab's own footprint, so the drill holds the invariant that the
	// silenced host's VMs exactly fit surviving capacity (3 hosts x 8
	// slots): nothing strands, everything moves.
	labVMs := len(dep.Lab().VMNames())
	free := dep.Cluster.Capacity().FreeSlots
	if _, err := dep.Cluster.Reserve(sched.Spec{Name: "batch", Tenant: "batch", Count: free, Weight: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Cluster.Reserve(sched.Spec{Name: "probe", Tenant: "probe", Count: 24 - labVMs, Weight: 3}); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open("testdata/lease/lease_drill.chaos")
	if err != nil {
		t.Fatal(err)
	}
	sc, diags := chaos.ParseScenarioFile(f, "lease_drill.chaos")
	f.Close()
	if diags.HasErrors() {
		t.Fatalf("scenario diagnostics:\n%s", diags)
	}
	eng, err := net.Chaos(dep.Lab(), chaos.Options{Hosts: dep})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("drill produced error findings:\n%s", rep)
	}
	return rep.String() + "\n"
}

// Golden lease drill: silencing a substrate host under a running lab
// collapses its heartbeat lease, re-places its VMs through scheduled
// migration faults, and leaves the preemption ordering intact —
// byte-reproducibly across runs, matching
// testdata/lease/lease_drill.report (regenerate deliberately with
// UPDATE_LEASE_GOLDEN=1 go test -run TestGoldenLeaseDrill).
func TestGoldenLeaseDrill(t *testing.T) {
	report := runLeaseDrill(t)

	// Structural assertions first, so a stale golden cannot mask a broken
	// drill: the silenced host's VMs must all move, the faults must be
	// scheduled, and every reservation check must come back ok.
	for _, want := range []string{
		"migration failure rate onto h03 set to 0.30",
		"VMs moved, 0 stranded",
		"ok (reservation lab active)",
		"ok (reservation probe active)",
		"ok (reservation batch preempted)",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}

	goldenPath := "testdata/lease/lease_drill.report"
	if os.Getenv("UPDATE_LEASE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, []byte(report), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if report != string(golden) {
		t.Errorf("drill report differs from golden:\n--- got ---\n%s--- want ---\n%s", report, golden)
	}
}
