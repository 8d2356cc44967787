package autonetkit

import (
	"os"
	"strings"
	"testing"

	"autonetkit/internal/chaos"
	"autonetkit/internal/compile"
	"autonetkit/internal/deploy"
	"autonetkit/internal/obs"
	"autonetkit/internal/render"
	"autonetkit/internal/sched"
)

// runSchedDrainDrill builds the Small-Internet fixture with the given
// worker count, deploys it through the cluster scheduler onto four
// emulated substrate hosts, runs testdata/sched/drain_drill.chaos (a
// drain-host maintenance drill against the running lab) and returns the
// rendered report.
func runSchedDrainDrill(t *testing.T, workers int) string {
	t.Helper()
	net, err := Load(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Build(BuildOptions{
		Compile: compile.Options{Workers: workers},
		Render:  render.Options{Workers: workers},
	}); err != nil {
		t.Fatal(err)
	}
	dep, err := net.DeployCluster(sched.Uniform(4, 5), deploy.ClusterOptions{Seed: 2013})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open("testdata/sched/drain_drill.chaos")
	if err != nil {
		t.Fatal(err)
	}
	sc, diags := chaos.ParseScenarioFile(f, "drain_drill.chaos")
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

// Golden scheduler drain drill: draining a substrate host under a running
// lab live re-places its VMs, re-boots them, and the network reconverges —
// byte-reproducibly across runs and across build worker counts, matching
// testdata/sched/drain_drill.report (regenerate deliberately with
// UPDATE_SCHED_GOLDEN=1 go test -run TestGoldenSchedDrainDrill).
func TestGoldenSchedDrainDrill(t *testing.T) {
	report := runSchedDrainDrill(t, 1)
	if wide := runSchedDrainDrill(t, 8); wide != report {
		t.Fatalf("report differs between Workers=1 and Workers=8:\n--- 1 ---\n%s--- 8 ---\n%s", report, wide)
	}

	// Structural assertions first, so a stale golden cannot mask a broken
	// drill: VMs must actually move and the post-drain check must pass.
	for _, want := range []string{
		"VMs moved, 0 stranded",
		"drain-host",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}

	goldenPath := "testdata/sched/drain_drill.report"
	if os.Getenv("UPDATE_SCHED_GOLDEN") != "" {
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

// TestDeployClusterBootsLabLikeDeploy: the scheduled path hands the lab the
// same boot options as the single-host path, so the lab's own counters in
// Stats() are identical whichever way the same tree was deployed, and a
// Shards setting reaches the convergence engine.
func TestDeployClusterBootsLabLikeDeploy(t *testing.T) {
	build := func() *Network {
		t.Helper()
		net, err := Load(fixture)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Build(BuildOptions{}); err != nil {
			t.Fatal(err)
		}
		return net
	}
	single, multi := build(), build()
	if _, err := single.Deploy(deploy.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := multi.DeployCluster(sched.Uniform(4, 5), deploy.ClusterOptions{Seed: 2013}); err != nil {
		t.Fatal(err)
	}
	want, got := single.Stats().Counters, multi.Stats().Counters
	for _, name := range []string{obs.CounterBGPPrefixesDecided, obs.CounterBGPSpeakersSkipped} {
		if want[name] == 0 || got[name] != want[name] {
			t.Errorf("%s: DeployCluster = %d, Deploy = %d (want equal, non-zero)", name, got[name], want[name])
		}
	}

	sharded := build()
	if _, err := sharded.DeployCluster(sched.Uniform(4, 5), deploy.ClusterOptions{
		Options: deploy.Options{Shards: 4}, Seed: 2013,
	}); err != nil {
		t.Fatal(err)
	}
	if got := sharded.Stats().Counters[obs.CounterShardRoundsParallel]; got == 0 {
		t.Errorf("%s = 0 under Shards: 4: the setting never reached the lab", obs.CounterShardRoundsParallel)
	}
}
