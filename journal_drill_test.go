package autonetkit

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"autonetkit/internal/chaos"
	"autonetkit/internal/deploy"
	"autonetkit/internal/sched"
)

// runAnksched runs the anksched binary with the given stdin script,
// returning stdout only (recovery notes go to stderr by design — they name
// epochs and are not part of the byte-deterministic drill output).
func runAnksched(t *testing.T, bin, script string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, append(args, "-script", "-")...)
	cmd.Stdin = strings.NewReader(script)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("anksched %v: %v\nstderr:\n%s", args, err, stderr.String())
	}
	return string(out)
}

// TestAnkschedStateDirByteIdentity is the CLI-level recovery drill: the
// same op sequence produces byte-identical output whether it runs in one
// uncrashed process or is split across two processes that hand state
// over through a -state-dir journal — recovery is invisible in the
// output. Each row's golden pins either the whole run or only the
// recovered process's output (regenerate deliberately with
// UPDATE_JOURNAL_GOLDEN=1). A reopen under another seed must fail.
func TestAnkschedStateDirByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test")
	}
	bin := buildCmd(t, "anksched")
	read := func(path string) string {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	for _, row := range []struct {
		name, ops, status string
		args              []string
		snapshotEvery     string
		golden            string
		goldenIsRecovered bool // the golden is the second process's output, not the whole run's
	}{
		{
			name: "journal", ops: "testdata/journal/ops.sched", status: "testdata/journal/status.sched",
			args: []string{"-hosts", "4", "-cap", "6", "-seed", "2013"}, snapshotEvery: "3",
			golden: "testdata/journal/drill.status", goldenIsRecovered: true,
		},
		{
			name: "lease", ops: "testdata/lease/hostile.sched", status: "testdata/lease/status.sched",
			args: []string{"-hosts", "4", "-cap", "8", "-seed", "2013", "-lease", "-preempt"}, snapshotEvery: "5",
			golden: "testdata/lease/hostile.report",
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			ops, status := read(row.ops), read(row.status)

			// One process, no durability: the reference output.
			whole := runAnksched(t, bin, ops+status, row.args...)

			// Two processes handing over through the journal.
			dir := t.TempDir()
			durable := append(append([]string{}, row.args...), "-state-dir", dir, "-snapshot-every", row.snapshotEvery)
			part1 := runAnksched(t, bin, ops, durable...)
			part2 := runAnksched(t, bin, status, durable...)
			if got := part1 + part2; got != whole {
				t.Errorf("split run differs from uncrashed run:\n--- split ---\n%s--- whole ---\n%s", got, whole)
			}

			got := whole
			if row.goldenIsRecovered {
				got = part2
			}
			if os.Getenv("UPDATE_JOURNAL_GOLDEN") != "" {
				if err := os.WriteFile(row.golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if want := read(row.golden); got != want {
				t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", row.golden, got, want)
			}

			// A third process reopens the same directory once more: double
			// recovery must not drift.
			if part3 := runAnksched(t, bin, status, durable...); part3 != part2 {
				t.Errorf("second recovery drifted:\n--- first ---\n%s--- second ---\n%s", part2, part3)
			}

			// The journal belongs to its seed: reopening under another one
			// is an error, not a silent misplacement.
			cmd := exec.Command(bin, append(durable, "-seed", "7", "-script", "-")...)
			cmd.Stdin = strings.NewReader(status)
			out, err := cmd.CombinedOutput()
			if err == nil || !strings.Contains(string(out), "seed") {
				t.Errorf("reopen under -seed 7: err=%v, output:\n%s", err, out)
			}
		})
	}
}

// runSchedCrashDrill deploys the Small-Internet fixture through a durable
// cluster scheduler and runs the crash_drill.chaos scenario (drain, then
// kill + recover the scheduler mid-lab).
func runSchedCrashDrill(t *testing.T) string {
	t.Helper()
	net, err := Load(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Build(BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	dep, err := net.DeployCluster(sched.Uniform(4, 5), deploy.ClusterOptions{
		Seed:     2013,
		StateDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Cluster.Close()
	f, err := os.Open("testdata/journal/crash_drill.chaos")
	if err != nil {
		t.Fatal(err)
	}
	sc, diags := chaos.ParseScenarioFile(f, "crash_drill.chaos")
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

// Golden scheduler crash drill: the durable scheduler is killed and
// recovered under a running lab; the recovered state is byte-identical,
// the lab never converges away from its post-drain state, and the report
// matches testdata/journal/crash_drill.report (regenerate deliberately
// with UPDATE_JOURNAL_GOLDEN=1 go test -run TestGoldenSchedCrashDrill).
func TestGoldenSchedCrashDrill(t *testing.T) {
	report := runSchedCrashDrill(t)

	// Structural assertions first, so a stale golden cannot mask a broken
	// drill.
	for _, want := range []string{
		"crash-sched",
		"byte-identical",
		"VMs moved, 0 stranded",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}

	goldenPath := "testdata/journal/crash_drill.report"
	if os.Getenv("UPDATE_JOURNAL_GOLDEN") != "" {
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
