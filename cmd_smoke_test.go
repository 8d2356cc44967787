package autonetkit

// Smoke tests for the executables: each command is compiled and run against
// the shipped Small-Internet GraphML fixture, asserting on its output.
// Gated behind -short because compiling five binaries takes a few seconds.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCmd compiles one command into a temp dir and returns the binary
// path.
func buildCmd(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func runCmd(t *testing.T, bin string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

const fixture = "testdata/small_internet.graphml"

func TestCmdAnkbuild(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test")
	}
	bin := buildCmd(t, "ankbuild")
	outDir := t.TempDir()
	out, err := runCmd(t, bin, "-in", fixture, "-out", outDir, "-verify")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"loaded 14 devices", "verification passed", "rendered"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if _, err := os.Stat(filepath.Join(outDir, "localhost", "netkit", "lab.conf")); err != nil {
		t.Errorf("lab.conf not written: %v", err)
	}
	// Missing -in exits non-zero.
	if _, err := runCmd(t, bin); err == nil {
		t.Error("ankbuild without -in succeeded")
	}
	// -trace prints the pipeline span tree and counters; GOMAXPROCS picks
	// the pool size without changing output.
	cmd := exec.Command(bin, "-in", fixture, "-out", t.TempDir(), "-trace")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=4")
	traced, err := cmd.CombinedOutput()
	out = string(traced)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"pipeline trace:", "Compile", "Render", "counters:", "devices_compiled", "files_rendered"} {
		if !strings.Contains(out, want) {
			t.Errorf("-trace output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdAnkdeploy(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test")
	}
	bin := buildCmd(t, "ankdeploy")
	out, err := runCmd(t, bin, "-in", fixture)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"[archive]", "[lstart]", "lab running: 14 machines", "BGP converged"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdAnkmeasure(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test")
	}
	bin := buildCmd(t, "ankmeasure")
	out, err := runCmd(t, bin, "-in", fixture, "-src", "as300r2", "-dst", "as100r2")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "[as300r2, as40r1, as1r1, as20r3, as20r2, as100r1, as100r2]") {
		t.Errorf("paper path missing:\n%s", out)
	}
	out, err = runCmd(t, bin, "-in", fixture, "-validate")
	if err != nil {
		t.Fatalf("validate: %v\n%s", err, out)
	}
	if !strings.Contains(out, "matches design") {
		t.Errorf("validation output:\n%s", out)
	}
}

func TestCmdAnkviz(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test")
	}
	bin := buildCmd(t, "ankviz")
	htmlPath := filepath.Join(t.TempDir(), "ebgp.html")
	out, err := runCmd(t, bin, "-in", fixture, "-overlay", "ebgp", "-out", htmlPath)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	b, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "<!DOCTYPE html>") || !strings.Contains(string(b), "as1r1") {
		t.Error("html output wrong")
	}
	// JSON to stdout.
	out, err = runCmd(t, bin, "-in", fixture, "-overlay", "ospf")
	if err != nil || !strings.Contains(out, `"name": "ospf"`) {
		t.Errorf("json output: %v\n%s", err, out)
	}
}

func TestCmdAnkchaos(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test")
	}
	bin := buildCmd(t, "ankchaos")
	scenario := filepath.Join("testdata", "chaos", "link_outage.chaos")
	out, err := runCmd(t, bin, "-in", fixture, "-scenario", scenario)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	// The report output is deterministic: diff against the golden file.
	golden, err := os.ReadFile(filepath.Join("testdata", "chaos", "link_outage.report"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Errorf("report differs from golden:\n--- got ---\n%s--- want ---\n%s", out, golden)
	}
	// -platform retargets the topology before it is built, so the same
	// scenario runs (to the same report) on the other router platforms.
	for _, platform := range []string{"dynagen", "junosphere"} {
		out, err := runCmd(t, bin, "-in", fixture, "-scenario", scenario, "-platform", platform)
		if err != nil || out != string(golden) {
			t.Errorf("-platform %s: %v; report differs from golden:\n--- got ---\n%s--- want ---\n%s", platform, err, out, golden)
		}
	}
	// A violated assertion exits 1 with an error finding.
	bad := filepath.Join(t.TempDir(), "bad.chaos")
	if err := os.WriteFile(bad, []byte("fail-node as20r3\ncheck reachable as1r1 as20r3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = runCmd(t, bin, "-in", fixture, "-scenario", bad)
	if err == nil {
		t.Errorf("violated check exited 0:\n%s", out)
	}
	if !strings.Contains(out, "VIOLATED") || !strings.Contains(out, "[error] chaos-check") {
		t.Errorf("violation not reported:\n%s", out)
	}
	// Missing flags exit non-zero.
	if _, err := runCmd(t, bin, "-in", fixture); err == nil {
		t.Error("ankchaos without -scenario succeeded")
	}
	// -trace appends the span tree with the chaos steps.
	out, err = runCmd(t, bin, "-in", fixture, "-scenario", scenario, "-trace")
	if err != nil {
		t.Fatalf("-trace: %v\n%s", err, out)
	}
	for _, want := range []string{"pipeline trace:", "Chaos", "chaos_steps"} {
		if !strings.Contains(out, want) {
			t.Errorf("-trace output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdAnknren(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test")
	}
	bin := buildCmd(t, "anknren")
	out, err := runCmd(t, bin, "-ases", "4", "-routers", "24", "-links", "30")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "24") || !strings.Contains(out, "30") {
		t.Errorf("table missing sizes:\n%s", out)
	}
}

func TestCmdAnksched(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test")
	}
	bin := buildCmd(t, "anksched")
	script := filepath.Join("testdata", "sched", "drill.sched")
	out, err := runCmd(t, bin, "-script", script, "-seed", "2013")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	// The drill output is deterministic: diff against the golden file.
	golden, err := os.ReadFile(filepath.Join("testdata", "sched", "drill.report"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Errorf("report differs from golden:\n--- got ---\n%s--- want ---\n%s", out, golden)
	}
	// -eval runs one command against a -hosts/-cap uniform pool; -json
	// renders the status snapshot as JSON.
	out, err = runCmd(t, bin, "-hosts", "4", "-cap", "8", "-json", "-eval", "reserve web vms=6 policy=spread")
	if err != nil {
		t.Fatalf("-eval: %v\n%s", err, out)
	}
	for _, want := range []string{`"reservations"`, `"name": "web"`, `"state": "active"`} {
		if !strings.Contains(out, want) {
			t.Errorf("-eval -json output missing %q:\n%s", want, out)
		}
	}
	// A drill left with queued demand exits 3.
	if _, err := runCmd(t, bin, "-hosts", "1", "-cap", "2", "-eval", "reserve big vms=5"); err == nil {
		t.Error("queued reservation exited 0")
	}
	// Missing script exits non-zero.
	if _, err := runCmd(t, bin); err == nil {
		t.Error("anksched without -script succeeded")
	}
	// Malformed script lines carry file:line positions.
	bad := filepath.Join(t.TempDir(), "bad.sched")
	if err := os.WriteFile(bad, []byte("host h1 4\nreserve web spread=zero\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := runCmd(t, bin, "-script", bad); err == nil || !strings.Contains(out, "bad.sched:2:") {
		t.Errorf("bad spec not located (err=%v):\n%s", err, out)
	}
}
