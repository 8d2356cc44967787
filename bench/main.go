// Command bench is the repository's benchmark: four workloads, eleven
// bounded end-to-end metrics, and a traced run that breaks them down by
// layer. README.md beside this file describes each of them.
//
//	go run -C bench .                                  every workload, untraced
//	go run -C bench . -trace 1                         ... then one traced pass each
//	go run -C bench . -runs 10 -out results/X.json     a result set to compare
//	go run -C bench . -compare OLD.json NEW.json       verdict per metric and workload
//	go run -C bench . -workload lab-nren240 -seed 11   one workload, one result line
//
// A run of one workload ends with one JSON line: correct, attempted,
// failed and the metrics (end-to-end when -trace 0, per-layer when
// -trace 1). The process exits non-zero when any check failed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this one workload in this process (default: each in a child process)")
	seed := fs.Int64("seed", 7, "seed of the inputs; the same seed gives the same inputs")
	seconds := fs.Int("seconds", runSeconds, "measuring time the sample counts are scaled to")
	trace := fs.Int("trace", 0, "1: the traced run, which reports the per-layer metrics")
	runs := fs.Int("runs", 1, "untraced runs per workload, on seeds seed, seed+1, ...")
	out := fs.String("out", "", "write the result set to this file")
	compare := fs.Bool("compare", false, "compare two result sets: -compare OLD.json NEW.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes OLD.json NEW.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds < 1 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *name == "" {
		return runAll(root, *seed, *seconds, *runs, *trace == 1, *out, stdout, stderr)
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(stderr, "bench: no workload %q\n", *name)
		return 2
	}
	res, err := runWorkload(w, *seed, *seconds, *trace == 1, root, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := writeJSON(stdout, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// findRoot walks up from the working directory to the autonetkit module:
// the benchmark builds cmd/ankchaos there and reads the committed goldens.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if mod, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(mod), "module autonetkit\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("not inside the autonetkit module (run as: go run -C bench .)")
		}
		dir = parent
	}
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run of one workload ends with.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func writeJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// finite keeps a result line encodable when a layer had nothing to time.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// runWorkload runs one workload in this process and prints its metrics.
func runWorkload(w *workload, seed int64, seconds int, traced bool, root string, out io.Writer) (result, error) {
	scratch := filepath.Join(root, "bench", ".scratch")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(scratch, w.name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	r := newRun(w, seed, seconds, traced, root, dir)
	if err := r.setUp(); err != nil {
		return result{}, err
	}
	layer := map[string]float64{}
	r.measure(layer)

	res := result{Metrics: map[string]value{}}
	fmt.Fprintf(out, "workload %s  seed %d  trace %v\n  stages: %s\n", w.name, seed, traced, strings.Join(r.took, ", "))
	if traced {
		r.layers(layer)
		for _, m := range perLayer {
			res.Metrics[m.name] = value{finite(layer[m.name]), m.unit}
			fmt.Fprintf(out, "  %-28s %14.6g %s\n", m.name, finite(layer[m.name]), m.unit)
		}
		spans := filepath.Join(scratch, "spans-"+w.name+".json")
		if err := r.tr.writeSpans(spans); err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "  %d spans written to %s\n", len(r.tr.spans), spans)
	} else {
		if peak := r.peakRSS(); peak > 0 { // 0: /proc/self/status could not be read
			r.samples["peak_rss_mb"] = []float64{peak}
		}
		for _, m := range endToEnd {
			xs := r.samples[m.name]
			if len(xs) == 0 {
				r.begin().failf("%s: no iteration passed its checks", m.name)
				continue
			}
			q1, q3 := quartiles(xs)
			res.Metrics[m.name] = value{median(xs), m.unit}
			fmt.Fprintf(out, "  %-16s %12.6g %-3s n=%-4d q1=%.6g q3=%.6g max=%.6g\n", m.name, median(xs), m.unit, len(xs), q1, q3, slices.Max(xs))
		}
		fmt.Fprintf(out, "  %-16s %12.6g ratio (%d failed of %d attempted)\n", "failed_share", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	}
	for _, p := range r.problems {
		fmt.Fprintln(out, "  FAILED:", p)
	}
	res.Attempted, res.Failed, res.Correct = r.attempted, r.failed, r.failed == 0
	return res, nil
}

// peakRSSMB is the high-water mark of this process's resident set.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var kb float64
		if _, err := fmt.Sscanf(sc.Text(), "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// environment is the hardware block of a result set.
type environment struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	OS         string `json:"os"`
}

func readEnvironment(root string) environment {
	env := environment{
		Commit: "unknown", Go: runtime.Version(), CPU: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), OS: runtime.GOOS + "/" + runtime.GOARCH,
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
		status := exec.Command("git", "status", "--porcelain")
		status.Dir = root
		if out, err := status.Output(); err == nil && len(out) > 0 {
			env.Commit += "+uncommitted"
		}
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}
