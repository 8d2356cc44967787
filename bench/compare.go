package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// resultSet is what -out writes and -compare reads: every run of every
// workload, with the host it ran on and the sample counts it used.
type resultSet struct {
	Env       environment   `json:"env"`
	Seconds   int           `json:"seconds"`
	Workloads []workloadSet `json:"workloads"`
}

type workloadSet struct {
	Name   string         `json:"name"`
	Counts map[string]int `json:"samples"`
	Runs   []seededResult `json:"runs"`
	Traced *seededResult  `json:"traced,omitempty"`
}

type seededResult struct {
	Seed int64 `json:"seed"`
	result
}

func (c counts) asMap() map[string]int {
	return map[string]int{
		"build": c.build, "warm_rebuild": c.warm, "lab": c.lab, "verify": c.verify,
		"incidents": 2 * min(c.pairs, 4), "chaos_cli": c.cli, "cluster": c.cycles, "durable": c.durable,
	}
}

// values collects one metric over a workload's runs.
func (ws workloadSet) values(metric string) []float64 {
	var xs []float64
	for _, r := range ws.Runs {
		if v, ok := r.Metrics[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

func (ws workloadSet) failures() (failed, attempted int) {
	for _, r := range ws.Runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return failed, attempted
}

// child runs one workload in a process of its own, so that its peak
// resident set is its own, relays what it prints and returns its result.
func child(self string, w *workload, seed int64, seconds int, traced bool, stdout, stderr io.Writer) (result, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace)
	cmd.Stderr = stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	last := lines[len(lines)-1]
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		fmt.Fprintln(stdout, string(out))
		if runErr != nil {
			return res, fmt.Errorf("workload %s: %w", w.name, runErr)
		}
		return res, fmt.Errorf("workload %s printed no result line", w.name)
	}
	fmt.Fprintln(stdout, strings.Join(lines[:len(lines)-1], "\n"))
	return res, nil
}

// runAll runs every workload, each run in a child process, prints the
// medians over the runs and optionally writes the result set.
func runAll(root string, seed int64, seconds, runs int, traced bool, outPath string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	set := resultSet{Env: readEnvironment(root), Seconds: seconds}
	fmt.Fprintf(stdout, "commit %s  %s  %s  nproc %d  GOMAXPROCS %d  seconds %d\n",
		set.Env.Commit, set.Env.Go, set.Env.CPU, set.Env.NumCPU, set.Env.GOMAXPROCS, seconds)
	correct := true
	for i := range workloads {
		w := &workloads[i]
		ws := workloadSet{Name: w.name, Counts: w.n.scaled(seconds).asMap()}
		for k := 0; k < runs; k++ {
			res, err := child(self, w, seed+int64(k), seconds, false, stdout, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			correct = correct && res.Correct
			ws.Runs = append(ws.Runs, seededResult{seed + int64(k), res})
		}
		if traced {
			res, err := child(self, w, seed, seconds, true, stdout, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			correct = correct && res.Correct
			ws.Traced = &seededResult{seed, res}
		}
		set.Workloads = append(set.Workloads, ws)
	}
	printSummary(stdout, set)
	if outPath != "" {
		b, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(outPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !correct {
		fmt.Fprintln(stdout, "FAILED: at least one correctness check failed")
		return 1
	}
	return 0
}

// printSummary prints every end-to-end metric of every workload, and for
// a traced set how much of the three headline flows the layers explain.
func printSummary(w io.Writer, set resultSet) {
	fmt.Fprintf(w, "\n%-18s %-16s %12s %-4s %4s %12s %12s %8s %6s\n", "workload", "metric", "median", "unit", "runs", "q1", "q3", "spread", "bound")
	for _, ws := range set.Workloads {
		for _, m := range endToEnd {
			xs := ws.values(m.name)
			if len(xs) == 0 {
				continue
			}
			q1, q3 := quartiles(xs)
			fmt.Fprintf(w, "%-18s %-16s %12.6g %-4s %4d %12.6g %12.6g %7.1f%% %5.0f%%\n",
				ws.Name, m.name, median(xs), m.unit, len(xs), q1, q3, 100*spread(xs), 100*m.bound)
		}
		failed, attempted := ws.failures()
		fmt.Fprintf(w, "%-18s %-16s %12.6g %-4s (%d of %d)\n", ws.Name, "failed_share", float64(failed)/float64(attempted), "ratio", failed, attempted)
	}
	for _, ws := range set.Workloads {
		if ws.Traced == nil {
			continue
		}
		for _, flow := range [][2]string{{"build_s", "trace.build_layers_s"}, {"lab_ready_s", "trace.lab_layers_s"}, {"incident_s", "trace.incident_layers_s"}} {
			untraced, layers := median(ws.values(flow[0])), ws.Traced.Metrics[flow[1]].Value
			fmt.Fprintf(w, "%-18s layers explain %.4g s of %s %.4g s untraced (%.0f%%); trace.overhead_pct %.1f\n",
				ws.Name, layers, flow[0], untraced, 100*layers/untraced, ws.Traced.Metrics["trace.overhead_pct"].Value)
		}
	}
}

func readSet(path string) (resultSet, error) {
	var set resultSet
	b, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(b, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// verdict judges one metric of one workload across two result sets.
//
//   - regressed: the new median is worse than the old by more than bound.
//   - unresolved: not regressed, but either set's runs spread (quartile
//     distance over median) wider than the bound, so "unchanged" cannot be
//     told from noise — unless every new run beats every old run.
//   - ok: otherwise.
func verdict(m metric, old, new []float64) string {
	worse := (median(new) - median(old)) / median(old)
	better := func(a, b float64) bool { return a < b }
	if m.better == "higher" {
		worse = -worse
		better = func(a, b float64) bool { return a > b }
	}
	if worse > m.bound {
		return "regressed"
	}
	if max(spread(old), spread(new)) <= m.bound {
		return "ok"
	}
	for _, n := range new {
		for _, o := range old {
			if !better(n, o) {
				return "unresolved"
			}
		}
	}
	return "ok"
}

// compareSets prints one row per end-to-end metric and workload and
// reports whether anything regressed.
func compareSets(w io.Writer, old, new resultSet) (regressed bool) {
	oldByName := map[string]workloadSet{}
	for _, ws := range old.Workloads {
		oldByName[ws.Name] = ws
	}
	fmt.Fprintf(w, "old: commit %s, %s, nproc %d\nnew: commit %s, %s, nproc %d\n",
		old.Env.Commit, old.Env.CPU, old.Env.NumCPU, new.Env.Commit, new.Env.CPU, new.Env.NumCPU)
	fmt.Fprintf(w, "%-18s %-16s %-4s %34s %34s %16s %6s %s\n", "workload", "metric", "unit", "old median [q1, q3]", "new median [q1, q3]", "new/old", "bound", "verdict")
	for _, nw := range new.Workloads {
		ow, ok := oldByName[nw.Name]
		if !ok {
			fmt.Fprintf(w, "%-18s not in the old set\n", nw.Name)
			continue
		}
		for _, m := range endToEnd {
			o, n := ow.values(m.name), nw.values(m.name)
			if len(o) == 0 || len(n) == 0 {
				fmt.Fprintf(w, "%-18s %-16s missing from one set\n", nw.Name, m.name)
				regressed = true
				continue
			}
			oq1, oq3 := quartiles(o)
			nq1, nq3 := quartiles(n)
			v := verdict(m, o, n)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(w, "%-18s %-16s %-4s %10.5g [%9.5g, %9.5g] %10.5g [%9.5g, %9.5g] %6.3f of %-6.4g %5.0f%% %s\n",
				nw.Name, m.name, m.unit, median(o), oq1, oq3, median(n), nq1, nq3, median(n)/median(o), median(o), 100*m.bound, v)
		}
		failed, attempted := nw.failures()
		v := "ok"
		if failed > 0 {
			v, regressed = "regressed", true
		}
		fmt.Fprintf(w, "%-18s %-16s %-4s %d failed of %d attempted in the new set (bound 0, absolute) %s\n", nw.Name, "failed_share", "ratio", failed, attempted, v)
	}
	return regressed
}

func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	old, err := readSet(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	new, err := readSet(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if compareSets(stdout, old, new) {
		return 1
	}
	return 0
}
