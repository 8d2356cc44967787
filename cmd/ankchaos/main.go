// Command ankchaos builds and deploys a topology, then runs a scripted
// fault-injection scenario against the running lab and prints the per-step
// resilience report (§8 what-if experimentation).
//
//	ankchaos -in lab.graphml -scenario outage.chaos
//	ankchaos -in lab.graphml -scenario outage.chaos -budget 40 -trace
//	ankchaos -in lab.graphml -scenario outage.chaos -lenient
//
// The scenario file is line-oriented: fail-link/fail-node/restore-link/
// restore-node/flap/partition/perturb steps interleaved with check
// assertions; see internal/chaos.ParseScenario for the full grammar. A
// scenario that sets `seed <n>` runs its control-plane perturbations
// deterministically and is supervised by the convergence watchdog
// (escalation ladder: bigger budget → soft reset → quarantine); -supervise
// forces supervision for unseeded scenarios too. A malformed scenario
// is reported with one `file:line: error: message` line per problem (the
// parser recovers and reports them all in one pass). With -lenient,
// devices whose configurations carry error diagnostics are quarantined at
// boot; the quarantine report goes to stderr and the exit status is 3.
// Otherwise exit status is 0 when the report has no error findings, 1 on
// failure or error findings.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"autonetkit"
	"autonetkit/internal/chaos"
	"autonetkit/internal/deploy"
	"autonetkit/internal/emul"
	"autonetkit/internal/routing"
)

func main() {
	in := flag.String("in", "", "input topology file")
	scenarioPath := flag.String("scenario", "", "scenario script file")
	platform := flag.String("platform", "netkit", "emulation platform (netkit/dynagen/junosphere)")
	budget := flag.Int("budget", 0, "default per-step BGP convergence budget in rounds (0 = engine default)")
	lenient := flag.Bool("lenient", false, "quarantine devices with config errors and run against the survivors (exit 3 on partial boot)")
	supervise := flag.Bool("supervise", false, "run the convergence watchdog on every step, even for unseeded scenarios")
	trace := flag.Bool("trace", false, "print the pipeline + chaos span trace after the report")
	incremental := flag.Bool("incremental", false, "reconverge between scenario steps by BGP trajectory replay (restore the recorded speaker-rounds a change cannot have touched); reports stay byte-identical to recomputing every round")
	flag.Parse()
	if *in == "" || *scenarioPath == "" {
		fmt.Fprintln(os.Stderr, "ankchaos: -in and -scenario are required")
		os.Exit(2)
	}

	f, err := os.Open(*scenarioPath)
	if err != nil {
		fatal(err)
	}
	scenario, sdiags := chaos.ParseScenarioFile(f, filepath.Base(*scenarioPath))
	f.Close()
	if sdiags.HasErrors() {
		reportDiagnostics(sdiags)
		fmt.Fprintf(os.Stderr, "ankchaos: %d error(s) in scenario %s\n", len(sdiags.Errors()), *scenarioPath)
		os.Exit(1)
	}

	net, err := autonetkit.Load(*in)
	if err != nil {
		fatal(err)
	}
	net.Retarget(*platform, "localhost") // deploy.Options' default host
	if err := net.Build(autonetkit.BuildOptions{}); err != nil {
		fatal(err)
	}
	dep, err := net.Deploy(deploy.Options{
		Platform: *platform, Lenient: *lenient,
		Incremental: *incremental, Shards: runtime.GOMAXPROCS(0),
	})
	partial := err != nil && errors.Is(err, emul.ErrPartialBoot)
	if err != nil && !partial {
		var derr *emul.DiagnosticError
		if errors.As(err, &derr) {
			reportDiagnostics(derr.Diags)
			fmt.Fprintln(os.Stderr, "ankchaos: boot failed: config errors (re-run with -lenient to quarantine and boot the survivors)")
			os.Exit(1)
		}
		fatal(err)
	}
	if partial {
		q := dep.Lab().Quarantined()
		fmt.Fprintf(os.Stderr, "ankchaos: PARTIAL BOOT: %d machine(s) quarantined: %s\n", len(q), strings.Join(q, ", "))
		reportDiagnostics(dep.Lab().Diagnostics())
	}
	engine, err := net.Chaos(dep.Lab(), chaos.Options{
		Budget:    routing.ConvergenceBudget{MaxBGPRounds: *budget},
		Supervise: *supervise,
	})
	if err != nil {
		fatal(err)
	}
	report, err := engine.Run(scenario)
	if err != nil {
		fatal(err)
	}
	fmt.Println(report)
	if *trace {
		fmt.Println()
		if err := net.WriteTrace(os.Stdout); err != nil {
			fatal(err)
		}
	}
	switch {
	case partial:
		os.Exit(3)
	case !report.OK():
		os.Exit(1)
	}
}

// reportDiagnostics prints the sorted diagnostic report, one
// `device:file:line: severity: message` line per diagnostic.
func reportDiagnostics(diags emul.Diagnostics) {
	for _, d := range diags.Sorted() {
		fmt.Fprintln(os.Stderr, d.String())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ankchaos:", err)
	os.Exit(1)
}
