// Command ankdeploy builds a topology and deploys it onto the emulation
// platform, streaming the launch progress (§5.7).
//
//	ankdeploy -in lab.graphml [-platform netkit] [-host localhost]
//	ankdeploy -in lab.graphml -lenient
//	ankdeploy -in lab.graphml -supervise -converge-timeout 30s
//
// With -lenient, devices whose generated configurations carry error
// diagnostics are quarantined instead of failing the whole launch: the
// surviving topology boots, the quarantine report (one `device:file:line:
// severity: message` line per diagnostic, sorted) is printed to stderr,
// and the exit status is 3 to distinguish a partial boot from a full one
// (0) or a failed one (1).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"autonetkit"
	"autonetkit/internal/deploy"
	"autonetkit/internal/emul"
)

func main() {
	in := flag.String("in", "", "input topology file")
	platform := flag.String("platform", "netkit", "emulation platform (netkit/dynagen/junosphere/cbgp)")
	host := flag.String("host", "localhost", "emulation host")
	lenient := flag.Bool("lenient", false, "quarantine devices with config errors and boot the survivors (exit 3 on partial boot)")
	supervise := flag.Bool("supervise", false, "run the convergence watchdog after boot (escalate budget, soft-reset, quarantine on non-convergence)")
	convergeTimeout := flag.Duration("converge-timeout", 0, "wall-clock bound per control-plane convergence run (0 = unbounded)")
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "ankdeploy: -in is required")
		os.Exit(2)
	}
	net, err := autonetkit.Load(*in)
	if err != nil {
		fatal(err)
	}
	net.Retarget(*platform, *host)
	if err := net.Build(autonetkit.BuildOptions{}); err != nil {
		fatal(err)
	}
	dep, err := net.Deploy(deploy.Options{
		Host: *host, Platform: *platform, Lenient: *lenient,
		Supervise: *supervise, ConvergeTimeout: *convergeTimeout,
		Shards:  runtime.GOMAXPROCS(0),
		OnEvent: func(e deploy.Event) { fmt.Printf("[%s] %s\n", e.Stage, e.Detail) },
	})
	partial := err != nil && errors.Is(err, emul.ErrPartialBoot)
	if err != nil && !partial {
		var derr *emul.DiagnosticError
		if errors.As(err, &derr) {
			reportDiagnostics(derr.Diags)
			fmt.Fprintln(os.Stderr, "ankdeploy: boot failed: config errors (re-run with -lenient to quarantine and boot the survivors)")
			os.Exit(1)
		}
		fatal(err)
	}
	lab := dep.Lab()
	res := lab.BGPResult()
	switch {
	case res.Cancelled:
		fmt.Printf("lab running: %d machines, BGP run CANCELLED after %d rounds (timeout %v)\n", len(lab.VMNames()), res.Rounds, *convergeTimeout)
	case res.Converged:
		fmt.Printf("lab running: %d machines, BGP converged in %d rounds\n", len(lab.VMNames()), res.Rounds)
	case res.Oscillating:
		fmt.Printf("lab running: %d machines, BGP OSCILLATING (cycle length %d)\n", len(lab.VMNames()), res.CycleLen)
	}
	if partial {
		q := lab.Quarantined()
		fmt.Fprintf(os.Stderr, "ankdeploy: PARTIAL BOOT: %d machine(s) quarantined: %s\n", len(q), strings.Join(q, ", "))
		reportDiagnostics(lab.Diagnostics())
		os.Exit(3)
	}
}

// reportDiagnostics prints the sorted quarantine/diagnostic report, one
// `device:file:line: severity: message` line per diagnostic.
func reportDiagnostics(diags emul.Diagnostics) {
	for _, d := range diags.Sorted() {
		fmt.Fprintln(os.Stderr, d.String())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ankdeploy:", err)
	os.Exit(1)
}
