// Command anksched drives the reservation-based cluster scheduler from a
// line-oriented drill script: build a substrate host pool, place named
// reservations onto it, then cordon, drain, and fail hosts while the
// scheduler live re-places their VMs (§3.3 multi-host deployments).
//
//	anksched -hosts 4 -cap 8 -script drill.sched
//	anksched -script drill.sched -seed 7 -json
//	anksched -hosts 32 -cap 40 -eval "reserve web vms=12 policy=spread"
//	anksched -hosts 4 -cap 8 -state-dir /var/lib/ank -script drill.sched
//	anksched -hosts 4 -cap 8 -lease -preempt -script hostile.sched
//
// With -state-dir the scheduler is durable: every mutation is journaled
// (write-ahead log + snapshot compaction, see internal/journal) and a
// later run against the same directory recovers the exact pre-crash state
// before executing its script — recovery details go to stderr, keeping
// stdout byte-deterministic for goldens. The directory's journal must
// match the run's -seed and host set.
//
// The script grammar, one command per line (# starts a comment):
//
//	host H CAP          add substrate host H with CAP VM slots (before any
//	                    other command; overrides -hosts/-cap)
//	reserve SPEC        place a reservation; SPEC is the one-line spec
//	                    format: <name> vms=<count|v1,v2,...> [tenant=T]
//	                    [policy=pack|spread] [spread=N] [weight=W]
//	release NAME        free a reservation's slots (queued work admits)
//	cordon H            stop new placements onto H
//	uncordon H          make H schedulable again
//	drain H             cordon H and live re-place its VMs
//	fail H              mark H dead; its VMs strand until capacity frees
//	probe               run one health-probe round over all hosts
//	status              print the cluster snapshot (table, or JSON with
//	                    -json)
//	events              print the scheduler's event log
//
// With -lease the scheduler runs heartbeat leases against a logical clock
// (starting at the epoch — no wall time, so output stays deterministic)
// and the backend is wrapped in a seeded fault decorator
// (sched.FlakyBackend keyed by -seed). That unlocks:
//
//	tick [D]            advance the logical clock by D (default 1s) and
//	                    evaluate every host's lease; prints transitions
//	heartbeat           run one heartbeat round; silenced hosts do not
//	                    renew
//	silence H           make H stop answering heartbeats
//	unsilence H         restore H's heartbeats
//	flaky H RATE        make migrations onto H fail with probability
//	                    RATE (deterministic per -seed)
//	expire H            force H's lease through suspected -> dead now
//
// With -preempt a reservation whose tenant has strictly higher weight may
// evict lower-weight reservations when it cannot otherwise fit; victims
// re-queue and show as "preempted" in status output.
//
// Every placement decision is byte-deterministic given (script, -seed), so
// a drill's output can be kept as a golden file. Degraded operations
// (drain/fail that strands VMs, reservations queued behind capacity) are
// reported inline and the drill continues; the exit status is 3 if the
// final state is degraded, 1 on a hard error, 0 otherwise.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"autonetkit/internal/sched"
)

func main() {
	hosts := flag.Int("hosts", 0, "number of uniform substrate hosts (ignored when the script declares host lines)")
	capacity := flag.Int("cap", 8, "VM slots per uniform host")
	seed := flag.Uint64("seed", 1, "placement seed (same script + same seed = byte-identical output)")
	script := flag.String("script", "", "drill script file (- for stdin)")
	eval := flag.String("eval", "", "run a single command instead of a script")
	jsonOut := flag.Bool("json", false, "print status snapshots as JSON instead of tables")
	stateDir := flag.String("state-dir", "", "durable state directory: journal every mutation and recover prior state on start")
	snapEvery := flag.Int("snapshot-every", 0, "compact the journal after this many records (0 = default)")
	lease := flag.Bool("lease", false, "enable heartbeat leases over a logical clock and wrap the backend in a seeded fault decorator")
	preempt := flag.Bool("preempt", false, "let higher-weight reservations evict lower-weight ones when they cannot fit")
	flag.Parse()

	var lines []string
	var source string
	switch {
	case *eval != "":
		lines = []string{*eval, "status"}
		source = "eval"
	case *script == "-":
		lines = readLines(os.Stdin)
		source = "stdin"
	case *script != "":
		f, err := os.Open(*script)
		if err != nil {
			fatal(err)
		}
		lines = readLines(f)
		f.Close()
		source = filepath.Base(*script)
	default:
		fmt.Fprintln(os.Stderr, "anksched: -script or -eval is required")
		os.Exit(2)
	}

	d := &drill{
		jsonOut: *jsonOut, source: source, stateDir: *stateDir, snapEvery: *snapEvery,
		lease: *lease, preempt: *preempt,
	}
	err := d.run(lines, *hosts, *capacity, *seed)
	if d.cluster != nil {
		if cerr := d.cluster.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing journal: %w", cerr)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "anksched: %v\n", err)
		os.Exit(1)
	}
	if d.degraded() {
		os.Exit(3)
	}
}

type drill struct {
	cluster   *sched.Cluster
	jsonOut   bool
	source    string
	stateDir  string
	snapEvery int
	lease     bool
	preempt   bool
	// clock is the logical lease clock: it starts at the epoch and only
	// advances on tick commands, so drill output never depends on wall
	// time.
	clock time.Time
	flaky *sched.FlakyBackend
}

// degraded reports whether the final cluster state still carries queued or
// degraded reservations — the drill ran, but demand is not fully placed.
func (d *drill) degraded() bool {
	if d.cluster == nil {
		return false
	}
	for _, r := range d.cluster.Status().Reservations {
		if r.State != sched.ResActive {
			return true
		}
	}
	return false
}

func (d *drill) run(lines []string, hosts, capacity int, seed uint64) error {
	var declared []sched.HostInfo
	rest := 0
	for i, line := range lines {
		fields := strings.Fields(stripComment(line))
		if len(fields) == 0 {
			rest = i + 1
			continue
		}
		if fields[0] != "host" {
			break
		}
		if len(fields) != 3 {
			return fmt.Errorf("%s:%d: host needs <name> <capacity>, got %q", d.source, i+1, line)
		}
		slots, err := strconv.Atoi(fields[2])
		if err != nil || slots <= 0 {
			return fmt.Errorf("%s:%d: bad host capacity %q", d.source, i+1, fields[2])
		}
		declared = append(declared, sched.HostInfo{Name: fields[1], Capacity: slots})
		rest = i + 1
	}

	var static *sched.StaticBackend
	switch {
	case len(declared) > 0:
		static = sched.NewStaticBackend(declared...)
	case hosts > 0:
		static = sched.Uniform(hosts, capacity)
	default:
		return errors.New("no hosts: pass -hosts N or start the script with host lines")
	}
	var backend sched.Backend = static
	opts := sched.Options{Seed: seed, SnapshotEvery: d.snapEvery, Preempt: d.preempt}
	if d.lease {
		d.clock = time.Unix(0, 0).UTC()
		d.flaky = sched.NewFlakyBackend(static, seed)
		backend = d.flaky
		opts.Lease = sched.LeasePolicy{Enabled: true}
		opts.Now = func() time.Time { return d.clock }
	}
	var cluster *sched.Cluster
	var err error
	if d.stateDir != "" {
		var info sched.RecoveryInfo
		cluster, info, err = sched.Open(d.stateDir, backend, opts)
		if err == nil {
			// stderr, so recovery does not perturb golden stdout.
			fmt.Fprintf(os.Stderr, "anksched: %s\n", info)
		}
	} else {
		cluster, err = sched.New(backend, opts)
	}
	if err != nil {
		return err
	}
	d.cluster = cluster

	for i, line := range lines[rest:] {
		lineNo := rest + i + 1
		fields := strings.Fields(stripComment(line))
		if len(fields) == 0 {
			continue
		}
		if err := d.exec(fields, stripComment(line)); err != nil {
			if errors.Is(err, sched.ErrDegraded) {
				fmt.Printf("%s: DEGRADED: %v\n", fields[0], err)
				continue
			}
			return fmt.Errorf("%s:%d: %w", d.source, lineNo, err)
		}
	}
	return nil
}

func (d *drill) exec(fields []string, line string) error {
	cmd, args := fields[0], fields[1:]
	one := func() (string, error) {
		if len(args) != 1 {
			return "", fmt.Errorf("%s needs one host name", cmd)
		}
		return args[0], nil
	}
	switch cmd {
	case "host":
		return errors.New("host lines must precede all other commands")
	case "reserve":
		spec, err := sched.ParseSpec(strings.TrimSpace(strings.TrimPrefix(line, "reserve")))
		if err != nil {
			return err
		}
		st, err := d.cluster.Reserve(spec)
		if err != nil {
			return err
		}
		if st.State == sched.ResQueued {
			fmt.Printf("reserve %s: %d VMs queued (tenant %s)\n", st.Name, st.VMs, st.Tenant)
		} else {
			fmt.Printf("reserve %s: %d VMs active on %s\n", st.Name, st.VMs, strings.Join(st.Hosts, ", "))
		}
		return nil
	case "release":
		name, err := one()
		if err != nil {
			return err
		}
		if err := d.cluster.Release(name); err != nil {
			return err
		}
		fmt.Printf("release %s\n", name)
		return nil
	case "cordon", "uncordon":
		host, err := one()
		if err != nil {
			return err
		}
		if cmd == "cordon" {
			err = d.cluster.Cordon(host)
		} else {
			err = d.cluster.Uncordon(host)
		}
		if err != nil {
			return err
		}
		fmt.Printf("%s %s\n", cmd, host)
		return nil
	case "drain", "fail", "expire":
		if cmd == "expire" && !d.lease {
			return errors.New("expire needs -lease")
		}
		host, err := one()
		if err != nil {
			return err
		}
		op := map[string]func(string) (sched.DrainResult, error){
			"drain": d.cluster.Drain, "fail": d.cluster.FailHost, "expire": d.cluster.ExpireLease,
		}[cmd]
		res, err := op(host)
		if err != nil && !errors.Is(err, sched.ErrDegraded) {
			return err
		}
		fmt.Printf("%s %s: %d VMs re-placed, %d stranded\n", cmd, host, len(res.Moves), len(res.Stranded))
		for _, m := range res.Moves {
			fmt.Printf("  %s: %s -> %s\n", m.VM, m.From, m.To)
		}
		if len(res.Stranded) > 0 {
			fmt.Printf("  stranded: %s\n", strings.Join(res.Stranded, ", "))
		}
		return nil
	case "tick":
		if !d.lease {
			return errors.New("tick needs -lease")
		}
		dur := time.Second
		if len(args) > 1 {
			return errors.New("tick takes at most one duration")
		}
		if len(args) == 1 {
			parsed, err := time.ParseDuration(args[0])
			if err != nil || parsed <= 0 {
				return fmt.Errorf("bad tick duration %q", args[0])
			}
			dur = parsed
		}
		d.clock = d.clock.Add(dur)
		transitions := d.cluster.CheckLeases()
		fmt.Printf("tick %s -> t=%s\n", dur, d.clock.Sub(time.Unix(0, 0).UTC()))
		for _, tr := range transitions {
			fmt.Printf("  lease %s\n", tr)
		}
		return nil
	case "heartbeat":
		if !d.lease {
			return errors.New("heartbeat needs -lease")
		}
		renewed := d.cluster.HeartbeatAll()
		fmt.Printf("heartbeat: %d renewed (%s)\n", len(renewed), strings.Join(renewed, ", "))
		return nil
	case "silence", "unsilence":
		if !d.lease {
			return fmt.Errorf("%s needs -lease", cmd)
		}
		host, err := one()
		if err != nil {
			return err
		}
		if cmd == "silence" {
			d.flaky.Silence(host)
		} else {
			d.flaky.Unsilence(host)
		}
		fmt.Printf("%s %s\n", cmd, host)
		return nil
	case "flaky":
		if !d.lease {
			return errors.New("flaky needs -lease")
		}
		if len(args) != 2 {
			return errors.New("flaky needs <host> <rate>")
		}
		rate, err := strconv.ParseFloat(args[1], 64)
		if err != nil || rate < 0 || rate > 1 {
			return fmt.Errorf("bad flaky rate %q (want 0..1)", args[1])
		}
		d.flaky.SetMigrateFailRate(args[0], rate)
		fmt.Printf("flaky %s %.2f\n", args[0], rate)
		return nil
	case "probe":
		for _, pr := range d.cluster.ProbeAll() {
			state := "ok"
			if !pr.Healthy {
				state = "FAIL"
			}
			fmt.Printf("probe %s: %s (%s)\n", pr.Host, state, pr.State)
		}
		return nil
	case "status":
		st := d.cluster.Status()
		if d.jsonOut {
			fmt.Print(st.JSON())
		} else {
			fmt.Print(st.Table())
		}
		return nil
	case "events":
		for _, ev := range d.cluster.Events() {
			fmt.Printf("[%03d] %-10s %s\n", ev.Seq, ev.Kind, ev.Detail)
		}
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func stripComment(line string) string {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	return strings.TrimSpace(line)
}

func readLines(f *os.File) []string {
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return lines
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "anksched:", err)
	os.Exit(1)
}
