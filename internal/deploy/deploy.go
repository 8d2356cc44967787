// Package deploy automates the transfer and launch of rendered
// configurations (paper §5.7): the generated file tree is archived
// (tar.gz), "transferred" to an emulation host, extracted, and the lab is
// started with progress monitoring. The paper drives real hosts over SSH
// with expect scripts; here the emulation hosts are in-process (or
// directories on disk), but the stages and artifacts are the same — the
// archive produced here is byte-for-byte what would be shipped.
//
// There is one launch sequence — ship (archive → transfer → extract), then
// launch (lstart → boot → monitor) — and two entry points onto it. Run
// launches on the single host Options.Host names. RunCluster inserts a
// scheduling stage between ship and launch for multi-host deployments (the
// §3.3 RPKI study placed 800+ VMs across StarBed hosts): internal/sched
// reserves capacity and places the VMs, each placed host boots under the
// retry policy, and a dead host's VMs re-place onto survivors.
// CrossHostLinks realises the paper's GRE-tunnel connections between
// distributed vSwitches (§5.4) from the resulting placement.
package deploy

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
	"time"

	"autonetkit/internal/emul"
	"autonetkit/internal/obs"
	"autonetkit/internal/render"
)

// Archive packs a file set into a tar.gz bundle, deterministically (sorted
// paths, zeroed timestamps).
func Archive(fs *render.FileSet) ([]byte, error) {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	tw := tar.NewWriter(gz)
	for _, p := range fs.SortedPaths() {
		content, _ := fs.Read(p)
		hdr := &tar.Header{
			Name:    p,
			Mode:    0o644,
			Size:    int64(len(content)),
			ModTime: time.Unix(0, 0),
		}
		if strings.HasSuffix(p, ".startup") {
			hdr.Mode = 0o755
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return nil, fmt.Errorf("deploy: archiving %s: %w", p, err)
		}
		if _, err := io.WriteString(tw, content); err != nil {
			return nil, fmt.Errorf("deploy: archiving %s: %w", p, err)
		}
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	if err := gz.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Extract unpacks a bundle produced by Archive back into a file set.
func Extract(bundle []byte) (*render.FileSet, error) {
	gz, err := gzip.NewReader(bytes.NewReader(bundle))
	if err != nil {
		return nil, fmt.Errorf("deploy: reading archive: %w", err)
	}
	defer gz.Close()
	tr := tar.NewReader(gz)
	fs := render.NewFileSet()
	// One buffer serves every entry and grows with the bytes the reader
	// yields, never with what a header claims.
	var entry bytes.Buffer
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("deploy: reading archive: %w", err)
		}
		clean := path.Clean(hdr.Name)
		if clean == "." || clean == ".." || strings.HasPrefix(clean, "../") || path.IsAbs(clean) {
			return nil, fmt.Errorf("deploy: archive escapes extraction root: %q", hdr.Name)
		}
		entry.Reset()
		if _, err := entry.ReadFrom(tr); err != nil { //nolint:gosec // sizes bounded by archive
			return nil, fmt.Errorf("deploy: extracting %s: %w", hdr.Name, err)
		}
		fs.Write(clean, entry.String())
	}
	return fs, nil
}

// Event is one progress notification from a deployment.
type Event struct {
	Stage  string // archive, transfer, extract, lstart, machine, done
	Detail string
}

// Placement maps VM names to host names.
type Placement map[string]string

// Deployment is the record of one archive → transfer → extract → launch
// sequence: its event stream and the running lab. The placement fields
// are filled by scheduled deployments (RunCluster) only.
type Deployment struct {
	// Host is the design-time host whose lab was launched.
	Host     string
	Platform string
	// Placement is where the scheduler put every VM.
	Placement Placement
	// FailedHosts lists hosts that exhausted their boot attempts or were
	// failed under the running lab, in failure order.
	FailedHosts []string
	// StrandedVMs lists VMs that could not be re-placed after their host
	// failed.
	StrandedVMs []string
	events      []Event
	lab         *emul.Lab
	onEvent     func(Event)
}

// Options configures a deployment's launch.
type Options struct {
	// Host selects the emulation host ("localhost" when empty). RunCluster
	// does not consult it: the scheduler chooses where VMs run.
	Host     string
	Platform string
	// MaxBGPRounds bounds control-plane convergence (0 = default).
	MaxBGPRounds int
	// ConvergeTimeout bounds each engine run's wall-clock time (0 =
	// unbounded).
	ConvergeTimeout time.Duration
	// Lenient boots in lenient mode: devices whose configurations carry
	// error diagnostics are quarantined and the surviving topology boots;
	// Run then returns the usable deployment together with an error
	// wrapping emul.ErrPartialBoot. Strict mode (the default) fails the
	// whole deployment on any config error.
	Lenient bool
	// Supervise runs the convergence watchdog over the freshly booted lab:
	// a non-converged boot climbs the escalation ladder (bigger budget →
	// soft reset → quarantine), with one "watchdog" event per rung.
	Supervise bool
	// OnEvent, when set, receives progress events as they happen.
	OnEvent func(Event)
	// Obs, when set, collects deployment counters (e.g. quarantined
	// devices) and the lab's reconvergence counters.
	Obs *obs.Collector
	// Incremental is retired and does nothing: every reconvergence continues
	// the lab's running BGP engine. The field stays while the frozen
	// benchmark module still sets it.
	Incremental bool
	// Shards is the worker count for sharded BGP round evaluation (<= 1 =
	// sequential sweep). Per-AS shards evaluate concurrently inside each
	// convergence round; routing tables, verdicts and events stay
	// byte-identical at any value.
	Shards int
}

// Run executes the full deployment of a rendered file set and returns the
// started lab. Under Options.Lenient a partial boot returns a non-nil
// Deployment (with a running lab) alongside an error satisfying
// errors.Is(err, emul.ErrPartialBoot).
func Run(fs *render.FileSet, opts Options) (*Deployment, error) {
	if opts.Host == "" {
		opts.Host = "localhost"
	}
	if opts.Platform == "" {
		opts.Platform = "netkit"
	}
	d := &Deployment{Host: opts.Host, Platform: opts.Platform, onEvent: opts.OnEvent}
	extracted, err := d.ship(fs, opts.Host)
	if err != nil {
		return nil, err
	}
	lab, err := emul.Load(extracted, opts.Host, opts.Platform)
	if err != nil {
		return nil, err
	}
	err = d.launch(lab, opts)
	if d.lab == nil {
		return nil, err
	}
	return d, err
}

// ship is the front half of every deployment: archive → transfer →
// extract, one event each. dest names the receiving side in the transfer
// event. The returned file set is what the emulation host unpacked.
func (d *Deployment) ship(fs *render.FileSet, dest string) (*render.FileSet, error) {
	bundle, err := Archive(fs)
	if err != nil {
		return nil, err
	}
	d.emit(Event{"archive", fmt.Sprintf("%d files, %d bytes compressed", fs.Len(), len(bundle))})

	// Transfer: in the paper this is an scp to the emulation server; here
	// the bundle crosses into the emulation host's address space.
	received := make([]byte, len(bundle))
	copy(received, bundle)
	d.emit(Event{"transfer", fmt.Sprintf("%d bytes to %s", len(received), dest)})

	extracted, err := Extract(received)
	if err != nil {
		return nil, err
	}
	d.emit(Event{"extract", fmt.Sprintf("%d files", extracted.Len())})
	return extracted, nil
}

// launch is the back half of every deployment: lstart → boot → one
// "machine" event per lab log line → optional watchdog supervision →
// done. d.Lab() is set once the lab is up; a boot that fails outright
// leaves it nil. A lenient partial boot is reported (quarantine event and
// counter, "done (partial)") and returned as the emul.ErrPartialBoot error.
func (d *Deployment) launch(lab *emul.Lab, opts Options) error {
	d.emit(Event{"lstart", fmt.Sprintf("launching %d machines", len(lab.VMNames()))})
	span := opts.Obs.StartSpan("Launch")
	bootErr := lab.Boot(emul.BootOptions{
		MaxBGPRounds: opts.MaxBGPRounds, ConvergeTimeout: opts.ConvergeTimeout, Lenient: opts.Lenient,
		Obs: opts.Obs, Shards: opts.Shards,
	})
	span.End()
	if bootErr != nil && !errors.Is(bootErr, emul.ErrPartialBoot) {
		return bootErr
	}
	for _, ev := range lab.Events() {
		d.emit(Event{"machine", ev})
	}
	d.lab = lab
	if opts.Supervise {
		if err := superviseBoot(lab, opts.Obs, d.emit); err != nil {
			return err
		}
	}
	detail := "lab running"
	if bootErr != nil {
		q := lab.Quarantined()
		opts.Obs.Add(obs.CounterDevicesQuarantined, int64(len(q)))
		d.emit(Event{"quarantine", fmt.Sprintf("%d machines quarantined (%s)", len(q), strings.Join(q, ", "))})
		detail = "lab running (partial)"
	}
	d.emit(Event{"done", detail})
	return bootErr
}

// Lab returns the running lab (nil when a scheduled deployment degraded
// before launch).
func (d *Deployment) Lab() *emul.Lab { return d.lab }

// Events returns all progress events so far.
func (d *Deployment) Events() []Event {
	out := make([]Event, len(d.events))
	copy(out, d.events)
	return out
}

func (d *Deployment) emit(ev Event) {
	d.events = append(d.events, ev)
	if d.onEvent != nil {
		d.onEvent(ev)
	}
}

// superviseBoot hands the freshly booted lab to the convergence watchdog,
// bridging every escalation rung into the deployment's event stream. The
// ladder's counters land in the collector (watchdog_* names).
func superviseBoot(lab *emul.Lab, c *obs.Collector, emit func(Event)) error {
	w := &emul.Watchdog{Obs: c, OnEvent: func(action, detail string) {
		emit(Event{"watchdog", detail})
	}}
	rep, err := w.Supervise(lab)
	if err != nil {
		return fmt.Errorf("deploy: watchdog: %w", err)
	}
	if rep.Escalations() > 0 {
		emit(Event{"watchdog", fmt.Sprintf("final verdict %s after %d escalations", rep.Final, rep.Escalations())})
	}
	return nil
}

// CrossHostLinks returns the (vmA, vmB) pairs whose endpoints landed on
// different hosts — the links needing GRE tunnels between the distributed
// vSwitches (§5.4). Pairs are returned sorted.
func CrossHostLinks(placement Placement, links [][2]string) [][2]string {
	var out [][2]string
	for _, l := range links {
		ha, ok1 := placement[l[0]]
		hb, ok2 := placement[l[1]]
		if ok1 && ok2 && ha != hb {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
