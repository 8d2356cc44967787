package emul

import (
	"errors"
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"autonetkit/internal/dataplane"
	"autonetkit/internal/obs"
	"autonetkit/internal/par"
	"autonetkit/internal/render"
	"autonetkit/internal/routing"
)

// VM is one emulated machine: its file tree, the protocol state parsed from
// it at boot, and its management (TAP) address.
type VM struct {
	Name   string
	Files  map[string]string // paths relative to the machine root
	Config *routing.DeviceConfig
	TapIP  netip.Addr
	Booted bool
}

// Lab is a running emulation: a set of VMs, the converged protocol engines
// and the data plane.
//
// A started lab changes only through Apply (incident.go), and Apply and the
// read-side API (Exec, the neighbor/route accessors, Events) may be called
// from different goroutines: Apply takes the write lock, reads take the read
// lock, so a measurement client probing the lab while an incident
// re-converges it observes either the pre- or post-incident network, never
// a half-rebuilt one. The *VM values returned by VM() are snapshots of
// pointers into lab state; their Config field is owned by the lab and must
// not be read concurrently with Apply.
type Lab struct {
	Host     string
	Platform string

	mu    sync.RWMutex
	vms   map[string]*VM
	order []string

	// baseline holds a copy of every machine's boot-time DeviceConfig,
	// captured at Boot, so incidents are reversible: a Change's restore and
	// reboot parts re-install interfaces from these snapshots.
	baseline map[string]*routing.DeviceConfig

	// The engines live as long as the lab: every converge after Boot rebinds
	// them to the edited configurations and continues from the state they
	// hold (delta SPF, and BGP from its last selections).
	domain    *routing.OSPFDomain
	isis      *routing.OSPFDomain
	igp       routing.IGPCoster
	bgp       *routing.BGPEngine
	bgpResult routing.BGPResult
	net       *dataplane.Network
	// trees answers pings on net (exec.go): one hop tree, built on first
	// use, per address a device of net owns. It is assigned only where net
	// is, so a reconvergence drops it with the generation it described, and
	// never written in between, so probes read it without a lock.
	trees map[netip.Addr]*hopTree

	started bool
	budget  routing.ConvergenceBudget
	events  []string

	// pert, when non-nil, is threaded into the lab's engines (OSPF, IS-IS,
	// BGP) at every converge so reconvergence runs under scripted
	// control-plane perturbation; nil keeps the zero-perturbation fast path.
	pert routing.Perturber
	obs  *obs.Collector

	// shards is the worker count for sharded BGP round evaluation; <= 1
	// keeps the sequential sweep. Set on the lab's BGP engine when Boot
	// builds it; results are byte-identical at any value (shard.go).
	shards int

	// incidentSeq numbers the incidents Apply injected (a Change's link,
	// machine and partition parts) so watchdog escalations and chaos reports
	// can name the incident that triggered them. 0 = no incident yet.
	incidentSeq int

	// diags accumulates every Diagnostic found while ingesting this lab's
	// configuration tree (at Load for C-BGP, at Boot for the per-machine
	// platforms). quarantined lists the devices a lenient boot excluded
	// because their configs carried error-level diagnostics, sorted.
	diags       Diagnostics
	quarantined []string
}

// Diagnostics returns every problem found while parsing this lab's
// configurations, in report order. Non-empty after Boot (or after Load on
// C-BGP labs); includes warnings as well as errors.
func (l *Lab) Diagnostics() Diagnostics {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.diags.Sorted()
}

// Quarantined returns the devices a lenient boot excluded from the lab,
// sorted. Empty after a fully healthy (or strict) boot.
func (l *Lab) Quarantined() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]string, len(l.quarantined))
	copy(out, l.quarantined)
	return out
}

// Events returns the boot/progress log (the deployment monitor's view).
func (l *Lab) Events() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]string, len(l.events))
	copy(out, l.events)
	return out
}

func (l *Lab) logf(format string, args ...any) {
	l.events = append(l.events, fmt.Sprintf(format, args...))
}

// VMNames returns machine names in lab.conf order.
func (l *Lab) VMNames() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]string, len(l.order))
	copy(out, l.order)
	return out
}

// VM returns a machine by name.
func (l *Lab) VM(name string) (*VM, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	vm, ok := l.vms[name]
	return vm, ok
}

// BGPResult returns the control-plane outcome after the most recent
// convergence (Start or incident injection).
func (l *Lab) BGPResult() routing.BGPResult {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.bgpResult
}

// SetBudget replaces the convergence budget applied to subsequent
// reconvergences (incident injection). The chaos engine uses this to give
// every scenario step its own bounded budget.
func (l *Lab) SetBudget(b routing.ConvergenceBudget) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.budget = b
}

// Budget returns the current convergence budget.
func (l *Lab) Budget() routing.ConvergenceBudget {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.budget
}

// BGPShardCount returns the structural shard count of the converged BGP
// topology — the number of distinct ASes among its speakers. It is a
// property of the topology, not of BootOptions.Shards, so reports that
// print it stay byte-identical across worker counts. 0 before boot.
func (l *Lab) BGPShardCount() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.bgp == nil {
		return 0
	}
	return l.bgp.ShardCount()
}

// LastIncidentID returns the sequence number of the most recently injected
// incident (0 if none). Watchdog escalations and chaos reports use it to
// attribute recovery actions to the fault that triggered them.
func (l *Lab) LastIncidentID() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.incidentSeq
}

// BGPRoutes returns a machine's selected BGP routes.
func (l *Lab) BGPRoutes(name string) []routing.BGPRoute {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.bgpRoutes(name)
}

func (l *Lab) bgpRoutes(name string) []routing.BGPRoute {
	if l.bgp == nil {
		return nil
	}
	return l.bgp.BestRoutes(name)
}

// OSPFNeighbors returns a machine's OSPF adjacencies.
func (l *Lab) OSPFNeighbors(name string) []routing.OSPFNeighbor {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.ospfNeighbors(name)
}

func (l *Lab) ospfNeighbors(name string) []routing.OSPFNeighbor {
	if l.domain == nil {
		return nil
	}
	return l.domain.Neighbors(name)
}

// ISISNeighbors returns a machine's IS-IS adjacencies (for labs whose IGP
// is IS-IS, §7).
func (l *Lab) ISISNeighbors(name string) []routing.OSPFNeighbor {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.isisNeighbors(name)
}

func (l *Lab) isisNeighbors(name string) []routing.OSPFNeighbor {
	if l.isis == nil {
		return nil
	}
	return l.isis.Neighbors(name)
}

// Network exposes the data plane (nil for C-BGP labs). The returned
// network is replaced wholesale on reconvergence, not mutated, but the
// pointer read itself is synchronized here.
func (l *Lab) Network() *dataplane.Network {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.net
}

// Links returns the machine pairs that currently share at least one
// data-plane subnet — the lab's live link set, sorted. The chaos engine
// uses it to realise partitions.
func (l *Lab) Links() [][2]string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out [][2]string
	for i, a := range l.order {
		for _, b := range l.order[i+1:] {
			if l.vms[a].Config == nil || l.vms[b].Config == nil {
				continue
			}
			if len(sharedSubnets(l.vms[a].Config.Interfaces, l.vms[b].Config.Interfaces)) > 0 {
				pair := [2]string{a, b}
				if b < a {
					pair = [2]string{b, a}
				}
				out = append(out, pair)
			}
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

// platform is what a lab needs to know about one emulation platform.
type platform struct {
	syntax string // configuration language the platform's devices are rendered in
	// load reads the platform's files under root into the lab's machines.
	load func(l *Lab, sub *render.FileSet, root string) error
	// parse recovers one machine's config at boot; nil where load has
	// already parsed every device.
	parse func(vm *VM) (*routing.DeviceConfig, Diagnostics)
	// solver marks a route solver: its IGP comes pre-parsed from load, and it
	// has no data plane and takes no incidents.
	solver bool
}

var platforms = map[string]platform{
	"netkit": {syntax: "quagga", load: (*Lab).loadNetkit,
		parse: func(vm *VM) (*routing.DeviceConfig, Diagnostics) { return parseQuaggaVM(vm.Name, vm.Files) }},
	"dynagen":    flatPlatform("ios", ".cfg", parseIOSConfig),
	"junosphere": flatPlatform("junos", ".conf", parseJunosConfig),
	"cbgp":       {syntax: "cbgp", load: (*Lab).loadCBGP, solver: true},
}

// flatPlatform is a single-file-per-router platform (Dynagen IOS,
// Junosphere JunOS): <name><ext> under the lab root is the whole machine.
func flatPlatform(syntax, ext string, parse func(name, conf string) (*routing.DeviceConfig, Diagnostics)) platform {
	return platform{
		syntax: syntax,
		load:   func(l *Lab, sub *render.FileSet, root string) error { return l.loadFlatConfigs(sub, root, ext) },
		parse: func(vm *VM) (*routing.DeviceConfig, Diagnostics) {
			return parse(vm.Name, vm.Files[vm.Name+ext])
		},
	}
}

// PlatformSyntax returns the configuration syntax a platform's devices are
// rendered in; a platform Load would reject reads "quagga".
func PlatformSyntax(name string) string {
	if p, ok := platforms[name]; ok {
		return p.syntax
	}
	return "quagga"
}

// Load parses a rendered configuration tree for one (host, platform) lab
// and returns the un-started lab. Supported platforms: netkit, dynagen,
// junosphere, cbgp.
func Load(fs *render.FileSet, host, platform string) (*Lab, error) {
	l := &Lab{Host: host, Platform: platform, vms: map[string]*VM{}}
	root := host + "/" + platform + "/"
	sub := fs.WithPrefix(host + "/" + platform)
	if sub.Len() == 0 {
		return nil, fmt.Errorf("emul: no files under %s", root)
	}
	p, ok := platforms[platform]
	if !ok {
		return nil, fmt.Errorf("emul: unsupported platform %q", platform)
	}
	if err := p.load(l, sub, root); err != nil {
		return nil, err
	}
	if len(l.order) == 0 {
		return nil, fmt.Errorf("emul: lab %s/%s has no machines", host, platform)
	}
	return l, nil
}

// loadNetkit reads lab.conf and each machine's file tree.
func (l *Lab) loadNetkit(sub *render.FileSet, root string) error {
	labConf, ok := sub.Read(root + "lab.conf")
	if !ok {
		return fmt.Errorf("emul: netkit lab has no lab.conf")
	}
	machineOrder := []string{}
	seen := map[string]bool{}
	tapIPs := map[string]netip.Addr{}
	for _, line := range strings.Split(labConf, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "LAB_") {
			continue
		}
		name, rest, ok := strings.Cut(line, "[")
		if !ok {
			continue
		}
		if !seen[name] {
			seen[name] = true
			machineOrder = append(machineOrder, name)
		}
		// TAP lines: name[ethN]=tap,<host_ip>,<vm_ip>
		if _, val, ok := strings.Cut(rest, "="); ok && strings.HasPrefix(val, "tap,") {
			parts := strings.Split(val, ",")
			if len(parts) == 3 {
				if ip, err := netip.ParseAddr(parts[2]); err == nil {
					tapIPs[name] = ip
				}
			}
		}
	}
	for _, name := range machineOrder {
		files := map[string]string{}
		prefix := root + name + "/"
		for _, p := range sub.Paths() {
			if strings.HasPrefix(p, prefix) {
				c, _ := sub.Read(p)
				files[strings.TrimPrefix(p, prefix)] = c
			}
		}
		if startup, ok := sub.Read(root + name + ".startup"); ok {
			files[name+".startup"] = startup
		}
		l.vms[name] = &VM{Name: name, Files: files, TapIP: tapIPs[name]}
		l.order = append(l.order, name)
	}
	return nil
}

// loadFlatConfigs lists the machines of a flatPlatform.
func (l *Lab) loadFlatConfigs(sub *render.FileSet, root, ext string) error {
	var names []string
	for _, p := range sub.Paths() {
		rel := strings.TrimPrefix(p, root)
		if strings.Contains(rel, "/") || !strings.HasSuffix(rel, ext) {
			continue
		}
		names = append(names, strings.TrimSuffix(rel, ext))
	}
	sort.Strings(names)
	for _, name := range names {
		conf, _ := sub.Read(root + name + ext)
		l.vms[name] = &VM{Name: name, Files: map[string]string{name + ext: conf}}
		l.order = append(l.order, name)
	}
	return nil
}

// loadCBGP parses the single lab.cli script. Parse problems are recorded
// as diagnostics on the lab (the whole script is one file, so they are
// known at load time); Boot decides what to do with them per mode.
func (l *Lab) loadCBGP(sub *render.FileSet, root string) error {
	script, ok := sub.Read(root + "lab.cli")
	if !ok {
		return fmt.Errorf("emul: cbgp lab has no lab.cli")
	}
	parsed, diags := parseCBGPScript(script)
	for _, dc := range parsed.devices {
		diags = validate(dc, diags, "lab.cli")
	}
	l.diags = append(l.diags, diags...)
	for _, dc := range parsed.devices {
		vm := &VM{Name: dc.Hostname, Files: map[string]string{"lab.cli": script}, Config: dc, Booted: true}
		l.vms[dc.Hostname] = vm
		l.order = append(l.order, dc.Hostname)
	}
	l.igp = parsed.igp
	return nil
}

// ErrPartialBoot is returned (wrapped) by a lenient Boot that quarantined
// at least one device: the surviving topology is up and measurable, but
// the lab is degraded. Inspect Quarantined() and Diagnostics() for the
// report.
var ErrPartialBoot = errors.New("emul: partial boot: devices quarantined")

// BootOptions parameterises Boot.
type BootOptions struct {
	// MaxBGPRounds bounds control-plane convergence (<= 0 = default).
	MaxBGPRounds int
	// ConvergeTimeout bounds each engine run's wall-clock time (0 =
	// unbounded). Deployments propagate their per-attempt timeout here so a
	// hung convergence cannot stall a whole pool.
	ConvergeTimeout time.Duration
	// Lenient selects degraded-boot semantics: devices whose configs carry
	// error-level diagnostics are quarantined and the surviving topology
	// boots, returning ErrPartialBoot. When false (strict, the default) any
	// error-level diagnostic fails the boot with a *DiagnosticError that
	// lists every problem found in the pass.
	Lenient bool
	// Incremental is retired and does nothing: every reconvergence continues
	// the lab's running BGP engine. The field stays while the frozen
	// benchmark module still sets it.
	Incremental bool
	// Obs, when set, receives the reconvergence counters
	// (spf_delta_recomputes, bgp_prefixes_decided, ...) and the measurement
	// counters ping_probes and hop_trees_built.
	Obs *obs.Collector
	// Shards is the worker count for sharded BGP round evaluation (<= 1 =
	// sequential sweep, the default). Any value produces byte-identical
	// results; > 1 evaluates per-AS shards concurrently inside each round.
	Shards int
}

// Start boots every machine (parsing its configuration), converges OSPF,
// runs BGP to convergence or detected oscillation, and builds the data
// plane. maxBGPRounds <= 0 selects the default. Start is strict: one bad
// config fails the whole boot (but still reports every diagnostic found).
func (l *Lab) Start(maxBGPRounds int) error {
	return l.Boot(BootOptions{MaxBGPRounds: maxBGPRounds})
}

// Boot boots the lab under the given options. Strict mode fails on any
// error-level config diagnostic; lenient mode quarantines the offending
// devices, boots the survivors, and returns ErrPartialBoot (wrapped) so
// measurement and chaos runs can proceed on the degraded lab.
func (l *Lab) Boot(opts BootOptions) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.started {
		return fmt.Errorf("emul: lab already started")
	}
	l.logf("starting lab %s/%s (%d machines)", l.Host, l.Platform, len(l.order))

	// Parse every machine's configuration, accumulating all diagnostics
	// before deciding anything: one boot reports every problem at once.
	for _, name := range l.order {
		vm := l.vms[name]
		if vm.Config != nil { // C-BGP devices parse at Load
			continue
		}
		dc, diags := l.bootVM(vm)
		l.diags = append(l.diags, diags...)
		if !diags.HasErrors() {
			vm.Config = dc
		}
	}

	// Partition error diagnostics into per-device (quarantinable) and
	// lab-wide (fatal even in lenient mode: nothing to quarantine).
	badDevice := map[string]bool{}
	labWide := false
	for _, d := range l.diags {
		if d.Severity != SevError {
			continue
		}
		if d.Device == "" {
			labWide = true
			continue
		}
		badDevice[d.Device] = true
	}
	if len(badDevice) > 0 || labWide {
		if !opts.Lenient || labWide {
			return &DiagnosticError{Diags: l.diags.Sorted()}
		}
		for name := range badDevice {
			if _, ok := l.vms[name]; !ok {
				// Diagnostic for a device that is not a lab machine (e.g. a
				// renamed hostname): nothing to quarantine.
				return &DiagnosticError{Diags: l.diags.Sorted()}
			}
		}
		if len(badDevice) == len(l.order) {
			// Nothing would survive; a zero-machine "partial" boot is a
			// failed boot.
			return &DiagnosticError{Diags: l.diags.Sorted()}
		}
		l.quarantined = make([]string, 0, len(badDevice))
		for name := range badDevice {
			l.quarantined = append(l.quarantined, name)
			vm := l.vms[name]
			vm.Config = nil
			vm.Booted = false
			l.logf("machine %s QUARANTINED (%d config diagnostics)", name, len(l.diags.ForDevice(name)))
		}
		sort.Strings(l.quarantined)
	}

	for _, name := range l.order {
		vm := l.vms[name]
		if vm.Config == nil {
			continue
		}
		vm.Booted = true
		l.logf("machine %s booted (%d interfaces)", name, len(vm.Config.Interfaces))
	}
	// Snapshot every surviving machine's boot-time config so incidents are
	// reversible (Apply's restore parts re-install from these). A struct copy
	// suffices: Apply replaces interface lists and never writes into one, so
	// the snapshot may share every slice with the live config.
	l.baseline = make(map[string]*routing.DeviceConfig, len(l.order))
	for _, name := range l.order {
		if dc := l.vms[name].Config; dc != nil {
			snapshot := *dc
			l.baseline[name] = &snapshot
		}
	}
	l.budget = routing.ConvergenceBudget{MaxBGPRounds: opts.MaxBGPRounds, Timeout: opts.ConvergeTimeout}
	l.obs = opts.Obs
	l.shards = opts.Shards
	if err := l.converge(nil); err != nil {
		return err
	}
	l.started = true
	if len(l.quarantined) > 0 {
		return fmt.Errorf("%w: %d of %d machines (%s)", ErrPartialBoot,
			len(l.quarantined), len(l.order), strings.Join(l.quarantined, ", "))
	}
	return nil
}

// converge (re)runs the control plane and rebuilds the data plane over the
// machines' current configurations; called by Boot and by Apply only. The
// first converge builds the engines; every later one rebinds them to the
// edited configurations, soft-resets the named speakers and runs BGP on
// from the state the engine holds.
func (l *Lab) converge(softReset []string) error {
	// Quarantined machines (nil Config) are not part of the running
	// topology: the control plane and data plane build over the survivors.
	devices := l.liveDevices()
	solver := platforms[l.Platform].solver
	// IGP convergence. A route solver carries a pre-parsed link-graph IGP
	// that is preserved across reconvergence. OSPF and IS-IS devices each get
	// their own link-state domain (§7: IS-IS as the substituted IGP), which
	// lives as long as the lab so that each converge after the first diffs
	// its link state against the previous one (delta SPF).
	var igpChanged map[string]bool
	if !solver {
		if l.domain == nil {
			l.domain, l.isis = routing.NewOSPFDomain(devices), routing.NewISISDomain(devices)
		} else {
			l.domain.Rebind(devices)
			l.isis.RebindISIS(devices)
		}
		igpChanged = map[string]bool{}
		for _, igp := range [...]struct {
			name string
			d    *routing.OSPFDomain
		}{{"ospf", l.domain}, {"isis", l.isis}} {
			igp.d.SetPerturber(l.pert)
			if err := igp.d.Converge(); err != nil {
				return fmt.Errorf("emul: %s: %w", igp.name, err)
			}
			maps.Copy(igpChanged, igp.d.ChangedSources())
			if rec, skip, delta := igp.d.DeltaStats(); delta {
				l.obs.Add(obs.CounterSPFDeltaRecomputes, int64(rec))
				l.obs.Add(obs.CounterSPFSourcesSkipped, int64(skip))
			}
		}
		comp := routing.NewCompositeIGP()
		for _, dc := range devices {
			switch {
			case dc.OSPF != nil:
				comp.AddDevice(dc, l.domain)
			case dc.ISIS != nil:
				comp.AddDevice(dc, l.isis)
			default:
				comp.AddDevice(dc, nil)
			}
		}
		l.igp = comp
		l.logf("igp converged")
	}
	// BGP.
	bgp := l.bgp
	if bgp == nil {
		profile := routing.ProfileFor(PlatformSyntax(l.Platform))
		var err error
		if bgp, err = routing.NewBGPEngine(devices, func(string) routing.VendorProfile { return profile }, l.igp); err != nil {
			return fmt.Errorf("emul: bgp: %w", err)
		}
		// Labs model asynchronous routers: sequential (Gauss-Seidel)
		// processing, so a detected oscillation is a genuine RFC 3345-class
		// persistent one, not a lockstep-timing artifact.
		bgp.SetSequential(true)
		bgp.SetShards(l.shards)
		l.bgp = bgp
	} else {
		// Speakers whose IGP routes moved see different next-hop costs, so
		// they re-decide even if their own configs are untouched.
		bgp.Rebind(devices, l.igp, igpChanged)
	}
	bgp.SetPerturber(l.pert)
	bgp.SoftReset(softReset)
	l.runBGP()
	for _, down := range bgp.SessionsDown() {
		l.logf("bgp session down: %s", down)
	}
	for _, r := range bgp.RoundLog() {
		l.obs.Add(obs.CounterBGPSpeakersSkipped, int64(r.Skipped))
		l.obs.Add(obs.CounterBGPPrefixesDecided, int64(r.Decided))
	}
	if l.shards > 1 {
		parallelRounds, crossAdverts := bgp.ShardStats()
		l.obs.Add(obs.CounterBGPShards, int64(bgp.ShardCount()))
		l.obs.Add(obs.CounterShardRoundsParallel, parallelRounds)
		l.obs.Add(obs.CounterCrossShardAdverts, crossAdverts)
	}
	// Data plane (a route solver has none).
	if !solver {
		if err := l.buildDataplane(devices); err != nil {
			return err
		}
		l.logf("data plane ready")
	}
	return nil
}

// liveDevices lists the configs of every machine that is part of the
// running topology (quarantined machines carry nil Configs), in lab order.
// Callers hold the lock.
func (l *Lab) liveDevices() []*routing.DeviceConfig {
	var devices []*routing.DeviceConfig
	for _, name := range l.order {
		if l.vms[name].Config != nil {
			devices = append(devices, l.vms[name].Config)
		}
	}
	return devices
}

// runBGP runs the lab's BGP engine, from whatever state it holds, under the
// current budget and logs the outcome. Callers hold the write lock.
func (l *Lab) runBGP() {
	ctx, cancel := l.budget.Context()
	l.bgpResult = l.bgp.RunContext(ctx, l.budget.MaxBGPRounds)
	cancel()
	switch {
	case l.bgpResult.Cancelled:
		l.logf("bgp run CANCELLED after %d rounds (budget timeout %v)", l.bgpResult.Rounds, l.budget.Timeout)
	case l.bgpResult.Converged:
		l.logf("bgp converged in %d rounds (%d sessions)", l.bgpResult.Rounds, l.bgp.SessionsUp())
	case l.bgpResult.Oscillating:
		l.logf("bgp OSCILLATING after %d rounds (cycle %d)", l.bgpResult.Rounds, l.bgpResult.CycleLen)
	}
}

// bootVM parses a machine's configuration files per platform, returning
// the recovered config plus every diagnostic found in the machine's files.
func (l *Lab) bootVM(vm *VM) (*routing.DeviceConfig, Diagnostics) {
	if p := platforms[l.Platform]; p.parse != nil {
		dc, diags := p.parse(vm)
		return dc, validate(dc, diags, "")
	}
	return nil, Diagnostics{{Severity: SevError, Device: vm.Name,
		Message: fmt.Sprintf("cannot boot on platform %q", l.Platform)}}
}

// validate appends dc's whole-device consistency problem, if any, to
// diags. It only runs over a device none of whose statements was rejected:
// those diagnostics already carry the cause.
func validate(dc *routing.DeviceConfig, diags Diagnostics, file string) Diagnostics {
	if diags.ForDevice(dc.Hostname).HasErrors() {
		return diags
	}
	if err := dc.Validate(); err != nil {
		diags = append(diags, Diagnostic{Severity: SevError, Device: dc.Hostname, File: file, Message: err.Error()})
	}
	return diags
}

// buildDataplane installs connected, IGP and BGP routes into per-VM FIBs.
// A node depends on its own device and the converged engines only, so the
// builds fan out; nodes are then gathered, and the error reported, in
// device order, as a serial build would produce them. A node whose entries
// and addresses did not change is carried over from the previous
// generation: frozen nodes may join a later Network as they are.
func (l *Lab) buildDataplane(devices []*routing.DeviceConfig) error {
	prev := l.net
	nodes := make([]*dataplane.Node, len(devices))
	scratch := make([]nodeScratch, par.Workers(len(devices)))
	err := par.Do(len(devices), func(w, i int) (err error) {
		var was *dataplane.Node
		if prev != nil {
			was, _ = prev.Node(devices[i].Hostname)
		}
		if nodes[i], err = l.buildNode(devices[i], was, &scratch[w]); err != nil {
			return fmt.Errorf("emul: %s: %w", devices[i].Hostname, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	net, addrs, reused := dataplane.NewNetwork(), 0, 0
	for _, n := range nodes {
		if err := net.AddNode(n); err != nil {
			return err
		}
		if prev != nil {
			if was, _ := prev.Node(n.Hostname); was == n {
				reused++
			}
		}
		addrs += len(n.Addrs)
	}
	l.obs.Add(obs.CounterFIBNodesReused, int64(reused))
	// One empty tree per address a device owns: probes then only read the map.
	trees, slab := make(map[netip.Addr]*hopTree, addrs), make([]hopTree, addrs)
	for _, n := range nodes {
		for a := range n.Addrs {
			trees[a], slab = &slab[0], slab[1:]
		}
	}
	l.net, l.trees = net, trees
	return nil
}

// nodeScratch is one build goroutine's buffers, reused across its nodes:
// the connected and BGP routes converted for the merge, and the merged
// entries.
type nodeScratch struct {
	conn, bgp []routing.Route
	entries   []dataplane.FIBEntry
}

// buildNode merges one device's candidate routes into FIB entries by
// administrative distance (connected < OSPF/IS-IS < BGP < static default): a
// BGP-originated loopback /32 must not shadow the OSPF route that actually
// resolves it. Every source is already ascending by prefix, and the engines'
// lists are read where they lie. When was, the device's node in the
// previous generation, holds exactly those entries and addresses, it is
// returned as it is; otherwise a new node is built from the entries.
func (l *Lab) buildNode(dc *routing.DeviceConfig, was *dataplane.Node, sc *nodeScratch) (*dataplane.Node, error) {
	conn := sc.conn[:0]
	for _, ic := range dc.Interfaces {
		conn = append(conn, routing.Route{Prefix: ic.Prefix, Origin: routing.OriginConnected, OutIf: ic.Name})
	}
	slices.SortStableFunc(conn, func(a, b routing.Route) int { return routing.ComparePrefix(a.Prefix, b.Prefix) })
	var static, ospf, isis []routing.Route
	if dc.Gateway.IsValid() {
		static = []routing.Route{{Prefix: netip.MustParsePrefix("0.0.0.0/0"), NextHop: dc.Gateway}}
	}
	if l.domain != nil {
		ospf = l.domain.Routes(dc.Hostname)
	}
	if l.isis != nil {
		isis = l.isis.Routes(dc.Hostname)
	}
	bgp := sc.bgp[:0]
	if l.bgp != nil {
		selected := l.bgp.Selected(dc.Hostname)
		for i := range selected {
			if rt := &selected[i]; !rt.Local && rt.NextHop.IsValid() {
				bgp = append(bgp, routing.Route{Prefix: rt.Prefix, NextHop: rt.NextHop})
			}
		}
	}
	sc.conn, sc.bgp = conn, bgp
	// Ascending preference: where lists share a prefix the last one wins.
	lists := [...][]routing.Route{static, bgp, ospf, isis, conn}
	entries := slices.Grow(sc.entries[:0], len(static)+len(bgp)+len(ospf)+len(isis)+len(conn))
	for {
		var p netip.Prefix
		more := false
		for _, rts := range lists {
			if len(rts) > 0 && (!more || routing.ComparePrefix(rts[0].Prefix, p) < 0) {
				p, more = rts[0].Prefix, true
			}
		}
		if !more {
			break
		}
		var best *routing.Route
		for k := range lists {
			for ; len(lists[k]) > 0 && lists[k][0].Prefix == p; lists[k] = lists[k][1:] {
				best = &lists[k][0]
			}
		}
		entries = append(entries, dataplane.FIBEntry{Prefix: p, NextHop: best.NextHop, OutIf: best.OutIf, Connected: best.Origin == routing.OriginConnected})
	}
	sc.entries = entries
	if was != nil && sameAddrs(was.Addrs, dc.Interfaces) && was.FIB.Holds(entries) {
		return was, nil
	}
	node := dataplane.NewNode(dc.Hostname)
	for _, ic := range dc.Interfaces {
		node.AddAddr(ic.Addr, ic.Name)
	}
	node.FIB.Grow(len(entries))
	for _, e := range entries {
		if err := node.FIB.Insert(e); err != nil {
			return nil, err
		}
	}
	return node, nil
}

// sameAddrs reports whether a node's address map is the one the interfaces
// give it: each address once, on its interface.
func sameAddrs(addrs map[netip.Addr]string, ifaces []routing.InterfaceConfig) bool {
	if len(addrs) != len(ifaces) {
		return false
	}
	for i, ic := range ifaces {
		if name, ok := addrs[ic.Addr]; !ok || name != ic.Name || slices.ContainsFunc(ifaces[:i], func(o routing.InterfaceConfig) bool { return o.Addr == ic.Addr }) {
			return false
		}
	}
	return true
}
