package emul

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"

	"autonetkit/internal/routing"
)

// Changing a running lab (paper §8: "creating tools to emulate workflow, or
// incidents"). Every edit to a started lab is one Change handed to Apply:
// failed and restored links and machines, a substrate host's machines going
// dark or re-booting elsewhere, partitions, and the convergence watchdog's
// budget, soft-reset and quarantine rungs. Apply resolves the whole change
// against the current configs and the boot-time snapshot before it touches
// anything, so a rejected change leaves the lab exactly as it was. An
// accepted one edits only the machines it names and re-converges once, so
// later measurements observe the post-incident network. Incidents are
// reversible: the restore parts re-install interfaces from the snapshot
// Boot takes. Apply holds the lab's write lock, so it is safe to call while
// a measurement client probes the lab concurrently.

// Link names the link between two machines; a valid Subnet narrows it to
// one of several parallel circuits.
type Link struct {
	A, B   string
	Subnet netip.Prefix
}

// Change is one edit to a running lab. Its parts are resolved in field
// order, each seeing the edits of the parts before it. The link, machine
// and partition parts together are one incident with one id.
type Change struct {
	// FailLinks removes both ends of every subnet two machines currently
	// share. RestoreLinks re-installs, from the boot snapshot, every
	// boot-time shared subnet that is currently down.
	FailLinks, RestoreLinks []Link
	// FailNodes removes every data-plane interface of each machine (the
	// loopback stays, unreachable). RestoreNodes re-installs its boot-time
	// interface set. Either is an error for a machine with nothing to change.
	FailNodes, RestoreNodes []string
	// HostDown and Reboot are a substrate host's batches, processed in
	// sorted order and closed by one summary line. HostDown fails the
	// machines a dead host carried, skipping those already down. Reboot
	// re-installs the boot-time interfaces of machines re-placed onto a new
	// host, intact ones included.
	HostDown, Reboot []string
	// Partition cuts every interface a machine of the group has on a subnet
	// shared with a machine outside it (the outside ends stay up).
	// RestoreNodes on the group heals it.
	Partition []string
	// Budget, when set, replaces the convergence budget for this and later
	// converges: the watchdog's escalation rung.
	Budget *routing.ConvergenceBudget
	// Quarantine removes machines from the running topology for Reason;
	// removing every remaining machine is refused.
	Quarantine []string
	Reason     string
	// SoftReset is `clear ip bgp` on the named speakers: their RIBs are
	// flushed and the running BGP engine continues instead of re-converging.
	// It cannot be combined with any other part.
	SoftReset []string
}

// Apply validates c as a whole, then applies it: the named machines' configs
// are edited, the events logged, and the lab re-converges (or, for a soft
// reset, its BGP engine continues). An empty change re-converges the lab as
// it stands. Apply returns the outcome of the BGP run.
func (l *Lab) Apply(c Change) (routing.BGPResult, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, err := l.resolve(c)
	if err != nil {
		return l.bgpResult, err
	}
	l.incidentSeq = e.seq
	l.events = append(l.events, e.lines...)
	for name, ifs := range e.ifaces {
		l.vms[name].Config.Interfaces = ifs
	}
	for _, name := range c.Quarantine {
		l.vms[name].Config, l.vms[name].Booted = nil, false
		l.quarantined = append(l.quarantined, name)
	}
	slices.Sort(l.quarantined)
	if c.Budget != nil {
		l.budget = *c.Budget
	}
	if len(c.SoftReset) == 0 {
		err = l.converge()
		return l.bgpResult, err
	}
	l.bgp.SoftReset(c.SoftReset)
	// A reset discards the engine's trajectory recording, so the lab's
	// cached replay is stale too; the next converge recomputes in full.
	l.bgpReplay = nil
	l.runBGP()
	if !platforms[l.Platform].solver {
		err = l.buildDataplane(l.liveDevices())
	}
	return l.bgpResult, err
}

// FailLink, RestoreLink, FailNode and RestoreNode apply one-part changes.
func (l *Lab) FailLink(a, b string) error    { return l.apply(Change{FailLinks: link(a, b)}) }
func (l *Lab) RestoreLink(a, b string) error { return l.apply(Change{RestoreLinks: link(a, b)}) }
func (l *Lab) FailNode(name string) error    { return l.apply(Change{FailNodes: []string{name}}) }
func (l *Lab) RestoreNode(name string) error { return l.apply(Change{RestoreNodes: []string{name}}) }

func link(a, b string) []Link { return []Link{{A: a, B: b}} }

func (l *Lab) apply(c Change) error {
	_, err := l.Apply(c)
	return err
}

// edit is a Change resolved against the lab but not yet applied: the new
// interface list of every machine it touches, and the event lines it logs.
type edit struct {
	l      *Lab
	seq    int // the lab's incident sequence once the edit is applied
	ifaces map[string][]routing.InterfaceConfig
	lines  []string
}

// resolve checks c against the lab and computes its edit, leaving the lab
// untouched. Callers hold the write lock.
func (l *Lab) resolve(c Change) (*edit, error) {
	if !l.started {
		return nil, fmt.Errorf("emul: lab not started")
	}
	e := &edit{l: l, seq: l.incidentSeq, ifaces: map[string][]routing.InterfaceConfig{}}
	incident := len(c.FailLinks)+len(c.RestoreLinks)+len(c.FailNodes)+len(c.RestoreNodes)+
		len(c.HostDown)+len(c.Reboot)+len(c.Partition) > 0
	if incident {
		if platforms[l.Platform].solver {
			return nil, fmt.Errorf("emul: incident injection is not supported on the C-BGP route solver")
		}
		e.seq++
	}
	if len(c.SoftReset) > 0 && (incident || c.Budget != nil || len(c.Quarantine) > 0) {
		return nil, fmt.Errorf("emul: a soft reset cannot be combined with other changes")
	}
	// Every named machine must be part of the running topology.
	names := slices.Concat(c.FailNodes, c.RestoreNodes, c.HostDown, c.Reboot, c.Partition, c.Quarantine, c.SoftReset)
	for _, lk := range slices.Concat(c.FailLinks, c.RestoreLinks) {
		names = append(names, lk.A, lk.B)
	}
	for _, name := range names {
		if _, err := l.liveVM(name); err != nil {
			return nil, err
		}
	}
	for _, step := range []func() error{
		func() error { return e.failLinks(c.FailLinks) },
		func() error { return e.restoreLinks(c.RestoreLinks) },
		func() error { return e.failNodes(c.FailNodes, false) },
		func() error { return e.restoreNodes(c.RestoreNodes, false) },
		func() error { return e.failNodes(c.HostDown, true) },
		func() error { return e.restoreNodes(c.Reboot, true) },
		func() error { return e.partition(c.Partition) },
		func() error { return e.quarantine(c.Quarantine, c.Reason) },
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	if c.Budget != nil {
		e.logf("WATCHDOG: budget escalated to %d rounds%s", c.Budget.BGPRounds(), e.note())
	}
	if len(c.SoftReset) > 0 {
		e.logf("WATCHDOG: soft reset of %s (RIB flush + re-exchange)%s", strings.Join(c.SoftReset, ", "), e.note())
	}
	return e, nil
}

func (e *edit) logf(format string, args ...any) {
	e.lines = append(e.lines, fmt.Sprintf(format, args...))
}

// note renders the " (incident #N)" suffix watchdog lines carry once
// incidents have been injected; empty before the first one.
func (e *edit) note() string {
	if e.seq == 0 {
		return ""
	}
	return fmt.Sprintf(" (incident #%d)", e.seq)
}

// liveVM resolves a machine that is part of the running topology; a
// quarantined machine takes part in no change and answers no command.
func (l *Lab) liveVM(name string) (*VM, error) {
	vm, ok := l.vms[name]
	if !ok {
		return nil, fmt.Errorf("emul: no machine %q", name)
	}
	if vm.Config == nil {
		return nil, fmt.Errorf("emul: machine %q is quarantined", name)
	}
	return vm, nil
}

// cur is a live machine's interface list with the edit so far applied.
func (e *edit) cur(name string) []routing.InterfaceConfig {
	if ifs, ok := e.ifaces[name]; ok {
		return ifs
	}
	return e.l.vms[name].Config.Interfaces
}

// shared lists the subnets a link's two ends share per ifaces, narrowed to
// lk.Subnet when it names one.
func (e *edit) shared(lk Link, ifaces func(string) []routing.InterfaceConfig) ([]netip.Prefix, error) {
	if lk.A == lk.B {
		return nil, fmt.Errorf("emul: link %s -- %s has the same machine at both ends", lk.A, lk.B)
	}
	shared := sharedSubnets(ifaces(lk.A), ifaces(lk.B))
	if lk.Subnet.IsValid() {
		if !slices.Contains(shared, lk.Subnet) {
			return nil, fmt.Errorf("emul: %s and %s do not share subnet %v", lk.A, lk.B, lk.Subnet)
		}
		shared = []netip.Prefix{lk.Subnet}
	}
	return shared, nil
}

// failLinks removes both ends of each link's shared subnets, logging each
// subnet.
func (e *edit) failLinks(links []Link) error {
	for _, lk := range links {
		shared, err := e.shared(lk, e.cur)
		if err != nil {
			return err
		}
		if len(shared) == 0 {
			return fmt.Errorf("emul: %s and %s share no subnet", lk.A, lk.B)
		}
		for _, p := range shared {
			e.ifaces[lk.A] = withoutSubnet(e.cur(lk.A), p)
			e.ifaces[lk.B] = withoutSubnet(e.cur(lk.B), p)
			e.logf("INCIDENT #%d: link %s -- %s (%v) failed", e.seq, lk.A, lk.B, p)
		}
	}
	return nil
}

// restoreLinks re-installs each link's boot-time shared subnets that are
// down at either end; restoring an intact link is an error.
func (e *edit) restoreLinks(links []Link) error {
	boot := func(name string) []routing.InterfaceConfig { return e.l.baseline[name].Interfaces }
	for _, lk := range links {
		shared, err := e.shared(lk, boot)
		if err != nil {
			return err
		}
		if len(shared) == 0 {
			return fmt.Errorf("emul: %s and %s shared no subnet at boot", lk.A, lk.B)
		}
		restored := false
		for _, p := range shared {
			if hasSubnet(e.cur(lk.A), p) && hasSubnet(e.cur(lk.B), p) {
				continue
			}
			for _, name := range []string{lk.A, lk.B} {
				e.ifaces[name] = restoreSubnet(e.cur(name), boot(name), p)
			}
			e.logf("INCIDENT #%d: link %s -- %s (%v) restored", e.seq, lk.A, lk.B, p)
			restored = true
		}
		if !restored {
			return fmt.Errorf("emul: link %s -- %s is not failed", lk.A, lk.B)
		}
	}
	return nil
}

// failNodes strips machines down to their loopbacks. A host batch skips the
// machines already down; a plain one rejects them.
func (e *edit) failNodes(names []string, host bool) error {
	if host {
		names = sorted(names)
	}
	downed := 0
	for _, name := range names {
		kept := slices.DeleteFunc(slices.Clone(e.cur(name)), func(ic routing.InterfaceConfig) bool { return ic.Name != "lo" })
		removed := len(e.cur(name)) - len(kept)
		if removed == 0 {
			if !host {
				return fmt.Errorf("emul: %s has no data-plane interfaces to fail", name)
			}
			continue
		}
		e.ifaces[name] = kept
		downed++
		e.logf("INCIDENT #%d: machine %s down (%d interfaces removed)", e.seq, name, removed)
	}
	if host && len(names) > 0 {
		if downed == 0 {
			return fmt.Errorf("emul: all of %v were already down", names)
		}
		e.logf("INCIDENT #%d: host failure downed %d machines", e.seq, downed)
	}
	return nil
}

// restoreNodes re-installs machines' boot-time interface sets. A reboot
// batch re-installs intact machines too; a plain restore rejects them.
func (e *edit) restoreNodes(names []string, reboot bool) error {
	verb := "restored"
	if reboot {
		names, verb = sorted(names), "re-booted"
	}
	for _, name := range names {
		base := e.l.baseline[name].Interfaces
		restored := len(base) - len(e.cur(name))
		if restored <= 0 && !reboot {
			return fmt.Errorf("emul: machine %s is not failed", name)
		}
		e.ifaces[name] = slices.Clone(base)
		e.logf("INCIDENT #%d: machine %s %s (%d interfaces re-installed)", e.seq, name, verb, restored)
	}
	if reboot && len(names) > 0 {
		e.logf("INCIDENT #%d: re-placement re-booted %d machines", e.seq, len(names))
	}
	return nil
}

// partition cuts the group's boundary subnets from the inside ends.
func (e *edit) partition(inside []string) error {
	if len(inside) == 0 {
		return nil
	}
	in := map[string]bool{}
	for _, name := range inside {
		in[name] = true
	}
	cut := 0
	for _, name := range inside {
		for _, p := range e.boundarySubnets(name, in) {
			e.ifaces[name] = withoutSubnet(e.cur(name), p)
			e.logf("INCIDENT #%d: partition cut %s (%v)", e.seq, name, p)
			cut++
		}
	}
	if cut == 0 {
		return fmt.Errorf("emul: partition group %v has no links to the outside", inside)
	}
	e.logf("INCIDENT #%d: partition isolated %v (%d boundary subnets cut)", e.seq, inside, cut)
	return nil
}

// boundarySubnets lists name's subnets shared with any live machine outside
// the group, sorted.
func (e *edit) boundarySubnets(name string, in map[string]bool) []netip.Prefix {
	var out []netip.Prefix
	for _, other := range e.l.order {
		if !in[other] && e.l.vms[other].Config != nil {
			out = append(out, sharedSubnets(e.cur(name), e.cur(other))...)
		}
	}
	slices.SortFunc(out, routing.ComparePrefix)
	return slices.Compact(out)
}

// quarantine logs the machines Apply will remove, refusing to remove them all.
func (e *edit) quarantine(names []string, reason string) error {
	if len(names) == 0 {
		return nil
	}
	live := len(e.l.liveDevices())
	if len(names) >= live {
		return fmt.Errorf("emul: refusing to quarantine all %d remaining machines", live)
	}
	for i, name := range names {
		if slices.Contains(names[:i], name) {
			return fmt.Errorf("emul: machine %q is quarantined", name)
		}
		e.logf("machine %s QUARANTINED by watchdog (%s)%s", name, reason, e.note())
	}
	return nil
}

// sharedSubnets returns every data-plane subnet both interface lists attach
// to, sorted ascending.
func sharedSubnets(a, b []routing.InterfaceConfig) []netip.Prefix {
	var out []netip.Prefix
	for _, ia := range a {
		if ia.Name != "lo" && hasSubnet(b, ia.Prefix) {
			out = append(out, ia.Prefix)
		}
	}
	slices.SortFunc(out, routing.ComparePrefix)
	return out
}

func sorted(names []string) []string {
	out := slices.Clone(names)
	slices.Sort(out)
	return out
}

func hasSubnet(ifs []routing.InterfaceConfig, p netip.Prefix) bool {
	return slices.ContainsFunc(ifs, func(ic routing.InterfaceConfig) bool { return ic.Prefix == p && ic.Name != "lo" })
}

func withoutSubnet(ifs []routing.InterfaceConfig, p netip.Prefix) []routing.InterfaceConfig {
	return slices.DeleteFunc(slices.Clone(ifs), func(ic routing.InterfaceConfig) bool { return ic.Prefix == p && ic.Name != "lo" })
}

// restoreSubnet re-installs the baseline interfaces on subnet p into ifs,
// rebuilding the list in baseline order so a fully restored machine is
// identical to its boot-time configuration.
func restoreSubnet(ifs, base []routing.InterfaceConfig, p netip.Prefix) []routing.InterfaceConfig {
	present := map[string]bool{}
	for _, ic := range ifs {
		present[ic.Name] = true
	}
	var rebuilt []routing.InterfaceConfig
	for _, ic := range base {
		if present[ic.Name] || (ic.Prefix == p && ic.Name != "lo") {
			rebuilt = append(rebuilt, ic)
		}
	}
	return rebuilt
}
