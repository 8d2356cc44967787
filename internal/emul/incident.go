package emul

import (
	"fmt"
	"net/netip"
	"sort"

	"autonetkit/internal/routing"
)

// Incident injection (paper §8: "creating tools to emulate workflow, or
// incidents"). Failing a link or a machine removes the affected interfaces
// from the booted configurations and re-converges the control plane, so
// subsequent measurements observe the post-incident network — the
// what-if experiments the paper motivates.
//
// Incidents are reversible: Start snapshots every machine's boot-time
// DeviceConfig, and RestoreLink/RestoreNode re-install interfaces from
// those snapshots, re-converging back to the original state. All incident
// entry points take the lab's write lock, so they are safe to call while a
// measurement client probes the lab concurrently.

// incidentPrecheck validates the common incident preconditions. Callers
// hold the write lock.
func (l *Lab) incidentPrecheck() error {
	if !l.started {
		return fmt.Errorf("emul: lab not started")
	}
	if platforms[l.Platform].solver {
		return fmt.Errorf("emul: incident injection is not supported on the C-BGP route solver")
	}
	return nil
}

// liveVM resolves a machine that is part of the running topology; a
// machine quarantined by a lenient boot cannot take part in incidents.
func (l *Lab) liveVM(name string) (*VM, error) {
	vm, ok := l.vms[name]
	if !ok {
		return nil, fmt.Errorf("emul: no machine %q", name)
	}
	if vm.Config == nil {
		return nil, fmt.Errorf("emul: machine %q was quarantined at boot", name)
	}
	return vm, nil
}

func (l *Lab) vmPair(a, b string) (*VM, *VM, error) {
	va, err := l.liveVM(a)
	if err != nil {
		return nil, nil, err
	}
	vb, err := l.liveVM(b)
	if err != nil {
		return nil, nil, err
	}
	return va, vb, nil
}

// FailLink brings down the link between two machines: both interfaces on
// every subnet the machines currently share are removed and the lab
// re-converges. Each failed subnet is logged individually.
func (l *Lab) FailLink(a, b string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failLink(a, b, netip.Prefix{})
}

// FailLinkSubnet fails only the given shared subnet between two machines —
// for parallel links where one circuit, not the whole adjacency, goes down.
func (l *Lab) FailLinkSubnet(a, b string, subnet netip.Prefix) error {
	if !subnet.IsValid() {
		return fmt.Errorf("emul: invalid subnet")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failLink(a, b, subnet)
}

// failLink fails all shared subnets, or just `only` when it is valid.
// Callers hold the write lock.
func (l *Lab) failLink(a, b string, only netip.Prefix) error {
	if err := l.incidentPrecheck(); err != nil {
		return err
	}
	va, vb, err := l.vmPair(a, b)
	if err != nil {
		return err
	}
	shared := sharedSubnets(va.Config, vb.Config)
	if len(shared) == 0 {
		return fmt.Errorf("emul: %s and %s share no subnet", a, b)
	}
	if only.IsValid() {
		found := false
		for _, p := range shared {
			if p == only {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("emul: %s and %s do not share subnet %v", a, b, only)
		}
		shared = []netip.Prefix{only}
	}
	l.incidentSeq++
	for _, p := range shared {
		removeSubnet(va.Config, p)
		removeSubnet(vb.Config, p)
		l.logf("INCIDENT #%d: link %s -- %s (%v) failed", l.incidentSeq, a, b, p)
	}
	return l.converge()
}

// RestoreLink reverses FailLink: every boot-time shared subnet between the
// two machines that is currently down is re-installed on both ends from
// the Start snapshot, and the lab re-converges. Restoring a link that is
// not failed is an error.
func (l *Lab) RestoreLink(a, b string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.incidentPrecheck(); err != nil {
		return err
	}
	va, vb, err := l.vmPair(a, b)
	if err != nil {
		return err
	}
	ba, bb := l.baseline[a], l.baseline[b]
	shared := sharedSubnets(ba, bb)
	if len(shared) == 0 {
		return fmt.Errorf("emul: %s and %s shared no subnet at boot", a, b)
	}
	var missing []netip.Prefix
	for _, p := range shared {
		if !hasSubnet(va.Config, p) || !hasSubnet(vb.Config, p) {
			missing = append(missing, p)
		}
	}
	if len(missing) == 0 {
		return fmt.Errorf("emul: link %s -- %s is not failed", a, b)
	}
	l.incidentSeq++
	for _, p := range missing {
		restoreSubnet(va.Config, ba, p)
		restoreSubnet(vb.Config, bb, p)
		l.logf("INCIDENT #%d: link %s -- %s (%v) restored", l.incidentSeq, a, b, p)
	}
	return l.converge()
}

// FailNode takes a machine down entirely: all its data-plane interfaces
// are removed (the loopback stays, unreachable), and the lab re-converges.
func (l *Lab) FailNode(name string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.incidentPrecheck(); err != nil {
		return err
	}
	vm, err := l.liveVM(name)
	if err != nil {
		return err
	}
	var kept []routing.InterfaceConfig
	removed := 0
	for _, ic := range vm.Config.Interfaces {
		if ic.Name == "lo" {
			kept = append(kept, ic)
			continue
		}
		removed++
	}
	if removed == 0 {
		return fmt.Errorf("emul: %s has no data-plane interfaces to fail", name)
	}
	vm.Config.Interfaces = kept
	l.incidentSeq++
	l.logf("INCIDENT #%d: machine %s down (%d interfaces removed)", l.incidentSeq, name, removed)
	return l.converge()
}

// RestoreNode reverses FailNode (and the machine's side of failed links):
// the machine's full boot-time interface set is re-installed from the
// Start snapshot and the lab re-converges. Restoring an intact machine is
// an error.
func (l *Lab) RestoreNode(name string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.incidentPrecheck(); err != nil {
		return err
	}
	vm, err := l.liveVM(name)
	if err != nil {
		return err
	}
	base := l.baseline[name]
	restored := len(base.Interfaces) - len(vm.Config.Interfaces)
	if restored <= 0 {
		return fmt.Errorf("emul: machine %s is not failed", name)
	}
	vm.Config.Interfaces = append([]routing.InterfaceConfig(nil), base.Interfaces...)
	l.incidentSeq++
	l.logf("INCIDENT #%d: machine %s restored (%d interfaces re-installed)", l.incidentSeq, name, restored)
	return l.converge()
}

// FailNodes takes a whole batch of machines down under one lock and ONE
// re-convergence — the emulation-host-failure primitive: when a substrate
// host dies, every VM it carried goes dark at once, and converging per VM
// would cost k convergences for a k-VM host. Machines already down are
// skipped (their interfaces are gone already). Names are processed in
// sorted order for deterministic logs.
func (l *Lab) FailNodes(names []string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.incidentPrecheck(); err != nil {
		return err
	}
	if len(names) == 0 {
		return fmt.Errorf("emul: empty node batch")
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	for _, name := range sorted {
		if _, err := l.liveVM(name); err != nil {
			return err
		}
	}
	l.incidentSeq++
	downed := 0
	for _, name := range sorted {
		vm := l.vms[name]
		var kept []routing.InterfaceConfig
		removed := 0
		for _, ic := range vm.Config.Interfaces {
			if ic.Name == "lo" {
				kept = append(kept, ic)
				continue
			}
			removed++
		}
		if removed == 0 {
			continue
		}
		vm.Config.Interfaces = kept
		downed++
		l.logf("INCIDENT #%d: machine %s down (%d interfaces removed)", l.incidentSeq, name, removed)
	}
	if downed == 0 {
		l.incidentSeq-- // nothing was injected; give the id back
		return fmt.Errorf("emul: all of %v were already down", sorted)
	}
	l.logf("INCIDENT #%d: host failure downed %d machines", l.incidentSeq, downed)
	return l.converge()
}

// RebootVMs re-installs the full boot-time configuration of a batch of
// machines under one lock and ONE re-convergence — the re-placement
// primitive: VMs moved off a drained or failed substrate host boot their
// original device configs on the new host. Machines whose interfaces are
// already intact re-install as a no-op (a live migration re-boots the
// same config). Names are processed in sorted order.
func (l *Lab) RebootVMs(names []string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.incidentPrecheck(); err != nil {
		return err
	}
	if len(names) == 0 {
		return fmt.Errorf("emul: empty node batch")
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	for _, name := range sorted {
		if _, err := l.liveVM(name); err != nil {
			return err
		}
	}
	l.incidentSeq++
	for _, name := range sorted {
		vm := l.vms[name]
		base := l.baseline[name]
		restored := len(base.Interfaces) - len(vm.Config.Interfaces)
		vm.Config.Interfaces = append([]routing.InterfaceConfig(nil), base.Interfaces...)
		l.logf("INCIDENT #%d: machine %s re-booted (%d interfaces re-installed)", l.incidentSeq, name, restored)
	}
	l.logf("INCIDENT #%d: re-placement re-booted %d machines", l.incidentSeq, len(sorted))
	return l.converge()
}

// Partition isolates a group of machines from the rest of the lab: every
// interface an inside machine has on a subnet shared with an outside
// machine is removed (the outside ends stay up), and the lab re-converges.
// The inverse is RestoreNode on each inside machine.
func (l *Lab) Partition(inside []string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.incidentPrecheck(); err != nil {
		return err
	}
	if len(inside) == 0 {
		return fmt.Errorf("emul: empty partition group")
	}
	in := map[string]bool{}
	for _, name := range inside {
		if _, err := l.liveVM(name); err != nil {
			return err
		}
		in[name] = true
	}
	l.incidentSeq++
	cut := 0
	for _, name := range inside {
		vm := l.vms[name]
		for _, p := range boundarySubnets(l, vm, in) {
			removeSubnet(vm.Config, p)
			l.logf("INCIDENT #%d: partition cut %s (%v)", l.incidentSeq, name, p)
			cut++
		}
	}
	if cut == 0 {
		l.incidentSeq-- // nothing was injected; give the id back
		return fmt.Errorf("emul: partition group %v has no links to the outside", inside)
	}
	l.logf("INCIDENT #%d: partition isolated %v (%d boundary subnets cut)", l.incidentSeq, inside, cut)
	return l.converge()
}

// boundarySubnets lists vm's subnets shared with any machine outside the
// group, sorted.
func boundarySubnets(l *Lab, vm *VM, in map[string]bool) []netip.Prefix {
	seen := map[netip.Prefix]bool{}
	var out []netip.Prefix
	for _, other := range l.order {
		if in[other] || l.vms[other].Config == nil {
			continue
		}
		for _, p := range sharedSubnets(vm.Config, l.vms[other].Config) {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr().Less(out[j].Addr()) })
	return out
}

// sharedSubnets returns every data-plane subnet both devices attach to,
// sorted ascending.
func sharedSubnets(a, b *routing.DeviceConfig) []netip.Prefix {
	var out []netip.Prefix
	for _, ia := range a.Interfaces {
		if ia.Name == "lo" {
			continue
		}
		for _, ib := range b.Interfaces {
			if ib.Name != "lo" && ia.Prefix == ib.Prefix {
				out = append(out, ia.Prefix)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr().Less(out[j].Addr()) })
	return out
}

func hasSubnet(dc *routing.DeviceConfig, p netip.Prefix) bool {
	for _, ic := range dc.Interfaces {
		if ic.Prefix == p && ic.Name != "lo" {
			return true
		}
	}
	return false
}

func removeSubnet(dc *routing.DeviceConfig, p netip.Prefix) {
	var kept []routing.InterfaceConfig
	for _, ic := range dc.Interfaces {
		if ic.Prefix == p && ic.Name != "lo" {
			continue
		}
		kept = append(kept, ic)
	}
	dc.Interfaces = kept
}

// restoreSubnet re-installs the baseline interfaces on subnet p into dc,
// rebuilding the interface list in baseline order so a fully restored
// machine is byte-identical to its boot-time configuration.
func restoreSubnet(dc, base *routing.DeviceConfig, p netip.Prefix) {
	present := map[string]bool{}
	for _, ic := range dc.Interfaces {
		present[ic.Name] = true
	}
	var rebuilt []routing.InterfaceConfig
	for _, ic := range base.Interfaces {
		if present[ic.Name] || (ic.Prefix == p && ic.Name != "lo") {
			rebuilt = append(rebuilt, ic)
		}
	}
	dc.Interfaces = rebuilt
}

// cloneDeviceConfig deep-copies a device config (struct plus every slice
// incidents may mutate), for the boot-time baseline snapshot.
func cloneDeviceConfig(dc *routing.DeviceConfig) *routing.DeviceConfig {
	cp := *dc
	cp.Interfaces = append([]routing.InterfaceConfig(nil), dc.Interfaces...)
	if dc.OSPF != nil {
		o := *dc.OSPF
		o.Networks = append([]routing.OSPFNetwork(nil), dc.OSPF.Networks...)
		cp.OSPF = &o
	}
	if dc.BGP != nil {
		b := *dc.BGP
		b.Networks = append([]netip.Prefix(nil), dc.BGP.Networks...)
		b.Neighbors = append([]routing.BGPNeighbor(nil), dc.BGP.Neighbors...)
		cp.BGP = &b
	}
	if dc.ISIS != nil {
		i := *dc.ISIS
		i.Interfaces = append([]string(nil), dc.ISIS.Interfaces...)
		cp.ISIS = &i
	}
	return &cp
}
