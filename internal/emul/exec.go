package emul

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"sync"

	"autonetkit/internal/obs"
)

// Exec runs a command on a machine and returns its textual output — the
// interface the measurement client drives (§5.7). The emulated commands
// produce the same output formats as their real counterparts, so the
// measurement system parses text exactly as it would against Netkit.
//
// Supported commands:
//
//	traceroute -naU <dst>       Linux traceroute (numeric, no DNS)
//	ping [-c <n>] <dst>         reachability probe
//	show ip ospf neighbor       Quagga vtysh
//	show ip bgp                 Quagga vtysh
//	show ip route               kernel/zebra table
func (l *Lab) Exec(machine, command string) (string, error) {
	// Hold the read lock for the whole command: measurement clients run
	// Exec from many goroutines while incident injection re-converges the
	// lab under the write lock.
	l.mu.RLock()
	defer l.mu.RUnlock()
	if !l.started {
		return "", fmt.Errorf("emul: lab not started")
	}
	vm, err := l.liveVM(machine)
	if err != nil {
		return "", err
	}
	fields := strings.Fields(command)
	if len(fields) == 0 {
		return "", fmt.Errorf("emul: empty command")
	}
	switch fields[0] {
	case "traceroute":
		return l.execTraceroute(vm, fields[1:])
	case "ping":
		return l.execPing(vm, fields[1:])
	case "show":
		return l.execShow(vm, fields[1:])
	}
	return "", fmt.Errorf("emul: %s: command not found: %s", machine, fields[0])
}

func (l *Lab) execTraceroute(vm *VM, args []string) (string, error) {
	if l.net == nil {
		return "", fmt.Errorf("emul: platform %s has no data plane", l.Platform)
	}
	var dst netip.Addr
	maxTTL := 30
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			continue // -n -a -U etc: output is already numeric
		}
		d, err := netip.ParseAddr(a)
		if err != nil {
			return "", fmt.Errorf("emul: traceroute: bad destination %q", a)
		}
		dst = d
	}
	if !dst.IsValid() {
		return "", fmt.Errorf("emul: traceroute: no destination")
	}
	res := l.net.Forward(vm.Name, dst, maxTTL)
	return res.TracerouteText(), nil
}

func (l *Lab) execPing(vm *VM, args []string) (string, error) {
	if l.net == nil {
		return "", fmt.Errorf("emul: platform %s has no data plane", l.Platform)
	}
	var dst netip.Addr
	count := "1"
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "-c" {
			i++
			if i == len(args) {
				return "", fmt.Errorf("emul: ping: option requires an argument -- 'c'")
			}
			if n, err := strconv.Atoi(args[i]); err != nil || n <= 0 {
				return "", fmt.Errorf("emul: ping: bad number of packets to transmit %q", args[i])
			}
			count = args[i]
			continue
		}
		if strings.HasPrefix(a, "-") {
			continue
		}
		d, err := netip.ParseAddr(a)
		if err != nil {
			return "", fmt.Errorf("emul: ping: bad destination %q", a)
		}
		dst = d
	}
	if !dst.IsValid() {
		return "", fmt.Errorf("emul: ping: no destination")
	}
	l.obs.Add(obs.CounterPingProbes, 1)
	// Forwarding is deterministic, so every packet of one ping shares a
	// fate. A probe leaves with TTL pingTTL and is answered when the
	// destination's owner is at most that many hops away, which is what
	// Forward's TTL and loop checks decide for a single walk.
	received, loss := "0", "100%"
	if hops := l.hopsTo(dst); hops != nil {
		if at, ok := l.net.Index(vm.Name); ok && hops[at] >= 0 && hops[at] <= pingTTL {
			received, loss = count, "0%"
		}
	}
	return "PING " + dst.String() + ": " + count + " packets transmitted, " + received + " received, " + loss + " packet loss\n", nil
}

// pingTTL is the hop limit of an emulated ping, the same as traceroute's.
const pingTTL = 30

// hopTree memoises dataplane.HopCounts towards one destination for one
// network generation. There is no invalidation: buildDataplane installs a
// new, empty set with every new network.
type hopTree struct {
	once sync.Once
	hops []int32
}

// hopsTo returns every machine's hop count towards dst on the current
// network, by node number, building the destination's tree on first use.
// Probes that race for a new destination wait on its Once, not on each
// other's trees. Callers hold the lab's read lock, so net and trees belong
// to one generation.
func (l *Lab) hopsTo(dst netip.Addr) []int32 {
	t := l.trees[dst]
	if t == nil {
		// No device answers for dst, so no walk can end: nothing to share,
		// and nothing a client can make the memo grow with.
		return nil
	}
	t.once.Do(func() {
		t.hops = l.net.HopCounts(dst)
		l.obs.Add(obs.CounterHopTreesBuilt, 1)
	})
	return t.hops
}

func (l *Lab) execShow(vm *VM, args []string) (string, error) {
	cmd := strings.Join(args, " ")
	switch cmd {
	case "ip ospf neighbor":
		return l.showOSPFNeighbors(vm), nil
	case "isis neighbor":
		return l.showISISNeighbors(vm), nil
	case "ip bgp":
		return l.showBGP(vm), nil
	case "ip route":
		return l.showRoutes(vm), nil
	}
	return "", fmt.Errorf("emul: unknown show command %q", cmd)
}

// showOSPFNeighbors mirrors Quagga's `show ip ospf neighbor` column layout.
func (l *Lab) showOSPFNeighbors(vm *VM) string {
	var sb strings.Builder
	sb.WriteString("Neighbor ID     Pri State           Dead Time Address         Interface\n")
	for _, nbr := range l.ospfNeighbors(vm.Name) {
		fmt.Fprintf(&sb, "%-15s   1 Full/DR         00:00:33 %-15s %s\n",
			nbr.RouterID, nbr.Addr, nbr.Iface)
	}
	return sb.String()
}

// showISISNeighbors mirrors Quagga's `show isis neighbor` layout.
func (l *Lab) showISISNeighbors(vm *VM) string {
	var sb strings.Builder
	sb.WriteString("System Id       Interface   State  Type\n")
	for _, nbr := range l.isisNeighbors(vm.Name) {
		fmt.Fprintf(&sb, "%-15s %-11s Up     L2\n", nbr.Hostname, nbr.Iface)
	}
	return sb.String()
}

// showBGP mirrors the `show ip bgp` table shape.
func (l *Lab) showBGP(vm *VM) string {
	var sb strings.Builder
	sb.WriteString("   Network          Next Hop            Metric LocPrf Path\n")
	for _, rt := range l.bgpRoutes(vm.Name) {
		path := make([]string, len(rt.ASPath))
		for i, a := range rt.ASPath {
			path[i] = fmt.Sprint(a)
		}
		nh := "0.0.0.0"
		if rt.NextHop.IsValid() {
			nh = rt.NextHop.String()
		}
		fmt.Fprintf(&sb, "*> %-16s %-19s %6d %6d %s i\n",
			rt.Prefix, nh, rt.MED, rt.LocalPref, strings.Join(path, " "))
	}
	return sb.String()
}

// showRoutes lists the FIB in `show ip route`-like lines.
func (l *Lab) showRoutes(vm *VM) string {
	if l.net == nil {
		return ""
	}
	node, ok := l.net.Node(vm.Name)
	if !ok {
		return ""
	}
	var sb strings.Builder
	for _, e := range node.FIB.Entries() {
		switch {
		case e.Connected:
			fmt.Fprintf(&sb, "C>* %s is directly connected, %s\n", e.Prefix, e.OutIf)
		case e.OutIf != "":
			fmt.Fprintf(&sb, "O>* %s via %s, %s\n", e.Prefix, e.NextHop, e.OutIf)
		default:
			fmt.Fprintf(&sb, "B>* %s via %s\n", e.Prefix, e.NextHop)
		}
	}
	return sb.String()
}
