package emul

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

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
	verb, args := nextWord(command)
	switch verb {
	case "":
		return "", fmt.Errorf("emul: empty command")
	case "traceroute":
		return l.execTraceroute(vm, args)
	case "ping":
		return l.execPing(vm, args)
	case "show":
		return l.execShow(vm, args)
	}
	return "", fmt.Errorf("emul: %s: command not found: %s", machine, verb)
}

// nextWord returns the first word of s and the text after it, splitting on
// runs of white space exactly as strings.Fields does but without
// allocating: a probe's command is read in place. word is empty once s has
// no words left. ASCII is read byte by byte; from the first byte that is
// not, runes are decoded.
func nextWord(s string) (word, rest string) {
	start, i := -1, 0
	for ; i < len(s) && s[i] < utf8.RuneSelf; i++ {
		switch {
		case !asciiSpace[s[i]]:
			if start < 0 {
				start = i
			}
		case start >= 0:
			return s[start:i], s[i:]
		}
	}
	for j, r := range s[i:] {
		switch {
		case !unicode.IsSpace(r):
			if start < 0 {
				start = i + j
			}
		case start >= 0:
			return s[start : i+j], s[i+j:]
		}
	}
	if start < 0 {
		return "", ""
	}
	return s[start:], ""
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

func (l *Lab) execTraceroute(vm *VM, args string) (string, error) {
	if l.net == nil {
		return "", fmt.Errorf("emul: platform %s has no data plane", l.Platform)
	}
	var dst netip.Addr
	maxTTL := 30
	for a, rest := nextWord(args); a != ""; a, rest = nextWord(rest) {
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

func (l *Lab) execPing(vm *VM, args string) (string, error) {
	if l.net == nil {
		return "", fmt.Errorf("emul: platform %s has no data plane", l.Platform)
	}
	var dst netip.Addr
	count := "1"
	for a, rest := nextWord(args); a != ""; a, rest = nextWord(rest) {
		if a == "-c" {
			if a, rest = nextWord(rest); a == "" {
				return "", fmt.Errorf("emul: ping: option requires an argument -- 'c'")
			}
			if n, err := strconv.Atoi(a); err != nil || n <= 0 {
				return "", fmt.Errorf("emul: ping: bad number of packets to transmit %q", a)
			}
			count = a
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
	t := l.treeTo(dst)
	answered := false
	if t != nil {
		at, ok := l.net.Index(vm.Name)
		answered = ok && t.hops[at] >= 0 && t.hops[at] <= pingTTL
		if count == "1" {
			if answered {
				return t.answered, nil
			}
			return t.lost, nil
		}
	}
	if answered {
		return pingReply(dst, count, count, "0%"), nil
	}
	return pingReply(dst, count, "0", "100%"), nil
}

func pingReply(dst netip.Addr, count, received, loss string) string {
	return "PING " + dst.String() + ": " + count + " packets transmitted, " + received + " received, " + loss + " packet loss\n"
}

// pingTTL is the hop limit of an emulated ping, the same as traceroute's.
const pingTTL = 30

// hopTree memoises dataplane.HopCounts towards one destination for one
// network generation, with the two `-c 1` replies a probe of it can get.
// There is no invalidation: buildDataplane installs a new, empty set with
// every new network.
type hopTree struct {
	once           sync.Once
	hops           []int32
	answered, lost string
}

// treeTo returns the memo for dst on the current network, with every
// machine's hop count towards dst by node number, building it on first use;
// nil when no device owns dst. Probes that race for a new destination wait
// on its Once, not on each other's trees. Callers hold the lab's read lock,
// so net and trees belong to one generation.
func (l *Lab) treeTo(dst netip.Addr) *hopTree {
	t := l.trees[dst]
	if t == nil {
		// No device answers for dst, so no walk can end: nothing to share,
		// and nothing a client can make the memo grow with.
		return nil
	}
	t.once.Do(func() {
		// The replies are written inside the Once so that every probe
		// returning from Do sees them.
		t.hops = l.net.HopCounts(dst)
		t.answered, t.lost = pingReply(dst, "1", "1", "0%"), pingReply(dst, "1", "0", "100%")
		l.obs.Add(obs.CounterHopTreesBuilt, 1)
	})
	return t
}

func (l *Lab) execShow(vm *VM, args string) (string, error) {
	var words []string
	for w, rest := nextWord(args); w != ""; w, rest = nextWord(rest) {
		words = append(words, w)
	}
	cmd := strings.Join(words, " ")
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
