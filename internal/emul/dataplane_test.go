package emul

import (
	"fmt"
	"net/netip"
	"runtime"
	"strings"
	"testing"

	"autonetkit/internal/design"
	"autonetkit/internal/obs"
)

// TestDataplaneBuildIdenticalAcrossProcs: the per-node FIB builds fan out
// over GOMAXPROCS goroutines, and nothing observable may depend on how many
// there are: every machine's forwarding table, the event log and the number
// of nodes each generation carried over are the same at 1, 2 and 8, through
// a boot and two incidents, and when several devices fail to build the
// error names the first in lab order. Failing the AS's uplink changes every
// table; failing a link inside the AS then carries some nodes over, and not
// all.
func TestDataplaneBuildIdenticalAcrossProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want string
	var wantReused [2]int64
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		lab := nrenLab(t, 60, "netkit", "quagga", design.IGPOSPF)
		col := obs.NewCollector()
		if err := lab.Boot(BootOptions{Obs: col}); err != nil {
			t.Fatal(err)
		}
		if got := col.Counter(obs.CounterFIBNodesReused); got != 0 {
			t.Errorf("GOMAXPROCS=%d: boot carried %d nodes over from no generation", procs, got)
		}
		link := lab.Links()[3]
		if err := lab.FailLink(link[0], link[1]); err != nil {
			t.Fatal(err)
		}
		var reused [2]int64
		reused[0] = col.Counter(obs.CounterFIBNodesReused)
		var dump strings.Builder
		for _, name := range lab.VMNames() {
			node, _ := lab.Network().Node(name)
			routes, err := lab.Exec(name, "show ip route")
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&dump, "== %s\n%v\n%s", name, node.FIB.Entries(), routes)
		}
		dump.WriteString(strings.Join(lab.Events(), "\n"))
		link = lab.Links()[0]
		if err := lab.FailLink(link[0], link[1]); err != nil {
			t.Fatal(err)
		}
		reused[1] = col.Counter(obs.CounterFIBNodesReused) - reused[0]
		if n := int64(len(lab.VMNames())); reused[1] <= 0 || reused[1] >= n {
			t.Errorf("GOMAXPROCS=%d: failing %v carried %d of %d nodes over, want some and not all", procs, link, reused[1], n)
		}
		if procs == 1 {
			want, wantReused = dump.String(), reused
		} else if dump.String() != want {
			t.Errorf("GOMAXPROCS=%d: FIB dumps and event log differ from GOMAXPROCS=1", procs)
		} else if reused != wantReused {
			t.Errorf("GOMAXPROCS=%d: %v nodes carried over, %v at GOMAXPROCS=1", procs, reused, wantReused)
		}

		// An IPv6 subnet is the one thing FIB.Insert refuses. Two devices
		// carry one; whichever worker fails first, the build reports the
		// earlier device.
		names := lab.VMNames()
		first, second := names[len(names)/3], names[2*len(names)/3]
		for _, name := range []string{second, first} {
			ifaces := lab.vms[name].Config.Interfaces
			ifaces[len(ifaces)-1].Prefix = netip.MustParsePrefix("2001:db8::/64")
		}
		for i := 0; i < 20; i++ {
			err := lab.buildDataplane(lab.liveDevices())
			if err == nil || !strings.HasPrefix(err.Error(), "emul: "+first+": dataplane: FIB is IPv4-only") {
				t.Fatalf("GOMAXPROCS=%d: build error = %v, want the IPv4-only error of %s", procs, err, first)
			}
		}
	}
}
