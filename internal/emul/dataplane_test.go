package emul

import (
	"fmt"
	"net/netip"
	"runtime"
	"strings"
	"testing"

	"autonetkit/internal/design"
)

// TestDataplaneBuildIdenticalAcrossProcs: the per-node FIB builds fan out
// over GOMAXPROCS goroutines, and nothing observable may depend on how many
// there are: every machine's forwarding table and the event log are byte
// for byte the same at 1, 2 and 8, through a boot and an incident, and when
// several devices fail to build the error names the first in lab order.
func TestDataplaneBuildIdenticalAcrossProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want string
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		lab := nrenLab(t, 60, "netkit", "quagga", design.IGPOSPF)
		if err := lab.Boot(BootOptions{}); err != nil {
			t.Fatal(err)
		}
		link := lab.Links()[3]
		if err := lab.FailLink(link[0], link[1]); err != nil {
			t.Fatal(err)
		}
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
		if procs == 1 {
			want = dump.String()
		} else if dump.String() != want {
			t.Errorf("GOMAXPROCS=%d: FIB dumps and event log differ from GOMAXPROCS=1", procs)
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
