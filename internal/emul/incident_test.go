package emul

import (
	"fmt"
	"net/netip"
	"reflect"
	"strings"
	"sync"
	"testing"

	"autonetkit/internal/graph"
	"autonetkit/internal/ipalloc"
	"autonetkit/internal/measure"
	"autonetkit/internal/obs"
	"autonetkit/internal/routing"
)

// incidentLab deploys the fig5 network and returns it with the allocation.
func incidentLab(t *testing.T) (*Lab, *ipalloc.Result) {
	t.Helper()
	return startedLab(t, "netkit", "quagga")
}

func TestFailLinkReroutes(t *testing.T) {
	lab, alloc := incidentLab(t)
	lb3 := alloc.Overlay.Node("r3").Get(ipalloc.AttrLoopback).(netip.Addr)

	// Before: r1 reaches r3's loopback directly (one hop).
	before, err := lab.Exec("r1", "traceroute -naU "+lb3.String())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(before, " ms") != 1 {
		t.Fatalf("pre-incident path not direct:\n%s", before)
	}

	if err := lab.FailLink("r1", "r3"); err != nil {
		t.Fatal(err)
	}

	// After: still reachable, but via a longer path (r2-r4-r3 or similar).
	after, err := lab.Exec("r1", "traceroute -naU "+lb3.String())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(after, "* * *") {
		t.Fatalf("post-incident unreachable:\n%s", after)
	}
	if hops := strings.Count(after, " ms"); hops < 2 {
		t.Errorf("post-incident path should be longer, got %d hops:\n%s", hops, after)
	}
	// OSPF adjacency between r1 and r3 is gone.
	for _, nbr := range lab.OSPFNeighbors("r1") {
		if nbr.Hostname == "r3" {
			t.Error("adjacency survived link failure")
		}
	}
	// The incident is in the event log.
	if !strings.Contains(strings.Join(lab.Events(), "\n"), "INCIDENT #1: link r1 -- r3") {
		t.Error("incident not logged")
	}
}

func TestFailLinkPartitionsEBGP(t *testing.T) {
	lab, alloc := incidentLab(t)
	// Fail both inter-AS links: AS2 (r5) becomes unreachable from AS1.
	if err := lab.FailLink("r3", "r5"); err != nil {
		t.Fatal(err)
	}
	if err := lab.FailLink("r4", "r5"); err != nil {
		t.Fatal(err)
	}
	lb5 := alloc.Overlay.Node("r5").Get(ipalloc.AttrLoopback).(netip.Addr)
	out, err := lab.Exec("r1", "ping -c 1 "+lb5.String())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "100% packet loss") {
		t.Errorf("partitioned AS still reachable:\n%s", out)
	}
	// r1 no longer holds AS2 routes.
	for _, rt := range lab.BGPRoutes("r1") {
		if len(rt.ASPath) > 0 && rt.ASPath[0] == 2 {
			t.Errorf("stale AS2 route survived partition: %+v", rt)
		}
	}
}

func TestFailNode(t *testing.T) {
	lab, alloc := incidentLab(t)
	// r3 down: r1 still reaches r4 via r2.
	if err := lab.FailNode("r3"); err != nil {
		t.Fatal(err)
	}
	lb4 := alloc.Overlay.Node("r4").Get(ipalloc.AttrLoopback).(netip.Addr)
	out, err := lab.Exec("r1", "ping -c 1 "+lb4.String())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, " 1 received") {
		t.Errorf("r4 unreachable after r3 failure:\n%s", out)
	}
	// And r3's loopback is gone from everyone's view.
	lb3 := alloc.Overlay.Node("r3").Get(ipalloc.AttrLoopback).(netip.Addr)
	out, _ = lab.Exec("r1", "ping -c 1 "+lb3.String())
	if !strings.Contains(out, "100% packet loss") {
		t.Errorf("failed node still reachable:\n%s", out)
	}
}

func TestIncidentErrors(t *testing.T) {
	lab, _ := buildLab(t, "netkit", "quagga")
	if err := lab.FailLink("r1", "r2"); err == nil {
		t.Error("incident before start accepted")
	}
	if err := lab.Start(0); err != nil {
		t.Fatal(err)
	}
	if err := lab.FailLink("r1", "ghost"); err == nil {
		t.Error("unknown machine accepted")
	}
	if err := lab.FailLink("ghost", "r1"); err == nil {
		t.Error("unknown machine accepted")
	}
	if err := lab.FailLink("r1", "r5"); err == nil {
		t.Error("non-adjacent pair accepted")
	}
	if err := lab.FailNode("ghost"); err == nil {
		t.Error("unknown machine accepted")
	}
	// A link needs two machines: r1 -- r1 would strip every interface of r1.
	if err := lab.FailLink("r1", "r1"); err == nil {
		t.Error("failing a link from a machine to itself accepted")
	}
	if err := lab.RestoreLink("r1", "r1"); err == nil {
		t.Error("restoring a link from a machine to itself accepted")
	}
	// A partition group must be known and must have links to the outside.
	if _, err := lab.Apply(Change{Partition: []string{"ghost"}}); err == nil {
		t.Error("unknown machine accepted")
	}
	if _, err := lab.Apply(Change{Partition: lab.VMNames()}); err == nil {
		t.Error("whole-lab partition accepted")
	}
	// Double failure of the same link: the subnet is gone.
	if err := lab.FailLink("r1", "r2"); err != nil {
		t.Fatal(err)
	}
	if err := lab.FailLink("r1", "r2"); err == nil {
		t.Error("re-failing a dead link accepted")
	}
	// Node with no remaining data interfaces.
	if err := lab.FailNode("r1"); err != nil {
		t.Fatal(err)
	}
	if err := lab.FailNode("r1"); err == nil {
		t.Error("re-failing a dead node accepted")
	}
}

// multiSubnetLab hand-builds a two-router lab whose routers share TWO
// subnets (parallel circuits), which the graph pipeline cannot express —
// exercising the all-shared-subnets failure path.
func multiSubnetLab(t *testing.T) *Lab {
	t.Helper()
	mk := func(name string, lastOctet int) *routing.DeviceConfig {
		lb := netip.MustParseAddr(fmt.Sprintf("10.0.0.%d", lastOctet))
		return &routing.DeviceConfig{
			Hostname: name,
			Loopback: lb,
			Interfaces: []routing.InterfaceConfig{
				{Name: "eth0", Addr: netip.MustParseAddr(fmt.Sprintf("10.0.1.%d", lastOctet)), Prefix: netip.MustParsePrefix("10.0.1.0/24"), Cost: 1},
				{Name: "eth1", Addr: netip.MustParseAddr(fmt.Sprintf("10.0.2.%d", lastOctet)), Prefix: netip.MustParsePrefix("10.0.2.0/24"), Cost: 1},
				{Name: "lo", Addr: lb, Prefix: netip.PrefixFrom(lb, 32), Cost: 1},
			},
			OSPF: &routing.OSPFConfig{ProcessID: 1, Networks: []routing.OSPFNetwork{
				{Prefix: netip.MustParsePrefix("10.0.1.0/24")},
				{Prefix: netip.MustParsePrefix("10.0.2.0/24")},
				{Prefix: netip.PrefixFrom(lb, 32)},
			}},
		}
	}
	lab := &Lab{Host: "localhost", Platform: "netkit", vms: map[string]*VM{}}
	for i, name := range []string{"r1", "r2"} {
		lab.vms[name] = &VM{Name: name, Config: mk(name, i+1)}
		lab.order = append(lab.order, name)
	}
	if err := lab.Start(0); err != nil {
		t.Fatal(err)
	}
	return lab
}

func TestFailLinkAllSharedSubnets(t *testing.T) {
	lab := multiSubnetLab(t)
	if err := lab.FailLink("r1", "r2"); err != nil {
		t.Fatal(err)
	}
	vm, _ := lab.VM("r1")
	for _, ic := range vm.Config.Interfaces {
		if ic.Name != "lo" {
			t.Errorf("interface %s survived multi-subnet link failure", ic.Name)
		}
	}
	// Both subnets are logged individually.
	events := strings.Join(lab.Events(), "\n")
	for _, want := range []string{
		"INCIDENT #1: link r1 -- r2 (10.0.1.0/24) failed",
		"INCIDENT #1: link r1 -- r2 (10.0.2.0/24) failed",
	} {
		if !strings.Contains(events, want) {
			t.Errorf("event log missing %q:\n%s", want, events)
		}
	}
	if len(lab.OSPFNeighbors("r1")) != 0 {
		t.Error("adjacency survived failing every shared subnet")
	}
}

func TestFailLinkSubnet(t *testing.T) {
	lab := multiSubnetLab(t)
	// Fail only one of the two parallel circuits.
	circuit := func(subnet string) Change {
		return Change{FailLinks: []Link{{A: "r1", B: "r2", Subnet: netip.MustParsePrefix(subnet)}}}
	}
	if _, err := lab.Apply(circuit("10.0.1.0/24")); err != nil {
		t.Fatal(err)
	}
	vm, _ := lab.VM("r1")
	if len(vm.Config.Interfaces) != 2 { // eth1 + lo
		t.Fatalf("interfaces = %d, want 2", len(vm.Config.Interfaces))
	}
	// The second circuit keeps the adjacency up.
	if len(lab.OSPFNeighbors("r1")) != 1 {
		t.Errorf("neighbors = %+v, want one surviving adjacency", lab.OSPFNeighbors("r1"))
	}
	// A subnet the pair does not share is rejected.
	if _, err := lab.Apply(circuit("10.9.9.0/24")); err == nil {
		t.Error("unshared subnet accepted")
	}
	// RestoreLink re-installs only the failed circuit.
	if err := lab.RestoreLink("r1", "r2"); err != nil {
		t.Fatal(err)
	}
	vm, _ = lab.VM("r1")
	if len(vm.Config.Interfaces) != 3 {
		t.Fatalf("interfaces after restore = %d, want 3", len(vm.Config.Interfaces))
	}
}

// routingDump is every machine's OSPF neighbor table, BGP table and FIB as
// `show` prints them.
func routingDump(t *testing.T, lab *Lab) string {
	t.Helper()
	var sb strings.Builder
	for _, name := range lab.LiveVMNames() {
		for _, cmd := range []string{"show ip ospf neighbor", "show ip bgp", "show ip route"} {
			out, err := lab.Exec(name, cmd)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "%s# %s\n%s\n", name, cmd, out)
		}
	}
	return sb.String()
}

// TestIncidentRoundTrip applies each kind of incident and then its inverse.
// Afterwards every machine's config equals its boot snapshot and every
// routing table dump equals the pre-incident one. An inverse applied in
// several steps must not look healed before its last step.
func TestIncidentRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fail   Change
		logged string
		heal   []Change
	}{
		{"link", Change{FailLinks: []Link{{A: "r1", B: "r3"}}}, "INCIDENT #1: link r1 -- r3 (",
			[]Change{{RestoreLinks: []Link{{A: "r1", B: "r3"}}}}},
		{"link healed one end at a time", Change{FailLinks: []Link{{A: "r3", B: "r4"}}}, "INCIDENT #1: link r3 -- r4 (",
			[]Change{{RestoreNodes: []string{"r3"}}, {RestoreNodes: []string{"r4"}}}},
		{"node", Change{FailNodes: []string{"r3"}}, "INCIDENT #1: machine r3 down",
			[]Change{{RestoreNodes: []string{"r3"}}}},
		{"host batch", Change{HostDown: []string{"r2", "r1"}}, "INCIDENT #1: host failure downed 2 machines",
			[]Change{{Reboot: []string{"r2", "r1"}}}},
		{"partition", Change{Partition: []string{"r5"}}, "INCIDENT #1: partition isolated [r5] (2 boundary subnets cut)",
			[]Change{{RestoreNodes: []string{"r5"}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lab, _ := incidentLab(t)
			before := routingDump(t, lab)
			if _, err := lab.Apply(tc.fail); err != nil {
				t.Fatal(err)
			}
			if events := strings.Join(lab.Events(), "\n"); !strings.Contains(events, tc.logged) {
				t.Errorf("event log lacks %q:\n%s", tc.logged, events)
			}
			for i, heal := range tc.heal {
				if routingDump(t, lab) == before {
					t.Fatalf("lab looks healed before heal step %d", i+1)
				}
				if _, err := lab.Apply(heal); err != nil {
					t.Fatal(err)
				}
			}
			checkHealed(t, lab, before)
			if got, want := lab.LastIncidentID(), 1+len(tc.heal); got != want {
				t.Errorf("incident id %d after the round trip, want %d", got, want)
			}
		})
	}
}

// checkHealed fails the test unless every machine's config equals its boot
// snapshot and the routing dump equals before.
func checkHealed(t *testing.T, lab *Lab, before string) {
	t.Helper()
	for _, name := range lab.VMNames() {
		if vm, _ := lab.VM(name); !reflect.DeepEqual(vm.Config, lab.baseline[name]) {
			t.Errorf("%s differs from its boot snapshot:\n got %+v\nwant %+v", name, vm.Config, lab.baseline[name])
		}
	}
	if after := routingDump(t, lab); after != before {
		t.Errorf("healed lab differs from the pre-incident one:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// The acceptance criterion: fail -> restore returns the lab to a state
// identical to the pre-incident one.
func TestRestoreLinkRoundTrip(t *testing.T) {
	lab, _ := incidentLab(t)
	before := routingDump(t, lab)
	nbrs := len(lab.OSPFNeighbors("r1"))
	if err := lab.FailLink("r1", "r3"); err != nil {
		t.Fatal(err)
	}
	if len(lab.OSPFNeighbors("r1")) == nbrs {
		t.Fatal("failure did not change adjacency state")
	}
	if err := lab.RestoreLink("r1", "r3"); err != nil {
		t.Fatal(err)
	}
	checkHealed(t, lab, before)
	events := strings.Join(lab.Events(), "\n")
	if !strings.Contains(events, "INCIDENT #1: link r1 -- r3") || !strings.Contains(events, "restored") {
		t.Errorf("restore not logged:\n%s", events)
	}
}

func TestRestoreNodeRoundTrip(t *testing.T) {
	lab, _ := incidentLab(t)
	before := routingDump(t, lab)
	if err := lab.FailNode("r3"); err != nil {
		t.Fatal(err)
	}
	if err := lab.RestoreNode("r3"); err != nil {
		t.Fatal(err)
	}
	checkHealed(t, lab, before)
	// RestoreNode also repairs this node's side of a failed link...
	if err := lab.FailLink("r3", "r4"); err != nil {
		t.Fatal(err)
	}
	if err := lab.RestoreNode("r3"); err != nil {
		t.Fatal(err)
	}
	// ...but r4's side stays down until restored, so the adjacency is
	// still absent.
	for _, nbr := range lab.OSPFNeighbors("r3") {
		if nbr.Hostname == "r4" {
			t.Error("one-sided restore resurrected the adjacency")
		}
	}
	if err := lab.RestoreNode("r4"); err != nil {
		t.Fatal(err)
	}
	checkHealed(t, lab, before)
}

func TestPartitionAndRestore(t *testing.T) {
	lab, alloc := incidentLab(t)
	before := routingDump(t, lab)
	// Isolate AS2 (r5): both inter-AS links are cut from r5's side.
	if _, err := lab.Apply(Change{Partition: []string{"r5"}}); err != nil {
		t.Fatal(err)
	}
	lb5 := alloc.Overlay.Node("r5").Get(ipalloc.AttrLoopback).(netip.Addr)
	out, err := lab.Exec("r1", "ping -c 1 "+lb5.String())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "100% packet loss") {
		t.Errorf("partitioned node still reachable:\n%s", out)
	}
	events := strings.Join(lab.Events(), "\n")
	if !strings.Contains(events, "partition isolated [r5] (2 boundary subnets cut)") {
		t.Errorf("partition not logged:\n%s", events)
	}
	if err := lab.RestoreNode("r5"); err != nil {
		t.Fatal(err)
	}
	checkHealed(t, lab, before)
	// Errors: unknown machine, group with no outside links.
	if _, err := lab.Apply(Change{Partition: []string{"ghost"}}); err == nil {
		t.Error("unknown machine accepted")
	}
	if _, err := lab.Apply(Change{Partition: []string{"r1", "r2", "r3", "r4", "r5"}}); err == nil {
		t.Error("whole-lab partition accepted")
	}
}

// TestRejectedChangeLeavesLabUnchanged: Apply validates a whole change
// before it touches the lab, so a change it rejects leaves no trace, even
// when its first parts were valid.
func TestRejectedChangeLeavesLabUnchanged(t *testing.T) {
	lab, _ := incidentLab(t)
	if err := lab.FailLink("r1", "r3"); err != nil { // something to restore
		t.Fatal(err)
	}
	type state struct {
		quarantined, live, events []string
		dump                      string
	}
	snap := func() state { return state{lab.Quarantined(), lab.LiveVMNames(), lab.Events(), routingDump(t, lab)} }
	before := snap()
	for _, c := range []Change{
		{Quarantine: []string{"r5", "nosuch"}},
		{Quarantine: []string{"r5", "r5"}},
		{Quarantine: lab.LiveVMNames()},
		{FailLinks: []Link{{A: "r1", B: "r2"}, {A: "r1", B: "r1"}}},
		{FailNodes: []string{"r2", "ghost"}},
		{RestoreLinks: []Link{{A: "r1", B: "r3"}, {A: "r1", B: "r2"}}},
		{HostDown: []string{"r4"}, Partition: lab.VMNames()},
		{Reboot: []string{"r1"}, SoftReset: []string{"r2"}},
		{SoftReset: []string{"r2", "ghost"}},
	} {
		if _, err := lab.Apply(c); err == nil {
			t.Errorf("%+v accepted", c)
			continue
		}
		if after := snap(); !reflect.DeepEqual(before, after) {
			t.Errorf("rejected %+v changed the lab:\nbefore %+v\nafter  %+v", c, before, after)
		}
	}
	if got := lab.LastIncidentID(); got != 1 {
		t.Errorf("rejected changes took incident ids: last is %d, want 1", got)
	}
}

func TestRestoreErrors(t *testing.T) {
	lab, _ := incidentLab(t)
	if err := lab.RestoreLink("r1", "r3"); err == nil {
		t.Error("restoring an intact link accepted")
	}
	if err := lab.RestoreNode("r3"); err == nil {
		t.Error("restoring an intact node accepted")
	}
	if err := lab.RestoreLink("r1", "ghost"); err == nil {
		t.Error("unknown machine accepted")
	}
	if err := lab.RestoreNode("ghost"); err == nil {
		t.Error("unknown machine accepted")
	}
	if err := lab.RestoreLink("r1", "r5"); err == nil {
		t.Error("never-linked pair accepted")
	}
	unstarted, _ := buildLab(t, "netkit", "quagga")
	if err := unstarted.RestoreLink("r1", "r3"); err == nil {
		t.Error("restore before start accepted")
	}
	cbgp, _ := startedLab(t, "cbgp", "cbgp")
	names := cbgp.VMNames()
	if err := cbgp.RestoreLink(names[0], names[1]); err == nil {
		t.Error("cbgp restore accepted")
	}
	if _, err := cbgp.Apply(Change{Partition: names[:1]}); err == nil {
		t.Error("cbgp partition accepted")
	}
}

// Incidents and measurement run concurrently: a measurement client may
// probe the lab while an incident re-converges it. Run with -race (the CI
// gate does) this asserts the locking contract.
func TestIncidentMeasureRace(t *testing.T) {
	lab, alloc := incidentLab(t)
	lb4 := alloc.Overlay.Node("r4").Get(ipalloc.AttrLoopback).(netip.Addr)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 25; i++ {
			if err := lab.FailLink("r1", "r3"); err != nil {
				t.Errorf("fail: %v", err)
				return
			}
			if err := lab.RestoreLink("r1", "r3"); err != nil {
				t.Errorf("restore: %v", err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := lab.Exec("r1", "ping -c 1 "+lb4.String()); err != nil {
					t.Errorf("exec: %v", err)
					return
				}
				lab.OSPFNeighbors("r1")
				lab.BGPRoutes("r1")
				lab.BGPResult()
				lab.Events()
				lab.Links()
			}
		}()
	}
	wg.Wait()
}

// TestMatrixFollowsNetworkGeneration: pings are answered from hop trees
// memoised per destination, and the memo lives exactly as long as the
// network it describes. A matrix after an incident shows the losses, one
// after the restore equals the baseline, and the counters say how many
// trees each of them cost.
func TestMatrixFollowsNetworkGeneration(t *testing.T) {
	lab, alloc := buildLab(t, "netkit", "quagga")
	c := obs.NewCollector()
	if err := lab.Boot(BootOptions{Obs: c}); err != nil {
		t.Fatal(err)
	}
	client := measure.NewClient(lab, nil)
	matrix := func(wantProbes, wantTrees int64) measure.Reachability {
		t.Helper()
		m, err := client.ReachabilityMatrix(lab.VMNames(), func(name string) netip.Addr {
			return alloc.Overlay.Node(graph.ID(name)).Get(ipalloc.AttrLoopback).(netip.Addr)
		})
		if err != nil {
			t.Fatal(err)
		}
		if probes, trees := c.Counter(obs.CounterPingProbes), c.Counter(obs.CounterHopTreesBuilt); probes != wantProbes || trees != wantTrees {
			t.Errorf("after %d probes %d hop trees were built, want %d and %d", probes, trees, wantProbes, wantTrees)
		}
		return m
	}
	// Five machines: 20 probes share one tree per destination, and a second
	// matrix on the same network builds none.
	base := matrix(20, 5)
	if base.Reachable() != 20 {
		t.Fatalf("baseline reaches %d of 20 pairs", base.Reachable())
	}
	if again := matrix(40, 5); !measure.DiffReachability(base, again).OK() {
		t.Error("two matrices of one network differ")
	}
	for _, far := range []string{"r3", "r4"} {
		if err := lab.FailLink(far, "r5"); err != nil {
			t.Fatal(err)
		}
	}
	cut := measure.DiffReachability(base, matrix(60, 10))
	if len(cut.Lost) != 8 || len(cut.Gained) != 0 {
		t.Errorf("cutting r5 off: %+v", cut)
	}
	for _, p := range cut.Lost {
		if p[0] != "r5" && p[1] != "r5" {
			t.Errorf("lost pair %v does not involve r5", p)
		}
	}
	for _, far := range []string{"r3", "r4"} {
		if err := lab.RestoreLink(far, "r5"); err != nil {
			t.Fatal(err)
		}
	}
	healed := matrix(80, 15)
	if d := measure.DiffReachability(base, healed); !d.OK() {
		t.Errorf("restored lab vs baseline: %+v", d)
	}
	if d := measure.DiffReachability(healed, base); !d.OK() {
		t.Errorf("baseline vs restored lab: %+v", d)
	}
	// An address no device owns is answered (with loss) without a tree.
	if out, err := lab.Exec("r1", "ping -c 1 203.0.113.1"); err != nil || !strings.Contains(out, " 0 received") {
		t.Errorf("unowned destination: %q, %v", out, err)
	}
	if probes, trees := c.Counter(obs.CounterPingProbes), c.Counter(obs.CounterHopTreesBuilt); probes != 81 || trees != 15 {
		t.Errorf("unowned destination left %d probes, %d trees", probes, trees)
	}
}

func TestIncidentUnsupportedOnCBGP(t *testing.T) {
	lab, _ := startedLab(t, "cbgp", "cbgp")
	names := lab.VMNames()
	if err := lab.FailLink(names[0], names[1]); err == nil {
		t.Error("cbgp incident accepted")
	}
	if err := lab.FailNode(names[0]); err == nil {
		t.Error("cbgp node failure accepted")
	}
}

// Incident ids: every injection numbers itself, watchdog events cite the
// triggering incident, and escalation steps carry it for reports.
func TestIncidentIDThreading(t *testing.T) {
	lab, _ := startedLab(t, "netkit", "quagga")
	if lab.LastIncidentID() != 0 {
		t.Fatalf("fresh lab LastIncidentID = %d", lab.LastIncidentID())
	}
	if err := lab.FailLink("r1", "r3"); err != nil {
		t.Fatal(err)
	}
	if got := lab.LastIncidentID(); got != 1 {
		t.Fatalf("after first incident LastIncidentID = %d", got)
	}
	if err := lab.RestoreLink("r1", "r3"); err != nil {
		t.Fatal(err)
	}
	if got := lab.LastIncidentID(); got != 2 {
		t.Fatalf("after second incident LastIncidentID = %d", got)
	}

	// A flap storm after the incidents: the watchdog's lab events and
	// escalation steps must name incident #2 as the trigger.
	lab.SetPerturber(routing.NewScheduledPerturber(7, []routing.PerturbRule{
		{Kind: routing.PerturbFlap, A: "r1", B: "r2", Every: 1, Recover: true},
	}))
	if res, err := lab.Apply(Change{}); err != nil || res.Converged {
		t.Fatalf("perturbed reconverge: res=%+v err=%v", res, err)
	}
	rep, err := (&Watchdog{}).Supervise(lab)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Recovered {
		t.Fatalf("not recovered:\n%s", rep.Describe())
	}
	for i, step := range rep.Steps {
		if step.Incident != 2 {
			t.Errorf("step %d incident = %d, want 2", i, step.Incident)
		}
		if !strings.Contains(step.String(), "[incident #2]") {
			t.Errorf("step %d string missing incident tag: %s", i, step)
		}
	}
	events := strings.Join(lab.Events(), "\n")
	for _, want := range []string{
		"INCIDENT #1: link r1 -- r3",
		"INCIDENT #2: link r1 -- r3",
		"(incident #2)", // watchdog escalation suffix
	} {
		if !strings.Contains(events, want) {
			t.Errorf("events missing %q:\n%s", want, events)
		}
	}
}
