package routing

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"
)

// ringChordTopo builds an n-router OSPF ring (router i links to i+1 mod n)
// with loopbacks, plus a chord every `chord` routers for path diversity.
func ringChordTopo(n, chord int) []*DeviceConfig {
	devs := make([]*DeviceConfig, n)
	for i := 0; i < n; i++ {
		lo := netip.AddrFrom4([4]byte{10, 254, byte(i / 256), byte(i % 256)})
		devs[i] = &DeviceConfig{
			Hostname: fmt.Sprintf("c%02d", i),
			Loopback: lo,
			Interfaces: []InterfaceConfig{
				{Name: "lo", Addr: lo, Prefix: netip.PrefixFrom(lo, 32), Cost: 1},
			},
			OSPF: &OSPFConfig{ProcessID: 1, Networks: []OSPFNetwork{
				{Prefix: netip.PrefixFrom(lo, 32), Area: 0},
			}},
		}
	}
	link := func(i, j, sub, cost int) {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 2, byte(sub), 0}), 30)
		ai := netip.AddrFrom4([4]byte{10, 2, byte(sub), 1})
		aj := netip.AddrFrom4([4]byte{10, 2, byte(sub), 2})
		devs[i].Interfaces = append(devs[i].Interfaces, InterfaceConfig{
			Name: fmt.Sprintf("eth%d", sub), Addr: ai, Prefix: p, Cost: cost,
		})
		devs[i].OSPF.Networks = append(devs[i].OSPF.Networks, OSPFNetwork{Prefix: p, Area: 0})
		devs[j].Interfaces = append(devs[j].Interfaces, InterfaceConfig{
			Name: fmt.Sprintf("eth%d", sub), Addr: aj, Prefix: p, Cost: cost,
		})
		devs[j].OSPF.Networks = append(devs[j].OSPF.Networks, OSPFNetwork{Prefix: p, Area: 0})
	}
	sub := 0
	for i := 0; i < n; i++ {
		link(i, (i+1)%n, sub, 1+i%3)
		sub++
	}
	for i := 0; chord > 0 && i+chord < n; i += chord {
		link(i, i+chord, sub, 2)
		sub++
	}
	return devs
}

// checkDomainsEqual asserts a persisted domain's externally visible state
// (inc: converged before, then rebound) matches a fresh domain's over the
// same configs.
func checkDomainsEqual(t *testing.T, step string, inc, full *OSPFDomain, devs []*DeviceConfig) {
	t.Helper()
	for _, dc := range devs {
		h := dc.Hostname
		if !routesEqual(inc.Routes(h), full.Routes(h)) {
			t.Fatalf("%s: routes diverge for %s:\ninc:  %+v\nfull: %+v", step, h, inc.Routes(h), full.Routes(h))
		}
		in, fn := inc.Neighbors(h), full.Neighbors(h)
		if len(in) != len(fn) {
			t.Fatalf("%s: neighbor count diverges for %s: %d vs %d", step, h, len(in), len(fn))
		}
		for i := range in {
			if in[i] != fn[i] {
				t.Fatalf("%s: neighbor %d diverges for %s: %+v vs %+v", step, i, h, in[i], fn[i])
			}
		}
		if a, b := inc.IGPCost(h, dc.Loopback), full.IGPCost(h, dc.Loopback); a != b {
			t.Fatalf("%s: IGPCost diverges for %s: %d vs %d", step, h, a, b)
		}
	}
}

// TestDeltaSPFEquivalence drives one persisted domain through a mutation
// sequence — cost changes, link failure/restore, tight equal-cost edges —
// Rebind-ing it each time, and asserts byte-equality with a freshly built
// domain (a full SPF: the oracle) after every step, plus
// that the delta path actually skipped sources and that ChangedSources
// matches the observed route-table diffs.
func TestDeltaSPFEquivalence(t *testing.T) {
	devs := ringChordTopo(16, 5)
	inc := NewOSPFDomain(devs)
	if err := inc.Converge(); err != nil {
		t.Fatal(err)
	}
	if _, _, delta := inc.DeltaStats(); delta {
		t.Fatal("first converge must be a full run")
	}

	snapshot := func() map[string][]Route {
		out := map[string][]Route{}
		for _, dc := range devs {
			out[dc.Hostname] = inc.Routes(dc.Hostname)
		}
		return out
	}
	prev := snapshot()

	step := func(name string, mutate func(), wantSkip bool) {
		t.Helper()
		mutate()
		inc.Rebind(devs)
		if err := inc.Converge(); err != nil {
			t.Fatal(err)
		}
		full := NewOSPFDomain(devs)
		if err := full.Converge(); err != nil {
			t.Fatal(err)
		}
		checkDomainsEqual(t, name, inc, full, devs)
		rec, skip, delta := inc.DeltaStats()
		if !delta {
			t.Fatalf("%s: converge did not take the delta path", name)
		}
		if wantSkip && skip == 0 {
			t.Errorf("%s: delta run skipped no sources (recomputed %d)", name, rec)
		}
		// ChangedSources must be exactly the hosts whose tables moved.
		changed := inc.ChangedSources()
		cur := snapshot()
		for h := range cur {
			if routesEqual(prev[h], cur[h]) == changed[h] {
				t.Errorf("%s: ChangedSources[%s]=%v but routes-moved=%v", name, h, changed[h], !routesEqual(prev[h], cur[h]))
			}
		}
		prev = cur
	}

	// Cost bump on one direction of a ring link.
	step("cost-change", func() { devs[3].Interfaces[1].Cost = 7 }, false)
	// No-op mutation: nothing changed, everything must skip.
	step("no-op", func() {}, true)
	if rec, _, _ := inc.DeltaStats(); rec != 0 {
		t.Errorf("no-op converge recomputed %d sources", rec)
	}
	// Link failure: drop the shared subnet from both ends.
	var savedIf [2]InterfaceConfig
	var savedNet [2]OSPFNetwork
	step("link-fail", func() {
		for k, d := range []*DeviceConfig{devs[8], devs[9]} {
			savedIf[k] = d.Interfaces[1]
			savedNet[k] = d.OSPF.Networks[1]
			d.Interfaces = append(d.Interfaces[:1], d.Interfaces[2:]...)
			d.OSPF.Networks = append(d.OSPF.Networks[:1], d.OSPF.Networks[2:]...)
		}
	}, false)
	// Heal it.
	step("link-restore", func() {
		for k, d := range []*DeviceConfig{devs[8], devs[9]} {
			d.Interfaces = append(d.Interfaces, InterfaceConfig{})
			copy(d.Interfaces[2:], d.Interfaces[1:])
			d.Interfaces[1] = savedIf[k]
			d.OSPF.Networks = append(d.OSPF.Networks, OSPFNetwork{})
			copy(d.OSPF.Networks[2:], d.OSPF.Networks[1:])
			d.OSPF.Networks[1] = savedNet[k]
		}
	}, false)
	// Exactly-tight edge: give the chord the same cost as the ring path it
	// parallels, so only the deterministic tie-break decides — the delta
	// path must still recompute every source the tie can flip.
	step("tight-edge", func() {
		for _, d := range devs {
			for i := range d.Interfaces {
				d.Interfaces[i].Cost = 1
			}
		}
	}, false)
	// With all-unit costs nearly every source sees the edge as tight, so no
	// skip is guaranteed here — only equivalence.
	step("cost-revert", func() { devs[3].Interfaces[1].Cost = 3 }, false)
}

// TestDeltaSPFRebindISIS checks the IS-IS synthesis path keeps delta state
// across rebinds.
func TestDeltaSPFRebindISIS(t *testing.T) {
	mk := func(cost int) []*DeviceConfig {
		var devs []*DeviceConfig
		for i := 0; i < 3; i++ {
			lo := netip.AddrFrom4([4]byte{10, 253, 0, byte(i + 1)})
			devs = append(devs, &DeviceConfig{
				Hostname: fmt.Sprintf("s%d", i),
				Loopback: lo,
				Interfaces: []InterfaceConfig{
					{Name: "lo", Addr: lo, Prefix: netip.PrefixFrom(lo, 32), Cost: 1},
				},
				ISIS: &ISISConfig{NET: fmt.Sprintf("49.0001.000%d", i), Interfaces: []string{"eth0", "eth1"}},
			})
		}
		link := func(i, j, sub int) {
			p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 3, byte(sub), 0}), 30)
			devs[i].Interfaces = append(devs[i].Interfaces, InterfaceConfig{
				Name: "eth0", Addr: netip.AddrFrom4([4]byte{10, 3, byte(sub), 1}), Prefix: p, Cost: cost,
			})
			devs[j].Interfaces = append(devs[j].Interfaces, InterfaceConfig{
				Name: "eth1", Addr: netip.AddrFrom4([4]byte{10, 3, byte(sub), 2}), Prefix: p, Cost: cost,
			})
		}
		link(0, 1, 0)
		link(1, 2, 1)
		return devs
	}
	devs := mk(1)
	inc := NewISISDomain(devs)
	if err := inc.Converge(); err != nil {
		t.Fatal(err)
	}
	devs[0].Interfaces[1].Cost = 5
	inc.RebindISIS(devs)
	if err := inc.Converge(); err != nil {
		t.Fatal(err)
	}
	full := NewISISDomain(devs)
	if err := full.Converge(); err != nil {
		t.Fatal(err)
	}
	for _, dc := range devs {
		if !routesEqual(inc.Routes(dc.Hostname), full.Routes(dc.Hostname)) {
			t.Fatalf("ISIS delta diverges for %s:\ninc:  %+v\nfull: %+v",
				dc.Hostname, inc.Routes(dc.Hostname), full.Routes(dc.Hostname))
		}
	}
	if _, _, delta := inc.DeltaStats(); !delta {
		t.Error("second ISIS converge did not take the delta path")
	}
}

// asLineTopo builds n single-router ASes in a line, eBGP between
// neighbours, each originating one /24.
func asLineTopo(n int) []*DeviceConfig {
	devs := make([]*DeviceConfig, n)
	for i := 0; i < n; i++ {
		devs[i] = &DeviceConfig{
			Hostname: fmt.Sprintf("r%02d", i),
			BGP: &BGPConfig{
				ASN:      i + 1,
				Networks: []netip.Prefix{netip.PrefixFrom(netip.AddrFrom4([4]byte{203, 0, byte(i), 0}), 24)},
			},
		}
	}
	for i := 0; i+1 < n; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 1, byte(i), 0}), 30)
		a := netip.AddrFrom4([4]byte{10, 1, byte(i), 1})
		b := netip.AddrFrom4([4]byte{10, 1, byte(i), 2})
		devs[i].Interfaces = append(devs[i].Interfaces, InterfaceConfig{
			Name: fmt.Sprintf("eth%d", i), Addr: a, Prefix: p, Cost: 1,
		})
		devs[i+1].Interfaces = append(devs[i+1].Interfaces, InterfaceConfig{
			Name: fmt.Sprintf("eth%d", i), Addr: b, Prefix: p, Cost: 1,
		})
		devs[i].BGP.Neighbors = append(devs[i].BGP.Neighbors, BGPNeighbor{Addr: b, RemoteASN: i + 2})
		devs[i+1].BGP.Neighbors = append(devs[i+1].BGP.Neighbors, BGPNeighbor{Addr: a, RemoteASN: i + 1})
	}
	for i := range devs {
		devs[i].BGP.RouterID = devs[i].Interfaces[0].Addr
	}
	return devs
}

func runSeq(t *testing.T, devs []*DeviceConfig, prev *BGPReplay, extraDirty map[string]bool) (*BGPEngine, BGPResult) {
	t.Helper()
	e, err := NewBGPEngine(devs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.SetSequential(true)
	if prev != nil || extraDirty != nil {
		e.EnableIncremental(prev, extraDirty)
	}
	return e, e.Run(100)
}

// checkEnginesIdentical asserts two engines reached fully identical
// protocol state and identical observable metrics.
func checkEnginesIdentical(t *testing.T, name string, a, b *BGPEngine, ra, rb BGPResult) {
	t.Helper()
	if ra != rb {
		t.Fatalf("%s: results diverge: %+v vs %+v", name, ra, rb)
	}
	for _, host := range a.Speakers() {
		sa, sb := a.speakers[host], b.speakers[host]
		for k := range sa.in {
			if !listIdentical(sa.in[k].routes, sb.in[k].routes) {
				t.Fatalf("%s: adj-RIB-in diverges for %s", name, host)
			}
		}
		if !listIdentical(sa.rib, sb.rib) {
			t.Fatalf("%s: loc-RIB diverges for %s:\na: %+v\nb: %+v", name, host, sa.rib, sb.rib)
		}
		if sa.seg != segHash(sa) || sb.seg != segHash(sb) {
			t.Fatalf("%s: %s's maintained state hash disagrees with a full render", name, host)
		}
	}
	ca, cb := a.RouteChurn(), b.RouteChurn()
	if len(ca) != len(cb) {
		t.Fatalf("%s: churn maps differ: %v vs %v", name, ca, cb)
	}
	for p, n := range ca {
		if cb[p] != n {
			t.Fatalf("%s: churn[%v] = %d vs %d", name, p, n, cb[p])
		}
	}
	for w := 1; w <= ra.Rounds; w++ {
		ua, ub := a.UnstableSpeakers(w), b.UnstableSpeakers(w)
		if len(ua) != len(ub) {
			t.Fatalf("%s: unstable speakers (window %d) differ: %v vs %v", name, w, ua, ub)
		}
		for i := range ua {
			if ua[i] != ub[i] {
				t.Fatalf("%s: unstable speakers (window %d) differ: %v vs %v", name, w, ua, ub)
			}
		}
	}
}

// TestBGPReplayCleanRun: an unchanged config set replays the entire
// trajectory — every speaker-round restores, every round is skipped, and
// all observables are identical to the from-scratch run.
func TestBGPReplayCleanRun(t *testing.T) {
	devs := asLineTopo(8)
	e1, r1 := runSeq(t, devs, nil, map[string]bool{})
	if !r1.Converged {
		t.Fatalf("baseline did not converge: %+v", r1)
	}
	log := e1.ReplayLog()
	if log.Rounds() != r1.Rounds {
		t.Fatalf("recorded %d rounds, ran %d", log.Rounds(), r1.Rounds)
	}
	e2, r2 := runSeq(t, devs, log, nil)
	checkEnginesIdentical(t, "clean-replay", e1, e2, r1, r2)
	restored, _, skipped := e2.IncrementalStats()
	if want := int64(len(devs) * r2.Rounds); restored != want {
		t.Errorf("restored %d speaker-rounds, want %d", restored, want)
	}
	if skipped != int64(r2.Rounds) {
		t.Errorf("skipped %d rounds, want %d", skipped, r2.Rounds)
	}
	// The replayed run's own recording supports a further replay.
	e3, r3 := runSeq(t, devs, e2.ReplayLog(), nil)
	checkEnginesIdentical(t, "replay-of-replay", e1, e3, r1, r3)
}

// TestBGPReplayDirtyConfig: a config change is detected by signature, the
// dirty speaker and the wavefront recompute, the rest restores — and the
// outcome is identical to a full run over the new configs.
func TestBGPReplayDirtyConfig(t *testing.T) {
	devs := asLineTopo(10)
	e1, r1 := runSeq(t, devs, nil, map[string]bool{})
	if !r1.Converged {
		t.Fatalf("baseline did not converge: %+v", r1)
	}
	log := e1.ReplayLog()

	// r05 starts originating a second prefix.
	devs[5].BGP.Networks = append(devs[5].BGP.Networks, netip.MustParsePrefix("198.51.100.0/24"))
	full, rf := runSeq(t, devs, nil, nil)
	inc, ri := runSeq(t, devs, log, nil)
	checkEnginesIdentical(t, "dirty-config", full, inc, rf, ri)
	restored, dirtyPfx, _ := inc.IncrementalStats()
	if restored == 0 {
		t.Error("no speaker-round restored despite a single-speaker change")
	}
	if dirtyPfx == 0 {
		t.Error("no dirty prefixes counted for the recomputed speakers")
	}
}

// TestBGPReplayExtraDirty: caller-marked dirty speakers recompute but the
// outcome stays identical.
func TestBGPReplayExtraDirty(t *testing.T) {
	devs := asLineTopo(6)
	e1, r1 := runSeq(t, devs, nil, map[string]bool{})
	log := e1.ReplayLog()
	inc, ri := runSeq(t, devs, log, map[string]bool{"r02": true})
	checkEnginesIdentical(t, "extra-dirty", e1, inc, r1, ri)
	restored, _, _ := inc.IncrementalStats()
	clean, _, _ := func() (int64, int64, int64) {
		e, _ := runSeq(t, devs, e1.ReplayLog(), nil)
		return e.IncrementalStats()
	}()
	if restored >= clean {
		t.Errorf("extra-dirty restored %d >= clean %d", restored, clean)
	}
}

// TestBGPReplayPerturbedRunRecordsNothing: the perturbation layer is
// stateful, so a perturbed run must neither replay nor record.
func TestBGPReplayPerturbedRunRecordsNothing(t *testing.T) {
	devs := asLineTopo(5)
	e1, _ := runSeq(t, devs, nil, map[string]bool{})
	log := e1.ReplayLog()
	if log == nil {
		t.Fatal("unperturbed run recorded nothing")
	}

	e2, err := NewBGPEngine(devs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	e2.SetSequential(true)
	e2.EnableIncremental(log, nil)
	e2.SetPerturber(NewScheduledPerturber(42, []PerturbRule{
		{Kind: PerturbDelay, A: "r01", B: "r02", Rounds: 2},
	}))
	e2.Run(100)
	if e2.ReplayLog() != nil {
		t.Error("perturbed run left a replay log")
	}
	restored, _, _ := e2.IncrementalStats()
	if restored != 0 {
		t.Errorf("perturbed run restored %d speaker-rounds", restored)
	}
}

// TestBGPReplaySoftResetDiscards: a soft reset invalidates both the log
// and the in-progress recording.
func TestBGPReplaySoftResetDiscards(t *testing.T) {
	devs := asLineTopo(5)
	e, r := runSeq(t, devs, nil, map[string]bool{})
	if e.ReplayLog() == nil {
		t.Fatal("run recorded nothing")
	}
	e.SoftReset([]string{"r02"})
	if e.ReplayLog() != nil {
		t.Error("soft reset kept the replay log")
	}
	r2 := e.Run(100)
	if !r2.Converged {
		t.Fatalf("post-reset continuation: %+v", r2)
	}
	// The continuation must reconverge to the same tables as the original.
	full, rf := runSeq(t, devs, nil, nil)
	if rf.Converged != r.Converged {
		t.Fatalf("baselines disagree: %+v vs %+v", rf, r)
	}
	for _, host := range e.Speakers() {
		if !listIdentical(e.speakers[host].rib, full.speakers[host].rib) {
			t.Errorf("post-reset loc-RIB diverges for %s", host)
		}
	}
}

// TestBGPReplaySecondRunDiscards: RunContext on an engine that already ran
// (watchdog budget escalation) must drop replay and recording.
func TestBGPReplaySecondRunDiscards(t *testing.T) {
	devs := asLineTopo(4)
	e, _ := runSeq(t, devs, nil, map[string]bool{})
	if e.ReplayLog() == nil {
		t.Fatal("first run recorded nothing")
	}
	e.Run(100)
	if e.ReplayLog() != nil {
		t.Error("continuation run kept a recording")
	}
}

// TestConfigSignatureSensitivity: every stanza feeds the signature.
func TestConfigSignatureSensitivity(t *testing.T) {
	base := func() *DeviceConfig {
		return &DeviceConfig{
			Hostname: "x",
			Loopback: mustAddr("10.255.0.1"),
			Interfaces: []InterfaceConfig{
				{Name: "eth0", Addr: mustAddr("10.0.0.1"), Prefix: mustPfx("10.0.0.0/30"), Cost: 2},
			},
			OSPF: &OSPFConfig{ProcessID: 1, Networks: []OSPFNetwork{{Prefix: mustPfx("10.0.0.0/30"), Area: 0}}},
			BGP: &BGPConfig{ASN: 1, RouterID: mustAddr("10.255.0.1"),
				Networks:  []netip.Prefix{mustPfx("203.0.113.0/24")},
				Neighbors: []BGPNeighbor{{Addr: mustAddr("10.0.0.2"), RemoteASN: 2}},
			},
		}
	}
	sig := ConfigSignature(base())
	if ConfigSignature(base()) != sig {
		t.Fatal("signature is not deterministic")
	}
	muts := map[string]func(*DeviceConfig){
		"hostname":      func(dc *DeviceConfig) { dc.Hostname = "y" },
		"iface-cost":    func(dc *DeviceConfig) { dc.Interfaces[0].Cost = 3 },
		"iface-passive": func(dc *DeviceConfig) { dc.Interfaces[0].Passive = true },
		"ospf-area":     func(dc *DeviceConfig) { dc.OSPF.Networks[0].Area = 1 },
		"bgp-network":   func(dc *DeviceConfig) { dc.BGP.Networks = append(dc.BGP.Networks, mustPfx("198.51.100.0/24")) },
		"bgp-med":       func(dc *DeviceConfig) { dc.BGP.Neighbors[0].MEDOut = 50 },
		"bgp-rrclient":  func(dc *DeviceConfig) { dc.BGP.Neighbors[0].RRClient = true },
		"isis-added":    func(dc *DeviceConfig) { dc.ISIS = &ISISConfig{NET: "49.0001.0001", Interfaces: []string{"eth0"}} },
	}
	for name, mut := range muts {
		dc := base()
		mut(dc)
		if ConfigSignature(dc) == sig {
			t.Errorf("%s mutation did not change the signature", name)
		}
	}
}

// TestNextHopCostMemo: the per-(speaker, next hop) IGP-cost memo answers
// exactly what the IGP answers, on the ring whose all-unit costs make
// nearly every chord an exactly-tight equal-cost alternative.
func TestNextHopCostMemo(t *testing.T) {
	devs := ringChordTopo(16, 5)
	for i, d := range devs {
		for k := range d.Interfaces {
			d.Interfaces[k].Cost = 1
		}
		d.BGP = &BGPConfig{ASN: 65000, RouterID: d.Loopback,
			Networks: []netip.Prefix{netip.PrefixFrom(netip.AddrFrom4([4]byte{203, 0, byte(i), 0}), 24)}}
		for j, peer := range devs {
			if i != j {
				d.BGP.Neighbors = append(d.BGP.Neighbors, BGPNeighbor{Addr: peer.Loopback, RemoteASN: 65000, UpdateSource: "lo"})
			}
		}
	}
	igp := igpFor(t, devs)
	e, err := NewBGPEngine(devs, func(string) VendorProfile { return ProfileIOS }, igp)
	if err != nil {
		t.Fatal(err)
	}
	e.SetSequential(true)
	if res := e.Run(50); !res.Converged {
		t.Fatalf("run: %+v", res)
	}
	for _, sp := range e.sp {
		if len(sp.nhCost) == 0 {
			t.Fatalf("%s: the run never asked for a next-hop cost", sp.host)
		}
		for nh, c := range sp.nhCost {
			if want := igp.IGPCost(sp.host, nh); c != want {
				t.Errorf("%s: memoized cost to %v is %d, the IGP says %d", sp.host, nh, c, want)
			}
		}
		unknown := netip.AddrFrom4([4]byte{192, 0, 2, 1})
		for _, nh := range append([]netip.Addr{unknown}, devs[3].Loopback, devs[11].Interfaces[1].Addr) {
			want := igp.IGPCost(sp.host, nh)
			if first, again := e.nextHopCost(sp, nh), e.nextHopCost(sp, nh); first != want || again != want {
				t.Errorf("%s: cost to %v is %d then %d, the IGP says %d", sp.host, nh, first, again, want)
			}
		}
	}
}

// TestRoundLog: the per-round work record is the same under both round
// drivers, its rounds are the run's rounds, and the quiet round that ends a
// converged run decides no prefix and emits no advert.
func TestRoundLog(t *testing.T) {
	devs := nrenDevices(t, 5, 60)
	igp := igpFor(t, devs)
	var logs [][]BGPRound
	for _, shards := range []int{1, 4} {
		e, err := NewBGPEngine(devs, nil, igp)
		if err != nil {
			t.Fatal(err)
		}
		e.SetSequential(true)
		e.SetShards(shards)
		res := e.Run(50)
		log := e.RoundLog()
		if !res.Converged || len(log) != res.Rounds {
			t.Fatalf("shards=%d: %+v with %d rounds logged", shards, res, len(log))
		}
		last := log[len(log)-1]
		if last.Decided != 0 || last.Adverts != 0 || last.Sessions != 0 || last.Skipped != len(devs) {
			t.Errorf("shards=%d: the quiet round did work: %+v", shards, last)
		}
		if first := log[0]; first.Evaluated != len(devs) || first.Decided == 0 || first.Adverts == 0 || first.Churned == 0 {
			t.Errorf("shards=%d: the first round did no work: %+v", shards, first)
		}
		logs = append(logs, log)
	}
	if !slices.Equal(logs[0], logs[1]) {
		t.Errorf("round log differs between drivers:\nsequential %+v\nsharded    %+v", logs[0], logs[1])
	}
}

// TestContinuationLeavesRecordAlone: a run that continues an engine whose
// trajectory a caller still holds (the watchdog's soft reset) must not
// write into it.
func TestContinuationLeavesRecordAlone(t *testing.T) {
	e, _ := runSeq(t, asLineTopo(5), nil, map[string]bool{})
	log := e.ReplayLog()
	want := fmt.Sprint(log.rounds)
	e.SoftReset([]string{"r02"})
	e.Run(1) // one round in, the flushed speaker has relearned only part of its table
	if fmt.Sprint(log.rounds) != want {
		t.Error("the continuation run rewrote the recorded trajectory")
	}
}
