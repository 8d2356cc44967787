package routing

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"os"
	"reflect"
	"strings"
	"testing"
)

// chainASTopo: a (AS1) -- b (AS2) -- c (AS3); a originates 203.0.113.0/24
// and c originates 198.51.100.0/24, so advertisements flow both ways through
// b and every session carries real routes to perturb.
func chainASTopo() []*DeviceConfig {
	a := &DeviceConfig{
		Hostname: "a",
		Interfaces: []InterfaceConfig{
			{Name: "eth0", Addr: mustAddr("10.0.0.1"), Prefix: mustPfx("10.0.0.0/30"), Cost: 1},
		},
		BGP: &BGPConfig{
			ASN: 1, RouterID: mustAddr("10.0.0.1"),
			Networks:  []netip.Prefix{mustPfx("203.0.113.0/24")},
			Neighbors: []BGPNeighbor{{Addr: mustAddr("10.0.0.2"), RemoteASN: 2}},
		},
	}
	b := &DeviceConfig{
		Hostname: "b",
		Interfaces: []InterfaceConfig{
			{Name: "eth0", Addr: mustAddr("10.0.0.2"), Prefix: mustPfx("10.0.0.0/30"), Cost: 1},
			{Name: "eth1", Addr: mustAddr("10.0.1.1"), Prefix: mustPfx("10.0.1.0/30"), Cost: 1},
		},
		BGP: &BGPConfig{
			ASN: 2, RouterID: mustAddr("10.0.0.2"),
			Neighbors: []BGPNeighbor{
				{Addr: mustAddr("10.0.0.1"), RemoteASN: 1},
				{Addr: mustAddr("10.0.1.2"), RemoteASN: 3},
			},
		},
	}
	c := &DeviceConfig{
		Hostname: "c",
		Interfaces: []InterfaceConfig{
			{Name: "eth0", Addr: mustAddr("10.0.1.2"), Prefix: mustPfx("10.0.1.0/30"), Cost: 1},
		},
		BGP: &BGPConfig{
			ASN: 3, RouterID: mustAddr("10.0.1.2"),
			Networks:  []netip.Prefix{mustPfx("198.51.100.0/24")},
			Neighbors: []BGPNeighbor{{Addr: mustAddr("10.0.1.1"), RemoteASN: 2}},
		},
	}
	return []*DeviceConfig{a, b, c}
}

// runPerturbed builds a fresh engine over the chain, installs a perturber
// over the rules, and runs it.
func runPerturbed(t *testing.T, seed uint64, rules []PerturbRule) (*BGPEngine, *ScheduledPerturber, BGPResult) {
	t.Helper()
	e, err := NewBGPEngine(chainASTopo(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := NewScheduledPerturber(seed, rules)
	e.SetPerturber(p)
	return e, p, e.Run(100)
}

func bestByHost(e *BGPEngine) map[string][]BGPRoute {
	out := map[string][]BGPRoute{}
	for _, h := range e.Speakers() {
		out[h] = e.BestRoutes(h)
	}
	return out
}

// The reproducibility contract: the same (seed, rules) produce the same
// event schedule, the same outcome and the same tables, run after run.
func TestPerturbSameSeedByteIdentical(t *testing.T) {
	rules := []PerturbRule{{Kind: PerturbLoss, Pct: 50}}
	e1, p1, r1 := runPerturbed(t, 42, rules)
	e2, p2, r2 := runPerturbed(t, 42, rules)
	if r1 != r2 {
		t.Fatalf("results differ: %+v vs %+v", r1, r2)
	}
	if !reflect.DeepEqual(p1.Events(), p2.Events()) {
		t.Errorf("event schedules differ:\n%v\nvs\n%v", p1.Events(), p2.Events())
	}
	if !reflect.DeepEqual(bestByHost(e1), bestByHost(e2)) {
		t.Error("best-route tables differ between identically seeded runs")
	}
	// A different seed drops a different subset of routes.
	_, p3, _ := runPerturbed(t, 43, rules)
	if reflect.DeepEqual(p1.Events(), p3.Events()) {
		t.Error("seeds 42 and 43 produced identical loss schedules")
	}
}

// 100% loss on one session is a stable fault: the run converges to a state
// where nothing learned over that session exists anywhere downstream.
func TestPerturbTotalLossBlocksSession(t *testing.T) {
	rules := []PerturbRule{{Kind: PerturbLoss, A: "a", B: "b", Pct: 100}}
	e, _, res := runPerturbed(t, 1, rules)
	if !res.Converged {
		t.Fatalf("total loss did not stabilise: %+v", res)
	}
	for _, host := range []string{"b", "c"} {
		for _, rt := range e.BestRoutes(host) {
			if rt.Prefix == mustPfx("203.0.113.0/24") {
				t.Errorf("%s learned a's prefix across a 100%%-loss session: %+v", host, rt)
			}
		}
	}
	// The reverse direction is equally dead: a never hears c's prefix.
	for _, rt := range e.BestRoutes("a") {
		if rt.Prefix == mustPfx("198.51.100.0/24") {
			t.Errorf("a learned c's prefix across the dead session: %+v", rt)
		}
	}
}

// Partial loss models lost UPDATEs over TCP: the receiver keeps the state
// it last heard, so fixed points stay reachable and the run converges —
// delayed, not derailed. A route the receiver already heard must survive
// later losses of its refresh.
func TestPerturbPartialLossConverges(t *testing.T) {
	clean, err := NewBGPEngine(chainASTopo(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res := clean.Run(100); !res.Converged {
		t.Fatalf("clean run: %+v", res)
	}
	e, p, res := runPerturbed(t, 42, []PerturbRule{{Kind: PerturbLoss, Pct: 30}})
	if !res.Converged {
		t.Fatalf("30%% loss did not converge: %+v", res)
	}
	// The stale-redelivery machinery ran (seed 42 exercises it) and the
	// converged state is not stale: Pending is false at the final round.
	if p.Pending(res.Rounds) {
		t.Error("converged with stale state still pending")
	}
	// Every prefix the clean run propagated end-to-end eventually got
	// through (host c still learns a's prefix and vice versa), even though
	// individual refreshes of it were lost along the way.
	want := bestByHost(clean)
	got := bestByHost(e)
	for host, routes := range want {
		if len(got[host]) != len(routes) {
			t.Errorf("%s best routes = %d, want %d (clean)", host, len(got[host]), len(routes))
		}
	}
}

// Delay stretches convergence but must not change the fixed point, and the
// Pending check must hold convergence open while snapshots are in flight.
func TestPerturbDelayPreservesFixedPoint(t *testing.T) {
	clean, err := NewBGPEngine(chainASTopo(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cleanRes := clean.Run(100)
	if !cleanRes.Converged {
		t.Fatalf("clean run: %+v", cleanRes)
	}

	e, p, res := runPerturbed(t, 7, []PerturbRule{{Kind: PerturbDelay, Rounds: 2}})
	if !res.Converged {
		t.Fatalf("delayed run: %+v", res)
	}
	if res.Rounds < cleanRes.Rounds {
		t.Errorf("delayed run took %d rounds, clean took %d", res.Rounds, cleanRes.Rounds)
	}
	if !reflect.DeepEqual(bestByHost(e), bestByHost(clean)) {
		t.Error("delay changed the converged tables")
	}
	found := false
	for _, ev := range p.Events() {
		if strings.Contains(ev, "delayed") {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no delay events logged: %v", p.Events())
	}
}

// Delay rules compose: each keeps its own snapshot queues, so two stacked
// delays on every session add up (delay 2 then delay 3 is delay 5), and
// delays on different sessions each hold convergence open only as long as
// their own queues differ. Both runs end at the clean fixed point.
func TestPerturbDelayRulesCompose(t *testing.T) {
	clean, err := NewBGPEngine(chainASTopo(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res := clean.Run(100); !res.Converged {
		t.Fatalf("clean run: %+v", res)
	}
	five, _, fiveRes := runPerturbed(t, 1, []PerturbRule{{Kind: PerturbDelay, Rounds: 5}})
	if !fiveRes.Converged {
		t.Fatalf("delay 5: %+v", fiveRes)
	}
	for _, tc := range []struct {
		name   string
		rules  []PerturbRule
		want   BGPResult
		sameAs *BGPEngine // a run whose tables these rules must reproduce
	}{
		{"stacked", []PerturbRule{{Kind: PerturbDelay, Rounds: 2}, {Kind: PerturbDelay, Rounds: 3}}, fiveRes, five},
		{"disjoint", []PerturbRule{
			{Kind: PerturbDelay, Rounds: 2, A: "a", B: "b"},
			{Kind: PerturbDelay, Rounds: 5, A: "b", B: "c"},
		}, BGPResult{Converged: true, Rounds: 10}, nil},
	} {
		e, _, res := runPerturbed(t, 1, tc.rules)
		if res != tc.want {
			t.Errorf("%s: %+v, want %+v", tc.name, res, tc.want)
		}
		if !reflect.DeepEqual(bestByHost(e), bestByHost(clean)) {
			t.Errorf("%s: delays changed the converged tables", tc.name)
		}
		if tc.sameAs != nil && !reflect.DeepEqual(bestByHost(e), bestByHost(tc.sameAs)) {
			t.Errorf("%s: tables differ from the single equivalent delay's", tc.name)
		}
	}
}

// Loss rules compose: each stacked rule keeps its own last-delivered view
// and draws under its own key, so [loss 20, loss 20] loses more than
// [loss 20] instead of repeating its draws. The first loss rule draws
// under the key a single rule always drew under, so [loss 20] keeps its
// schedule (TestPerturbScheduleGolden pins loss 10 the same way). Counts
// are on the 60-router NREN shape under the IGP tie-break profile.
func TestPerturbLossRulesCompose(t *testing.T) {
	devs := nrenDevices(t, 11, 60)
	igp := igpFor(t, devs)
	run := func(rules []PerturbRule) (BGPResult, []string) {
		e, err := NewBGPEngine(devs, func(string) VendorProfile { return ProfileIOS }, igp)
		if err != nil {
			t.Fatal(err)
		}
		e.SetSequential(true)
		p := NewScheduledPerturber(3, rules)
		e.SetPerturber(p)
		return e.Run(100), p.Events()
	}
	loss := func(pct int) PerturbRule { return PerturbRule{Kind: PerturbLoss, Pct: pct} }
	single, singleEvents := run([]PerturbRule{loss(20)})
	for _, tc := range []struct {
		name   string
		rules  []PerturbRule
		rounds int
		events int
	}{
		{"single", []PerturbRule{loss(20)}, 18, 753},
		{"stacked", []PerturbRule{loss(20), loss(20)}, 22, 1600},
		{"mixed", []PerturbRule{loss(10), loss(20)}, 38, 1275},
	} {
		res, events := run(tc.rules)
		if !res.Converged || res.Rounds != tc.rounds || len(events) != tc.events {
			t.Errorf("%s: %+v with %d events, want converged in %d rounds with %d", tc.name, res, len(events), tc.rounds, tc.events)
		}
		if len(tc.rules) > 1 && res == single && reflect.DeepEqual(events, singleEvents) {
			t.Errorf("%s: runs identically to a single loss 20", tc.name)
		}
	}
}

// A flap with period 1 alternates the session every round: the engine must
// detect the period-2 oscillation instead of burning the whole budget, and
// its flap log must implicate the right session.
func TestPerturbFlapOscillates(t *testing.T) {
	e, _, res := runPerturbed(t, 3, []PerturbRule{{Kind: PerturbFlap, A: "a", B: "b", Every: 1}})
	if !res.Oscillating || res.CycleLen <= 0 {
		t.Fatalf("flap run = %+v, want detected oscillation", res)
	}
	if res.CycleLen%2 != 0 {
		t.Errorf("cycle length = %d, want a multiple of the flap period 2", res.CycleLen)
	}
	flaps := e.FlappingSessions(3)
	if len(flaps) != 1 || flaps[0] != [2]string{"a", "b"} {
		t.Errorf("flapping sessions = %v, want [[a b]]", flaps)
	}
	if unstable := e.UnstableSpeakers(res.CycleLen + 1); len(unstable) == 0 {
		t.Error("no unstable speakers during a detected oscillation")
	}
}

// A Recover-marked flap is session-state-local: a soft reset of either
// endpoint heals it, the healing survives the perturber's Reset, and the
// next run converges.
func TestPerturbFlapRecoverHealsOnSoftReset(t *testing.T) {
	e, p, res := runPerturbed(t, 3, []PerturbRule{{Kind: PerturbFlap, A: "a", B: "b", Every: 1, Recover: true}})
	if !res.Oscillating {
		t.Fatalf("first run = %+v, want oscillation", res)
	}
	e.SoftReset([]string{"a"})
	healed := false
	for _, ev := range p.Events() {
		if strings.Contains(ev, "healed by soft reset of a") {
			healed = true
			break
		}
	}
	if !healed {
		t.Fatalf("no healing event after soft reset: %v", p.Events())
	}
	res = e.Run(100) // Run calls Reset; healing must survive it
	if !res.Converged {
		t.Fatalf("post-heal run = %+v, want convergence", res)
	}
	got := e.BestRoutes("c")
	want := mustPfx("203.0.113.0/24")
	found := false
	for _, rt := range got {
		if rt.Prefix == want {
			found = true
		}
	}
	if !found {
		t.Errorf("c never re-learned a's prefix after healing: %+v", got)
	}
}

// Without Recover, a soft reset changes nothing: the fault is in the world,
// not the session state.
func TestPerturbFlapPersistsWithoutRecover(t *testing.T) {
	e, p, res := runPerturbed(t, 3, []PerturbRule{{Kind: PerturbFlap, A: "a", B: "b", Every: 1}})
	if !res.Oscillating {
		t.Fatalf("first run = %+v", res)
	}
	e.SoftReset([]string{"a", "b"})
	for _, ev := range p.Events() {
		if strings.Contains(ev, "healed") {
			t.Fatalf("non-recoverable flap healed: %v", ev)
		}
	}
	if res = e.Run(100); !res.Oscillating {
		t.Errorf("post-reset run = %+v, want continued oscillation", res)
	}
}

// Corruption poisons AS paths for a bounded window and then withdraws: the
// run converges, the final tables are clean of the poison ASN, and the
// poisoned selections count as churn.
func TestPerturbCorruptThenWithdraw(t *testing.T) {
	e, p, res := runPerturbed(t, 5, []PerturbRule{{Kind: PerturbCorrupt, A: "a", B: "b", At: 0, For: 3}})
	if !res.Converged {
		t.Fatalf("corrupt run: %+v", res)
	}
	for _, host := range e.Speakers() {
		for _, rt := range e.BestRoutes(host) {
			for _, asn := range rt.ASPath {
				if asn == corruptASN {
					t.Errorf("%s still selects a poisoned path: %+v", host, rt)
				}
			}
		}
	}
	corrupted := false
	for _, ev := range p.Events() {
		if strings.Contains(ev, "corrupted") {
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatalf("no corruption events logged: %v", p.Events())
	}
	// The poisoned window forces at least one extra selection change on a's
	// prefix beyond the single clean learn event per speaker.
	if n := e.RouteChurn()[mustPfx("203.0.113.0/24")]; n < 3 {
		t.Errorf("churn on poisoned prefix = %d, want the corrupt->withdraw transitions", n)
	}
}

// The nil-perturber fast path is byte-identical to never having installed
// one: installing then removing a perturber must not change the outcome.
func TestPerturbNilFastPath(t *testing.T) {
	ref, err := NewBGPEngine(chainASTopo(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	refRes := ref.Run(100)

	e, err := NewBGPEngine(chainASTopo(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.SetPerturber(NewScheduledPerturber(9, []PerturbRule{{Kind: PerturbLoss, Pct: 100}}))
	e.SetPerturber(nil)
	res := e.Run(100)
	if res != refRes {
		t.Errorf("results differ after SetPerturber(nil): %+v vs %+v", res, refRes)
	}
	if !reflect.DeepEqual(bestByHost(e), bestByHost(ref)) {
		t.Error("tables differ after SetPerturber(nil)")
	}
}

// Loss rules also suppress IGP adjacency formation, deterministically per
// (seed, link).
func TestPerturbAdjacencySuppression(t *testing.T) {
	p := NewScheduledPerturber(2, []PerturbRule{{Kind: PerturbLoss, A: "x", B: "y", Pct: 100}})
	if p.AdjacencyUp("x", "y") {
		t.Error("100% loss left the adjacency up")
	}
	if p.AdjacencyUp("y", "x") {
		t.Error("session match is not symmetric")
	}
	if !p.AdjacencyUp("x", "z") {
		t.Error("unmatched adjacency suppressed")
	}
	if len(p.Events()) == 0 || !strings.Contains(p.Events()[0], "suppressed") {
		t.Errorf("events = %v", p.Events())
	}
}

// The event log is bounded: past the cap, events are counted, not stored.
func TestPerturbEventLogBounded(t *testing.T) {
	p := NewScheduledPerturber(0, nil)
	for i := 0; i < maxPerturbEvents+5; i++ {
		p.logf("event %d", i)
	}
	ev := p.Events()
	if len(ev) != maxPerturbEvents+1 {
		t.Fatalf("len(events) = %d, want %d + truncation line", len(ev), maxPerturbEvents)
	}
	if !strings.Contains(ev[len(ev)-1], "5 further events truncated") {
		t.Errorf("last line = %q", ev[len(ev)-1])
	}
}

// Satellite regression: session-establishment failures report sorted, and
// every entry names the peer's address.
func TestSessionsDownSortedWithAddr(t *testing.T) {
	devs := twoASTopo()
	devs[0].BGP.Neighbors[0].RemoteASN = 99
	devs[1].BGP.Neighbors[0].RemoteASN = 98
	e, _ := runBGP(t, devs, nil, nil)
	down := e.SessionsDown()
	if len(down) != 2 {
		t.Fatalf("sessions down = %v", down)
	}
	if down[0] > down[1] {
		t.Errorf("not sorted: %v", down)
	}
	for _, d := range down {
		if !strings.Contains(d, "@192.168.0.") {
			t.Errorf("entry lacks the peer address: %q", d)
		}
	}
}

// PerturbRule.String renders chaos-script syntax for every kind.
func TestPerturbRuleString(t *testing.T) {
	for _, tc := range []struct {
		rule PerturbRule
		want string
	}{
		{PerturbRule{Kind: PerturbLoss, Pct: 20}, "perturb loss 20"},
		{PerturbRule{Kind: PerturbLoss, Pct: 20, A: "a", B: "b"}, "perturb loss 20 on a:b"},
		{PerturbRule{Kind: PerturbDelay, Rounds: 3}, "perturb delay 3"},
		{PerturbRule{Kind: PerturbFlap, A: "a", B: "b", Every: 2}, "perturb flap a:b every 2"},
		{PerturbRule{Kind: PerturbFlap, A: "a", B: "b", Every: 2, Recover: true}, "perturb flap a:b every 2 recover"},
		{PerturbRule{Kind: PerturbCorrupt, A: "a", B: "b", At: 4, For: 2}, "perturb corrupt a:b at 4 for 2"},
		{PerturbRule{Kind: PerturbCorrupt, At: 1, For: 2}, "perturb corrupt at 1 for 2"},
	} {
		if got := tc.rule.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

// The perturbation schedule, pinned: for each of the four fault kinds on a
// 60-router NREN shape, the executed event log, the verdict and a digest of
// every speaker's selection match testdata/perturb/schedule.golden, in the
// sequential sweep and with four shards alike (regenerate deliberately with
// UPDATE_PERTURB_GOLDEN=1 go test -run TestPerturbScheduleGolden).
func TestPerturbScheduleGolden(t *testing.T) {
	const seed = 11
	devs := nrenDevices(t, seed, 60)
	igp := igpFor(t, devs)
	a, b := firstEBGPPair(t, devs)
	rules := []PerturbRule{
		{Kind: PerturbLoss, Pct: 10},
		{Kind: PerturbDelay, Rounds: 2},
		{Kind: PerturbFlap, A: a, B: b, Every: 2},
		{Kind: PerturbCorrupt, At: 1, For: 2},
	}
	var golden string
	for _, shards := range []int{1, 4} {
		var out strings.Builder
		for _, rule := range rules {
			e, err := NewBGPEngine(devs, func(string) VendorProfile { return ProfileIOS }, igp)
			if err != nil {
				t.Fatal(err)
			}
			e.SetSequential(true)
			e.SetShards(shards)
			p := NewScheduledPerturber(seed, []PerturbRule{rule})
			e.SetPerturber(p)
			res := e.Run(100)
			h := fnv.New64a()
			for _, host := range e.Speakers() {
				fmt.Fprintf(h, "%s|", host)
				for _, rt := range e.Selected(host) {
					fmt.Fprintf(h, "%v;", rt)
				}
			}
			fmt.Fprintf(&out, "== %s\nresult %+v\nselections %016x\n", rule, res, h.Sum64())
			for _, ev := range p.Events() {
				fmt.Fprintf(&out, "  %s\n", ev)
			}
		}
		if shards == 1 {
			golden = out.String()
		} else if out.String() != golden {
			t.Errorf("shards=%d schedule differs from the sequential sweep's", shards)
		}
	}
	path := "testdata/perturb/schedule.golden"
	if os.Getenv("UPDATE_PERTURB_GOLDEN") != "" {
		if err := os.MkdirAll("testdata/perturb", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(golden), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if golden != string(want) {
		t.Errorf("perturbation schedule differs from %s:\n--- got ---\n%s--- want ---\n%s", path, golden, want)
	}
}
