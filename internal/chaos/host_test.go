package chaos

import (
	"fmt"
	"strings"
	"testing"

	"autonetkit/internal/verify"
)

// fakeHosts is a scripted HostController. unsupported, when set, is what
// every lease-era and crash step returns: a controller lacking the
// capability (no durable scheduler, no fault-injecting backend).
type fakeHosts struct {
	calls       []string
	moved       map[string][]string
	stranded    map[string][]string
	err         map[string]error
	summary     string
	crashErr    error
	rates       map[string]float64
	states      map[string]string
	unsupported error
}

func (f *fakeHosts) DrainHost(host string) ([]string, []string, error) {
	f.calls = append(f.calls, "drain "+host)
	return f.moved[host], f.stranded[host], f.err[host]
}

func (f *fakeHosts) FailHost(host string) ([]string, []string, error) {
	f.calls = append(f.calls, "fail "+host)
	return f.moved[host], f.stranded[host], f.err[host]
}

func (f *fakeHosts) SilenceHost(host string) ([]string, []string, error) {
	if f.unsupported != nil {
		return nil, nil, f.unsupported
	}
	f.calls = append(f.calls, "silence "+host)
	return f.moved[host], f.stranded[host], f.err[host]
}

func (f *fakeHosts) FlakyHost(host string, rate float64) error {
	if f.unsupported != nil {
		return f.unsupported
	}
	f.calls = append(f.calls, fmt.Sprintf("flaky %s %.2f", host, rate))
	if f.rates == nil {
		f.rates = map[string]float64{}
	}
	f.rates[host] = rate
	return f.err[host]
}

func (f *fakeHosts) CrashSched() (string, error) {
	if f.unsupported != nil {
		return "", f.unsupported
	}
	f.calls = append(f.calls, "crash-sched")
	return f.summary, f.crashErr
}

func (f *fakeHosts) ReservationState(name string) (string, error) {
	if f.unsupported != nil {
		return "", f.unsupported
	}
	f.calls = append(f.calls, "reservation "+name)
	if st, ok := f.states[name]; ok {
		return st, nil
	}
	return "", fmt.Errorf("no reservation %s", name)
}

func TestParseHostSteps(t *testing.T) {
	sc := mustParse(t, `
fail-host h03
drain-host h07
check
`)
	if len(sc.Steps) != 3 {
		t.Fatalf("steps = %+v", sc.Steps)
	}
	if sc.Steps[0].Op != OpFailHost || sc.Steps[0].Node != "h03" {
		t.Errorf("step 0 = %+v", sc.Steps[0])
	}
	if sc.Steps[1].Op != OpDrainHost || sc.Steps[1].Node != "h07" {
		t.Errorf("step 1 = %+v", sc.Steps[1])
	}
	if got := sc.Steps[0].String(); got != "fail-host h03" {
		t.Errorf("String = %q", got)
	}
	if got := sc.Steps[1].String(); got != "drain-host h07" {
		t.Errorf("String = %q", got)
	}
	// Arity errors are diagnosed.
	_, diags := ParseScenario(strings.NewReader("drain-host a b\nfail-host\n"))
	if len(diags) != 2 { // one per malformed line
		t.Fatalf("diags = %v", diags)
	}
}

func TestHostStepsDriveController(t *testing.T) {
	lab, client, addrOf := fig5Lab(t)
	hosts := &fakeHosts{
		moved: map[string][]string{"h1": {"r1", "r2"}, "h2": {"r3"}},
	}
	engine := NewEngine(lab, client, addrOf, Options{Hosts: hosts})
	rep, err := engine.Run(mustParse(t, `
drain-host h1
fail-host h2
check baseline
`))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(hosts.calls); got != "[drain h1 fail h2]" {
		t.Errorf("controller calls = %v", hosts.calls)
	}
	if !rep.OK() {
		t.Fatalf("report not OK:\n%s", rep)
	}
	if !strings.Contains(rep.Steps[0].Verdict, "2 VMs moved, 0 stranded") {
		t.Errorf("drain verdict = %q", rep.Steps[0].Verdict)
	}
	if !strings.Contains(rep.Steps[1].Verdict, "1 VMs moved, 0 stranded") {
		t.Errorf("fail verdict = %q", rep.Steps[1].Verdict)
	}
}

func TestHostStepDegradedStrandsFinding(t *testing.T) {
	lab, client, addrOf := fig5Lab(t)
	hosts := &fakeHosts{
		moved:    map[string][]string{"h1": {"r1"}},
		stranded: map[string][]string{"h1": {"r2", "r4"}},
		err:      map[string]error{"h1": fmt.Errorf("degraded: insufficient surviving capacity")},
	}
	engine := NewEngine(lab, client, addrOf, Options{Hosts: hosts})
	rep, err := engine.Run(mustParse(t, "drain-host h1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("stranded VMs should produce an error finding")
	}
	var sawDegraded bool
	for _, f := range rep.Findings() {
		if f.Check == "chaos-degraded" && strings.Contains(f.Detail, "r2, r4") {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Errorf("no chaos-degraded finding in:\n%s", rep)
	}
	if !strings.Contains(rep.Steps[0].Verdict, "1 VMs moved, 2 stranded") {
		t.Errorf("verdict = %q", rep.Steps[0].Verdict)
	}
}

func TestHostStepHardErrorFailsStep(t *testing.T) {
	lab, client, addrOf := fig5Lab(t)
	hosts := &fakeHosts{err: map[string]error{"ghost": fmt.Errorf("no host ghost")}}
	engine := NewEngine(lab, client, addrOf, Options{Hosts: hosts})
	rep, err := engine.Run(mustParse(t, "fail-host ghost\ncheck\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("hard controller error should produce a finding")
	}
	if !strings.HasPrefix(rep.Steps[0].Verdict, "FAILED:") {
		t.Errorf("verdict = %q", rep.Steps[0].Verdict)
	}
	// The scenario continued to the check step.
	if len(rep.Steps) != 2 {
		t.Fatalf("steps = %d", len(rep.Steps))
	}
}

func TestHostStepWithoutController(t *testing.T) {
	lab, client, addrOf := fig5Lab(t)
	engine := NewEngine(lab, client, addrOf, Options{})
	rep, err := engine.Run(mustParse(t, "drain-host h1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("missing controller should produce a finding")
	}
	if !strings.Contains(rep.Steps[0].Verdict, "no host controller") {
		t.Errorf("verdict = %q", rep.Steps[0].Verdict)
	}
}

func TestParseCrashSchedStep(t *testing.T) {
	sc := mustParse(t, "drain-host h1\ncrash-sched\ncheck baseline\n")
	if len(sc.Steps) != 3 || sc.Steps[1].Op != OpCrashSched {
		t.Fatalf("steps = %+v", sc.Steps)
	}
	if got := sc.Steps[1].String(); got != "crash-sched" {
		t.Errorf("String = %q", got)
	}
	_, diags := ParseScenario(strings.NewReader("crash-sched h1\n"))
	if len(diags) != 1 {
		t.Fatalf("diags = %v", diags)
	}
}

func TestCrashSchedDrivesCrasher(t *testing.T) {
	lab, client, addrOf := fig5Lab(t)
	hosts := &fakeHosts{summary: "scheduler crashed and recovered from snapshot+wal: epoch 1, 3 records replayed; status byte-identical"}
	engine := NewEngine(lab, client, addrOf, Options{Hosts: hosts})
	rep, err := engine.Run(mustParse(t, "crash-sched\ncheck baseline\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("report not OK:\n%s", rep)
	}
	if got := fmt.Sprint(hosts.calls); got != "[crash-sched]" {
		t.Errorf("calls = %v", hosts.calls)
	}
	if !strings.Contains(rep.Steps[0].Verdict, "byte-identical") {
		t.Errorf("verdict = %q", rep.Steps[0].Verdict)
	}
}

func TestCrashSchedRecoveryFailureFailsStep(t *testing.T) {
	lab, client, addrOf := fig5Lab(t)
	hosts := &fakeHosts{crashErr: fmt.Errorf("recovered scheduler state diverged")}
	engine := NewEngine(lab, client, addrOf, Options{Hosts: hosts})
	rep, err := engine.Run(mustParse(t, "crash-sched\ncheck\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("diverged recovery should produce a finding")
	}
	if !strings.HasPrefix(rep.Steps[0].Verdict, "FAILED:") {
		t.Errorf("verdict = %q", rep.Steps[0].Verdict)
	}
	// The scenario continued past the failed step.
	if len(rep.Steps) != 2 {
		t.Fatalf("steps = %d", len(rep.Steps))
	}
}

func TestCrashSchedWithoutCrasher(t *testing.T) {
	lab, client, addrOf := fig5Lab(t)
	// A controller without durable state refuses crash-sched.
	hosts := &fakeHosts{unsupported: fmt.Errorf("crash-sched needs a durable scheduler")}
	engine := NewEngine(lab, client, addrOf, Options{Hosts: hosts})
	rep, err := engine.Run(mustParse(t, "crash-sched\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("missing crasher should produce a finding")
	}
	if got := rep.Steps[0].Verdict; got != "FAILED: crash-sched needs a durable scheduler" {
		t.Errorf("verdict = %q", got)
	}
}

func TestParseLeaseSteps(t *testing.T) {
	sc := mustParse(t, `
silence-host h02
flaky-host h03 0.4
check reservation prod active
check reservation batch preempted
`)
	if len(sc.Steps) != 4 {
		t.Fatalf("steps = %+v", sc.Steps)
	}
	if sc.Steps[0].Op != OpSilenceHost || sc.Steps[0].Node != "h02" {
		t.Errorf("step 0 = %+v", sc.Steps[0])
	}
	if sc.Steps[1].Op != OpFlakyHost || sc.Steps[1].Node != "h03" || sc.Steps[1].Rate != 0.4 {
		t.Errorf("step 1 = %+v", sc.Steps[1])
	}
	if sc.Steps[2].Op != OpCheck || sc.Steps[2].Check != CheckReservation ||
		sc.Steps[2].A != "prod" || sc.Steps[2].B != "active" {
		t.Errorf("step 2 = %+v", sc.Steps[2])
	}
	if got := sc.Steps[0].String(); got != "silence-host h02" {
		t.Errorf("String = %q", got)
	}
	if got := sc.Steps[1].String(); got != "flaky-host h03 0.40" {
		t.Errorf("String = %q", got)
	}
	if got := sc.Steps[3].String(); got != "check reservation batch preempted" {
		t.Errorf("String = %q", got)
	}
	// Round-trip: the String form re-parses to the same step.
	re := mustParse(t, sc.Steps[1].String()+"\n")
	if got := re.Steps[0].String(); got != sc.Steps[1].String() {
		t.Errorf("round-trip = %q, want %q", got, sc.Steps[1].String())
	}
}

func TestParseLeaseStepDiagnostics(t *testing.T) {
	bad := []string{
		"silence-host",               // missing host
		"silence-host a b",           // too many args
		"flaky-host h01",             // missing rate
		"flaky-host h01 nope",        // unparsable rate
		"flaky-host h01 1.5",         // rate out of range
		"check reservation prod",     // missing state
		"check reservation prod bad", // unknown state
	}
	for _, line := range bad {
		_, diags := ParseScenario(strings.NewReader(line + "\n"))
		if len(diags) != 1 {
			t.Errorf("%q: diags = %v", line, diags)
		}
	}
}

func TestSilenceHostDrivesSilencer(t *testing.T) {
	lab, client, addrOf := fig5Lab(t)
	hosts := &fakeHosts{
		moved:  map[string][]string{"h2": {"r3", "r5"}},
		states: map[string]string{"prod": "active", "batch": "preempted"},
	}
	engine := NewEngine(lab, client, addrOf, Options{Hosts: hosts})
	rep, err := engine.Run(mustParse(t, `
silence-host h2
flaky-host h3 0.25
check reservation prod active
check reservation batch preempted
`))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("report not OK:\n%s", rep)
	}
	want := "[silence h2 flaky h3 0.25 reservation prod reservation batch]"
	if got := fmt.Sprint(hosts.calls); got != want {
		t.Errorf("calls = %v", hosts.calls)
	}
	if !strings.Contains(rep.Steps[0].Verdict, "2 VMs moved, 0 stranded") {
		t.Errorf("silence verdict = %q", rep.Steps[0].Verdict)
	}
	if !strings.Contains(rep.Steps[1].Verdict, "migration failure rate onto h3 set to 0.25") {
		t.Errorf("flaky verdict = %q", rep.Steps[1].Verdict)
	}
	if !strings.Contains(rep.Steps[2].Verdict, "ok (reservation prod active)") {
		t.Errorf("reservation verdict = %q", rep.Steps[2].Verdict)
	}
	if hosts.rates["h3"] != 0.25 {
		t.Errorf("rates = %v", hosts.rates)
	}
}

func TestReservationCheckViolated(t *testing.T) {
	lab, client, addrOf := fig5Lab(t)
	hosts := &fakeHosts{states: map[string]string{"batch": "queued"}}
	engine := NewEngine(lab, client, addrOf, Options{Hosts: hosts})
	rep, err := engine.Run(mustParse(t, "check reservation batch preempted\ncheck reservation ghost active\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("mismatched reservation state should produce a finding")
	}
	if !strings.Contains(rep.Steps[0].Verdict, "VIOLATED: reservation batch is queued, want preempted") {
		t.Errorf("verdict = %q", rep.Steps[0].Verdict)
	}
	if !strings.HasPrefix(rep.Steps[1].Verdict, "FAILED:") {
		t.Errorf("verdict = %q", rep.Steps[1].Verdict)
	}
}

func TestLeaseStepsWithoutExtensions(t *testing.T) {
	lab, client, addrOf := fig5Lab(t)
	// A controller lacking the lease-era capabilities refuses each step;
	// each fails with an error finding and the scenario continues.
	hosts := &fakeHosts{unsupported: fmt.Errorf("needs a flaky backend with leases")}
	engine := NewEngine(lab, client, addrOf, Options{Hosts: hosts})
	rep, err := engine.Run(mustParse(t, "silence-host h1\nflaky-host h1 0.5\ncheck reservation prod active\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Steps) != 3 {
		t.Fatalf("steps = %d", len(rep.Steps))
	}
	for i, s := range rep.Steps {
		if s.Verdict != "FAILED: needs a flaky backend with leases" {
			t.Errorf("step %d verdict = %q", i, s.Verdict)
		}
		if len(s.Findings) != 1 || s.Findings[0].Severity != verify.Error {
			t.Errorf("step %d findings = %v, want one error", i, s.Findings)
		}
	}
}
