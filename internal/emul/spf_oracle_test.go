package emul

import (
	"fmt"
	"slices"
	"testing"

	"autonetkit/internal/design"
	"autonetkit/internal/routing"
)

// Every lab reconverges its IGP by delta SPF, so comparing two labs no
// longer tests it. Its oracle is a domain built from nothing: the first
// Converge of a new OSPFDomain runs the full SPF for every source.

// checkAgainstFreshDomains holds every live machine's IGP routes and
// adjacencies, as the lab's persisted domains give them, to domains freshly
// built over the same configs and perturber. It returns how many sources the
// persisted domains skipped in their last Converge.
func checkAgainstFreshDomains(t *testing.T, label string, l *Lab) (skipped int) {
	t.Helper()
	devices := l.liveDevices()
	for _, igp := range []struct {
		name        string
		kept, fresh *routing.OSPFDomain
	}{
		{"ospf", l.domain, routing.NewOSPFDomain(devices)},
		{"isis", l.isis, routing.NewISISDomain(devices)},
	} {
		igp.fresh.SetPerturber(l.pert)
		if err := igp.fresh.Converge(); err != nil {
			t.Fatalf("%s: %s: %v", label, igp.name, err)
		}
		for _, dc := range devices {
			h := dc.Hostname
			if got, want := igp.kept.Routes(h), igp.fresh.Routes(h); !slices.Equal(got, want) {
				t.Fatalf("%s: %s: %s routes differ from a fresh domain's:\n got %v\nwant %v", label, h, igp.name, got, want)
			}
			if got, want := igp.kept.Neighbors(h), igp.fresh.Neighbors(h); !slices.Equal(got, want) {
				t.Fatalf("%s: %s: %s neighbors differ from a fresh domain's:\n got %v\nwant %v", label, h, igp.name, got, want)
			}
		}
		_, skip, _ := igp.kept.DeltaStats()
		skipped += skip
	}
	return skipped
}

// TestDeltaSPFMatchesFreshDomain: after boot and after every incident,
// restore and perturbation, the lab's persisted OSPF and IS-IS domains hold
// the routes and adjacencies of domains that never saw the previous state.
func TestDeltaSPFMatchesFreshDomain(t *testing.T) {
	for _, tc := range append([]nrenShape{{60, "netkit", "quagga", design.IGPISIS}}, nrenShapes...) {
		t.Run(fmt.Sprintf("%s%d%s", tc.platform, tc.routers, tc.igp), func(t *testing.T) {
			lab := nrenLab(t, tc.routers, tc.platform, tc.syntax, tc.igp)
			if err := lab.Boot(BootOptions{}); err != nil {
				t.Fatal(err)
			}
			adjacent := func(l [2]string) bool {
				to := func(n routing.OSPFNeighbor) bool { return n.Hostname == l[1] }
				return slices.ContainsFunc(lab.OSPFNeighbors(l[0]), to) || slices.ContainsFunc(lab.ISISNeighbors(l[0]), to)
			}
			links := lab.Links()
			lossy := links[slices.IndexFunc(links, adjacent)]
			// The rules of testdata/perturb/drill.chaos, and a loss that takes
			// an adjacency down: the only rule kind an IGP sees.
			perturb := func(rules ...routing.PerturbRule) func() error {
				return func() error {
					lab.SetPerturber(routing.NewScheduledPerturber(1337, rules))
					_, err := lab.Apply(Change{})
					return err
				}
			}
			steps := append(incidentSteps(lab),
				labStep{"perturb-loss", func() error {
					if err := perturb(routing.PerturbRule{Kind: routing.PerturbLoss, A: lossy[0], B: lossy[1], Pct: 100})(); err != nil {
						return err
					}
					if adjacent(lossy) {
						return fmt.Errorf("%s -- %s still adjacent under 100%% loss", lossy[0], lossy[1])
					}
					return nil
				}},
				labStep{"perturb-delay", perturb(routing.PerturbRule{Kind: routing.PerturbDelay, A: lossy[0], B: lossy[1], Rounds: 2})},
				labStep{"perturb-flap", perturb(routing.PerturbRule{Kind: routing.PerturbFlap, A: lossy[0], B: lossy[1], Every: 1, Recover: true})},
				labStep{"perturb-clear", func() error {
					lab.SetPerturber(nil)
					_, err := lab.Apply(Change{})
					return err
				}},
			)
			skipped := 0
			for _, st := range steps {
				if err := st.do(); err != nil {
					t.Fatalf("%s: %v", st.label, err)
				}
				skipped += checkAgainstFreshDomains(t, st.label, lab)
			}
			if skipped == 0 {
				t.Error("delta SPF skipped no source in any step: the comparison is full SPF against full SPF")
			}
		})
	}
}
