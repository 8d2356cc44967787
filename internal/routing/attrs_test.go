package routing

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"slices"
	"testing"
)

// allPrefixesSorted is allPrefixes as it was before the k-way merge: append
// every prefix, then sort and compact.
func allPrefixesSorted(sp *speaker, extra []netip.Prefix) []netip.Prefix {
	buf := append(slices.Clone(extra), sp.networks...)
	for i := range sp.rib {
		buf = append(buf, sp.rib[i].Prefix)
	}
	for k := range sp.in {
		for i := range sp.in[k].routes {
			buf = append(buf, sp.in[k].routes[i].Prefix)
		}
	}
	slices.SortFunc(buf, ComparePrefix)
	return slices.Compact(buf)
}

// TestAllPrefixesMatchesSort: the k-way merge gives what sorting every
// prefix gives, on random sorted lists (a /24 and a /30 on one address
// among them), unsorted networks and extra prefixes with repeats, and one
// scratch reused across speakers. It leaves extra as it was.
func TestAllPrefixesMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(49, 15))
	universe := make([]netip.Prefix, 0, 96)
	for i := range 48 {
		a := netip.AddrFrom4([4]byte{10, 0, byte(i / 4), byte(i % 4 * 64)})
		universe = append(universe, netip.PrefixFrom(a, 24), netip.PrefixFrom(a, 30))
	}
	slices.SortFunc(universe, ComparePrefix)
	list := func(n int) []BGPRoute {
		var out []BGPRoute
		for _, p := range universe {
			if rng.IntN(len(universe)) < n {
				out = append(out, BGPRoute{Prefix: p, PathAttrs: localAttrs})
			}
		}
		return out
	}
	pick := func(n int) []netip.Prefix {
		out := make([]netip.Prefix, rng.IntN(n+1))
		for i := range out {
			out[i] = universe[rng.IntN(len(universe))]
		}
		return out
	}
	var sc scratch
	for iter := range 2000 {
		sp := &speaker{rib: list(rng.IntN(len(universe))), networks: pick(3)}
		for range rng.IntN(8) {
			sp.in = append(sp.in, ribIn{routes: list(rng.IntN(len(universe)))})
		}
		extra := pick(6)
		before := slices.Clone(extra)
		got := sp.allPrefixes(nil, extra, &sc)
		if want := allPrefixesSorted(sp, extra); !slices.Equal(got, want) {
			t.Fatalf("iter %d: merge\n%v\nsort\n%v", iter, got, want)
		}
		if !slices.Equal(extra, before) {
			t.Fatalf("iter %d: extra reordered", iter)
		}
	}
}

// attrsKey renders every field of a record.
func attrsKey(a *PathAttrs) string {
	return fmt.Sprintf("%v %v %v %v %d %d %t %t %t", a.NextHop, a.LearnedFrom, a.OriginatorID, a.ASPath,
		a.LocalPref, a.MED, a.FromEBGP, a.Local, a.FromRRClient)
}

// engineLists calls fn on every route list the engine holds: adj-RIB-ins,
// selections and adj-RIB-outs.
func engineLists(e *BGPEngine, fn func(list []BGPRoute)) {
	for _, sp := range e.sp {
		for k := range sp.in {
			fn(sp.in[k].routes)
		}
		fn(sp.rib)
		for _, o := range sp.outs {
			fn(o.routes)
		}
	}
}

// tableEntries counts every attribute table's entries.
func tableEntries(e *BGPEngine) (n int) {
	for _, sp := range e.sp {
		for k := range sp.in {
			n += len(sp.in[k].attrs)
		}
		for _, o := range sp.outs {
			n += len(o.attrs)
		}
	}
	return n
}

// TestAttrsSharedAndBounded: after a cold converge of the 60-router NREN
// shape, every list holds one record per distinct attribute value, and the
// whole engine holds far fewer records than entries. Across 50 failures
// and restorations of an inter-AS link the tables stay no larger than after
// the first, because every run begins with them empty.
func TestAttrsSharedAndBounded(t *testing.T) {
	devs := nrenDevices(t, 11, 60)
	domain := NewOSPFDomain(devs)
	if err := domain.Converge(); err != nil {
		t.Fatal(err)
	}
	composite := func(devs []*DeviceConfig) IGPCoster {
		igp := NewCompositeIGP()
		for _, dc := range devs {
			igp.AddDevice(dc, domain)
		}
		return igp
	}
	e, err := NewBGPEngine(devs, func(string) VendorProfile { return ProfileIOS }, composite(devs))
	if err != nil {
		t.Fatal(err)
	}
	e.SetSequential(true)
	if res := e.Run(60); !res.Converged {
		t.Fatalf("cold converge: %+v", res)
	}
	entries, records := 0, map[*PathAttrs]bool{}
	engineLists(e, func(list []BGPRoute) {
		byValue := map[string]*PathAttrs{}
		for _, rt := range list {
			entries++
			records[rt.PathAttrs] = true
			if a, ok := byValue[attrsKey(rt.PathAttrs)]; ok && a != rt.PathAttrs {
				t.Fatalf("one list holds two records of %s", attrsKey(a))
			}
			byValue[attrsKey(rt.PathAttrs)] = rt.PathAttrs
		}
	})
	if len(records)*4 > entries {
		t.Errorf("%d records for %d entries: want one per four entries or fewer", len(records), entries)
	}
	t.Logf("cold converge: %d entries share %d records; tables hold %d", entries, len(records), tableEntries(e))

	// An inter-AS link: the subnet both ends of the first eBGP pair share.
	a, b := firstEBGPPair(t, devs)
	byName := map[string]*DeviceConfig{}
	for _, dc := range devs {
		byName[dc.Hostname] = dc
	}
	var link netip.Prefix
	for _, ic := range byName[a].Interfaces {
		if ic.Name != "lo" && slices.ContainsFunc(byName[b].Interfaces, func(x InterfaceConfig) bool { return x.Prefix == ic.Prefix }) {
			link = ic.Prefix
		}
	}
	if !link.IsValid() {
		t.Fatalf("%s and %s share no subnet", a, b)
	}
	boot := map[string][]InterfaceConfig{a: byName[a].Interfaces, b: byName[b].Interfaces}
	converge := func(label string) {
		domain.Rebind(devs)
		if err := domain.Converge(); err != nil {
			t.Fatal(err)
		}
		e.Rebind(devs, composite(devs), domain.ChangedSources())
		if res := e.Run(60); !res.Converged {
			t.Fatalf("%s: %+v", label, res)
		}
	}
	first := 0
	for cycle := range 50 {
		for _, name := range []string{a, b} {
			byName[name].Interfaces = slices.DeleteFunc(slices.Clone(boot[name]), func(ic InterfaceConfig) bool { return ic.Prefix == link })
		}
		converge(fmt.Sprintf("cycle %d: fail", cycle))
		for _, name := range []string{a, b} {
			byName[name].Interfaces = boot[name]
		}
		converge(fmt.Sprintf("cycle %d: restore", cycle))
		n := tableEntries(e)
		if cycle == 0 {
			first = n
			t.Logf("after the first fail and restore the tables hold %d", n)
		} else if n > first {
			t.Fatalf("cycle %d: tables hold %d entries, %d after the first", cycle, n, first)
		}
	}
}
