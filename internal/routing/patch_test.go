package routing

import (
	"math/rand/v2"
	"net/netip"
	"reflect"
	"slices"
	"testing"
)

// TestPatchInPlaceMatchesCopy: patching a list in its own array gives what
// the copying merge gives, and what applying the changes one by one to a
// map gives, for random sorted lists and random mixes of replacements,
// insertions and withdrawals, at exact, slack and insufficient capacity.
// The staged changes are left as they were (reselect publishes them after
// the merge), the array's tail beyond the result is zeroed, and a list
// without the room is left untouched.
func TestPatchInPlaceMatchesCopy(t *testing.T) {
	rng := rand.New(rand.NewPCG(44, 15))
	route := func(i, v int) BGPRoute {
		return BGPRoute{
			Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24),
			PathAttrs: seal(PathAttrs{
				NextHop: netip.AddrFrom4([4]byte{192, 0, 2, byte(v)}),
				ASPath:  []int{v, i}, MED: v,
			}),
		}
	}
	const (
		exact = iota
		slack
		short
	)
	for iter := range 3000 {
		universe := 1 + rng.IntN(48)
		var list []BGPRoute
		want := map[netip.Prefix]BGPRoute{}
		for i := range universe {
			if rng.IntN(2) == 0 {
				list = append(list, route(i, 0))
				want[list[len(list)-1].Prefix] = list[len(list)-1]
			}
		}
		pt := patch{list: list}
		for i := range universe {
			switch p := route(i, 0).Prefix; rng.IntN(4) {
			case 0:
				pt.set(p, nil)
				delete(want, p)
			case 1:
				next := route(i, 1+rng.IntN(3))
				pt.set(p, &next)
				want[p] = next
			}
		}
		need := max(len(list), len(list)+pt.grow)
		for _, mode := range []int{exact, slack, short} {
			capacity := need
			switch {
			case mode == slack:
				capacity += 1 + rng.IntN(4)
			case mode == short && pt.grow <= 0:
				continue // a list that does not grow always has the room
			case mode == short:
				capacity--
			}
			backing := make([]BGPRoute, len(list), capacity)
			copy(backing, list)
			before := slices.Clone(backing)
			chg := slices.Clone(pt.chg)
			inPlace := patch{list: backing, chg: pt.chg, grow: pt.grow}
			got := inPlace.applyInPlace()
			copied := patch{list: slices.Clone(list), chg: pt.chg, grow: pt.grow}
			if oracle := copied.apply(); !slices.EqualFunc(got, oracle, func(a, b BGPRoute) bool { return reflect.DeepEqual(a, b) }) {
				t.Fatalf("iter %d mode %d: in place %v, copying merge %v", iter, mode, got, oracle)
			}
			if len(got) != len(want) {
				t.Fatalf("iter %d mode %d: %d routes, want %d", iter, mode, len(got), len(want))
			}
			for k := range got {
				if !reflect.DeepEqual(got[k], want[got[k].Prefix]) || k > 0 && ComparePrefix(got[k-1].Prefix, got[k].Prefix) >= 0 {
					t.Fatalf("iter %d mode %d: entry %d = %v, not ascending or not %v", iter, mode, k, got[k], want[got[k].Prefix])
				}
			}
			if !reflect.DeepEqual(pt.chg, chg) {
				t.Fatalf("iter %d mode %d: the patch changed its staged changes", iter, mode)
			}
			if mode == short {
				if cap(got) > 0 && cap(backing) > 0 && &got[:1][0] == &backing[:1][0] {
					t.Fatalf("iter %d: a list without the room was patched in place", iter)
				}
				if !reflect.DeepEqual(backing, before) {
					t.Fatalf("iter %d: the copying path wrote to the old list", iter)
				}
				continue
			}
			if len(pt.chg) > 0 && cap(got) != capacity {
				t.Fatalf("iter %d mode %d: cap %d, want the list's own %d", iter, mode, cap(got), capacity)
			}
			for k, rt := range got[len(got):cap(got)] {
				if !reflect.DeepEqual(rt, BGPRoute{}) {
					t.Fatalf("iter %d mode %d: tail entry %d = %v, want zero", iter, mode, len(got)+k, rt)
				}
			}
		}
	}
}
