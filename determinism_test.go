package autonetkit

import (
	"testing"

	"autonetkit/internal/topogen"
	"autonetkit/internal/verify"
)

// Repeated builds of the same seeded topology must agree byte-for-byte on
// every hashed or rendered artifact: the file tree (content and order), the
// Resource-Database JSON, and the per-device compile digests. This is the
// regression net for map-iteration order leaking into outputs — any unsorted
// range over a map feeding these artifacts flips this test within a few runs.
func TestRepeatedBuildByteDeterminism(t *testing.T) {
	build := func() *Network {
		g, err := topogen.NREN(topogen.NRENConfig{ASes: 4, Routers: 48, Links: 60, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return buildCached(t, g, nil)
	}
	ref := build()
	refTree := fileSetHash(t, ref.Files)
	refJSON, err := ref.DB.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	refDigests := compileDigests(ref)

	for run := 1; run <= 2; run++ {
		net := build()
		if h := fileSetHash(t, net.Files); h != refTree {
			t.Errorf("run %d: file tree hash drifted: %s vs %s", run, h, refTree)
		}
		j, err := net.DB.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(j) != string(refJSON) {
			t.Errorf("run %d: Resource-Database JSON drifted", run)
		}
		for id, d := range compileDigests(net) {
			if refDigests[id] != d {
				t.Errorf("run %d: compile digest of %s drifted", run, id)
			}
		}
	}
}

// The static verifier's findings order must be byte-stable across runs even
// when many findings fire at once — its checks aggregate claims in maps, and
// an unsorted range there would reorder the report run to run.
func TestVerifyFindingsOrderStable(t *testing.T) {
	net := buildCached(t, topogen.SmallInternet(), nil)
	// Break iBGP symmetry on one device: its former peers each raise an
	// unmatched-session finding, giving the report enough entries for
	// ordering to matter.
	net.DB.Device("as100r2").MustSet("bgp.ibgp_neighbors", []any{})
	ref := verify.Static(net.DB).String()
	if ref == "verification passed: no findings" {
		t.Fatal("mutation produced no findings; the ordering check is vacuous")
	}
	for i := 0; i < 5; i++ {
		if got := verify.Static(net.DB).String(); got != ref {
			t.Fatalf("verify findings order unstable:\n--- run %d ---\n%s\n--- ref ---\n%s", i, got, ref)
		}
	}
}
