// RPKI service network (paper §3.3): a certificate-authority hierarchy over
// the per-AS address allocation, publication points and a two-level cache
// distribution, deployed as 800+ VMs placed across emulation hosts (the
// StarBed experiment), with ROA propagation and origin validation — a
// hijacked announcement is classified invalid.
package main

import (
	"fmt"
	"log"

	"autonetkit"
	"autonetkit/internal/ipalloc"
	"autonetkit/internal/netaddr"
	"autonetkit/internal/sched"
	"autonetkit/internal/services/rpki"
	"autonetkit/internal/topogen"
)

func main() {
	// Use the NREN-scale model's allocation as the resource base.
	cfg := topogen.NRENConfig{ASes: 42, Routers: 800, Links: 1100}
	g, err := topogen.NREN(cfg)
	if err != nil {
		log.Fatal(err)
	}
	net, err := autonetkit.LoadGraph(g)
	if err != nil {
		log.Fatal(err)
	}
	if err := net.Design(autonetkit.BuildOptions{}.Design); err != nil {
		log.Fatal(err)
	}
	if err := net.Allocate(ipalloc.Config{
		InfraBlock:    netaddr.MustPrefix("10.0.0.0/8"),
		LoopbackBlock: netaddr.MustPrefix("172.16.0.0/12"),
	}); err != nil {
		log.Fatal(err)
	}

	// CA hierarchy: one trust anchor, one CA per AS holding its block.
	h := rpki.NewHierarchy("rir", netaddr.MustPrefix("10.0.0.0/8"))
	dist := rpki.NewDistribution(h)
	var roas int
	for asn, block := range net.Alloc.InfraBlocks {
		caName := fmt.Sprintf("ca-as%d", asn)
		if _, err := h.AddCA(caName, "rir", block); err != nil {
			log.Fatal(err)
		}
		maxLen := block.Bits() + 8
		if maxLen > 32 {
			maxLen = 32
		}
		roa, err := h.SignROA(caName, block, maxLen, asn)
		if err != nil {
			log.Fatal(err)
		}
		pp, err := dist.AddPublicationPoint(fmt.Sprintf("pp-as%d", asn))
		if err != nil {
			log.Fatal(err)
		}
		pp.Publish(roa)
		roas++
	}
	fmt.Printf("hierarchy: %d CAs, %d ROAs, %d publication points\n", len(h.CAs()), roas, roas)

	// Two-level cache distribution: a top cache per region, leaves below.
	var points []string
	for asn := range net.Alloc.InfraBlocks {
		points = append(points, fmt.Sprintf("pp-as%d", asn))
	}
	if _, err := dist.AddCache("top", "", points...); err != nil {
		log.Fatal(err)
	}
	caches := 1
	for i := 0; i < 10; i++ {
		if _, err := dist.AddCache(fmt.Sprintf("leaf%d", i), "top"); err != nil {
			log.Fatal(err)
		}
		caches++
	}
	rounds, err := dist.Propagate(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("propagation: %d caches complete=%v in %d rounds\n", caches, dist.Complete(), rounds)

	// Deployment at StarBed scale: routers + service VMs across hosts.
	var vms []string
	for _, n := range net.ANM.Overlay("phy").Routers() {
		vms = append(vms, string(n.ID()))
	}
	for _, name := range h.CAs() {
		vms = append(vms, "vm-"+name)
	}
	for i := 0; i < caches; i++ {
		vms = append(vms, fmt.Sprintf("vm-cache%d", i))
	}
	cluster, err := sched.New(sched.Uniform(3, 300), sched.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := cluster.Reserve(sched.Spec{Name: "rpki", VMs: vms})
	if err != nil {
		log.Fatal(err)
	}
	if res.State != sched.ResActive {
		log.Fatalf("%d VMs do not fit: %s", res.VMs, cluster.Capacity().Summary())
	}
	fmt.Printf("placed %d VMs across %d hosts (paper: 800+ Linux VMs on StarBed)\n",
		len(res.Placement), cluster.Capacity().Hosts)

	// Origin validation: a legitimate route and a hijack.
	roaSet := h.ROAs()
	anyASN := -1 // the lowest ASN, so the output is reproducible
	for asn := range net.Alloc.InfraBlocks {
		if anyASN < 0 || asn < anyASN {
			anyASN = asn
		}
	}
	block := net.Alloc.InfraBlocks[anyASN]
	fmt.Printf("\norigin validation against the ROA set:\n")
	fmt.Printf("  %v from AS%-5d -> %s (legitimate)\n", block, anyASN,
		rpki.ValidateOrigin(roaSet, block, anyASN))
	fmt.Printf("  %v from AS%-5d -> %s (hijack)\n", block, 64666,
		rpki.ValidateOrigin(roaSet, block, 64666))
	outside := netaddr.MustPrefix("198.51.100.0/24")
	fmt.Printf("  %v from AS%-5d -> %s (uncovered space)\n", outside, anyASN,
		rpki.ValidateOrigin(roaSet, outside, anyASN))
}
