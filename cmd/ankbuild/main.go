// Command ankbuild runs the configuration pipeline: topology file in,
// configuration tree out — the paper's console workflow (§6.1).
//
//	ankbuild -in lab.graphml -out ./rendered [-rr] [-isis]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"autonetkit"
	"autonetkit/internal/cache"
	"autonetkit/internal/design"
	"autonetkit/internal/graph"
	"autonetkit/internal/obs"
)

func main() {
	in := flag.String("in", "", "input topology (graphml/gml/json/cch/adj)")
	out := flag.String("out", "rendered", "output directory for configuration files")
	rr := flag.Bool("rr", false, "build hierarchical iBGP with route reflectors (§7.1)")
	rrPerAS := flag.Int("rr-per-as", 2, "route reflectors auto-selected per AS")
	isis := flag.Bool("isis", false, "additionally build IS-IS (§7)")
	doVerify := flag.Bool("verify", false, "run pre-deployment static verification (§8)")
	dumpNIDB := flag.String("dump-nidb", "", "write one device's Resource-Database tree as JSON (the paper's §5.4 listing); device id or 'all'")
	useCache := flag.Bool("cache", false, "enable the incremental content-addressed build cache")
	cacheDir := flag.String("cache-dir", ".ankcache", "cache directory for -cache (always safe to delete)")
	trace := flag.Bool("trace", false, "print the pipeline trace (per-stage timings and work counters) to stderr")
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "ankbuild: -in is required")
		flag.Usage()
		os.Exit(2)
	}

	start := time.Now()
	net, err := autonetkit.Load(*in)
	if err != nil {
		fatal(err)
	}
	loadDone := time.Now()
	opts := autonetkit.BuildOptions{Design: design.Options{
		RouteReflectors: *rr,
		RROptions:       design.RROptions{PerAS: *rrPerAS},
		ISIS:            *isis,
	}}
	var store *cache.Store
	if *useCache {
		store, err = cache.Open(*cacheDir, cache.Options{})
		if err != nil {
			fatal(err)
		}
		opts.Compile.Cache = store
		opts.Render.Cache = store
	}
	if err := net.Design(opts.Design); err != nil {
		fatal(err)
	}
	if err := net.Allocate(opts.IP); err != nil {
		fatal(err)
	}
	designDone := time.Now()
	if err := net.Compile(opts.Compile); err != nil {
		fatal(err)
	}
	compileDone := time.Now()
	if err := net.RenderWith(opts.Render); err != nil {
		fatal(err)
	}
	renderDone := time.Now()
	if *dumpNIDB != "" {
		if *dumpNIDB == "all" {
			b, err := net.DB.MarshalJSON()
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(b))
		} else {
			s, err := net.DB.DumpDevice(graph.ID(*dumpNIDB))
			if err != nil {
				fatal(err)
			}
			fmt.Println(s)
		}
	}
	if *doVerify {
		report, err := net.Verify()
		if err != nil {
			fatal(err)
		}
		fmt.Println(report)
		if !report.OK() {
			os.Exit(1)
		}
	}
	if err := net.SaveConfigs(*out); err != nil {
		fatal(err)
	}

	inOv := net.ANM.Overlay("input")
	fmt.Printf("loaded %d devices, %d links from %s\n", inOv.NumNodes(), inOv.NumEdges(), *in)
	fmt.Printf("overlays: %v\n", net.ANM.OverlayNames())
	fmt.Printf("rendered %d files (%d bytes) under %s\n", net.Files.Len(), net.Files.TotalBytes(), *out)
	if store != nil {
		counters := net.Stats().Counters
		fmt.Printf("cache: %d hits, %d misses, %d bytes reused (%s)\n",
			counters[obs.CounterCacheHits], counters[obs.CounterCacheMisses],
			counters[obs.CounterCacheBytes], store.Dir())
	}
	fmt.Printf("timings: load %v, design+allocate %v, compile %v, render %v (total %v)\n",
		loadDone.Sub(start).Round(time.Millisecond),
		designDone.Sub(loadDone).Round(time.Millisecond),
		compileDone.Sub(designDone).Round(time.Millisecond),
		renderDone.Sub(compileDone).Round(time.Millisecond),
		renderDone.Sub(start).Round(time.Millisecond))
	if *trace {
		if err := net.WriteTrace(os.Stderr); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ankbuild:", err)
	os.Exit(1)
}
