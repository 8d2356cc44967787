package autonetkit

import (
	"net/netip"
	"os"

	"autonetkit/internal/compile"
	"autonetkit/internal/services/dns"
)

// Small helpers keeping the facade tests terse.

func osCreate(path string) (*os.File, error) { return os.Create(path) }

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func mustPrefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func compileOptions() compile.Options { return compile.Options{} }

func dnsConfig() dns.Config { return dns.Config{} }

// loopbackOf maps a device name to its allocated loopback, the address
// reachability probes target (the zero Addr for an unknown name).
func loopbackOf(net *Network) func(string) netip.Addr {
	byName := map[string]netip.Addr{}
	for _, e := range net.Alloc.Table.Entries() {
		if e.Loopback {
			byName[string(e.Node)] = e.Addr
		}
	}
	return func(name string) netip.Addr { return byName[name] }
}
