package render

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"autonetkit/internal/compile"
	"autonetkit/internal/core"
	"autonetkit/internal/design"
	"autonetkit/internal/graph"
	"autonetkit/internal/ipalloc"
	"autonetkit/internal/nidb"
)

// buildDB compiles the Fig. 5 network for the given platform/syntax.
func buildDB(t *testing.T, platform, syntax string) *nidb.DB {
	t.Helper()
	anm := core.NewANM()
	in, err := anm.AddOverlay(core.OverlayInput)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []struct {
		id  graph.ID
		asn int
	}{{"r1", 1}, {"r2", 1}, {"r3", 1}, {"r4", 1}, {"r5", 2}} {
		in.AddNode(n.id, graph.Attrs{
			core.AttrASN: n.asn, core.AttrDeviceType: core.DeviceRouter,
			core.AttrPlatform: platform, core.AttrSyntax: syntax,
		})
	}
	for _, e := range [][2]graph.ID{{"r1", "r2"}, {"r1", "r3"}, {"r2", "r4"}, {"r3", "r4"}, {"r3", "r5"}, {"r4", "r5"}} {
		in.AddEdge(e[0], e[1], graph.Attrs{"type": "physical"})
	}
	if err := design.BuildAll(anm, design.Options{ISIS: syntax == "quagga"}); err != nil {
		t.Fatal(err)
	}
	alloc, err := ipalloc.NewDefault().Allocate(anm)
	if err != nil {
		t.Fatal(err)
	}
	db, err := compile.Compile(anm, alloc, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestFileSetBasics(t *testing.T) {
	fs := NewFileSet()
	fs.Write("a/b.txt", "hello")
	fs.Write("a/c.txt", "world")
	fs.Write("a/b.txt", "hello2") // replace, not duplicate
	if fs.Len() != 2 {
		t.Errorf("len = %d", fs.Len())
	}
	if c, ok := fs.Read("a/b.txt"); !ok || c != "hello2" {
		t.Errorf("read = %q %v", c, ok)
	}
	if fs.TotalBytes() != len("hello2")+len("world") {
		t.Errorf("bytes = %d", fs.TotalBytes())
	}
	sub := fs.WithPrefix("a")
	if sub.Len() != 2 {
		t.Errorf("prefix len = %d", sub.Len())
	}
	if fs.WithPrefix("z").Len() != 0 {
		t.Error("wrong prefix matched")
	}
	other := NewFileSet()
	other.Write("x/y.txt", "z")
	fs.Merge(other)
	if fs.Len() != 3 {
		t.Error("merge failed")
	}
	sorted := fs.SortedPaths()
	if sorted[0] != "a/b.txt" || sorted[2] != "x/y.txt" {
		t.Errorf("sorted = %v", sorted)
	}
}

func TestFileSetWriteToDisk(t *testing.T) {
	fs := NewFileSet()
	fs.Write("sub/dir/file.conf", "content\n")
	dir := t.TempDir()
	if err := fs.WriteToDisk(dir); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "sub", "dir", "file.conf"))
	if err != nil || string(b) != "content\n" {
		t.Errorf("disk content = %q, %v", b, err)
	}
}

func TestRenderQuaggaTree(t *testing.T) {
	db := buildDB(t, "netkit", "quagga")
	fs, err := Render(db)
	if err != nil {
		t.Fatal(err)
	}
	// Each of 5 routers: zebra, ospfd, bgpd, isisd, daemons, startup = 6
	// files, plus lab.conf.
	if fs.Len() != 31 {
		t.Errorf("files = %d, want 31: %v", fs.Len(), fs.SortedPaths())
	}
	for _, want := range []string{
		"localhost/netkit/r1/etc/quagga/zebra.conf",
		"localhost/netkit/r1/etc/quagga/ospfd.conf",
		"localhost/netkit/r1/etc/quagga/bgpd.conf",
		"localhost/netkit/r1/etc/quagga/daemons",
		"localhost/netkit/r1.startup",
		"localhost/netkit/lab.conf",
	} {
		if _, ok := fs.Read(want); !ok {
			t.Errorf("missing %s", want)
		}
	}
}

// E4: the §4.1 template against the compiled NIDB yields the §6.1-shaped
// config: hostname/password header, per-interface ospf cost, router ospf
// with one network-area line per attached prefix.
func TestGoldenOspfdShape(t *testing.T) {
	db := buildDB(t, "netkit", "quagga")
	fs, err := Render(db)
	if err != nil {
		t.Fatal(err)
	}
	conf, ok := fs.Read("localhost/netkit/r1/etc/quagga/ospfd.conf")
	if !ok {
		t.Fatal("ospfd.conf missing")
	}
	lines := strings.Split(strings.TrimRight(conf, "\n"), "\n")
	if lines[0] != "hostname r1" || lines[1] != "password 1234" {
		t.Errorf("header = %q %q", lines[0], lines[1])
	}
	if !strings.Contains(conf, "interface eth0\n  ip ospf cost 1\n") {
		t.Errorf("interface stanza missing:\n%s", conf)
	}
	if !strings.Contains(conf, "router ospf\n") {
		t.Error("router ospf missing")
	}
	// r1: 2 intra-AS networks + loopback = 3 network lines, area 0.
	nets := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "  network ") && strings.HasSuffix(l, " area 0") {
			nets++
		}
	}
	if nets != 3 {
		t.Errorf("network lines = %d, want 3\n%s", nets, conf)
	}
}

func TestGoldenBgpd(t *testing.T) {
	db := buildDB(t, "netkit", "quagga")
	fs, err := Render(db)
	if err != nil {
		t.Fatal(err)
	}
	conf, _ := fs.Read("localhost/netkit/r3/etc/quagga/bgpd.conf")
	if !strings.Contains(conf, "router bgp 1\n") {
		t.Errorf("router bgp missing:\n%s", conf)
	}
	if !strings.Contains(conf, "remote-as 2") {
		t.Error("eBGP neighbor missing")
	}
	if !strings.Contains(conf, "update-source lo") {
		t.Error("iBGP update-source missing")
	}
	if !strings.Contains(conf, "network 192.168.") {
		t.Error("advertised network missing")
	}
	if strings.Contains(conf, "route-reflector-client") {
		t.Error("full mesh must not emit rr clients")
	}
}

func TestGoldenDaemons(t *testing.T) {
	db := buildDB(t, "netkit", "quagga")
	fs, _ := Render(db)
	conf, _ := fs.Read("localhost/netkit/r1/etc/quagga/daemons")
	want := "zebra=yes\nospfd=yes\nbgpd=yes\nisisd=yes\n"
	if conf != want {
		t.Errorf("daemons = %q, want %q", conf, want)
	}
}

func TestGoldenStartup(t *testing.T) {
	db := buildDB(t, "netkit", "quagga")
	fs, _ := Render(db)
	conf, _ := fs.Read("localhost/netkit/r1.startup")
	if !strings.Contains(conf, "/sbin/ifconfig eth0 192.168.") {
		t.Errorf("startup missing ifconfig:\n%s", conf)
	}
	if !strings.Contains(conf, "netmask 255.255.255.252") {
		t.Error("p2p netmask wrong")
	}
	if !strings.Contains(conf, "/sbin/ifconfig lo:1 10.0.0.") {
		t.Error("loopback alias missing")
	}
	if !strings.Contains(conf, "/etc/init.d/zebra start") {
		t.Error("zebra start missing")
	}
}

func TestGoldenLabConf(t *testing.T) {
	db := buildDB(t, "netkit", "quagga")
	fs, _ := Render(db)
	conf, _ := fs.Read("localhost/netkit/lab.conf")
	if !strings.Contains(conf, `LAB_DESCRIPTION="autonetkit generated lab (5 machines)"`) {
		t.Errorf("description missing:\n%s", conf)
	}
	// Machine-to-collision-domain bindings.
	if !strings.Contains(conf, "r1[eth0]=cd_r1_r2") {
		t.Errorf("machine binding missing:\n%s", conf)
	}
	// TAP management line: r1 has 2 data ifaces -> tap on eth2.
	if !strings.Contains(conf, "r1[eth2]=tap,172.16.0.1,172.16.0.2") {
		t.Errorf("tap line missing:\n%s", conf)
	}
}

func TestRenderIOS(t *testing.T) {
	db := buildDB(t, "dynagen", "ios")
	fs, err := Render(db)
	if err != nil {
		t.Fatal(err)
	}
	conf, ok := fs.Read("localhost/dynagen/r1.cfg")
	if !ok {
		t.Fatalf("ios config missing: %v", fs.SortedPaths())
	}
	if !strings.Contains(conf, "hostname r1") {
		t.Error("hostname missing")
	}
	if !strings.Contains(conf, "interface f0/0") {
		t.Error("IOS interface naming missing")
	}
	// IOS network statements use wildcard masks.
	if !strings.Contains(conf, " 0.0.0.3 area 0") {
		t.Errorf("wildcard mask missing:\n%s", conf)
	}
	if !strings.Contains(conf, "ip address 192.168.") || !strings.Contains(conf, " 255.255.255.252") {
		t.Error("dotted netmask missing")
	}
	lab, _ := fs.Read("localhost/dynagen/lab.net")
	if !strings.Contains(lab, "[[ROUTER r1]]") {
		t.Errorf("lab.net missing router:\n%s", lab)
	}
}

func TestRenderJunos(t *testing.T) {
	db := buildDB(t, "junosphere", "junos")
	fs, err := Render(db)
	if err != nil {
		t.Fatal(err)
	}
	conf, ok := fs.Read("localhost/junosphere/r1.conf")
	if !ok {
		t.Fatalf("junos config missing: %v", fs.SortedPaths())
	}
	if !strings.Contains(conf, "host-name r1;") {
		t.Error("host-name missing")
	}
	if !strings.Contains(conf, "em0 {") {
		t.Error("em interface missing")
	}
	if !strings.Contains(conf, "autonomous-system 1;") {
		t.Error("AS missing")
	}
	vmm, _ := fs.Read("localhost/junosphere/topology.vmm")
	if !strings.Contains(vmm, `vm "r1"`) {
		t.Error("vmm missing vm")
	}
}

func TestRenderCBGP(t *testing.T) {
	db := buildDB(t, "cbgp", "cbgp")
	fs, err := Render(db)
	if err != nil {
		t.Fatal(err)
	}
	cli, ok := fs.Read("localhost/cbgp/lab.cli")
	if !ok {
		t.Fatalf("lab.cli missing: %v", fs.SortedPaths())
	}
	if !strings.Contains(cli, "net add node 10.0.0.1") {
		t.Errorf("node missing:\n%s", cli)
	}
	if !strings.Contains(cli, "bgp add router 1 10.0.0.1") {
		t.Error("bgp router missing")
	}
	if !strings.Contains(cli, "sim run") {
		t.Error("sim run missing")
	}
	// cbgp produces only the lab file.
	if fs.Len() != 1 {
		t.Errorf("files = %d, want 1", fs.Len())
	}
}

// Ablation A3: rendering the same network twice is byte identical.
func TestRenderDeterministic(t *testing.T) {
	fs1, err := Render(buildDB(t, "netkit", "quagga"))
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := Render(buildDB(t, "netkit", "quagga"))
	if err != nil {
		t.Fatal(err)
	}
	if fs1.Len() != fs2.Len() {
		t.Fatal("file counts differ")
	}
	for _, p := range fs1.Paths() {
		a, _ := fs1.Read(p)
		b, ok := fs2.Read(p)
		if !ok || a != b {
			t.Errorf("file %s differs across runs", p)
		}
	}
}

func TestRouteReflectorRendered(t *testing.T) {
	anm := core.NewANM()
	in, _ := anm.AddOverlay(core.OverlayInput)
	for _, id := range []graph.ID{"hub", "l1", "l2"} {
		in.AddNode(id, graph.Attrs{core.AttrASN: 1, core.AttrDeviceType: core.DeviceRouter})
	}
	in.AddEdge("hub", "l1")
	in.AddEdge("hub", "l2")
	if err := design.BuildAll(anm, design.Options{RouteReflectors: true, RROptions: design.RROptions{PerAS: 1}}); err != nil {
		t.Fatal(err)
	}
	alloc, _ := ipalloc.NewDefault().Allocate(anm)
	db, err := compile.Compile(anm, alloc, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Render(db)
	if err != nil {
		t.Fatal(err)
	}
	conf, _ := fs.Read("localhost/netkit/hub/etc/quagga/bgpd.conf")
	if strings.Count(conf, "route-reflector-client") != 2 {
		t.Errorf("hub should have 2 rr clients:\n%s", conf)
	}
}

func TestDeviceConfigHelper(t *testing.T) {
	db := buildDB(t, "netkit", "quagga")
	out, err := DeviceConfig(db.Device("r1"), "quagga/ospfd.conf")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "router ospf") {
		t.Error("helper output wrong")
	}
	if _, err := DeviceConfig(db.Device("r1"), "nope"); err == nil {
		t.Error("unknown template accepted")
	}
	if names := TemplateNames("quagga"); len(names) != 6 {
		t.Errorf("quagga templates = %v", names)
	}
}

func TestRenderErrorOnMissingDstFolder(t *testing.T) {
	db := nidb.New()
	d := db.AddDevice("r1")
	d.MustSet("syntax", "quagga")
	d.MustSet("zebra.hostname", "r1")
	if _, err := Render(db); err == nil {
		t.Error("missing dst_folder accepted")
	}
}

func TestRenderErrorNamesTemplate(t *testing.T) {
	// A device tree missing a value the template requires: the error names
	// the device and the template for quick diagnosis.
	db := nidb.New()
	d := db.AddDevice("broken")
	d.MustSet("syntax", "quagga")
	d.MustSet("render.dst_folder", "localhost/netkit/broken")
	d.MustSet("zebra.hostname", "broken")
	// zebra.password missing -> zebra.conf template fails.
	_, err := Render(db)
	if err == nil {
		t.Fatal("missing template value accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "broken") || !strings.Contains(msg, "zebra.conf") {
		t.Errorf("error lacks context: %v", err)
	}
}

// The fan-out must not change output: RenderWith at GOMAXPROCS 1 and 8
// produces identical paths and contents in identical order.
func TestRenderWithWorkersDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	db := buildDB(t, "netkit", "quagga")
	var serial *FileSet
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		fs, err := RenderWith(context.Background(), db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if serial == nil {
			serial = fs
			continue
		}
		sp, pp := serial.Paths(), fs.Paths()
		if len(sp) == 0 || len(sp) != len(pp) {
			t.Fatalf("path counts differ: %d vs %d", len(sp), len(pp))
		}
		for i := range sp {
			if sp[i] != pp[i] {
				t.Fatalf("path order differs at %d: %s vs %s", i, sp[i], pp[i])
			}
			sc, _ := serial.Read(sp[i])
			pc, _ := fs.Read(pp[i])
			if sc != pc {
				t.Errorf("%s content differs at GOMAXPROCS=%d", sp[i], procs)
			}
		}
	}
}

// A cancelled context aborts the fan-out with the context's error.
func TestRenderWithCancelledContext(t *testing.T) {
	db := buildDB(t, "netkit", "quagga")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RenderWith(ctx, db, Options{}); err == nil {
		t.Fatal("cancelled render succeeded")
	}
}

// A broken device surfaces a render error instead of a partial tree.
func TestRenderWithErrorWins(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	db := buildDB(t, "netkit", "quagga")
	// Remove the render metadata from one device to force a failure.
	d := db.Devices()[2]
	delete(d.Data, "render")
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		_, err := RenderWith(context.Background(), db, Options{})
		if err == nil || !strings.Contains(err.Error(), "dst_folder") {
			t.Fatalf("GOMAXPROCS=%d: got %v, want dst_folder error", procs, err)
		}
	}
}

// With two broken devices the error is always the first's in database
// order, whichever goroutine fails first.
func TestRenderErrorInDeviceOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	db := buildDB(t, "netkit", "quagga")
	delete(db.Device("r2").Data, "render")
	delete(db.Device("r5").Data, "render")
	for range 50 {
		_, err := RenderWith(context.Background(), db, Options{})
		if err == nil || !strings.Contains(err.Error(), "device r2 has no render.dst_folder") {
			t.Fatalf("got %v, want r2's dst_folder error", err)
		}
	}
}
