package render

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"autonetkit/internal/tmpl"
)

// The embedded template library. Templates deliberately mirror the target
// configuration languages line for line (§4.1: "templates closely mirror
// the target configuration language, so are familiar to users experienced
// in network configuration"); all non-trivial logic lives in the compiler.

// DeviceTemplate is one output file of a syntax's template set.
type DeviceTemplate struct {
	// RelPath is the output path relative to the device's dst_folder; empty
	// Dir means the file lands at the folder root.
	RelPath string
	// When names a device-tree path that must exist for the file to be
	// rendered (e.g. no bgpd.conf without a bgp block). Empty renders
	// always.
	When string
	// AtLabRoot places the file next to (not inside) the device folder,
	// with the device hostname prefixed — Netkit's <machine>.startup
	// convention.
	AtLabRoot bool
	Template  *tmpl.Template
}

// syntaxTemplates maps a device syntax to its template set.
var syntaxTemplates = map[string][]DeviceTemplate{}

// labTemplates maps a platform to its lab-level files (lab.conf, lab.net,
// topology.vmm, lab.cli), rendered once per (host, platform) with context
// {lab, nodes}.
var labTemplates = map[string][]labTemplate{}

type labTemplate struct {
	// RelPath is relative to "<host>/<platform>/".
	RelPath  string
	Template *tmpl.Template
}

// RegisterDeviceTemplate appends an output file to a syntax's template set
// (the §7 extension point: a new protocol adds its template here).
func RegisterDeviceTemplate(syntax string, t DeviceTemplate) {
	invalidateSyntaxFingerprint(syntax)
	syntaxTemplates[syntax] = append(syntaxTemplates[syntax], t)
}

// DeviceTemplates returns a copy of the syntax's current template set.
func DeviceTemplates(syntax string) []DeviceTemplate {
	out := make([]DeviceTemplate, len(syntaxTemplates[syntax]))
	copy(out, syntaxTemplates[syntax])
	return out
}

// ReplaceDeviceTemplates swaps a syntax's whole template set, returning the
// previous one so callers (template experiments, tests) can restore it. An
// empty replacement deletes the syntax's per-device files entirely.
func ReplaceDeviceTemplates(syntax string, ts []DeviceTemplate) []DeviceTemplate {
	invalidateSyntaxFingerprint(syntax)
	prev := syntaxTemplates[syntax]
	if len(ts) == 0 {
		delete(syntaxTemplates, syntax)
	} else {
		syntaxTemplates[syntax] = append([]DeviceTemplate(nil), ts...)
	}
	return prev
}

// syntaxFPCache memoises SyntaxFingerprint per syntax: the render cache asks
// for it once per device, and rehashing every template source each time
// dominates an otherwise fully-warm render. Any registration operation
// invalidates the memo; mutating an already-registered template's Funcs
// without re-registering is not tracked (the shipped library never does).
var (
	syntaxFPMu    sync.Mutex
	syntaxFPCache = map[string]string{}
)

func invalidateSyntaxFingerprint(syntax string) {
	syntaxFPMu.Lock()
	delete(syntaxFPCache, syntax)
	syntaxFPMu.Unlock()
}

// SyntaxFingerprint hashes the identity of a syntax's full template set —
// every output path, render condition, placement flag and template
// fingerprint, in registration order. The render cache folds it into each
// device's key, so registering, replacing or editing any template of the
// syntax invalidates exactly the devices rendered through that syntax.
func SyntaxFingerprint(syntax string) string {
	syntaxFPMu.Lock()
	defer syntaxFPMu.Unlock()
	if fp, ok := syntaxFPCache[syntax]; ok {
		return fp
	}
	h := sha256.New()
	for _, t := range syntaxTemplates[syntax] {
		for _, field := range []string{t.RelPath, t.When, fmt.Sprint(t.AtLabRoot), t.Template.Fingerprint()} {
			fmt.Fprintf(h, "%d:%s|", len(field), field)
		}
	}
	fp := hex.EncodeToString(h.Sum(nil))
	syntaxFPCache[syntax] = fp
	return fp
}

// RegisterLabTemplate appends a lab-level file to a platform.
func RegisterLabTemplate(platform string, t labTemplate) {
	labTemplates[platform] = append(labTemplates[platform], t)
}

// --- Quagga (the paper's §4.1/§6.1 reference syntax) ---

const quaggaZebra = `hostname ${node.zebra.hostname}
password ${node.zebra.password}
enable password ${node.zebra.password}
% for interface in node.interfaces:
interface ${interface.id}
  description ${interface.description}
% endfor
log file /var/log/zebra/zebra.log
`

// quaggaOspfd is the paper's §4.1 example template, verbatim in structure.
const quaggaOspfd = `hostname ${node.zebra.hostname}
password ${node.zebra.password}
% for interface in node.interfaces:
interface ${interface.id}
  ip ospf cost ${interface.ospf_cost}
% endfor
router ospf
% for interface in node.ospf.passive_interfaces:
  passive-interface ${interface}
% endfor
% for link in node.ospf.ospf_links:
  network ${link.network.cidr} area ${link.area}
% endfor
`

const quaggaBgpd = `hostname ${node.zebra.hostname}
password ${node.zebra.password}
router bgp ${node.bgp.asn}
  bgp router-id ${node.bgp.router_id}
  no synchronization
% for network in node.bgp.networks:
  network ${network.cidr}
% endfor
% for nbr in node.bgp.ebgp_neighbors:
  neighbor ${nbr.ip} remote-as ${nbr.remote_asn}
  neighbor ${nbr.ip} description ${nbr.description}
% if nbr.med != 0:
  neighbor ${nbr.ip} route-map med-${nbr.med} out
% endif
% if nbr.local_pref != 0:
  neighbor ${nbr.ip} route-map lp-${nbr.local_pref} in
% endif
% endfor
% for nbr in node.bgp.ibgp_neighbors:
  neighbor ${nbr.ip} remote-as ${nbr.remote_asn}
  neighbor ${nbr.ip} update-source ${nbr.update_source}
  neighbor ${nbr.ip} description ${nbr.description}
% if nbr.rr_client:
  neighbor ${nbr.ip} route-reflector-client
% endif
% endfor
% for nbr in node.bgp.ebgp_neighbors:
% if nbr.med != 0:
route-map med-${nbr.med} permit 10
  set metric ${nbr.med}
% endif
% if nbr.local_pref != 0:
route-map lp-${nbr.local_pref} permit 10
  set local-preference ${nbr.local_pref}
% endif
% if nbr.policy != '':
! policy configlet for ${nbr.ip}
${nbr.policy}
% endif
% endfor
`

const quaggaIsisd = `hostname ${node.zebra.hostname}
password ${node.zebra.password}
router isis ${node.isis.process}
  net ${node.isis.net}
  metric-style wide
% for interface in node.isis.interfaces:
interface ${interface}
  ip router isis ${node.isis.process}
% endfor
`

const quaggaDaemons = `zebra=yes
% for d in node.quagga.daemons:
% if d.name != 'zebra':
${d.name}=yes
% endif
% endfor
`

const netkitStartup = `% for interface in node.interfaces:
/sbin/ifconfig ${interface.id} ${interface.ip_address} netmask ${interface.network.netmask} broadcast ${interface.network.broadcast} up
% endfor
% if 'loopback' in node:
/sbin/ifconfig lo:1 ${node.loopback.ip} netmask 255.255.255.255 up
% endif
% if 'gateway' in node:
/sbin/route add default gw ${node.gateway}
% endif
% if 'quagga' in node:
/etc/init.d/zebra start
% endif
`

// --- Cisco IOS ---

const iosConfig = `!
hostname ${node.hostname}
!
% for interface in node.interfaces:
interface ${interface.id}
 description ${interface.description}
 ip address ${interface.ip_address} ${interface.network.netmask}
% if 'ospf' in node:
 ip ospf cost ${interface.ospf_cost}
% endif
 no shutdown
!
% endfor
% if 'loopback' in node:
interface ${node.loopback.id}
 ip address ${node.loopback.ip} 255.255.255.255
!
% endif
% if 'ospf' in node:
router ospf ${node.ospf.process_id}
% for interface in node.ospf.passive_interfaces:
 passive-interface ${interface}
% endfor
% for link in node.ospf.ospf_links:
 network ${link.network.network} ${link.network.wildcard} area ${link.area}
% endfor
!
% endif
% if 'bgp' in node:
router bgp ${node.bgp.asn}
 bgp router-id ${node.bgp.router_id}
% for network in node.bgp.networks:
 network ${network.network} mask ${network.netmask}
% endfor
% for nbr in node.bgp.ebgp_neighbors:
 neighbor ${nbr.ip} remote-as ${nbr.remote_asn}
 neighbor ${nbr.ip} description ${nbr.description}
% if nbr.med != 0:
 neighbor ${nbr.ip} route-map med-${nbr.med} out
% endif
% if nbr.local_pref != 0:
 neighbor ${nbr.ip} route-map lp-${nbr.local_pref} in
% endif
% endfor
% for nbr in node.bgp.ibgp_neighbors:
 neighbor ${nbr.ip} remote-as ${nbr.remote_asn}
 neighbor ${nbr.ip} update-source ${node.loopback.id}
% if nbr.rr_client:
 neighbor ${nbr.ip} route-reflector-client
% endif
% endfor
!
% for nbr in node.bgp.ebgp_neighbors:
% if nbr.med != 0:
route-map med-${nbr.med} permit 10
 set metric ${nbr.med}
!
% endif
% if nbr.local_pref != 0:
route-map lp-${nbr.local_pref} permit 10
 set local-preference ${nbr.local_pref}
!
% endif
% endfor
% endif
end
`

// --- Juniper JunOS ---

const junosConfig = `system {
    host-name ${node.hostname};
}
interfaces {
% for interface in node.interfaces:
    ${interface.id} {
        description "${interface.description}";
        unit 0 {
            family inet {
                address ${interface.ip_address}/${interface.prefixlen};
            }
        }
    }
% endfor
% if 'loopback' in node:
    ${node.loopback.id} {
        unit 0 {
            family inet {
                address ${node.loopback.ip}/32;
            }
        }
    }
% endif
}
% if 'ospf' in node or 'bgp' in node:
protocols {
% if 'ospf' in node:
    ospf {
% for link in node.ospf.ospf_links:
        area ${link.area} {
            interface ${link.network.cidr} {
                metric ${link.cost};
% if link.passive:
                passive;
% endif
            }
        }
% endfor
    }
% endif
% if 'bgp' in node:
    bgp {
% for nbr in node.bgp.ebgp_neighbors:
        group ebgp-${nbr.remote_asn}-${nbr.ip} {
            type external;
            peer-as ${nbr.remote_asn};
% if nbr.med != 0:
            metric-out ${nbr.med};
% endif
% if nbr.local_pref != 0:
            local-preference ${nbr.local_pref};
% endif
            neighbor ${nbr.ip};
        }
% endfor
% for nbr in node.bgp.ibgp_neighbors:
        group ibgp-${nbr.ip} {
            type internal;
            local-address ${node.loopback.ip};
% if nbr.rr_client:
            cluster ${node.bgp.router_id};
% endif
            neighbor ${nbr.ip};
        }
% endfor
    }
% endif
}
% endif
% if 'bgp' in node:
routing-options {
    autonomous-system ${node.bgp.asn};
% if 'router_id' in node.bgp:
    router-id ${node.bgp.router_id};
% endif
## Advertised prefixes; stands in for the static + export-policy pair a
## production JunOS config would carry.
% for network in node.bgp.networks:
    advertise ${network.cidr};
% endfor
}
% endif
`

// --- C-BGP (lab-level script) ---

const cbgpLab = `# C-BGP script generated by autonetkit
% for node in nodes:
net add node ${node.loopback.ip}
% endfor
% for link in lab.links:
net add link ${link.src} ${link.dst} ${link.weight}
% endfor
% for node in nodes:
net node ${node.loopback.ip} domain ${node.asn}
% endfor
% for node in nodes:
bgp add router ${node.bgp.asn} ${node.loopback.ip}
bgp router ${node.loopback.ip}
% for network in node.bgp.networks:
  add network ${network.cidr}
% endfor
% for nbr in node.bgp.ebgp_neighbors:
  add peer ${nbr.remote_asn} ${nbr.peer_lo}
% if nbr.local_pref != 0:
  peer ${nbr.peer_lo} filter in add-rule action "local-pref ${nbr.local_pref}"
% endif
% if nbr.med != 0:
  peer ${nbr.peer_lo} filter out add-rule action "metric ${nbr.med}"
% endif
  peer ${nbr.peer_lo} up
% endfor
% for nbr in node.bgp.ibgp_neighbors:
  add peer ${nbr.remote_asn} ${nbr.ip}
% if nbr.rr_client:
  peer ${nbr.ip} rr-client
% endif
  peer ${nbr.ip} up
% endfor
  exit
% endfor
sim run
`

// --- platform lab files ---

const netkitLabConf = `LAB_DESCRIPTION="${lab.description}"
LAB_AUTHOR="autonetkit"
LAB_VERSION=1
% for m in lab.machines:
% for ifc in m.ifaces:
${m.name}[${ifc.id}]=${ifc.cd}
% endfor
${m.name}[${m.tap.interface}]=tap,${lab.tap_host},${m.tap.ip}
% endfor
`

const dynagenLabNet = `autostart = False
[localhost]
    [[7200]]
        image = ios-image.bin
        npe = npe-400
% for r in lab.routers:
    [[ROUTER ${r.name}]]
        model = ${r.model}
% for l in r.links:
        ${l.id} = NIO_udp:${l.cd}
% endfor
        cnfg = ${r.name}.cfg
% endfor
`

const junosphereVMM = `topology {
% for vm in lab.vms:
    vm "${vm.name}" {
        vmtype "vjx";
        config "${vm.name}.conf";
    }
% endfor
}
`

func init() {
	// Quagga on Netkit.
	RegisterDeviceTemplate("quagga", DeviceTemplate{RelPath: "etc/quagga/zebra.conf", When: "zebra", Template: tmpl.MustParse("quagga/zebra.conf", quaggaZebra)})
	RegisterDeviceTemplate("quagga", DeviceTemplate{RelPath: "etc/quagga/ospfd.conf", When: "ospf", Template: tmpl.MustParse("quagga/ospfd.conf", quaggaOspfd)})
	RegisterDeviceTemplate("quagga", DeviceTemplate{RelPath: "etc/quagga/bgpd.conf", When: "bgp", Template: tmpl.MustParse("quagga/bgpd.conf", quaggaBgpd)})
	RegisterDeviceTemplate("quagga", DeviceTemplate{RelPath: "etc/quagga/isisd.conf", When: "isis", Template: tmpl.MustParse("quagga/isisd.conf", quaggaIsisd)})
	RegisterDeviceTemplate("quagga", DeviceTemplate{RelPath: "etc/quagga/daemons", When: "quagga", Template: tmpl.MustParse("quagga/daemons", quaggaDaemons)})
	RegisterDeviceTemplate("quagga", DeviceTemplate{RelPath: ".startup", AtLabRoot: true, Template: tmpl.MustParse("netkit/startup", netkitStartup)})

	RegisterDeviceTemplate("ios", DeviceTemplate{RelPath: ".cfg", AtLabRoot: true, Template: tmpl.MustParse("ios/config", iosConfig)})
	RegisterDeviceTemplate("junos", DeviceTemplate{RelPath: ".conf", AtLabRoot: true, Template: tmpl.MustParse("junos/config", junosConfig)})

	RegisterLabTemplate("netkit", labTemplate{RelPath: "lab.conf", Template: tmpl.MustParse("netkit/lab.conf", netkitLabConf)})
	RegisterLabTemplate("dynagen", labTemplate{RelPath: "lab.net", Template: tmpl.MustParse("dynagen/lab.net", dynagenLabNet)})
	RegisterLabTemplate("junosphere", labTemplate{RelPath: "topology.vmm", Template: tmpl.MustParse("junosphere/topology.vmm", junosphereVMM)})
	RegisterLabTemplate("cbgp", labTemplate{RelPath: "lab.cli", Template: tmpl.MustParse("cbgp/lab.cli", cbgpLab)})
}
