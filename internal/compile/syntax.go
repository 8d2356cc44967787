package compile

import (
	"fmt"
	"sort"

	"autonetkit/internal/nidb"
)

// Syntax describes one device configuration language (paper §5.4: "device
// syntax configuration, such as Quagga or Cisco IOS"). The generic compiler
// builds a device-independent tree; Finalize applies the target's
// semantics — extra files, naming conventions, derived fields. New syntaxes
// register with RegisterSyntax (the §7 IS-IS / new-target extension point).
type Syntax interface {
	// Name is the syntax attribute value this compiler serves.
	Name() string
	// TemplateBase is the template-set directory recorded in the render
	// attributes (§5.5), e.g. "templates/quagga".
	TemplateBase() string
	// Finalize applies device-language specifics to a compiled device.
	Finalize(d *nidb.Device) error
}

var syntaxRegistry = map[string]Syntax{}

// RegisterSyntax installs a device-syntax compiler; later registrations
// override (user extension point).
func RegisterSyntax(s Syntax) { syntaxRegistry[s.Name()] = s }

// SyntaxFor returns the registered syntax compiler.
func SyntaxFor(name string) (Syntax, error) {
	s, ok := syntaxRegistry[name]
	if !ok {
		return nil, fmt.Errorf("compile: no syntax compiler registered for %q", name)
	}
	return s, nil
}

// Syntaxes returns the registered syntax names, sorted.
func Syntaxes() []string {
	out := make([]string, 0, len(syntaxRegistry))
	for k := range syntaxRegistry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// QuaggaSyntax targets the Quagga routing suite (zebra/ospfd/bgpd/isisd
// daemons in /etc/quagga).
type QuaggaSyntax struct{}

// Name implements Syntax.
func (QuaggaSyntax) Name() string { return "quagga" }

// TemplateBase implements Syntax.
func (QuaggaSyntax) TemplateBase() string { return "templates/quagga" }

// Finalize implements Syntax: records which Quagga daemons must start,
// derived from the protocol blocks present on the device.
func (QuaggaSyntax) Finalize(d *nidb.Device) error {
	daemons := []any{map[string]any{"name": "zebra", "enabled": true}}
	if _, ok := d.Get("ospf"); ok {
		daemons = append(daemons, map[string]any{"name": "ospfd", "enabled": true})
	}
	if _, ok := d.Get("bgp"); ok {
		daemons = append(daemons, map[string]any{"name": "bgpd", "enabled": true})
	}
	if _, ok := d.Get("isis"); ok {
		daemons = append(daemons, map[string]any{"name": "isisd", "enabled": true})
	}
	d.MustSet("quagga.daemons", daemons)
	return nil
}

// IOSSyntax targets Cisco IOS.
type IOSSyntax struct{}

// Name implements Syntax.
func (IOSSyntax) Name() string { return "ios" }

// TemplateBase implements Syntax.
func (IOSSyntax) TemplateBase() string { return "templates/ios" }

// Finalize implements Syntax: the IOS templates render no IS-IS, so a
// device that carries it is refused rather than booted without an IGP.
func (IOSSyntax) Finalize(d *nidb.Device) error { return noISIS(d, "ios") }

// JunosSyntax targets Juniper JunOS.
type JunosSyntax struct{}

// Name implements Syntax.
func (JunosSyntax) Name() string { return "junos" }

// TemplateBase implements Syntax.
func (JunosSyntax) TemplateBase() string { return "templates/junos" }

// Finalize implements Syntax: the JunOS templates render no IS-IS, so a
// device that carries it is refused rather than booted without an IGP.
func (JunosSyntax) Finalize(d *nidb.Device) error { return noISIS(d, "junos") }

// noISIS refuses a device carrying an IS-IS block in a syntax whose
// templates cannot express it.
func noISIS(d *nidb.Device, syntax string) error {
	if _, ok := d.Get("isis"); ok {
		return fmt.Errorf("%s carries IS-IS, which the %s templates do not render", d.ID, syntax)
	}
	return nil
}

// CBGPSyntax targets the C-BGP simulator's CLI script language.
type CBGPSyntax struct{}

// Name implements Syntax.
func (CBGPSyntax) Name() string { return "cbgp" }

// TemplateBase implements Syntax.
func (CBGPSyntax) TemplateBase() string { return "templates/cbgp" }

// Finalize implements Syntax.
func (CBGPSyntax) Finalize(d *nidb.Device) error { return nil }

func init() {
	RegisterSyntax(QuaggaSyntax{})
	RegisterSyntax(IOSSyntax{})
	RegisterSyntax(JunosSyntax{})
	RegisterSyntax(CBGPSyntax{})
}
