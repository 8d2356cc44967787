package emul

import (
	"fmt"
	"sort"
	"strings"
)

// Severity classifies a Diagnostic. Errors make a device's configuration
// unusable (the device is quarantined in lenient boots, the boot fails in
// strict ones); warnings are reported but do not stop a boot.
type Severity int

// Diagnostic severities.
const (
	SevWarning Severity = iota
	SevError
)

// String returns the lowercase severity name.
func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarning:
		return "warning"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// Diagnostic is one located problem found while ingesting a rendered
// configuration (or a chaos scenario script). Every parser in the
// ingestion layer reports problems as Diagnostics instead of bailing on
// the first bad byte: a parse pass continues past a broken stanza and
// accumulates everything wrong with a file, so one boot reports every
// problem at once.
type Diagnostic struct {
	Severity Severity
	Device   string // device the problem belongs to ("" = whole lab/script)
	File     string // file within the device tree ("" = whole device)
	Line     int    // 1-based line number (0 = whole file)
	Message  string
}

// String renders the diagnostic in the canonical report form
// `device:file:line: severity: message`, omitting empty location parts.
func (d Diagnostic) String() string {
	var sb strings.Builder
	if d.Device != "" {
		sb.WriteString(d.Device)
		sb.WriteString(":")
	}
	if d.File != "" {
		sb.WriteString(d.File)
		sb.WriteString(":")
	}
	if d.Line > 0 {
		fmt.Fprintf(&sb, "%d:", d.Line)
	}
	if sb.Len() > 0 {
		sb.WriteString(" ")
	}
	sb.WriteString(d.Severity.String())
	sb.WriteString(": ")
	sb.WriteString(d.Message)
	return sb.String()
}

// Diagnostics is an accumulated diagnostic list.
type Diagnostics []Diagnostic

// HasErrors reports whether any diagnostic is error-level.
func (ds Diagnostics) HasErrors() bool {
	for _, d := range ds {
		if d.Severity == SevError {
			return true
		}
	}
	return false
}

// Errors returns only the error-level diagnostics.
func (ds Diagnostics) Errors() Diagnostics {
	var out Diagnostics
	for _, d := range ds {
		if d.Severity == SevError {
			out = append(out, d)
		}
	}
	return out
}

// ForDevice returns the diagnostics attributed to one device.
func (ds Diagnostics) ForDevice(name string) Diagnostics {
	var out Diagnostics
	for _, d := range ds {
		if d.Device == name {
			out = append(out, d)
		}
	}
	return out
}

// Sorted returns a copy ordered by (device, file, line, message) — the
// stable order quarantine reports are printed in.
func (ds Diagnostics) Sorted() Diagnostics {
	out := make(Diagnostics, len(ds))
	copy(out, ds)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Device != out[j].Device {
			return out[i].Device < out[j].Device
		}
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].Message < out[j].Message
	})
	return out
}

// String renders the sorted diagnostics one per line.
func (ds Diagnostics) String() string {
	sorted := ds.Sorted()
	lines := make([]string, len(sorted))
	for i, d := range sorted {
		lines[i] = d.String()
	}
	return strings.Join(lines, "\n")
}

// Err returns nil when the list carries no error-level diagnostics, and a
// *DiagnosticError wrapping the whole list otherwise.
func (ds Diagnostics) Err() error {
	if !ds.HasErrors() {
		return nil
	}
	return &DiagnosticError{Diags: ds}
}

// DiagnosticError is the error form of a diagnostic list: a strict boot
// that hits config errors fails with one of these, carrying every problem
// found in the pass (not just the first).
type DiagnosticError struct {
	Diags Diagnostics
}

// Error summarises the error-level diagnostics, one per line.
func (e *DiagnosticError) Error() string {
	errs := e.Diags.Errors()
	return fmt.Sprintf("emul: %d config error(s):\n%s", len(errs), errs.String())
}

// diagSink accumulates diagnostics for one (device, file) parse pass. The
// zero Device/File are allowed for lab-wide problems.
type diagSink struct {
	device string
	file   string
	diags  Diagnostics
}

func (s *diagSink) errorf(line int, format string, args ...any) {
	s.diags = append(s.diags, Diagnostic{
		Severity: SevError, Device: s.device, File: s.file, Line: line,
		Message: fmt.Sprintf(format, args...),
	})
}
