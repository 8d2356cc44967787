package render

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"autonetkit/internal/cache"
	"autonetkit/internal/nidb"
	"autonetkit/internal/obs"
	"autonetkit/internal/par"
)

// Options parameterises rendering.
type Options struct {
	// Cache, when non-nil, is the incremental build store: devices whose
	// render key (attribute tree + template-set fingerprint) matches a
	// stored entry reuse their prior rendered files instead of executing
	// templates. Output is byte-identical at every cache state; lab-level
	// files always re-render.
	Cache *cache.Store
	// Obs, when non-nil, receives timing spans and work counters.
	Obs *obs.Collector
}

// Render pushes every device in the Resource Database through its syntax's
// template set, and every (host, platform) lab through the platform's
// lab-level templates, returning the complete configuration file tree.
func Render(db *nidb.DB) (*FileSet, error) {
	return RenderWith(context.Background(), db, Options{})
}

// RenderWith is Render with options and cancellation. Devices and labs
// render on GOMAXPROCS goroutines; the error is the first failing job's in
// output order (devices in database order, then labs), and cancelling ctx
// stops jobs not yet started.
func RenderWith(ctx context.Context, db *nidb.DB, opts Options) (*FileSet, error) {
	fs := NewFileSet()
	if err := renderInto(ctx, db, fs, opts); err != nil {
		return nil, err
	}
	return fs, nil
}

// renderedFile is one output file from a render job, in emit order.
type renderedFile struct{ path, content string }

func renderInto(ctx context.Context, db *nidb.DB, fs *FileSet, opts Options) error {
	devices := db.Devices()
	labKeys := db.LabKeys()

	// One job per device plus one per lab; each produces an ordered file
	// list that the merge below writes out in job order: devices in
	// database order, then labs in key order.
	span := opts.Obs.StartSpan("templates")
	results := make([][]renderedFile, len(devices)+len(labKeys))
	err := par.Do(len(results), func(_, i int) (err error) {
		if err = ctx.Err(); err != nil {
			return err
		}
		if i < len(devices) {
			results[i], err = renderDeviceCached(devices[i], opts)
		} else {
			results[i], err = renderLab(db, labKeys[i-len(devices)], opts.Obs)
		}
		return err
	})
	span.End()
	if err != nil {
		return err
	}

	merge := opts.Obs.StartSpan("merge")
	defer merge.End()
	for _, files := range results {
		for _, f := range files {
			fs.Write(f.path, f.content)
			opts.Obs.Add(obs.CounterFilesRendered, 1)
			opts.Obs.Add(obs.CounterBytesWritten, int64(len(f.content)))
		}
	}
	return nil
}

// renderDevice produces one device's files in template-set order.
func renderDevice(d *nidb.Device, col *obs.Collector) ([]renderedFile, error) {
	syntax := d.GetString("syntax", "")
	set, ok := syntaxTemplates[syntax]
	if !ok {
		// Syntaxes without per-device files (e.g. cbgp) render only at
		// lab level.
		return nil, nil
	}
	dst := d.GetString("render.dst_folder", "")
	if dst == "" {
		return nil, fmt.Errorf("render: device %s has no render.dst_folder", d.ID)
	}
	var files []renderedFile
	for _, t := range set {
		if t.When != "" {
			if _, ok := d.Get(t.When); !ok {
				continue
			}
		}
		out, err := t.Template.Execute(map[string]any{"node": d.Data})
		if err != nil {
			return nil, fmt.Errorf("render: device %s, template %s: %w", d.ID, t.Template.Name(), err)
		}
		col.Add(obs.CounterTemplatesExecuted, 1)
		var path string
		if t.AtLabRoot {
			parent := dst
			if i := strings.LastIndex(dst, "/"); i >= 0 {
				parent = dst[:i]
			}
			path = parent + "/" + d.Hostname() + t.RelPath
		} else {
			path = dst + "/" + t.RelPath
		}
		files = append(files, renderedFile{path, out})
	}
	return files, nil
}

// renderLab produces one (host, platform) lab's files in template order.
func renderLab(db *nidb.DB, key string, col *obs.Collector) ([]renderedFile, error) {
	parts := strings.SplitN(key, "/", 2)
	host, platform := parts[0], parts[1]
	set, ok := labTemplates[platform]
	if !ok {
		return nil, nil
	}
	lab := db.Lab(host, platform)
	var nodes []any
	for _, d := range db.Devices() {
		if d.GetString("host", "") == host && d.GetString("platform", "") == platform {
			nodes = append(nodes, d.Data)
		}
	}
	ctx := map[string]any{"lab": lab, "nodes": nodes}
	var files []renderedFile
	for _, t := range set {
		out, err := t.Template.Execute(ctx)
		if err != nil {
			return nil, fmt.Errorf("render: lab %s, template %s: %w", key, t.Template.Name(), err)
		}
		col.Add(obs.CounterTemplatesExecuted, 1)
		files = append(files, renderedFile{host + "/" + platform + "/" + t.RelPath, out})
	}
	return files, nil
}

// DeviceConfig renders a single named template for one device — used by
// tests and by tooling that wants one config without the whole tree.
func DeviceConfig(d *nidb.Device, templateName string) (string, error) {
	syntax := d.GetString("syntax", "")
	for _, t := range syntaxTemplates[syntax] {
		if t.Template.Name() == templateName {
			return t.Template.Execute(map[string]any{"node": d.Data})
		}
	}
	return "", fmt.Errorf("render: syntax %q has no template %q", syntax, templateName)
}

// TemplateNames lists the template names registered for a syntax, sorted.
func TemplateNames(syntax string) []string {
	var out []string
	for _, t := range syntaxTemplates[syntax] {
		out = append(out, t.Template.Name())
	}
	sort.Strings(out)
	return out
}
