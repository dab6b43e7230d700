package diag

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"tsgraph/internal/obs"
)

// Trigger records why a bundle was captured.
type Trigger struct {
	// Cause is "detector", "signal", or "manual".
	Cause string `json:"cause"`
	// Evidence is the tripped detectors' state (Cause "detector").
	Evidence []Evidence `json:"evidence,omitempty"`
}

// Meta is the bundle's meta.json: the trigger, capture time, build
// identity, and any capture-time degradations (e.g. the CPU profile was
// unavailable because another profiler held it).
type Meta struct {
	Tool     string     `json:"tool"` // process name, e.g. "tsserve"
	Build    string     `json:"build"`
	Captured time.Time  `json:"captured"`
	Cause    string     `json:"cause"`
	Evidence []Evidence `json:"evidence,omitempty"`
	// CPUProfileSeconds is how long the CPU profile sampled (0 if skipped).
	CPUProfileSeconds float64 `json:"cpu_profile_seconds"`
	// Degraded lists sections that could not be captured, with the error.
	Degraded map[string]string `json:"degraded,omitempty"`
	// Sections lists every member file written into the archive.
	Sections []string `json:"sections"`
}

// Section is one extra file a daemon contributes to its bundles — the
// flight-recorder snapshot, /stats JSON, the Chrome trace window. Write
// renders the section's current content; a failing section degrades the
// bundle (recorded in meta) instead of aborting it.
type Section struct {
	// Name is the member filename inside the archive (e.g. "flight.json").
	Name string
	// Write renders the section.
	Write func(w io.Writer) error
}

// Bundler captures diagnostic bundles into Dir with disk-capped retention.
// Concurrency-safe; overlapping capture requests coalesce into one bundle
// (the CPU profiler is a process-wide singleton anyway).
type Bundler struct {
	// Dir is where bundles live. Created on first capture.
	Dir string
	// Tool names the process in bundle filenames and meta ("tsserve").
	Tool string
	// MaxBundles bounds how many bundles are retained (default 8).
	MaxBundles int
	// MaxBytes bounds the total bundle bytes retained (default 256 MiB).
	// Oldest bundles are deleted first; the newest always survives.
	MaxBytes int64
	// ProfileDuration is the CPU profile window (default 2s).
	ProfileDuration time.Duration
	// MinInterval rate-limits detector-triggered captures (default 1m).
	// Manual and signal captures bypass it.
	MinInterval time.Duration
	// Registry, when set, contributes metrics.prom (the full scrape).
	Registry *obs.Registry
	// LogRing, when set, contributes logs.jsonl (the recent record tail).
	LogRing *LogRing
	// Sections are the daemon-specific extras.
	Sections []Section
	// Now is the injectable clock (tests); defaults to time.Now.
	Now func() time.Time

	mu       sync.Mutex
	last     time.Time
	inflight bool
	seq      int
}

func (b *Bundler) now() time.Time {
	if b.Now != nil {
		return b.Now()
	}
	return time.Now()
}

const bundleSuffix = ".tar.gz"

// Capture snapshots the process's diagnostic surface into one tar.gz under
// Dir and returns its path. Rate limiting applies only to detector-caused
// captures; a second capture arriving while one is in flight returns
// ErrBusy rather than queueing (the anomaly it would document is already
// being documented).
func (b *Bundler) Capture(tr Trigger) (string, error) {
	b.mu.Lock()
	if b.inflight {
		b.mu.Unlock()
		return "", ErrBusy
	}
	now := b.now()
	if tr.Cause == "detector" {
		interval := b.MinInterval
		if interval <= 0 {
			interval = time.Minute
		}
		if !b.last.IsZero() && now.Sub(b.last) < interval {
			b.mu.Unlock()
			return "", ErrRateLimited
		}
	}
	b.inflight = true
	b.last = now
	b.seq++
	seq := b.seq
	b.mu.Unlock()

	path, err := b.capture(tr, now, seq)

	b.mu.Lock()
	b.inflight = false
	b.mu.Unlock()
	return path, err
}

// Sentinel capture outcomes.
var (
	ErrBusy        = errBusy{}
	ErrRateLimited = errRateLimited{}
)

type errBusy struct{}

func (errBusy) Error() string { return "diag: a bundle capture is already in flight" }

type errRateLimited struct{}

func (errRateLimited) Error() string { return "diag: detector capture suppressed by rate limit" }

func (b *Bundler) capture(tr Trigger, now time.Time, seq int) (string, error) {
	if err := os.MkdirAll(b.Dir, 0o755); err != nil {
		return "", fmt.Errorf("diag: %w", err)
	}
	tool := b.Tool
	if tool == "" {
		tool = "tsgraph"
	}
	name := fmt.Sprintf("%s-%s-%03d-%s%s", tool, now.UTC().Format("20060102T150405Z"), seq, tr.Cause, bundleSuffix)
	final := filepath.Join(b.Dir, name)
	tmp := final + ".tmp"

	f, err := os.Create(tmp)
	if err != nil {
		return "", fmt.Errorf("diag: %w", err)
	}
	defer os.Remove(tmp) // no-op after the rename

	gz := gzip.NewWriter(f)
	tw := tar.NewWriter(gz)

	meta := Meta{
		Tool:     tool,
		Build:    obs.ReadBuildInfo().String(),
		Captured: now.UTC(),
		Cause:    tr.Cause,
		Evidence: tr.Evidence,
		Degraded: map[string]string{},
	}
	addFile := func(name string, content []byte) error {
		hdr := &tar.Header{
			Name: name, Mode: 0o644, Size: int64(len(content)),
			ModTime: now, Typeflag: tar.TypeReg,
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return err
		}
		if _, err := tw.Write(content); err != nil {
			return err
		}
		meta.Sections = append(meta.Sections, name)
		return nil
	}
	addSection := func(name string, write func(io.Writer) error) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			meta.Degraded[name] = err.Error()
			return
		}
		if err := addFile(name, buf.Bytes()); err != nil {
			meta.Degraded[name] = err.Error()
		}
	}

	// CPU profile first — it's the only section that takes wall time, and
	// sampling while the anomaly is still hot is the whole point.
	dur := b.ProfileDuration
	if dur <= 0 {
		dur = 2 * time.Second
	}
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		// Another profiler (e.g. /debug/pprof/profile) holds the singleton.
		meta.Degraded["cpu.pprof"] = err.Error()
	} else {
		time.Sleep(dur)
		pprof.StopCPUProfile()
		meta.CPUProfileSeconds = dur.Seconds()
		if err := addFile("cpu.pprof", cpu.Bytes()); err != nil {
			meta.Degraded["cpu.pprof"] = err.Error()
		}
	}

	for _, prof := range []string{"heap", "goroutine", "mutex"} {
		p := pprof.Lookup(prof)
		if p == nil {
			meta.Degraded[prof+".pprof"] = "profile not registered"
			continue
		}
		addSection(prof+".pprof", func(w io.Writer) error { return p.WriteTo(w, 0) })
	}

	if b.Registry != nil {
		addSection("metrics.prom", func(w io.Writer) error { return b.Registry.WritePrometheus(w) })
	}
	if b.LogRing != nil {
		addSection("logs.jsonl", func(w io.Writer) error { _, err := b.LogRing.WriteTo(w); return err })
	}
	for _, s := range b.Sections {
		addSection(s.Name, s.Write)
	}

	if len(meta.Degraded) == 0 {
		meta.Degraded = nil
	}
	mb, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return "", fmt.Errorf("diag: %w", err)
	}
	if err := addFile("meta.json", mb); err != nil {
		return "", fmt.Errorf("diag: %w", err)
	}

	if err := tw.Close(); err != nil {
		return "", fmt.Errorf("diag: %w", err)
	}
	if err := gz.Close(); err != nil {
		return "", fmt.Errorf("diag: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("diag: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return "", fmt.Errorf("diag: %w", err)
	}
	b.enforceRetention()
	return final, nil
}

// BundleInfo describes one retained bundle.
type BundleInfo struct {
	Name  string    `json:"name"`
	Bytes int64     `json:"bytes"`
	MTime time.Time `json:"mtime"`
}

// List returns the retained bundles, newest first.
func (b *Bundler) List() ([]BundleInfo, error) {
	entries, err := os.ReadDir(b.Dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []BundleInfo
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), bundleSuffix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		out = append(out, BundleInfo{Name: e.Name(), Bytes: info.Size(), MTime: info.ModTime()})
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].MTime.Equal(out[j].MTime) {
			return out[i].MTime.After(out[j].MTime)
		}
		return out[i].Name > out[j].Name
	})
	return out, nil
}

// Open opens a retained bundle by bare name, rejecting path traversal.
func (b *Bundler) Open(name string) (*os.File, error) {
	if name != filepath.Base(name) || !strings.HasSuffix(name, bundleSuffix) {
		return nil, fmt.Errorf("diag: invalid bundle name %q", name)
	}
	return os.Open(filepath.Join(b.Dir, name))
}

// enforceRetention deletes oldest bundles beyond the count and byte caps.
// The newest bundle always survives, even if alone over MaxBytes.
func (b *Bundler) enforceRetention() {
	maxN := b.MaxBundles
	if maxN <= 0 {
		maxN = 8
	}
	maxBytes := b.MaxBytes
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	bundles, err := b.List() // newest first
	if err != nil {
		return
	}
	// Sweep .tmp orphans from a capture that died mid-write (crash or
	// kill): anything older than a profile window can't still be live.
	if tmps, err := filepath.Glob(filepath.Join(b.Dir, "*"+bundleSuffix+".tmp")); err == nil {
		for _, tmp := range tmps {
			if st, err := os.Stat(tmp); err == nil && b.now().Sub(st.ModTime()) > time.Minute {
				os.Remove(tmp)
			}
		}
	}
	var total int64
	for i, info := range bundles {
		total += info.Bytes
		if i == 0 {
			continue
		}
		if i >= maxN || total > maxBytes {
			os.Remove(filepath.Join(b.Dir, info.Name))
		}
	}
}
