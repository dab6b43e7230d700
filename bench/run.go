package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// runConfig is one invocation: a workload, a seed, a window length and
// whether this is the traced run.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Scale    scale
	// WorkDir holds the datasets the run writes; OutDir receives the trace
	// and the stamped result file.
	WorkDir string
	OutDir  string
	// Setups is how many times an untraced run sets up (reporting the
	// median); traced runs set up once.
	Setups int
	Log    io.Writer
}

func (c runConfig) window() time.Duration {
	return time.Duration(c.Seconds * float64(time.Second))
}

// warmup is the untimed lead-in that fills caches and finishes lazy
// set-up: an eighth of the window, at least a quarter second, at most three.
func (c runConfig) warmup() time.Duration {
	w := c.window() / 8
	if w < 250*time.Millisecond {
		w = 250 * time.Millisecond
	}
	if w > 3*time.Second {
		w = 3 * time.Second
	}
	return w
}

// tracePhase is the length of each 1-client phase of a traced run.
func (c runConfig) tracePhase() time.Duration { return c.window() / 4 }

func (c runConfig) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// runResult is what one run reports. Attempted counts timed operations
// plus verification checks; Failed counts errors, refusals, wrong answers
// and unacknowledged appends among them.
type runResult struct {
	Attempted int
	Failed    int
	Metrics   metricSet
	// Samples is the sample count behind each timing metric.
	Samples map[string]int
	Notes   []string
	Spans   []span
}

func newRunResult() *runResult {
	return &runResult{Metrics: make(metricSet), Samples: make(map[string]int)}
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail records verification or operation failures with their reasons.
func (r *runResult) fail(errs ...error) {
	for _, err := range errs {
		r.Failed++
		r.note("FAILED: %v", err)
	}
}

// setupRepeats is how many times an untraced run sets up from nothing;
// setup_s is their median.
const setupRepeats = 5

// env is whatever a workload's set-up built; close stops its servers.
type env interface{ close() }

// repeatSetup runs a workload's full set-up n times, each in a fresh
// directory, closes all but the last, and returns the last environment
// with the median set-up time. Nothing is reused between repetitions.
func repeatSetup[E env](cfg runConfig, n int, setup func(dir string) (E, error)) (E, float64, error) {
	var (
		last  E
		times []float64
	)
	for i := 0; i < n; i++ {
		dir := filepath.Join(cfg.WorkDir, fmt.Sprintf("setup%d", i))
		t0 := time.Now()
		e, err := setup(dir)
		if err != nil {
			return last, 0, fmt.Errorf("set-up %d: %w", i, err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 {
			e.close()
			if err := os.RemoveAll(dir); err != nil {
				return last, 0, err
			}
			continue
		}
		last = e
	}
	return last, median(times), nil
}

// endToEndLatency fills the three operation metrics from a latency sample
// (milliseconds) and the wall time the operations took.
func endToEndLatency(res *runResult, w workloadSpec, latMS []float64, completed int, elapsed time.Duration) {
	res.Metrics.set("op_p50_ms", median(latMS))
	tail, used, supported := supportedTail(latMS, w.Tail)
	res.Metrics.set("op_tail_ms", tail)
	if used != w.Tail || !supported {
		res.note("op_tail_ms: %d samples leave fewer than %d beyond p%g; reported p%g", len(latMS), minBeyond, w.Tail*100, used*100)
	}
	res.Metrics.set("ops_per_s", ratio(float64(completed), elapsed.Seconds()))
	res.Samples["op_p50_ms"] = len(latMS)
	res.Samples["op_tail_ms"] = len(latMS)
	if n := len(latMS); n > 0 {
		s := sortedCopy(latMS)
		at := func(p float64) float64 { return s[int(p*float64(n-1))] }
		res.note("latency ms: min %.4g p10 %.4g p25 %.4g p50 %.4g p75 %.4g p90 %.4g max %.4g",
			s[0], at(0.10), at(0.25), at(0.50), at(0.75), at(0.90), s[n-1])
	}
}

// diskMetric reports the dataset directory's size per edge per timestep.
func diskMetric(res *runResult, d *dataset) error {
	b, err := dirBytes(d.Dir)
	if err != nil {
		return err
	}
	res.Metrics.set("disk_bytes_per_edge_step", ratio(float64(b), d.edgeSteps()))
	return nil
}

// setupLayerMetrics reports the set-up decomposition (traced runs).
func setupLayerMetrics(m metricSet, t setupTimes) {
	m.set("gen.build_s", t.Gen.Seconds())
	m.set("partition.multilevel_s", t.Partition.Seconds())
	m.set("partition.edge_cut_share", t.EdgeCutShare)
	m.set("gofs.write_s", t.Write.Seconds())
	m.set("subgraph.build_s", t.Subgraph.Seconds())
	m.set("subgraph.count", float64(t.Subgraphs))
}

// runWorkload dispatches one run.
func runWorkload(cfg runConfig) (*runResult, error) {
	w, ok := workloadByName(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (see -list)", cfg.Workload)
	}
	if cfg.Setups < 1 || cfg.Trace {
		cfg.Setups = 1
	}
	var (
		res *runResult
		err error
	)
	switch w.Name {
	case "offline-batch":
		res, err = runOffline(cfg, w)
	case "ingest-live":
		res, err = runIngest(cfg, w)
	default:
		res, err = runServing(cfg, w)
	}
	if err != nil {
		return nil, err
	}
	if cfg.Trace {
		res.Metrics.fillPerLayer()
	}
	return res, nil
}
