// Package obs is the observability layer of the TI-BSP stack: a
// low-overhead hierarchical tracer (run → timestep → superstep →
// (partition, subgraph) spans), metric exporters (Prometheus text format,
// JSON snapshots, Chrome trace_event JSON), an optional HTTP debug
// endpoint, and straggler/skew analysis over the recorded superstep
// schedule.
//
// The design constraint is the one Kairos-style instrumentation papers
// insist on: measuring the hot path must not distort it. The Tracer stores
// spans in preallocated rings written with a single atomic increment plus a
// struct store — no locks, no allocation, no formatting — and every
// recording site is gated on an atomic enabled flag so a disabled tracer
// costs one predicted branch. All rendering (JSON, Prometheus text, skew
// aggregation) happens at export time, off the measured path.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"tsgraph/internal/metrics"
)

// Sample is one exported metric observation. Kind follows the Prometheus
// exposition format ("counter", "gauge", or "histogram").
type Sample struct {
	Name   string  `json:"name"`
	Help   string  `json:"help,omitempty"`
	Kind   string  `json:"kind"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
	// Family, when set, is the metric family the sample belongs to and the
	// name the HELP/TYPE headers are written under. Histogram series use it:
	// the _bucket/_sum/_count samples all carry Family "foo" while Name is
	// "foo_bucket" etc., which is what the exposition format requires.
	Family string `json:"family,omitempty"`
}

// familyName returns the name HELP/TYPE headers group under.
func (s Sample) familyName() string {
	if s.Family != "" {
		return s.Family
	}
	return s.Name
}

// EmitHistogram renders one histogram family as exposition-format samples:
// cumulative _bucket series (le-labeled, ending in +Inf), then _sum and
// _count. buckets[i] is the cumulative count at bound les[i] (seconds);
// the +Inf bucket is count. Labels are attached to every series.
func EmitHistogram(emit func(Sample), family, help string, labels []Label, les []float64, buckets []uint64, sumSeconds float64, count uint64) {
	for i, le := range les {
		bl := make([]Label, 0, len(labels)+1)
		bl = append(bl, labels...)
		bl = append(bl, Label{Key: "le", Value: formatValue(le)})
		emit(Sample{Family: family, Name: family + "_bucket", Help: help, Kind: "histogram",
			Labels: bl, Value: float64(buckets[i])})
	}
	infl := make([]Label, 0, len(labels)+1)
	infl = append(infl, labels...)
	infl = append(infl, Label{Key: "le", Value: "+Inf"})
	emit(Sample{Family: family, Name: family + "_bucket", Help: help, Kind: "histogram",
		Labels: infl, Value: float64(count)})
	emit(Sample{Family: family, Name: family + "_sum", Help: help, Kind: "histogram",
		Labels: labels, Value: sumSeconds})
	emit(Sample{Family: family, Name: family + "_count", Help: help, Kind: "histogram",
		Labels: labels, Value: float64(count)})
}

// Label is one metric label pair.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Collector is implemented by subsystems that export metrics through a
// Registry (e.g. cluster.Node's per-peer wire counters).
type Collector interface {
	// CollectObs emits the subsystem's current samples.
	CollectObs(emit func(Sample))
}

// CollectorFunc adapts a function to Collector.
type CollectorFunc func(emit func(Sample))

// CollectObs implements Collector.
func (f CollectorFunc) CollectObs(emit func(Sample)) { f(emit) }

// Registry aggregates every observable source of a process — the tracer,
// the current run's metrics recorder, and any registered collectors — and
// renders them in Prometheus text format or as a JSON snapshot. All methods
// are safe for concurrent use and nil-safe on the receiver, so call sites
// never need an "is observability on" guard.
type Registry struct {
	mu         sync.Mutex
	tracer     *Tracer
	rec        *metrics.Recorder
	collectors []Collector
	shardFn    func() TraceShard
}

// NewRegistry creates a registry over an optional tracer.
func NewRegistry(t *Tracer) *Registry { return &Registry{tracer: t} }

// Tracer returns the registry's tracer (nil when tracing is off).
func (g *Registry) Tracer() *Tracer {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.tracer
}

// ObserveRecorder points the registry at a run's metrics recorder; scrapes
// reflect the most recently observed recorder. Nil-safe.
func (g *Registry) ObserveRecorder(rec *metrics.Recorder) {
	if g == nil || rec == nil {
		return
	}
	g.mu.Lock()
	g.rec = rec
	g.mu.Unlock()
}

// Register adds a collector (e.g. a cluster node's wire metrics). Nil-safe.
func (g *Registry) Register(c Collector) {
	if g == nil || c == nil {
		return
	}
	g.mu.Lock()
	g.collectors = append(g.collectors, c)
	g.mu.Unlock()
}

// SetShardSource installs the provider behind the /debug/trace.shard pull
// endpoint: a distributed process points it at its cluster node so a remote
// merger can fetch the rank's trace shard (spans + clock offset) over HTTP
// instead of the cluster wire. Nil-safe.
func (g *Registry) SetShardSource(fn func() TraceShard) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.shardFn = fn
	g.mu.Unlock()
}

// Shard returns the registry's trace shard: the installed shard source's,
// else the bare tracer's (rank 0, zero offset). Nil-safe.
func (g *Registry) Shard() TraceShard {
	if g == nil {
		return TraceShard{}
	}
	g.mu.Lock()
	fn, tracer := g.shardFn, g.tracer
	g.mu.Unlock()
	if fn != nil {
		return fn()
	}
	return tracer.Shard(0, 0)
}

// Samples gathers the current samples from every source.
func (g *Registry) Samples() []Sample {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	rec, tracer := g.rec, g.tracer
	collectors := append([]Collector(nil), g.collectors...)
	g.mu.Unlock()

	var out []Sample
	emit := func(s Sample) { out = append(out, s) }
	if rec != nil {
		recorderSamples(rec, emit)
	}
	if tracer != nil {
		tracer.CollectObs(emit)
	}
	for _, c := range collectors {
		c.CollectObs(emit)
	}
	return out
}

// recorderSamples converts a metrics.Recorder into exported samples: the
// run totals, per-partition compute time and message traffic, and every
// application counter.
func recorderSamples(rec *metrics.Recorder, emit func(Sample)) {
	emit(Sample{Name: "tsgraph_supersteps_total", Help: "BSP supersteps executed across all timesteps.", Kind: "counter", Value: float64(rec.TotalSupersteps())})
	emit(Sample{Name: "tsgraph_msgs_dropped_total", Help: "Messages to unknown destinations discarded by the engine.", Kind: "counter", Value: float64(rec.TotalMsgsDropped())})
	emit(Sample{Name: "tsgraph_load_seconds_total", Help: "Time blocked materializing instances (GoFS loads).", Kind: "counter", Value: sumDurations(rec.LoadSeries())})
	emit(Sample{Name: "tsgraph_compute_skew_ratio", Help: "Max/median per-partition total compute time (1.0 = perfectly balanced).", Kind: "gauge", Value: rec.ComputeSkew()})

	for _, u := range rec.Utilizations() {
		part := fmt.Sprintf("%d", u.Partition)
		labels := []Label{{Key: "partition", Value: part}}
		emit(Sample{Name: "tsgraph_compute_seconds_total", Help: "Per-partition time inside user Compute calls.", Kind: "counter", Labels: labels, Value: u.Compute.Seconds()})
	}
	sent, recv := rec.PartMessages()
	for p := range sent {
		labels := []Label{{Key: "partition", Value: fmt.Sprintf("%d", p)}}
		emit(Sample{Name: "tsgraph_msgs_sent_total", Help: "Messages sent per partition.", Kind: "counter", Labels: labels, Value: float64(sent[p])})
		emit(Sample{Name: "tsgraph_msgs_recv_total", Help: "Messages received per partition.", Kind: "counter", Labels: labels, Value: float64(recv[p])})
	}
	for _, name := range rec.CounterNames() {
		emit(Sample{
			Name: "tsgraph_app_counter_total", Help: "Application-defined per-run counters.",
			Kind:   "counter",
			Labels: []Label{{Key: "counter", Value: name}},
			Value:  float64(rec.CounterTotal(name)),
		})
	}
}

func sumDurations(ds []time.Duration) float64 {
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total.Seconds()
}

// WritePrometheus renders the current samples in the Prometheus text
// exposition format (one HELP/TYPE header per family, families sorted).
// Samples sharing a Family (histogram _bucket/_sum/_count series) are
// grouped under one header in emission order.
func (g *Registry) WritePrometheus(w io.Writer) error {
	samples := g.Samples()
	byName := map[string][]Sample{}
	var names []string
	for _, s := range samples {
		key := s.familyName()
		if _, seen := byName[key]; !seen {
			names = append(names, key)
		}
		byName[key] = append(byName[key], s)
	}
	sort.Strings(names)
	for _, name := range names {
		group := byName[name]
		if group[0].Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(group[0].Help)); err != nil {
				return err
			}
		}
		kind := group[0].Kind
		if kind == "" {
			kind = "untyped"
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, kind); err != nil {
			return err
		}
		for _, s := range group {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", s.Name, formatLabels(s.Labels), formatValue(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatLabels renders {k="v",...} with exposition-format escaping, or ""
// for unlabeled samples.
func formatLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes HELP text per the exposition format (backslash and
// newline only; quotes are legal in help text).
func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == float64(int64(v)):
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WriteJSON renders the current samples as a JSON snapshot.
func (g *Registry) WriteJSON(w io.Writer) error {
	samples := g.Samples()
	if samples == nil {
		samples = []Sample{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Samples []Sample `json:"samples"`
	}{samples})
}
