// Package live is the continuous-observability layer for long-running
// daemons, complementing internal/obs (which is run-scoped: one bounded
// job, one ring, one export at exit). A serving process handles millions
// of queries and the interesting trace is the one slow or failed request —
// so live keeps a per-query lifecycle trace (admission → queue → coalesce →
// sweep → encode) for every in-flight request, then *tail-samples* at
// completion: traces of slow, errored, rejected, or randomly head-sampled
// queries are retained in a bounded store, boring ones are dropped with an
// explicit counter so loss is never silent. A flight recorder exposes the
// last N query summaries and any retained trace as Chrome trace_event JSON
// (see Handler), latencies feed log-bucketed Prometheus histograms per
// class and stage, and an SLO tracker turns them into a burn-rate gauge.
//
// The hot-path contract matches internal/obs: a nil *Recorder is valid and
// permanently disabled, every Query method is nil-safe, and the per-query
// cost when enabled is one small allocation at Begin plus scalar stores —
// no locks until Finish, which runs once per query off the sweep path.
package live

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"tsgraph/internal/obs"
)

// Stage indexes one segment of a query's lifecycle.
type Stage uint8

const (
	// StageAdmit is validation + normalization (request arrival to
	// admission decision).
	StageAdmit Stage = iota
	// StageCache is the result-cache + single-flight lookup.
	StageCache
	// StageQueue is the wait in the class queue (or on an identical
	// in-flight query) until a worker picks the request up.
	StageQueue
	// StageSweep is the TI-BSP micro-batch execution answering the query.
	StageSweep
	// StageEncode is response serialization and flush.
	StageEncode

	numStages
)

var stageNames = [numStages]string{"admit", "cache", "queue", "sweep", "encode"}

// String names the stage (also the Prometheus "stage" label value).
func (st Stage) String() string {
	if int(st) < len(stageNames) {
		return stageNames[st]
	}
	return "unknown"
}

// Status classifies how a query ended; the tail sampler keys retention off
// it.
type Status uint8

const (
	// StatusOK answered successfully (HTTP 200).
	StatusOK Status = iota
	// StatusBadQuery failed validation (HTTP 400).
	StatusBadQuery
	// StatusRejected was shed by admission control (HTTP 429).
	StatusRejected
	// StatusDraining arrived during shutdown (HTTP 503).
	StatusDraining
	// StatusCanceled lost its client before completion.
	StatusCanceled
	// StatusError failed during execution (HTTP 500).
	StatusError

	numStatuses
)

var statusNames = [numStatuses]string{"ok", "bad_query", "rejected", "draining", "canceled", "error"}

// String names the status.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return "unknown"
}

// Config parameterizes a Recorder.
type Config struct {
	// Classes names the query classes; stage/class histograms are
	// preallocated per entry and Query.SetClass indexes into it.
	Classes []string

	// SlowThreshold retains any query at least this slow (0 = 1s).
	SlowThreshold time.Duration
	// HeadSampleRate retains a random fraction of ordinary queries so the
	// store always holds a baseline of healthy traces to compare a slow one
	// against (0 = no head sampling).
	HeadSampleRate float64
	// Seed seeds the head sampler (deterministic retention for tests).
	Seed int64

	// RetainCap bounds the retained-trace store (0 = 64); the oldest
	// retained trace is evicted first. SummaryCap bounds the always-on
	// query summary ring (0 = 256).
	RetainCap  int
	SummaryCap int

	// SLOTarget and SLOErrorBudget configure the burn-rate gauge: target
	// latency (0 = SlowThreshold) and tolerated bad-request fraction
	// (0 = 0.01).
	SLOTarget      time.Duration
	SLOErrorBudget float64

	// MetricPrefix prefixes exported metric families (default "tsserve").
	MetricPrefix string

	// Now is the clock (nil = time.Now); injectable so retention and
	// burn-rate behavior are testable under a seeded clock.
	Now func() time.Time
}

// stageSpan is one recorded lifecycle segment, relative to the query start.
type stageSpan struct {
	startNS, durNS int64
	set            bool
}

// atomicStage is the in-flight form of a stageSpan. Queue and sweep stages
// are written by the worker that executed the query's batch, while Finish
// may run on the request goroutine after a context cancellation — with no
// happens-before edge between them in that path — so the fields are
// atomics rather than relying on the done-channel ordering of the normal
// path. set is stored last, so a reader seeing set also sees the times.
type atomicStage struct {
	startNS, durNS atomic.Int64
	set            atomic.Bool
}

func (a *atomicStage) snapshot() stageSpan {
	if !a.set.Load() {
		return stageSpan{}
	}
	return stageSpan{startNS: a.startNS.Load(), durNS: a.durNS.Load(), set: true}
}

// Query accumulates one request's lifecycle trace. Methods are nil-safe so
// instrumented code needs no "is live observability on" branches.
type Query struct {
	r     *Recorder
	id    uint64
	class atomic.Int32
	start time.Time

	stages    [numStages]atomicStage
	batchSeq  atomic.Int64
	batchSize atomic.Int32
	cacheHit  atomic.Bool

	headSampled bool
	finished    atomic.Bool
}

// Summary is one completed query's flight-recorder record.
type Summary struct {
	ID        string    `json:"id"`
	Class     string    `json:"class"`
	Status    string    `json:"status"`
	Start     time.Time `json:"start"`
	LatencyMS float64   `json:"latency_ms"`
	QueueMS   float64   `json:"queue_ms,omitempty"`
	SweepMS   float64   `json:"sweep_ms,omitempty"`
	BatchSeq  int64     `json:"batch_seq,omitempty"`
	BatchSize int       `json:"batch_size,omitempty"`
	CacheHit  bool      `json:"cache_hit,omitempty"`
	Retained  bool      `json:"retained"`
	Slow      bool      `json:"slow,omitempty"`
	Err       string    `json:"error,omitempty"`
}

// Trace is a retained query lifecycle: the summary plus the stage spans.
type Trace struct {
	Summary
	start  time.Time
	stages [numStages]stageSpan
}

// Recorder is the continuous observability sink of one daemon. A nil
// *Recorder is valid and disabled.
type Recorder struct {
	cfg     Config
	classes []string
	now     func() time.Time
	slo     *SLO

	nextID atomic.Uint64

	// hists[class][0..2] are the queue/sweep/total latency histograms.
	hists [][3]*obs.Histogram

	total         atomic.Uint64 // queries finished
	dropped       atomic.Uint64 // traces not retained (tail-sampled away)
	evicted       atomic.Uint64 // retained traces pushed out by the cap
	retainedTotal atomic.Uint64

	mu        sync.Mutex
	rng       *rand.Rand
	summaries []Summary // ring
	sumNext   int
	sumCount  int
	retained  []*Trace // FIFO, oldest first
	byID      map[uint64]*Trace
}

// histStage maps a Stage to its histogram slot; -1 = not histogrammed.
func histStage(st Stage) int {
	switch st {
	case StageQueue:
		return 0
	case StageSweep:
		return 1
	}
	return -1
}

// histStageNames label the exported histogram's stage dimension.
var histStageNames = [3]string{"queue", "sweep", "total"}

// NewRecorder builds a recorder; see Config for defaults.
func NewRecorder(cfg Config) *Recorder {
	if cfg.SlowThreshold <= 0 {
		cfg.SlowThreshold = time.Second
	}
	if cfg.RetainCap <= 0 {
		cfg.RetainCap = 64
	}
	if cfg.SummaryCap <= 0 {
		cfg.SummaryCap = 256
	}
	if cfg.SLOTarget <= 0 {
		cfg.SLOTarget = cfg.SlowThreshold
	}
	if cfg.SLOErrorBudget <= 0 {
		cfg.SLOErrorBudget = 0.01
	}
	if cfg.MetricPrefix == "" {
		cfg.MetricPrefix = "tsserve"
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	r := &Recorder{
		cfg:       cfg,
		classes:   append([]string(nil), cfg.Classes...),
		now:       now,
		slo:       NewSLO(cfg.SLOTarget, cfg.SLOErrorBudget, now),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		summaries: make([]Summary, cfg.SummaryCap),
		byID:      make(map[uint64]*Trace),
	}
	r.hists = make([][3]*obs.Histogram, len(r.classes))
	for c := range r.hists {
		for i := range r.hists[c] {
			r.hists[c][i] = obs.NewHistogram(64 * time.Microsecond)
		}
	}
	return r
}

// Begin opens a lifecycle trace for one arriving request. Nil-safe: a nil
// recorder returns a nil Query whose methods are all no-ops.
func (r *Recorder) Begin() *Query {
	if r == nil {
		return nil
	}
	q := &Query{
		r:     r,
		id:    r.nextID.Add(1),
		start: r.now(),
	}
	q.class.Store(-1)
	if r.cfg.HeadSampleRate > 0 {
		r.mu.Lock()
		q.headSampled = r.rng.Float64() < r.cfg.HeadSampleRate
		r.mu.Unlock()
	}
	return q
}

// FormatID renders a query id the way headers, logs, and the flight
// recorder spell it.
func FormatID(id uint64) string { return fmt.Sprintf("q%08x", id) }

// ID returns the query's numeric id (0 for a nil query).
func (q *Query) ID() uint64 {
	if q == nil {
		return 0
	}
	return q.id
}

// IDString returns the query's formatted id ("" for a nil query).
func (q *Query) IDString() string {
	if q == nil {
		return ""
	}
	return FormatID(q.id)
}

// Start returns when the trace began.
func (q *Query) Start() time.Time {
	if q == nil {
		return time.Time{}
	}
	return q.start
}

// SetClass resolves the query's class once admission validated it.
func (q *Query) SetClass(class int) {
	if q == nil {
		return
	}
	q.class.Store(int32(class))
}

// ClassName returns the query's class label ("unknown" before SetClass,
// "" for a nil query).
func (q *Query) ClassName() string {
	if q == nil {
		return ""
	}
	if c := int(q.class.Load()); c >= 0 && c < len(q.r.classes) {
		return q.r.classes[c]
	}
	return "unknown"
}

// Stage records one lifecycle segment.
func (q *Query) Stage(st Stage, start time.Time, dur time.Duration) {
	if q == nil || st >= numStages {
		return
	}
	a := &q.stages[st]
	a.startNS.Store(start.Sub(q.start).Nanoseconds())
	a.durNS.Store(dur.Nanoseconds())
	a.set.Store(true)
}

// SetBatch records the coalescing decision: which micro-batch answered the
// query and how many co-riders shared the sweep.
func (q *Query) SetBatch(seq int64, size int) {
	if q == nil {
		return
	}
	q.batchSeq.Store(seq)
	q.batchSize.Store(int32(size))
}

// SetCacheHit marks the query as answered from the result cache.
func (q *Query) SetCacheHit() {
	if q == nil {
		return
	}
	q.cacheHit.Store(true)
}

// Finish completes the trace: observes histograms and the SLO, appends the
// summary to the flight-recorder ring, and makes the retention decision
// (keep slow / errored / rejected / head-sampled traces, drop the rest
// with accounting). Idempotent; only the first call wins.
func (q *Query) Finish(status Status, err error) {
	if q == nil || !q.finished.CompareAndSwap(false, true) {
		return
	}
	r := q.r
	end := r.now()
	total := end.Sub(q.start)

	var stages [numStages]stageSpan
	for i := range q.stages {
		stages[i] = q.stages[i].snapshot()
	}
	class := int(q.class.Load())

	className := "unknown"
	if class >= 0 && class < len(r.classes) {
		className = r.classes[class]
		h := &r.hists[class]
		h[2].Observe(total)
		if sp := stages[StageQueue]; sp.set {
			h[0].Observe(time.Duration(sp.durNS))
		}
		if sp := stages[StageSweep]; sp.set {
			h[1].Observe(time.Duration(sp.durNS))
		}
	}
	if status != StatusCanceled {
		r.slo.Observe(total, status != StatusOK && status != StatusBadQuery)
	}
	r.total.Add(1)

	slow := total >= r.cfg.SlowThreshold
	retain := slow || q.headSampled ||
		status == StatusError || status == StatusRejected || status == StatusDraining

	sum := Summary{
		ID:        FormatID(q.id),
		Class:     className,
		Status:    status.String(),
		Start:     q.start,
		LatencyMS: float64(total) / float64(time.Millisecond),
		BatchSeq:  q.batchSeq.Load(),
		BatchSize: int(q.batchSize.Load()),
		CacheHit:  q.cacheHit.Load(),
		Retained:  retain,
		Slow:      slow,
	}
	if err != nil {
		sum.Err = err.Error()
	}
	if sp := stages[StageQueue]; sp.set {
		sum.QueueMS = float64(sp.durNS) / float64(time.Millisecond)
	}
	if sp := stages[StageSweep]; sp.set {
		sum.SweepMS = float64(sp.durNS) / float64(time.Millisecond)
	}

	r.mu.Lock()
	r.summaries[r.sumNext] = sum
	r.sumNext = (r.sumNext + 1) % len(r.summaries)
	if r.sumCount < len(r.summaries) {
		r.sumCount++
	}
	if retain {
		tr := &Trace{Summary: sum, start: q.start, stages: stages}
		r.retained = append(r.retained, tr)
		r.byID[q.id] = tr
		r.retainedTotal.Add(1)
		if len(r.retained) > r.cfg.RetainCap {
			old := r.retained[0]
			// Shift rather than reslice so the backing array never pins
			// evicted traces.
			copy(r.retained, r.retained[1:])
			r.retained = r.retained[:len(r.retained)-1]
			delete(r.byID, parseID(old.ID))
			r.evicted.Add(1)
		}
	} else {
		r.dropped.Add(1)
	}
	r.mu.Unlock()
}

// parseID inverts FormatID.
func parseID(s string) uint64 {
	var id uint64
	fmt.Sscanf(s, "q%08x", &id)
	return id
}

// Summaries returns the flight-recorder ring, oldest first.
func (r *Recorder) Summaries() []Summary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Summary, 0, r.sumCount)
	start := r.sumNext - r.sumCount
	for i := 0; i < r.sumCount; i++ {
		out = append(out, r.summaries[(start+i+len(r.summaries))%len(r.summaries)])
	}
	return out
}

// Retained returns the retained traces, oldest first.
func (r *Recorder) Retained() []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Trace(nil), r.retained...)
}

// Trace looks a retained trace up by formatted id (e.g. "q0000002a").
func (r *Recorder) Trace(id string) (*Trace, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.byID[parseID(id)]
	return t, ok
}

// Quantile estimates a latency quantile for one class and histogram stage
// (0 queue, 1 sweep, 2 total). Zero for unknown classes.
func (r *Recorder) Quantile(class, stage int, q float64) time.Duration {
	if r == nil || class < 0 || class >= len(r.hists) || stage < 0 || stage > 2 {
		return 0
	}
	return r.hists[class][stage].Quantile(q)
}

// SLO exposes the recorder's SLO tracker (nil when the recorder is nil).
func (r *Recorder) SLO() *SLO {
	if r == nil {
		return nil
	}
	return r.slo
}

// SlowThreshold returns the tail-sampling latency threshold.
func (r *Recorder) SlowThreshold() time.Duration {
	if r == nil {
		return 0
	}
	return r.cfg.SlowThreshold
}

// Counters returns (finished, dropped, evicted, retainedTotal).
func (r *Recorder) Counters() (total, dropped, evicted, retained uint64) {
	if r == nil {
		return
	}
	return r.total.Load(), r.dropped.Load(), r.evicted.Load(), r.retainedTotal.Load()
}

// CollectObs implements obs.Collector: the per-class/per-stage latency
// histograms, the flight-recorder retention accounting, and the SLO
// family.
func (r *Recorder) CollectObs(emit func(obs.Sample)) {
	if r == nil {
		return
	}
	p := r.cfg.MetricPrefix
	for c, name := range r.classes {
		for st, stageName := range histStageNames {
			r.hists[c][st].Emit(emit, p+"_latency_seconds",
				"Query latency by class and lifecycle stage (log-bucketed).",
				[]obs.Label{{Key: "class", Value: name}, {Key: "stage", Value: stageName}})
		}
	}
	total, dropped, evicted, retainedTotal := r.Counters()
	r.mu.Lock()
	resident := len(r.retained)
	r.mu.Unlock()
	emit(obs.Sample{Name: p + "_flight_queries_total", Help: "Queries whose lifecycle trace completed.",
		Kind: "counter", Value: float64(total)})
	emit(obs.Sample{Name: p + "_flight_dropped_traces_total", Help: "Completed traces the tail sampler discarded (boring: fast, successful, not head-sampled).",
		Kind: "counter", Value: float64(dropped)})
	emit(obs.Sample{Name: p + "_flight_evicted_traces_total", Help: "Retained traces evicted by the store's capacity bound.",
		Kind: "counter", Value: float64(evicted)})
	emit(obs.Sample{Name: p + "_flight_retained_traces_total", Help: "Traces the tail sampler retained (slow, errored, shed, or head-sampled).",
		Kind: "counter", Value: float64(retainedTotal)})
	emit(obs.Sample{Name: p + "_flight_resident_traces", Help: "Traces currently held in the flight recorder.",
		Kind: "gauge", Value: float64(resident)})

	sloTotal, sloBad := r.slo.Totals()
	emit(obs.Sample{Name: p + "_slo_target_latency_seconds", Help: "SLO latency target.",
		Kind: "gauge", Value: r.slo.Target().Seconds()})
	emit(obs.Sample{Name: p + "_slo_error_budget", Help: "Tolerated bad-request fraction.",
		Kind: "gauge", Value: r.slo.Budget()})
	emit(obs.Sample{Name: p + "_slo_requests_total", Help: "Requests counted toward the SLO.",
		Kind: "counter", Value: float64(sloTotal)})
	emit(obs.Sample{Name: p + "_slo_violations_total", Help: "Requests that failed or exceeded the SLO target latency.",
		Kind: "counter", Value: float64(sloBad)})
	emit(obs.Sample{Name: p + "_slo_burn_rate", Help: "Windowed bad-request ratio divided by the error budget (>1 = consuming future budget).",
		Kind: "gauge", Value: r.slo.BurnRate()})
}
