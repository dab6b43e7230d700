package serve

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/gofs"
	"tsgraph/internal/graph"
	"tsgraph/internal/obs"
	"tsgraph/internal/obs/live"
	"tsgraph/internal/subgraph"
)

// Options configures a Server over one resident time-series graph.
type Options struct {
	// Template, Parts and Source are the resident graph: template and
	// partitioning loaded once, instances behind Source (typically a
	// gofs.InstanceCache so hot packs stay decoded).
	Template *graph.Template
	Parts    []*subgraph.PartitionData
	Source   core.InstanceSource

	// Delta is the collection's timestep period; WeightAttr the edge
	// attribute TDSP minimizes over; TweetsAttr the vertex attribute meme
	// queries scan ("" disables meme queries).
	Delta      float64
	WeightAttr string
	TweetsAttr string

	// Cores bounds the BSP engine's per-job parallelism (0 = engine
	// default).
	Cores int

	// MaxBatch caps how many compatible queries one sweep may answer
	// (1 disables coalescing). BatchLinger, when positive, holds a short
	// batch open briefly so concurrent queries can join it.
	MaxBatch    int
	BatchLinger time.Duration

	// QueueCap bounds each class queue; submissions beyond it are
	// rejected with HTTP 429. Workers is the number of concurrent sweep
	// executors per class.
	QueueCap int
	Workers  int

	// ResultCacheSize bounds the keyed result cache (0 disables it, and
	// with it single-flight deduplication).
	ResultCacheSize int

	// DefaultDeadline applies to queries that don't carry their own.
	DefaultDeadline time.Duration

	// Tracer, when active, receives query and batch spans.
	Tracer *obs.Tracer

	// Live is the continuous observability recorder: per-query lifecycle
	// traces with tail-sampled retention, the flight recorder behind
	// /debug/flight, latency histograms, and SLO accounting. When nil the
	// server creates one with defaults — live observability is always on;
	// pass a configured recorder to tune thresholds and sampling.
	Live *live.Recorder

	// DisableLive runs the server without a lifecycle recorder. Every
	// instrumentation call is then a nil-receiver no-op; this exists for
	// BenchmarkLiveOverhead (measuring the recorder's overhead), not for
	// production use.
	DisableLive bool

	// InstanceStats, when set, surfaces the instance-cache counters in
	// /stats and /metrics.
	InstanceStats func() gofs.CacheStats

	// ClassSource, when set, supplies a per-class instance source (e.g.
	// gofs.InstanceCache.ClassSource) so storage-tier cache traffic is
	// attributed to the query class that caused it. Classes for which it
	// returns nil fall back to Source.
	ClassSource func(class string) core.InstanceSource

	// Sweeper, when set, executes the sweeps instead of the in-process
	// default — the shard router plugs in here to scatter/gather across
	// ranks. Admission, batching, caching, and watermark pinning are
	// unaffected; only the compute moves.
	Sweeper Sweeper
}

// ClassNames returns the query class labels in Class order; a
// live.Recorder serving this package should be configured with them.
func ClassNames() []string {
	out := make([]string, numClasses)
	for c := Class(0); c < numClasses; c++ {
		out[c] = c.String()
	}
	return out
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MaxBatch < 1 {
		out.MaxBatch = 1
	}
	if out.QueueCap <= 0 {
		out.QueueCap = 256
	}
	if out.Workers <= 0 {
		out.Workers = 2
	}
	if out.DefaultDeadline <= 0 {
		out.DefaultDeadline = 30 * time.Second
	}
	return out
}

// flight is one in-flight computation of a keyed query; late arrivals with
// the same key wait on done instead of queueing duplicate work.
type flight struct {
	done chan struct{}
	ans  *Answer
	err  error
}

// Server answers online queries over one resident time-series graph. The
// graph is loaded once; queries are admission-controlled, coalesced into
// micro-batches per class, executed through the same algorithm entry
// points the offline tools use, and cached by canonical key.
type Server struct {
	opt     Options
	cfg     bsp.Config
	metrics *Metrics
	live    *live.Recorder
	results *resultCache

	// sources[c] is the instance source class c's sweeps read through —
	// Options.Source, or a class-attributed view of it.
	sources [numClasses]core.InstanceSource

	// sweeper executes batched sweeps — in-process by default, or a shard
	// router fanning out over the cluster mesh.
	sweeper Sweeper

	queues   [numClasses]*classQueue
	workerWG sync.WaitGroup

	drainingFlag atomic.Bool

	inflightMu sync.Mutex
	inflight   map[string]*flight

	queryID atomic.Int64

	// wmHeader caches the rendered X-Tsserve-Watermark value; the watermark
	// only changes when an append publishes, so the cached-query hot path
	// reuses one allocation instead of re-rendering per response.
	wmHeader atomic.Pointer[wmHeaderVal]
}

type wmHeaderVal struct {
	wm  int
	val []string
}

// watermarkHeaderValue returns the header-map value for a watermark,
// cached across requests at the same watermark.
func (s *Server) watermarkHeaderValue(wm int) []string {
	if c := s.wmHeader.Load(); c != nil && c.wm == wm {
		return c.val
	}
	c := &wmHeaderVal{wm: wm, val: []string{strconv.Itoa(wm)}}
	s.wmHeader.Store(c)
	return c.val
}

// New validates the options and starts the per-class worker pool.
func New(opt Options) (*Server, error) {
	if opt.Template == nil || len(opt.Parts) == 0 || opt.Source == nil {
		return nil, errors.New("serve: Template, Parts and Source are required")
	}
	if opt.Source.Timesteps() == 0 {
		return nil, errors.New("serve: source has no instances")
	}
	if opt.Delta <= 0 {
		return nil, fmt.Errorf("serve: delta must be positive, got %v", opt.Delta)
	}
	if opt.WeightAttr != "" && opt.Template.EdgeSchema().Index(opt.WeightAttr) < 0 {
		return nil, fmt.Errorf("serve: template lacks edge attribute %q", opt.WeightAttr)
	}
	if opt.TweetsAttr != "" && opt.Template.VertexSchema().Index(opt.TweetsAttr) < 0 {
		return nil, fmt.Errorf("serve: template lacks vertex attribute %q", opt.TweetsAttr)
	}
	s := &Server{
		opt:      opt.withDefaults(),
		metrics:  newMetrics(),
		inflight: make(map[string]*flight),
	}
	s.live = s.opt.Live
	if s.live == nil && !s.opt.DisableLive {
		s.live = live.NewRecorder(live.Config{Classes: ClassNames()})
	}
	s.cfg = bsp.Config{CoresPerHost: s.opt.Cores}
	s.results = newResultCache(s.opt.ResultCacheSize)
	s.sweeper = s.opt.Sweeper
	if s.sweeper == nil {
		s.sweeper = localSweeper{s}
	}
	for c := Class(0); c < numClasses; c++ {
		s.sources[c] = s.opt.Source
		if s.opt.ClassSource != nil {
			if src := s.opt.ClassSource(c.String()); src != nil {
				s.sources[c] = src
			}
		}
	}
	for c := Class(0); c < numClasses; c++ {
		s.queues[c] = newClassQueue()
		for w := 0; w < s.opt.Workers; w++ {
			s.workerWG.Add(1)
			go s.worker(c)
		}
	}
	return s, nil
}

// Metrics exposes the server's counters (read-only use).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Live exposes the server's continuous observability recorder.
func (s *Server) Live() *live.Recorder { return s.live }

// Timesteps returns the number of instances the resident graph holds —
// the live watermark when the dataset is being ingested into.
func (s *Server) Timesteps() int { return s.opt.Source.Timesteps() }

// Template returns the resident template.
func (s *Server) Template() *graph.Template { return s.opt.Template }

// Submit answers one query, blocking until it completes, is rejected, or
// ctx is cancelled. Errors unwrap to ErrBadQuery, ErrDraining, or
// *RejectError; anything else is an execution failure.
func (s *Server) Submit(ctx context.Context, q Query) (*Answer, error) {
	ans, lq, err := s.SubmitTraced(ctx, q)
	lq.Finish(StatusOf(err), err)
	return ans, err
}

// SubmitTraced is Submit with the lifecycle trace handed to the caller:
// the returned query carries the id for the X-Tsserve-Query-Id header and
// is still open so the caller can record post-processing stages (encode,
// flush) before calling Finish. The caller MUST Finish it exactly once.
func (s *Server) SubmitTraced(ctx context.Context, q Query) (*Answer, *live.Query, error) {
	lq := s.live.Begin()
	admitStart := time.Now()
	req, err := s.normalize(q)
	if err != nil {
		s.metrics.bad.Add(1)
		lq.Stage(live.StageAdmit, admitStart, time.Since(admitStart))
		return nil, lq, err
	}
	lq.SetClass(int(req.class))
	lq.Stage(live.StageAdmit, admitStart, time.Since(admitStart))
	req.live = lq

	start := time.Now()
	ans, err := s.resolve(ctx, req)
	dur := time.Since(start)
	if tr := s.opt.Tracer; tr.Active() {
		tr.RecordSpan(obs.SpanQuery, -1, int32(req.class), -1, s.queryID.Add(1), start, dur)
	}
	var rej *RejectError
	switch {
	case err == nil:
		s.metrics.ok[req.class].Add(1)
	case errors.As(err, &rej):
		s.metrics.rejected[req.class].Add(1)
	case errors.Is(err, ErrDraining):
		// Refused during drain (503); not a server failure.
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// Client went away; not a server failure.
	default:
		s.metrics.failed[req.class].Add(1)
	}
	return ans, lq, err
}

// StatusOf maps a Submit error to the lifecycle status the tail sampler
// keys retention off (and the HTTP layer maps to a status code).
func StatusOf(err error) live.Status {
	var rej *RejectError
	switch {
	case err == nil:
		return live.StatusOK
	case errors.As(err, &rej):
		return live.StatusRejected
	case errors.Is(err, ErrDraining):
		return live.StatusDraining
	case errors.Is(err, ErrBadQuery):
		return live.StatusBadQuery
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return live.StatusCanceled
	default:
		return live.StatusError
	}
}

// resolve walks the two result tiers — cached answer, identical in-flight
// query — before scheduling real work.
func (s *Server) resolve(ctx context.Context, req *request) (*Answer, error) {
	if s.results == nil {
		return s.schedule(ctx, req)
	}
	cacheStart := time.Now()
	ans, ok := s.results.get(req.key)
	req.live.Stage(live.StageCache, cacheStart, time.Since(cacheStart))
	if ok {
		s.metrics.resultHits[req.class].Add(1)
		req.live.SetCacheHit()
		return ans, nil
	}
	s.metrics.resultMisses[req.class].Add(1)

	s.inflightMu.Lock()
	if fl, ok := s.inflight[req.key]; ok {
		s.inflightMu.Unlock()
		s.metrics.flightJoins[req.class].Add(1)
		joinStart := time.Now()
		select {
		case <-fl.done:
			// The wait on the identical in-flight query is this query's
			// queue time.
			req.live.Stage(live.StageQueue, joinStart, time.Since(joinStart))
			return fl.ans, fl.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	fl := &flight{done: make(chan struct{})}
	s.inflight[req.key] = fl
	s.inflightMu.Unlock()

	ans, err := s.schedule(ctx, req)
	if err == nil {
		s.results.put(req.key, ans)
	}
	fl.ans, fl.err = ans, err
	s.inflightMu.Lock()
	delete(s.inflight, req.key)
	s.inflightMu.Unlock()
	close(fl.done)
	return ans, err
}

// schedule admits the request into its class queue and waits for a worker
// to answer it. Admission fails fast when the queue is full or the
// estimated wait already blows the deadline.
func (s *Server) schedule(ctx context.Context, req *request) (*Answer, error) {
	if s.drainingFlag.Load() {
		return nil, ErrDraining
	}
	cq := s.queues[req.class]
	est := s.estimateWait(req.class)
	cq.mu.Lock()
	if cq.closed {
		cq.mu.Unlock()
		return nil, ErrDraining
	}
	if len(cq.items) >= s.opt.QueueCap {
		cq.mu.Unlock()
		return nil, &RejectError{Reason: "queue full", RetryAfter: est}
	}
	if !req.deadline.IsZero() && time.Now().Add(est).After(req.deadline) {
		cq.mu.Unlock()
		return nil, &RejectError{Reason: "estimated wait exceeds deadline", RetryAfter: est}
	}
	cq.items = append(cq.items, req)
	cq.cond.Signal()
	cq.mu.Unlock()

	select {
	case <-req.done:
		return req.ans, req.err
	case <-ctx.Done():
		// The request stays queued; its batch completes without a reader.
		return nil, ctx.Err()
	}
}

// estimateWait projects how long a new arrival would queue: batches ahead
// of it divided across workers, times the recent batch service time.
func (s *Server) estimateWait(class Class) time.Duration {
	ema := s.metrics.emaBatchDur(class)
	if ema <= 0 {
		ema = 50 * time.Millisecond
	}
	batchesAhead := s.queues[class].depth()/s.opt.MaxBatch + 1
	workers := s.opt.Workers
	return ema * time.Duration((batchesAhead+workers-1)/workers)
}

// QueueWait returns the current queue-wait estimate for a class — the
// projection admission control uses. Exposed as an anomaly-detector
// signal (a sustained multiple of its baseline means the scheduler is
// falling behind).
func (s *Server) QueueWait(c Class) time.Duration { return s.estimateWait(c) }

// MaxQueueWait returns the worst queue-wait estimate across classes.
func (s *Server) MaxQueueWait() time.Duration {
	var worst time.Duration
	for c := Class(0); c < numClasses; c++ {
		if w := s.estimateWait(c); w > worst {
			worst = w
		}
	}
	return worst
}

// Draining reports whether Drain has started.
func (s *Server) Draining() bool { return s.drainingFlag.Load() }

// Drain stops admission, lets queued queries finish, and waits for the
// workers to exit (bounded by ctx). Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	if !s.drainingFlag.Swap(true) {
		for _, q := range s.queues {
			q.close()
		}
	}
	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains with a generous default bound; intended for tests and
// defer-style cleanup.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.Drain(ctx)
}
