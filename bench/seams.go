package main

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tsgraph/internal/algorithms"
	"tsgraph/internal/core"
	"tsgraph/internal/graph"
	"tsgraph/internal/serve"
)

// The wrappers below sit on the public seams the program already has
// (http.Handler, serve.Options.Source, serve.Options.Sweeper). They are
// installed only for traced runs; the end-to-end numbers are taken on
// servers built without them.

// opHeader carries the client's operation id to the handler seam.
const opHeader = "X-Bench-Op"

// seamStats accumulates call count and busy time at one seam whether or
// not span recording is on, so ratios are measured where the work happens.
type seamStats struct {
	calls atomic.Int64
	nanos atomic.Int64
	mu    sync.Mutex
	durs  []time.Duration
}

func (s *seamStats) observe(d time.Duration, keep bool) {
	s.calls.Add(1)
	s.nanos.Add(int64(d))
	if keep {
		s.mu.Lock()
		s.durs = append(s.durs, d)
		s.mu.Unlock()
	}
}

func (s *seamStats) samplesMS() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return durationsMS(s.durs)
}

// handlerSeam times every request through an http.Handler.
type handlerSeam struct {
	next  http.Handler
	name  string
	layer string
	// ownsBelow marks the handler whose requests reach the Source and
	// Sweeper seams (/query): it publishes its op id for them.
	ownsBelow bool
	rec       *recorder
	stats     seamStats
}

func (h *handlerSeam) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.rec.enabled() {
		h.next.ServeHTTP(w, r)
		return
	}
	op, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
	if h.ownsBelow {
		h.rec.inFlight.Store(op)
		defer h.rec.inFlight.Store(0)
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	h.stats.observe(end.Sub(start), true)
	h.rec.add(h.name, h.layer, op, start, end)
}

// sourceSeam times every instance load through a core.InstanceSource.
type sourceSeam struct {
	src   core.InstanceSource
	rec   *recorder
	stats *seamStats
}

func (s *sourceSeam) Timesteps() int { return s.src.Timesteps() }

func (s *sourceSeam) Load(ts int) (*graph.Instance, error) {
	start := time.Now()
	ins, err := s.src.Load(ts)
	end := time.Now()
	s.stats.observe(end.Sub(start), false)
	s.rec.add("load", "gofs", s.rec.inFlight.Load(), start, end)
	return ins, err
}

// Delta keeps delta-aware sources delta-aware through the wrapper.
func (s *sourceSeam) Delta(ts int) *graph.Delta {
	if ds, ok := s.src.(core.DeltaSource); ok {
		return ds.Delta(ts)
	}
	return nil
}

// sweeperSeam times every sweep through a serve.Sweeper (the shard router).
type sweeperSeam struct {
	next  serve.Sweeper
	rec   *recorder
	stats seamStats
}

func (s *sweeperSeam) observe(start time.Time) {
	end := time.Now()
	s.stats.observe(end.Sub(start), s.rec.enabled())
	s.rec.add("sweep", "shard", s.rec.inFlight.Load(), start, end)
}

func (s *sweeperSeam) SweepTDSP(ctx context.Context, watermark, depart int, queries []algorithms.BatchQuery) (serve.TDSPLookup, error) {
	defer s.observe(time.Now())
	return s.next.SweepTDSP(ctx, watermark, depart, queries)
}

func (s *sweeperSeam) SweepTopN(ctx context.Context, watermark int, attr string, n, from, count int) ([][]serve.RankEntry, error) {
	defer s.observe(time.Now())
	return s.next.SweepTopN(ctx, watermark, attr, n, from, count)
}

func (s *sweeperSeam) SweepMeme(ctx context.Context, watermark int, tag string, probes []int) (*serve.MemeSpread, error) {
	defer s.observe(time.Now())
	return s.next.SweepMeme(ctx, watermark, tag, probes)
}
