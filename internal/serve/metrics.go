package serve

import (
	"sync/atomic"
	"time"

	"tsgraph/internal/obs"
)

// Metrics counts everything the serving layer does. All fields are updated
// atomically; the struct doubles as the server's obs.Collector source.
// Latency distributions live in the server's live.Recorder (log-bucketed
// histograms per class and stage), not here.
type Metrics struct {
	ok       [numClasses]atomic.Int64 // answered 200
	rejected [numClasses]atomic.Int64 // admission-control 429
	bad      atomic.Int64             // validation 400
	failed   [numClasses]atomic.Int64 // execution error 500

	resultHits   [numClasses]atomic.Int64
	resultMisses [numClasses]atomic.Int64
	flightJoins  [numClasses]atomic.Int64

	sweeps         [numClasses]atomic.Int64 // TI-BSP jobs actually run
	batches        atomic.Int64
	batchedQueries atomic.Int64

	// emaBatch is an exponential moving average of batch service time per
	// class (nanoseconds); admission control turns it into Retry-After.
	emaBatch [numClasses]atomic.Int64
}

func newMetrics() *Metrics { return &Metrics{} }

// Sweeps returns how many TI-BSP jobs of a class have executed.
func (m *Metrics) Sweeps(c Class) int64 { return m.sweeps[c].Load() }

// ResultHits returns the result-cache hit count of a class.
func (m *Metrics) ResultHits(c Class) int64 { return m.resultHits[c].Load() }

// ResultMisses returns the result-cache miss count of a class.
func (m *Metrics) ResultMisses(c Class) int64 { return m.resultMisses[c].Load() }

// FlightJoins returns how many queries joined an identical in-flight query.
func (m *Metrics) FlightJoins(c Class) int64 { return m.flightJoins[c].Load() }

// Batches returns the number of micro-batches executed.
func (m *Metrics) Batches() int64 { return m.batches.Load() }

// BatchedQueries returns the number of queries answered through batches.
func (m *Metrics) BatchedQueries() int64 { return m.batchedQueries.Load() }

// Answered returns the number of successfully answered queries of a class.
func (m *Metrics) Answered(c Class) int64 { return m.ok[c].Load() }

// Rejected returns the admission-control rejection count of a class.
func (m *Metrics) Rejected(c Class) int64 { return m.rejected[c].Load() }

// observeBatch accounts one executed micro-batch and returns its sequence
// number (1-based), which lifecycle traces record as the coalescing
// decision.
func (m *Metrics) observeBatch(c Class, n int, dur time.Duration) int64 {
	m.sweeps[c].Add(1)
	seq := m.batches.Add(1)
	m.batchedQueries.Add(int64(n))
	for {
		old := m.emaBatch[c].Load()
		ema := dur.Nanoseconds()
		if old > 0 {
			ema = (3*old + ema) / 4
		}
		if m.emaBatch[c].CompareAndSwap(old, ema) {
			return seq
		}
	}
}

func (m *Metrics) emaBatchDur(c Class) time.Duration {
	return time.Duration(m.emaBatch[c].Load())
}

// CollectObs implements obs.Collector for the server: Prometheus-ready
// counters and gauges under the tsserve_ prefix.
func (s *Server) CollectObs(emit func(obs.Sample)) {
	m := s.metrics
	cl := func(c Class) []obs.Label { return []obs.Label{{Key: "class", Value: c.String()}} }
	for c := Class(0); c < numClasses; c++ {
		emit(obs.Sample{Name: "tsserve_queries_answered_total", Help: "Queries answered successfully.",
			Kind: "counter", Labels: cl(c), Value: float64(m.ok[c].Load())})
		emit(obs.Sample{Name: "tsserve_queries_failed_total", Help: "Queries that failed during execution (HTTP 500).",
			Kind: "counter", Labels: cl(c), Value: float64(m.failed[c].Load())})
		emit(obs.Sample{Name: "tsserve_queue_depth", Help: "Queries waiting in the class queue.",
			Kind: "gauge", Labels: cl(c), Value: float64(s.queues[c].depth())})
	}
	// Latency histograms (per class and stage), flight-recorder accounting
	// and the SLO family come from the live recorder.
	s.live.CollectObs(emit)
	emit(obs.Sample{Name: "tsserve_queries_bad_total", Help: "Queries failing validation (HTTP 400).",
		Kind: "counter", Value: float64(m.bad.Load())})
}
