package ingest

import (
	"sync/atomic"
	"time"

	"tsgraph/internal/obs"
)

// Ingest-stage indices for the per-stage latency histograms.
const (
	stageValidate = iota
	stageWAL
	stageFold
	stagePublish
	numStages
)

var stageNames = [numStages]string{"validate", "wal", "fold", "publish"}

// Metrics is the ingest tier's instrumentation: append counters, per-stage
// latency histograms (validate → wal → fold → publish), WAL fsync latency
// and size, the published watermark, and the watermark lag (seconds since
// the last successful append — the signal the anomaly detector watches).
// All fields are atomics; one Metrics is shared by the Ingester and the
// obs.Registry scraping it.
type Metrics struct {
	appends      atomic.Uint64
	failures     atomic.Uint64
	stages       [numStages]*obs.Histogram
	walFsync     *obs.Histogram
	walBytes     atomic.Int64
	watermark    atomic.Int64
	lastAppendNS atomic.Int64 // wall clock of the last successful append, 0 = never
}

func newMetrics() *Metrics {
	m := &Metrics{walFsync: obs.NewHistogram(16 * time.Microsecond)}
	for i := range m.stages {
		m.stages[i] = obs.NewHistogram(16 * time.Microsecond)
	}
	return m
}

// observeStage records one stage's wall time.
func (m *Metrics) observeStage(stage int, d time.Duration) {
	if m == nil {
		return
	}
	m.stages[stage].Observe(d)
}

// SecondsSinceLastAppend returns the watermark lag: how long ago the last
// successful append published, 0 when nothing was ever appended (a fresh
// dataset is not lagging, it is idle).
func (m *Metrics) SecondsSinceLastAppend() float64 {
	if m == nil {
		return 0
	}
	ns := m.lastAppendNS.Load()
	if ns == 0 {
		return 0
	}
	return time.Since(time.Unix(0, ns)).Seconds()
}

// CollectObs implements obs.Collector with the tsingest_* families.
func (m *Metrics) CollectObs(emit func(obs.Sample)) {
	emit(obs.Sample{Name: "tsingest_appends_total",
		Help: "Timesteps successfully folded and published.",
		Kind: "counter", Value: float64(m.appends.Load())})
	emit(obs.Sample{Name: "tsingest_append_failures_total",
		Help: "Mutations rejected or failed at any ingest stage.",
		Kind: "counter", Value: float64(m.failures.Load())})
	for i := range m.stages {
		m.stages[i].Emit(emit, "tsingest_stage_seconds",
			"Wall time per ingest stage (validate, wal, fold, publish).",
			[]obs.Label{{Key: "stage", Value: stageNames[i]}})
	}
	m.walFsync.Emit(emit, "tsingest_wal_fsync_seconds",
		"Wall time of the WAL fsync on each append.", nil)
	emit(obs.Sample{Name: "tsingest_wal_bytes",
		Help: "Current size of the ingest write-ahead log.",
		Kind: "gauge", Value: float64(m.walBytes.Load())})
	emit(obs.Sample{Name: "tsingest_watermark",
		Help: "Published dataset watermark (timesteps durably visible to queries).",
		Kind: "gauge", Value: float64(m.watermark.Load())})
	emit(obs.Sample{Name: "tsingest_watermark_lag_seconds",
		Help: "Seconds since the watermark last advanced (0 = never appended).",
		Kind: "gauge", Value: m.SecondsSinceLastAppend()})
}
