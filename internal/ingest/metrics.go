package ingest

import (
	"sync/atomic"
	"time"

	"tsgraph/internal/obs"
)

// Metrics is the ingest tier's instrumentation: append counters, the
// published watermark, and the wall clock of the last successful append
// (the watermark-lag signal the anomaly detector watches). All fields are
// atomics; one Metrics is shared by the Ingester and the obs.Registry
// scraping it.
type Metrics struct {
	appends      atomic.Uint64
	failures     atomic.Uint64
	watermark    atomic.Int64
	lastAppendNS atomic.Int64 // wall clock of the last successful append, 0 = never
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
	emit(obs.Sample{Name: "tsingest_watermark",
		Help: "Published dataset watermark (timesteps durably visible to queries).",
		Kind: "gauge", Value: float64(m.watermark.Load())})
}
