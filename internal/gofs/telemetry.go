package gofs

import (
	"io"
	"sync/atomic"
	"time"

	"tsgraph/internal/obs"
)

// Telemetry is the storage tier's instrumentation: latency histograms for
// pack decodes and slice-file reads, a bytes-read counter, and static
// encoding-shape gauges (delta-chain depth, snapshot/delta step split)
// computed from the manifest. Every Store carries one (created at Open),
// so InstanceCache, ReadPackDeltas and LoadAll all feed the same counters
// without any caller wiring; a daemon that wants the families on
// /metrics registers the store's Telemetry with its obs.Registry.
//
// Observation is two atomic adds plus a bounded scan over 20 bucket
// bounds — cheap relative to the milliseconds a pack decode or file read
// costs, so the storage hot path stays undistorted.
type Telemetry struct {
	packDecode *obs.Histogram
	sliceRead  *obs.Histogram
	bytesRead  atomic.Int64

	// Encoding shape, computed from the manifest at Open and refreshed on
	// every live-append publish (atomics because scrapes race appends).
	maxChainDepth atomic.Int64
	snapshotSteps atomic.Int64
	deltaSteps    atomic.Int64
}

// newTelemetry precomputes the dataset's encoding shape. The delta-chain
// depth is the longest run of consecutive delta records — the worst-case
// number of patches a decode applies on top of a snapshot (always 0 for
// full-format datasets).
func newTelemetry(m *Manifest) *Telemetry {
	// 16µs first bound: the last finite one is ~8.4s, so pack decodes on
	// cold spinning storage fit.
	t := &Telemetry{
		packDecode: obs.NewHistogram(16 * time.Microsecond),
		sliceRead:  obs.NewHistogram(16 * time.Microsecond),
	}
	t.updateShape(m)
	return t
}

// updateShape recomputes the encoding-shape gauges for a manifest
// generation; Store.publish calls it so a growing dataset's scrape stays
// truthful.
func (t *Telemetry) updateShape(m *Manifest) {
	if t == nil {
		return
	}
	var maxChain, snaps, dsteps int64
	if m.SnapshotEvery > 0 {
		var run int64
		for s := 0; s < m.Timesteps; s++ {
			if m.snapshotStep(s) {
				snaps++
				run = 0
			} else {
				dsteps++
				run++
				if run > maxChain {
					maxChain = run
				}
			}
		}
	} else {
		snaps = int64(m.Timesteps)
	}
	t.maxChainDepth.Store(maxChain)
	t.snapshotSteps.Store(snaps)
	t.deltaSteps.Store(dsteps)
}

// ObservePackDecode records one pack materialization's wall time.
func (t *Telemetry) ObservePackDecode(d time.Duration) {
	if t == nil {
		return
	}
	t.packDecode.Observe(d)
}

// ObserveSliceRead records one slice-file read's wall time.
func (t *Telemetry) ObserveSliceRead(d time.Duration) {
	if t == nil {
		return
	}
	t.sliceRead.Observe(d)
}

// SliceReads returns the number of slice-file reads so far.
func (t *Telemetry) SliceReads() uint64 {
	if t == nil {
		return 0
	}
	return t.sliceRead.Count()
}

// AddBytesRead accumulates slice-file bytes read off disk.
func (t *Telemetry) AddBytesRead(n int64) {
	if t == nil {
		return
	}
	t.bytesRead.Add(n)
}

// BytesRead returns the cumulative bytes read off disk.
func (t *Telemetry) BytesRead() int64 {
	if t == nil {
		return 0
	}
	return t.bytesRead.Load()
}

// CollectObs implements obs.Collector with the tsgofs_* families.
func (t *Telemetry) CollectObs(emit func(obs.Sample)) {
	t.packDecode.Emit(emit, "tsgofs_pack_decode_seconds",
		"Wall time materializing one temporal pack (all slice files decoded and assembled).", nil)
	t.sliceRead.Emit(emit, "tsgofs_slice_read_seconds",
		"Wall time reading and decoding one slice file.", nil)
	emit(obs.Sample{Name: "tsgofs_bytes_read_total",
		Help: "Bytes read from slice files.",
		Kind: "counter", Value: float64(t.bytesRead.Load())})
	emit(obs.Sample{Name: "tsgofs_delta_chain_depth",
		Help: "Longest run of delta records a decode patches on top of a snapshot (0 = full-format).",
		Kind: "gauge", Value: float64(t.maxChainDepth.Load())})
	emit(obs.Sample{Name: "tsgofs_snapshot_steps",
		Help: "Timesteps stored as full snapshots.",
		Kind: "gauge", Value: float64(t.snapshotSteps.Load())})
	emit(obs.Sample{Name: "tsgofs_delta_steps",
		Help: "Timesteps stored as delta records.",
		Kind: "gauge", Value: float64(t.deltaSteps.Load())})
}

// countingReader counts bytes pulled through it into a Telemetry.
type countingReader struct {
	r io.Reader
	t *Telemetry
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.t.AddBytesRead(int64(n))
	return n, err
}
