package obs

import (
	"sync/atomic"
	"time"
)

// histogramBuckets is the number of finite bounds of a Histogram: with a
// 64µs first bound the last is 64µs·2^19 ≈ 33.6s, with 16µs ≈ 8.4s.
const histogramBuckets = 20

// Histogram is the repo's one latency histogram: histogramBuckets finite
// bounds that double from the first, plus overflow. Log spacing keeps the
// relative error constant across four decades, which is what tail-latency
// analysis needs (a fixed-width ring can't resolve both a 200µs cache hit
// and a 4s straggler sweep). Observe is lock-free and allocation-free: one
// bounded scan over the bounds, two atomic adds.
type Histogram struct {
	first  int64                               // ns; bucket i holds observations ≤ first<<i
	counts [histogramBuckets + 1]atomic.Uint64 // per-bucket (non-cumulative); last = overflow
	sumNS  atomic.Int64
}

// NewHistogram builds a histogram whose first finite bound is first: 64µs
// suits end-to-end serving latencies, 16µs storage and ingest stages.
func NewHistogram(first time.Duration) *Histogram {
	return &Histogram{first: int64(first)}
}

// Observe records one latency.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	i := 0
	for i < histogramBuckets && ns > h.first<<i {
		i++
	}
	h.counts[i].Add(1)
	h.sumNS.Add(ns)
}

// cumulative reads the finite buckets as cumulative counts plus the total.
// A concurrent Observe may straddle the reads; the skew is at most the
// in-flight observations, never a torn value.
func (h *Histogram) cumulative() (cum []uint64, count uint64) {
	cum = make([]uint64, histogramBuckets)
	for i := range cum {
		count += h.counts[i].Load()
		cum[i] = count
	}
	return cum, count + h.counts[histogramBuckets].Load()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	_, count := h.cumulative()
	return count
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// inside the bucket the rank falls in. Observations beyond the last finite
// bound clamp to it. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) time.Duration {
	cum, count := h.cumulative()
	if count == 0 {
		return 0
	}
	rank := q * float64(count)
	var prevCum uint64
	lower := int64(0)
	for i, c := range cum {
		upper := h.first << i
		if float64(c) >= rank {
			if c == prevCum {
				return time.Duration(upper)
			}
			frac := (rank - float64(prevCum)) / float64(c-prevCum)
			return time.Duration(lower + int64(frac*float64(upper-lower)))
		}
		prevCum, lower = c, upper
	}
	return time.Duration(lower)
}

// Emit renders the histogram as one Prometheus family member with labels.
func (h *Histogram) Emit(emit func(Sample), family, help string, labels []Label) {
	cum, count := h.cumulative()
	les := make([]float64, histogramBuckets)
	for i := range les {
		les[i] = time.Duration(h.first << i).Seconds()
	}
	EmitHistogram(emit, family, help, labels, les, cum,
		time.Duration(h.sumNS.Load()).Seconds(), count)
}
