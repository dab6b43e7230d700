package obs

import (
	"testing"
	"time"
)

// TestHistogramQuantile: observations land in the right buckets and the
// interpolated quantiles are monotone and within bucket bounds.
func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(64 * time.Microsecond)
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram quantile = %v", got)
	}
	for i := 0; i < 900; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 100; i++ {
		h.Observe(50 * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
	if p50 > p99 {
		t.Fatalf("quantiles not monotone: p50=%v p99=%v", p50, p99)
	}
	if p50 < 64*time.Microsecond || p50 > 256*time.Microsecond {
		t.Errorf("p50 = %v, want ~100µs bucket", p50)
	}
	if p99 < 16*time.Millisecond || p99 > 128*time.Millisecond {
		t.Errorf("p99 = %v, want ~50ms bucket", p99)
	}
	// Overflow beyond the last finite bound still counts and clamps.
	h.Observe(10 * time.Minute)
	if cum, count := h.cumulative(); count != 1001 || cum[histogramBuckets-1] != 1000 {
		t.Fatalf("overflow observation lost: count=%d, last finite bucket %d", count, cum[histogramBuckets-1])
	}
}

// TestHistogramFirstBound: the bound given at construction is the first le
// of the exposition, and each later one doubles it.
func TestHistogramFirstBound(t *testing.T) {
	for _, first := range []time.Duration{16 * time.Microsecond, 64 * time.Microsecond} {
		h := NewHistogram(first)
		h.Observe(first)     // on the bound: first bucket
		h.Observe(first + 1) // just over: second bucket
		var les []string
		var vals []float64
		h.Emit(func(s Sample) {
			if s.Name == "x_bucket" {
				les = append(les, s.Labels[0].Value)
				vals = append(vals, s.Value)
			}
		}, "x", "help", nil)
		if len(les) != histogramBuckets+1 || les[0] != formatValue(first.Seconds()) ||
			les[1] != formatValue((2*first).Seconds()) || les[histogramBuckets] != "+Inf" {
			t.Fatalf("first %v: le labels %v", first, les)
		}
		if vals[0] != 1 || vals[1] != 2 || vals[histogramBuckets] != 2 {
			t.Fatalf("first %v: cumulative buckets %v", first, vals)
		}
	}
}
