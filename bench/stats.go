package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile for it
// to be reported: fewer and the number is one or two outliers, not a tail.
const minBeyond = 10

// sortedCopy returns the samples in ascending order without touching the
// caller's slice.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the middle sample (mean of the middle two for even counts);
// 0 for an empty set, which callers report as "layer not on this path".
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the p-quantile (nearest rank) of the samples and
// refuses when fewer than minBeyond samples lie beyond it.
func tailPercentile(v []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0,1)", p)
	}
	n := len(v)
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	return sortedCopy(v)[rank-1], nil
}

// tailLadder is the fallback order when a window yields too few samples
// for a workload's declared tail percentile.
var tailLadder = []float64{0.99, 0.95, 0.90, 0.75}

// supportedTail reports the declared percentile when the sample supports
// it, else the highest lower rung that does. A sample too small for any
// rung still gets its upper quartile (nearest rank), flagged by the third
// result, because a run must report a number: callers say so in the
// output.
func supportedTail(v []float64, declared float64) (value, used float64, supported bool) {
	for _, p := range tailLadder {
		if p > declared {
			continue
		}
		if x, err := tailPercentile(v, p); err == nil {
			return x, p, true
		}
	}
	if len(v) == 0 {
		return 0, 0.75, false
	}
	s := sortedCopy(v)
	return s[int(math.Ceil(0.75*float64(len(s))))-1], 0.75, false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durationsMS converts a latency sample to milliseconds.
func durationsMS(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = ms(x)
	}
	return out
}

// ratio is a/b with 0 for an empty denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// openLoop is the due-time accounting of a fixed-rate generator: request i
// is due at start + i/rate whether or not earlier ones have finished, and
// its latency is counted from that due time, so a stall charges every
// request it delays.
type openLoop struct {
	start    time.Time
	interval time.Duration
	lateness []time.Duration // send time − due time, per request
	latency  []time.Duration // completion − due time, per request
	backlog  int             // most requests simultaneously overdue
}

func newOpenLoop(start time.Time, rate float64) *openLoop {
	return &openLoop{start: start, interval: time.Duration(float64(time.Second) / rate)}
}

// due is when request i is scheduled.
func (o *openLoop) due(i int) time.Time { return o.start.Add(time.Duration(i) * o.interval) }

// record accounts request i, sent at sent and completed at done.
func (o *openLoop) record(i int, sent, done time.Time) {
	due := o.due(i)
	late := sent.Sub(due)
	if late < 0 {
		late = 0
	}
	o.lateness = append(o.lateness, late)
	o.latency = append(o.latency, done.Sub(due))
	// Requests i+1.. that came due before this one completed were waiting
	// behind it.
	if b := int(done.Sub(due) / o.interval); b > o.backlog {
		o.backlog = b
	}
}
