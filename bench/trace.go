package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one interval recorded at a layer boundary by the benchmark's own
// wrappers. Layer is the layer whose self time the span's uncovered part
// is. Op identifies the request: the client sends it as a header, the
// handler seam reads it there, and the seams below the /query handler
// (instance loads and sharded sweeps run on engine goroutines that see no
// request) take it from recorder.inFlight. Parent is assigned afterwards.
type span struct {
	Name   string
	Layer  string
	Op     int64
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
	Parent int
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory; they are written out when the run ends.
// Recording is off during the untraced phases, so an installed seam costs
// one atomic load.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	// inFlight is the op id of the /query request inside the handler seam
	// (or of the offline job that is running), 0 when there is none.
	// Traced phases keep one of them in flight at a time (ingest-live's
	// writer runs beside its reader, but nothing below the /ingest handler
	// has a seam), so this names the request a load or a sweep belongs to
	// without guessing from the clock.
	inFlight atomic.Int64
	mu       sync.Mutex
	spans    []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

func (r *recorder) add(name, layer string, op int64, start, end time.Time) {
	if !r.enabled() {
		return
	}
	s := span{Name: name, Layer: layer, Op: op, Start: start.Sub(r.epoch), End: end.Sub(r.epoch), Parent: -1}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// nest orders the spans by start time and gives each its parent. A span
// that knows its request (Op != 0) looks only among that request's spans,
// for the innermost earlier one that contains it: two requests in flight at
// once (ingest-live's append beside its reader's query) never adopt each
// other's spans, however their intervals fall. A span without an op falls
// back to the innermost earlier span of any request that contains it, and
// inherits that span's op. Concurrent siblings (two ranks loading at once)
// share a parent and their overlap is handled by selfTimes.
func nest(spans []span) []span {
	out := append([]span(nil), spans...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].End > out[j].End
	})
	// open[op] is the chain of op's spans that are still open at the
	// current start time, outermost first; open[0] holds every span.
	open := make(map[int64][]int)
	innermost := func(op int64, end time.Duration) int {
		stack := open[op]
		for len(stack) > 0 && out[stack[len(stack)-1]].End < end {
			stack = stack[:len(stack)-1]
		}
		open[op] = stack
		if len(stack) == 0 {
			return -1
		}
		return stack[len(stack)-1]
	}
	for i := range out {
		out[i].Parent = innermost(out[i].Op, out[i].End)
		if out[i].Op == 0 && out[i].Parent >= 0 {
			out[i].Op = out[out[i].Parent].Op
		}
		open[0] = append(open[0], i)
		if op := out[i].Op; op != 0 {
			open[op] = append(open[op], i)
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of it that its
// children cover (overlapping children counted once).
func selfTimes(nested []span) []time.Duration {
	children := make([][]int, len(nested))
	for i, s := range nested {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(nested))
	for i, s := range nested {
		covered := time.Duration(0)
		cursor := s.Start
		// Children are already in start order.
		for _, c := range children[i] {
			lo, hi := nested[c].Start, nested[c].End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// breakdown is what a traced phase yields: self time per layer, the total
// of the root (client-side) spans, and how much of that total belongs to
// roots under which the next seam down was actually seen.
type breakdown struct {
	LayerSelf map[string]time.Duration
	RootTotal time.Duration
	Explained time.Duration
	Roots     int
}

// analyze nests the spans and sums self time by layer. A root whose
// expected child seam never showed up is unexplained in full: the point of
// the share is to fail the run when the seams stop lining up with the
// client's view, not to restate that self times sum to the whole.
func analyze(spans []span, rootNeedsChild bool) breakdown {
	nested := nest(spans)
	self := selfTimes(nested)
	hasChild := make([]bool, len(nested))
	for _, s := range nested {
		if s.Parent >= 0 {
			hasChild[s.Parent] = true
		}
	}
	b := breakdown{LayerSelf: make(map[string]time.Duration)}
	for i, s := range nested {
		b.LayerSelf[s.Layer] += self[i]
		if s.Parent < 0 {
			b.Roots++
			b.RootTotal += s.dur()
			if hasChild[i] || !rootNeedsChild {
				b.Explained += s.dur()
			}
		}
	}
	return b
}

func (b breakdown) explainedShare() float64 {
	return ratio(float64(b.Explained), float64(b.RootTotal))
}

func (b breakdown) layerShare(layer string) float64 {
	return ratio(float64(b.LayerSelf[layer]), float64(b.RootTotal))
}

// chromeEvent is one complete ("X") event of the Chrome trace_event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as trace_event JSON (load it in
// chrome://tracing or ui.perfetto.dev). Rows are nesting depths, so a
// request reads top-down: client, handler, sweeper, source.
func writeChromeTrace(path string, spans []span) error {
	nested := nest(spans)
	depth := make([]int, len(nested))
	events := make([]chromeEvent, len(nested))
	for i, s := range nested {
		if s.Parent >= 0 {
			depth[i] = depth[s.Parent] + 1
		}
		events[i] = chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS: us(s.Start), Dur: us(s.dur()), PID: 1, TID: depth[i],
			Args: map[string]any{"op": s.Op, "parent": s.Parent},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
