package obs

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// SpanKind classifies a trace span. Kinds are fixed so recording stores a
// byte instead of a string; names are resolved at export time.
type SpanKind uint8

const (
	// SpanTimestep covers one whole TI-BSP timestep (driver lane).
	SpanTimestep SpanKind = iota
	// SpanLoad is the blocked instance-load portion of a timestep.
	SpanLoad
	// SpanComputePhase is one partition worker's compute window of one
	// superstep (dispatch of all active subgraphs until the last returns).
	SpanComputePhase
	// SpanCompute is a single subgraph's Compute invocation.
	SpanCompute
	// SpanFlush is one worker's message-routing window after compute.
	SpanFlush
	// SpanBarrier is one worker's synchronization window: from its flush end
	// to its next compute dispatch (end barrier, coordinator routing,
	// snapshot) — the wall-clock "sync overhead" of a superstep.
	SpanBarrier
	// SpanExchange is a between-timesteps temporal/coordination exchange.
	SpanExchange
	// SpanWireSend is one cross-rank frame group leaving this rank: Part is
	// the destination rank and SID the packed (sender rank, send seq) wire
	// id (see PackWireID), so the matching SpanWireRecv on the destination
	// resolves back to it.
	SpanWireSend
	// SpanWireRecv is one cross-rank frame group arriving at this rank:
	// Part is the sender rank and SID the sender's packed wire id.
	SpanWireRecv
	// SpanStall is a watchdog warning: a superstep made no progress because
	// the rank/partition in Part never arrived at the barrier. Start is the
	// barrier-wait start and Dur the wait observed when the warning fired;
	// Chrome export renders it as an instant event.
	SpanStall
	// SpanQuery is one served query's residence in the serving layer
	// (internal/serve), admission to response. Part is -1 (driver lane), TS
	// the query class, and SID a serial query id.
	SpanQuery
	// SpanBatch is one micro-batch execution in the serving layer: a single
	// TI-BSP sweep answering SID coalesced queries of class TS. Part is -1.
	SpanBatch
	// SpanShard is one rank's share of a scatter/gathered sweep in the
	// sharded serving tier: Part is the executing rank, TS the query class,
	// SID the router's sweep serial. The router records these from the
	// ranks' self-reported sweep times so one flight-recorder trace shows
	// where a distributed query's wall time went.
	SpanShard

	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{
	"timestep", "load", "compute-phase", "compute", "flush", "barrier", "exchange",
	"wire-send", "wire-recv", "stall", "query", "batch", "shard",
}

// PackWireID packs a sender rank and its logical send sequence into the SID
// of a wire span. The pair uniquely names one frame group cluster-wide, so a
// receiver's SpanWireRecv carries the same packed id as the sender's
// SpanWireSend.
func PackWireID(rank int, seq int64) int64 {
	return int64(rank)<<48 | (seq & (1<<48 - 1))
}

// UnpackWireID splits a packed wire id into (sender rank, send seq).
func UnpackWireID(id int64) (rank int, seq int64) {
	return int(id >> 48), id & (1<<48 - 1)
}

// String names the kind.
func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return "unknown"
}

// Span is one completed trace interval. All fields are plain scalars so a
// recording is a single struct store into the preallocated ring.
type Span struct {
	Kind SpanKind
	// Part is the partition the span belongs to, or -1 for driver-level
	// spans (timestep, load, exchange).
	Part int32
	// TS is the TI-BSP timestep, or -1 when unknown (e.g. raw engine runs).
	TS int32
	// Step is the superstep within the timestep, or -1 where not
	// applicable.
	Step int32
	// SID is the packed subgraph.ID for SpanCompute spans, 0 otherwise.
	SID int64
	// Start is nanoseconds since the tracer's epoch.
	Start int64
	// Dur is the span length in nanoseconds.
	Dur int64
}

// StepStat is one partition's simulated-schedule decomposition of one
// superstep, recorded by the engine coordinator. It is the per-superstep
// refinement of metrics.PartitionStep and the input to skew analysis: the
// barrier component is exactly how long this partition idled waiting for
// the superstep's straggler.
type StepStat struct {
	TS, Step, Part          int32
	Compute, Flush, Barrier int64 // nanoseconds, simulated schedule
}

// Tracer records spans and superstep stats into fixed-size rings. Recording
// is lock-free and allocation-free: a single atomic counter increment
// claims a slot, and the ring overwrites the oldest entries when full (the
// tail of a long run is usually what an investigation needs). The span ring
// is sharded by partition so concurrent workers never contend on one
// cursor's cache line; exporting while a run is in flight is best-effort (a
// slot being overwritten during the copy can tear), so export after the run
// or from a quiesced engine for exact traces.
//
// A nil *Tracer is valid and permanently disabled, so instrumented code
// needs no configuration branches beyond the Active check.
type Tracer struct {
	enabled atomic.Bool
	epoch   time.Time

	shards [spanShards]spanShard

	stats    []StepStat
	statMask uint64
	statCur  atomic.Uint64
}

// spanShards is the number of independent span rings (power of two).
// Partition p records into shard (p+1)&(spanShards-1); driver-level spans
// (Part = -1) land in shard 0.
const spanShards = 16

type spanShard struct {
	cur atomic.Uint64
	// Pad the cursor onto its own cache line; shards sit in an array, so
	// without this every worker's counter increment would invalidate its
	// neighbors'.
	_    [56]byte
	ring []Span
	mask uint64
}

// DefaultSpanCapacity is the default total span capacity (entries across
// all shards, rounded up so each shard is a power of two). 1<<16 spans
// ≈ 3 MB — enough for ~250 supersteps of a 64-subgraph run before wrapping.
const DefaultSpanCapacity = 1 << 16

// NewTracer creates a tracer with the given total span capacity (entries;
// ≤0 means DefaultSpanCapacity), split evenly across the partition shards.
// The superstep-stat ring is sized at a quarter of the span capacity. The
// tracer starts disabled.
func NewTracer(spanCap int) *Tracer {
	if spanCap <= 0 {
		spanCap = DefaultSpanCapacity
	}
	perShard := ceilPow2((spanCap + spanShards - 1) / spanShards)
	if perShard < 256 {
		perShard = 256
	}
	statCap := ceilPow2(spanCap / 4)
	if statCap < 1024 {
		statCap = 1024
	}
	t := &Tracer{
		epoch:    time.Now(),
		stats:    make([]StepStat, statCap),
		statMask: uint64(statCap - 1),
	}
	for i := range t.shards {
		t.shards[i].ring = make([]Span, perShard)
		t.shards[i].mask = uint64(perShard - 1)
	}
	return t
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Active reports whether recording is on. Nil-safe; this is the gate every
// instrumentation site checks before doing any measurement work.
func (t *Tracer) Active() bool { return t != nil && t.enabled.Load() }

// Enable turns recording on. Nil-safe no-op.
func (t *Tracer) Enable() {
	if t != nil {
		t.enabled.Store(true)
	}
}

// Disable turns recording off; already-recorded data stays exportable.
func (t *Tracer) Disable() {
	if t != nil {
		t.enabled.Store(false)
	}
}

// Epoch returns the tracer's time origin.
func (t *Tracer) Epoch() time.Time { return t.epoch }

// RecordSpan records a completed interval. Allocation-free; safe for
// concurrent use (each partition writes its own shard). No-op when the
// tracer is nil or disabled.
func (t *Tracer) RecordSpan(kind SpanKind, part, ts, step int32, sid int64, start time.Time, dur time.Duration) {
	if !t.Active() {
		return
	}
	s := &t.shards[uint32(part+1)&(spanShards-1)]
	i := s.cur.Add(1) - 1
	s.ring[i&s.mask] = Span{
		Kind: kind, Part: part, TS: ts, Step: step, SID: sid,
		Start: start.Sub(t.epoch).Nanoseconds(), Dur: dur.Nanoseconds(),
	}
}

// RecordPhases records one worker superstep's compute-phase and flush
// windows with a single slot claim (both spans share the worker's shard).
// Allocation-free; no-op when the tracer is nil or disabled.
func (t *Tracer) RecordPhases(part, ts, step int32, phaseStart, computeDone, flushDone time.Time) {
	if !t.Active() {
		return
	}
	s := &t.shards[uint32(part+1)&(spanShards-1)]
	i := s.cur.Add(2) - 2
	start := phaseStart.Sub(t.epoch).Nanoseconds()
	mid := computeDone.Sub(t.epoch).Nanoseconds()
	s.ring[i&s.mask] = Span{
		Kind: SpanComputePhase, Part: part, TS: ts, Step: step,
		Start: start, Dur: mid - start,
	}
	s.ring[(i+1)&s.mask] = Span{
		Kind: SpanFlush, Part: part, TS: ts, Step: step,
		Start: mid, Dur: flushDone.Sub(t.epoch).Nanoseconds() - mid,
	}
}

// RecordStepStat records one partition's simulated decomposition of one
// superstep. Allocation-free; safe for concurrent use.
func (t *Tracer) RecordStepStat(ts, step, part int32, compute, flush, barrier time.Duration) {
	if !t.Active() {
		return
	}
	i := t.statCur.Add(1) - 1
	t.stats[i&t.statMask] = StepStat{
		TS: ts, Step: step, Part: part,
		Compute: compute.Nanoseconds(), Flush: flush.Nanoseconds(), Barrier: barrier.Nanoseconds(),
	}
}

// ringSnapshot copies the live entries of a ring in record order.
func ringSnapshot[T any](ring []T, cur uint64, mask uint64) []T {
	n := cur
	capacity := uint64(len(ring))
	if n == 0 {
		return nil
	}
	if n <= capacity {
		out := make([]T, n)
		copy(out, ring[:n])
		return out
	}
	// Wrapped: oldest surviving entry is at cur&mask.
	out := make([]T, capacity)
	head := cur & mask
	copy(out, ring[head:])
	copy(out[capacity-head:], ring[:head])
	return out
}

// Spans returns a snapshot of the recorded spans merged across shards and
// sorted by start time. Nil-safe.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for i := range t.shards {
		s := &t.shards[i]
		out = append(out, ringSnapshot(s.ring, s.cur.Load(), s.mask)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// StepStats returns a snapshot of the recorded superstep stats, oldest
// first. Nil-safe.
func (t *Tracer) StepStats() []StepStat {
	if t == nil {
		return nil
	}
	return ringSnapshot(t.stats, t.statCur.Load(), t.statMask)
}

// SpansRecorded returns how many spans were ever recorded (including
// entries the rings have since overwritten).
func (t *Tracer) SpansRecorded() uint64 {
	if t == nil {
		return 0
	}
	var n uint64
	for i := range t.shards {
		n += t.shards[i].cur.Load()
	}
	return n
}

// SpansDropped returns how many spans the rings overwrote.
func (t *Tracer) SpansDropped() uint64 {
	if t == nil {
		return 0
	}
	var dropped uint64
	for i := range t.shards {
		s := &t.shards[i]
		if n, c := s.cur.Load(), uint64(len(s.ring)); n > c {
			dropped += n - c
		}
	}
	return dropped
}

// Summary renders a one-line human summary of the tracer's ring
// accounting, including the dropped-span count so a wrapped ring (spans
// silently overwritten) is visible wherever run summaries are printed.
// Nil-safe.
func (t *Tracer) Summary() string {
	if t == nil {
		return "tracer off"
	}
	return fmt.Sprintf("spans=%d dropped=%d", t.SpansRecorded(), t.SpansDropped())
}

// Reset discards all recorded data (the enabled flag is unchanged).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	for i := range t.shards {
		t.shards[i].cur.Store(0)
	}
	t.statCur.Store(0)
	t.epoch = time.Now()
}

// Shard snapshots the tracer's recorded data as one rank's shard of a
// cluster trace, ready to ship to the merging rank. offset is the estimated
// clock offset of this rank relative to the merge reference (local clock
// minus reference clock; see cluster.Node.OffsetToRank0). Nil-safe.
func (t *Tracer) Shard(rank int, offset time.Duration) TraceShard {
	s := TraceShard{Rank: rank, OffsetNanos: offset.Nanoseconds()}
	if t == nil {
		return s
	}
	s.EpochUnixNano = t.epoch.UnixNano()
	s.Spans = t.Spans()
	s.Stats = t.StepStats()
	return s
}

// CollectObs implements Collector with the tracer's own bookkeeping.
func (t *Tracer) CollectObs(emit func(Sample)) {
	if t == nil {
		return
	}
	emit(Sample{Name: "tsgraph_trace_spans_total", Help: "Trace spans recorded since the last reset.", Kind: "counter", Value: float64(t.SpansRecorded())})
	emit(Sample{Name: "tsgraph_trace_enabled", Help: "Whether span recording is currently enabled.", Kind: "gauge", Value: boolToFloat(t.enabled.Load())})
}

func boolToFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
