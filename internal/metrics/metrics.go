// Package metrics records the timing decomposition and algorithm-progress
// counters the paper analyzes in §IV-D/E: per-partition compute time,
// partition overhead (message flushing after compute), sync overhead
// (barrier wait), and per-timestep application counters such as the number
// of vertices finalized or colored.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// PartitionStep is one partition's accounting for one BSP timestep.
type PartitionStep struct {
	// Compute is the time spent inside user Compute calls (summed across
	// the partition's subgraphs and supersteps; concurrent subgraph
	// executions all contribute).
	Compute time.Duration
	// Flush is the partition overhead: time spent routing and delivering
	// outgoing messages after compute completes.
	Flush time.Duration
	// Barrier is the sync overhead: time spent waiting on the global
	// superstep barrier (includes idling while other partitions compute).
	Barrier time.Duration
	// MsgsSent and MsgsRecv count messages crossing this partition's
	// boundary in either direction.
	MsgsSent int64
	MsgsRecv int64
	// Counters holds application-defined per-timestep counters (e.g.
	// "finalized" for TDSP, "colored" for meme tracking).
	Counters map[string]int64
}

func (p *PartitionStep) counter(name string) int64 {
	if p.Counters == nil {
		return 0
	}
	return p.Counters[name]
}

// AddCounter accumulates an application counter.
func (p *PartitionStep) AddCounter(name string, delta int64) {
	if p.Counters == nil {
		p.Counters = make(map[string]int64)
	}
	p.Counters[name] += delta
}

// TimestepRecord is the accounting for one TI-BSP timestep across all
// partitions.
type TimestepRecord struct {
	Timestep   int
	Supersteps int
	// Wall is the end-to-end wall time of the timestep, including instance
	// loading.
	Wall time.Duration
	// Load is the time the runner was blocked materializing the timestep's
	// graph instance (GoFS slice reads show up here as the paper's
	// every-10th-step spike).
	Load time.Duration
	// MsgsDropped counts messages addressed to unknown destinations that
	// the BSP engine discarded during this timestep (a program bug made
	// visible; see bsp.Result.MsgsDropped).
	MsgsDropped int64
	// Checkpoint is the time spent persisting the timestep-boundary
	// checkpoint (program-state serialization plus the GoFS write), zero
	// when checkpointing is off.
	Checkpoint time.Duration
	// SubgraphsSkipped counts subgraphs the incremental scheduler kept out
	// of this timestep's initial frontier (delta-clean and unaddressed);
	// zero on non-incremental runs.
	SubgraphsSkipped int
	// SimWall is the simulated cluster wall time of the timestep: the sum
	// over supersteps of the slowest host's (compute-makespan + flush),
	// plus the per-host share of instance loading and any synchronized GC
	// pause. On a single test machine the partitions execute interleaved,
	// so real Wall cannot show distributed scaling; SimWall is derived
	// from per-task measured durations scheduled onto the simulated
	// cluster (K hosts × CoresPerHost).
	SimWall time.Duration
	// Parts has one entry per partition.
	Parts []PartitionStep
}

// Recorder accumulates TimestepRecords for a whole TI-BSP run. It is safe
// for concurrent use by partition workers: each partition writes only its
// own PartitionStep slot, and record boundaries are serialized by the
// engine's barriers; the mutex protects the record list itself.
//
// Records are indexed by timestep and the index tolerates gaps: a run may
// begin timesteps sparsely or out of order (WhileMode early exits, halted
// distributed hosts, window-sampled replays) and every aggregation treats a
// never-begun timestep as an empty record rather than panicking.
type Recorder struct {
	mu sync.Mutex
	k  int
	// steps is indexed by timestep; nil entries are gaps.
	steps []*TimestepRecord
}

// NewRecorder creates a recorder for k partitions.
func NewRecorder(k int) *Recorder {
	return &Recorder{k: k}
}

// K returns the partition count the recorder was created with.
func (r *Recorder) K() int { return r.k }

// BeginTimestep returns the record for a timestep, creating it on first
// use. Timesteps may be begun in any order and with gaps; re-beginning a
// timestep returns the existing record. Records are heap-allocated
// individually, so the returned pointer stays valid (and safely writable by
// its own timestep's goroutine) even while concurrent timesteps grow the
// index. A negative timestep returns a detached record that is never
// aggregated (callers probing out-of-range steps get a safe sink).
func (r *Recorder) BeginTimestep(timestep int) *TimestepRecord {
	if timestep < 0 {
		return &TimestepRecord{Timestep: timestep, Parts: make([]PartitionStep, r.k)}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.steps) <= timestep {
		r.steps = append(r.steps, nil)
	}
	if r.steps[timestep] == nil {
		r.steps[timestep] = &TimestepRecord{
			Timestep: timestep,
			Parts:    make([]PartitionStep, r.k),
		}
	}
	return r.steps[timestep]
}

// NumTimesteps returns the recorded timestep range: the highest begun
// timestep plus one. Gaps inside the range read as empty records.
func (r *Recorder) NumTimesteps() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.steps)
}

// RecordedTimesteps returns how many timesteps were actually begun
// (excluding gaps).
func (r *Recorder) RecordedTimesteps() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for i := range r.steps {
		if r.steps[i] != nil {
			n++
		}
	}
	return n
}

// Step returns a copy of the i-th timestep record. Gaps and out-of-range
// indices return an empty record rather than panicking, so callers can
// iterate [0, NumTimesteps()) without tracking which timesteps ran.
func (r *Recorder) Step(i int) TimestepRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < 0 || i >= len(r.steps) || r.steps[i] == nil {
		return TimestepRecord{Timestep: i, Parts: make([]PartitionStep, r.k)}
	}
	rec := *r.steps[i]
	rec.Parts = append([]PartitionStep(nil), r.steps[i].Parts...)
	return rec
}

// forEach invokes f on every non-gap record with the lock held.
func (r *Recorder) forEach(f func(*TimestepRecord)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.steps {
		if r.steps[i] != nil {
			f(r.steps[i])
		}
	}
}

// series extracts one duration field per timestep (gaps read as zero).
func (r *Recorder) series(get func(*TimestepRecord) time.Duration) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]time.Duration, len(r.steps))
	for i := range r.steps {
		if r.steps[i] != nil {
			out[i] = get(r.steps[i])
		}
	}
	return out
}

// TotalWall sums wall time across all timesteps.
func (r *Recorder) TotalWall() time.Duration {
	var total time.Duration
	r.forEach(func(rec *TimestepRecord) { total += rec.Wall })
	return total
}

// WallSeries returns the per-timestep wall times (Fig 6).
func (r *Recorder) WallSeries() []time.Duration {
	return r.series(func(rec *TimestepRecord) time.Duration { return rec.Wall })
}

// LoadSeries returns the per-timestep blocked instance-load times.
func (r *Recorder) LoadSeries() []time.Duration {
	return r.series(func(rec *TimestepRecord) time.Duration { return rec.Load })
}

// TotalLoad sums the blocked instance-load time across all timesteps.
func (r *Recorder) TotalLoad() time.Duration {
	var total time.Duration
	r.forEach(func(rec *TimestepRecord) { total += rec.Load })
	return total
}

// TotalMsgsDropped sums dropped-message counts across all timesteps.
func (r *Recorder) TotalMsgsDropped() int64 {
	var total int64
	r.forEach(func(rec *TimestepRecord) { total += rec.MsgsDropped })
	return total
}

// SimWallSeries returns the per-timestep simulated cluster times (Fig 6).
func (r *Recorder) SimWallSeries() []time.Duration {
	return r.series(func(rec *TimestepRecord) time.Duration { return rec.SimWall })
}

// TotalSimWall sums simulated cluster time across all timesteps.
func (r *Recorder) TotalSimWall() time.Duration {
	var total time.Duration
	r.forEach(func(rec *TimestepRecord) { total += rec.SimWall })
	return total
}

// CounterSeries returns, for one partition, the per-timestep values of a
// named counter (Fig 7a/7c). Gaps and out-of-range partitions read as zero.
func (r *Recorder) CounterSeries(part int, name string) []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int64, len(r.steps))
	if part < 0 {
		return out
	}
	for i := range r.steps {
		if r.steps[i] != nil && part < len(r.steps[i].Parts) {
			out[i] = r.steps[i].Parts[part].counter(name)
		}
	}
	return out
}

// CounterTotal sums a named counter over all partitions and timesteps.
func (r *Recorder) CounterTotal(name string) int64 {
	var total int64
	r.forEach(func(rec *TimestepRecord) {
		for p := range rec.Parts {
			total += rec.Parts[p].counter(name)
		}
	})
	return total
}

// Utilization is one partition's aggregate time split (Fig 7b/7d).
type Utilization struct {
	Partition int
	Compute   time.Duration
	Flush     time.Duration
	Barrier   time.Duration
}

// Total returns the sum of the three components.
func (u Utilization) Total() time.Duration { return u.Compute + u.Flush + u.Barrier }

// ComputeFrac returns the compute share in [0,1] (0 when empty).
func (u Utilization) ComputeFrac() float64 {
	t := u.Total()
	if t == 0 {
		return 0
	}
	return float64(u.Compute) / float64(t)
}

// FlushFrac returns the partition-overhead share.
func (u Utilization) FlushFrac() float64 {
	t := u.Total()
	if t == 0 {
		return 0
	}
	return float64(u.Flush) / float64(t)
}

// BarrierFrac returns the sync-overhead share.
func (u Utilization) BarrierFrac() float64 {
	t := u.Total()
	if t == 0 {
		return 0
	}
	return float64(u.Barrier) / float64(t)
}

// Utilizations aggregates the time split per partition over all timesteps.
func (r *Recorder) Utilizations() []Utilization {
	out := make([]Utilization, r.k)
	for p := 0; p < r.k; p++ {
		out[p].Partition = p
	}
	r.forEach(func(rec *TimestepRecord) {
		for p := range rec.Parts {
			if p >= len(out) {
				break
			}
			ps := &rec.Parts[p]
			out[p].Compute += ps.Compute
			out[p].Flush += ps.Flush
			out[p].Barrier += ps.Barrier
		}
	})
	return out
}

// PartMessages returns per-partition totals of messages sent and received.
func (r *Recorder) PartMessages() (sent, recv []int64) {
	sent = make([]int64, r.k)
	recv = make([]int64, r.k)
	r.forEach(func(rec *TimestepRecord) {
		for p := range rec.Parts {
			if p >= r.k {
				break
			}
			sent[p] += rec.Parts[p].MsgsSent
			recv[p] += rec.Parts[p].MsgsRecv
		}
	})
	return sent, recv
}

// ComputeSkew returns the straggler ratio of the run: the maximum
// partition's total compute time divided by the median partition's. 1.0 is
// a perfectly balanced run; 0 means no compute was recorded. The
// per-superstep refinement (which superstep, which subgraph) lives in
// internal/obs.SkewReport.
func (r *Recorder) ComputeSkew() float64 {
	utils := r.Utilizations()
	if len(utils) == 0 {
		return 0
	}
	computes := make([]time.Duration, len(utils))
	for i, u := range utils {
		computes[i] = u.Compute
	}
	sort.Slice(computes, func(i, j int) bool { return computes[i] < computes[j] })
	med := computes[len(computes)/2]
	max := computes[len(computes)-1]
	if med <= 0 {
		if max > 0 {
			return float64(len(computes)) // degenerate: median partition idle
		}
		return 0
	}
	return float64(max) / float64(med)
}

// TotalSubgraphsSkipped sums the incremental scheduler's skip counts across
// all timesteps (zero on non-incremental runs).
func (r *Recorder) TotalSubgraphsSkipped() int {
	total := 0
	r.forEach(func(rec *TimestepRecord) { total += rec.SubgraphsSkipped })
	return total
}

// TotalSupersteps sums supersteps across timesteps.
func (r *Recorder) TotalSupersteps() int {
	total := 0
	r.forEach(func(rec *TimestepRecord) { total += rec.Supersteps })
	return total
}

// TotalMessages sums messages sent across all partitions and timesteps.
func (r *Recorder) TotalMessages() int64 {
	var total int64
	r.forEach(func(rec *TimestepRecord) {
		for p := range rec.Parts {
			total += rec.Parts[p].MsgsSent
		}
	})
	return total
}

// CounterNames returns the sorted union of counter names seen anywhere.
func (r *Recorder) CounterNames() []string {
	set := map[string]struct{}{}
	r.forEach(func(rec *TimestepRecord) {
		for p := range rec.Parts {
			for name := range rec.Parts[p].Counters {
				set[name] = struct{}{}
			}
		}
	})
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Summary renders a one-line human summary of the run, including the
// dropped-message count (a visible program bug) and the compute skew ratio
// (max/median partition compute; the straggler headline of §IV-D).
func (r *Recorder) Summary() string {
	s := fmt.Sprintf("timesteps=%d supersteps=%d wall=%v msgs=%d dropped=%d",
		r.NumTimesteps(), r.TotalSupersteps(), r.TotalWall().Round(time.Millisecond),
		r.TotalMessages(), r.TotalMsgsDropped())
	if skew := r.ComputeSkew(); skew > 0 {
		s += fmt.Sprintf(" skew=%.2f", skew)
	}
	return s
}
