package algorithms

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync/atomic"

	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/graph"
	"tsgraph/internal/metrics"
	"tsgraph/internal/obs"
	"tsgraph/internal/subgraph"
)

// CounterFinalized is the per-partition metric a single-source TDSP run
// (NewTDSP) accumulates: the number of vertices whose time-dependent
// shortest path was finalized in a timestep (the paper's Fig 7a).
const CounterFinalized = "finalized"

// CounterTargetsDone is the per-partition metric a batched TDSP run
// (NewBatchTDSP) accumulates: the number of (query, target) pairs finalized
// in a timestep. A single-process sweep stops once every target of every
// query is resolved.
const CounterTargetsDone = "targets-finalized"

// TDSPResult is one finalized vertex of a single-source run: the earliest
// time it can be reached from the source starting at t0.
type TDSPResult struct {
	Vertex   graph.VertexID
	Timestep int
	Arrival  float64
}

// BatchQuery is one source of a multi-source TDSP batch, with the target
// vertices its clients asked about.
type BatchQuery struct {
	// Source is the template vertex index of the departure vertex.
	Source int
	// Targets are template vertex indices whose arrivals the batch must
	// resolve. The run halts early once every target of every query is
	// finalized; a query with no targets disables early halting and runs
	// its source to the end of the window.
	Targets []int
}

// BatchLabelBatch is a LabelBatch tagged with the batch query it belongs to
// (the boundary-update payload of a TDSP sweep).
type BatchLabelBatch struct {
	Source   int32
	Vertices []int32
	Labels   []float64
}

// BatchVertexSet is a VertexSet tagged with the batch query it belongs to
// (the per-source finalized set riding the temporal edge).
type BatchVertexSet struct {
	Source   int32
	Vertices []int32
}

func init() {
	registerPayload(BatchLabelBatch{})
	registerPayload(BatchVertexSet{})
}

// vloc locates a template vertex inside the partitioned view.
type vloc struct {
	pid int
	lv  int32
	sgi int32 // subgraph index within the partition
}

// srcSeed is one batch query's source vertex inside a subgraph.
type srcSeed struct {
	si int
	lv int32
}

// BatchTDSPProgram is the repo's one implementation of Algorithm 2 of the
// paper: discrete-time Time-Dependent Shortest Path over a sequentially
// dependent TI-BSP run. Each timestep runs a horizon-capped SSSP over that
// instance's edge latencies; vertices reached within the current interval
// are finalized and become, via the uni-directional temporal ("idling")
// edges, the seeds of the next timestep at label timestep·δ.
//
// It runs the algorithm for many sources simultaneously over ONE sweep:
// per-source label/finalized state is kept side by side (flattened
// [source][vertex] arrays per partition), messages are tagged with their
// source, and each timestep's ModifiedSSSP runs once per source with roots.
// The per-timestep fixed costs — instance load, superstep barriers, engine
// setup — are paid once for the whole batch, which is what makes
// micro-batched serving (internal/serve) win over one sweep per query. The
// paper's single-source program is a batch of one (NewTDSP).
//
// It deliberately does NOT implement core.IncrementalProgram: a subgraph
// whose edge latencies are unchanged still does new work every timestep,
// because the horizon (ts+1)·δ grows — previously out-of-reach vertices
// become reachable over identical latencies, and the finalized frontier
// re-seeds at the new label timestep·δ. A delta-clean subgraph is therefore
// not a convergence-clean subgraph, which is exactly the property
// incremental skipping relies on.
type BatchTDSPProgram struct {
	// Queries are the batch members; sources must be distinct. Queries and
	// Depart are fixed by the constructor, which sizes the state below from
	// them; read them, do not change them.
	Queries []BatchQuery
	// Depart is the departure timestep shared by the whole batch; the run
	// must start at this timestep (core.Job.StartTimestep).
	Depart int
	// Delta is the instance period δ; the timestep-ts horizon is (ts+1)·δ.
	Delta float64
	// WeightAttr names the float edge attribute carrying travel times.
	WeightAttr string
	// ExistsAttr optionally names a bool edge attribute (the paper's
	// isExists); edges absent in an instance cannot be traversed then.
	ExistsAttr string

	// results makes EndOfTimestep emit one TDSPResult output per finalized
	// vertex and the CounterFinalized counter. Only NewTDSP sets it; a
	// served batch reads answers through Arrival and must not pay for it.
	results bool
	nsrc    int
	// Per-partition state, flattened [si*numVertices + lv]; written only by
	// the owning subgraph's Compute/EndOfTimestep.
	labels       [][]float64
	final        [][]bool
	finalArrival [][]float64
	finalAt      [][]int32 // timestep each slot finalized at; -1 until then
	// srcLocal lists, per subgraph, the batch sources it holds.
	srcLocal map[subgraph.ID][]srcSeed
	// targetsOf maps, per partition, a local vertex to the query indices
	// probing it (for the targets-finalized counter).
	targetsOf map[int]map[int32][]int32
	// loc locates every source and target vertex named by the batch.
	loc map[int]vloc
	// remaining counts each query's unresolved targets; -1 marks a query
	// with no targets (it runs the window out). Decremented under
	// EndOfTimestep by whichever subgraph owns the target.
	remaining []atomic.Int32
	// retiredAt is the timestep a query's last target resolved in, -1 while
	// it is live. From the NEXT timestep on the query is skipped entirely,
	// so a resolved batch member stops paying sweep work just like a
	// single-query run halting early. Liveness at timestep ts depends only
	// on stores made in earlier timesteps, so every subgraph agrees on it
	// without a shared snapshot.
	retiredAt []atomic.Int32
}

// NewTDSP builds the paper's single-source TDSP program: a batch of one
// query, no targets, departing at timestep 0, that additionally emits a
// TDSPResult output per finalized vertex and the CounterFinalized counter.
// parts may be one host's share of a distributed run: a source owned by
// another host simply seeds nothing here.
func NewTDSP(parts []*subgraph.PartitionData, source int, delta float64, weightAttr string) *BatchTDSPProgram {
	p := newBatchTDSP(parts, []BatchQuery{{Source: source}}, 0, delta, weightAttr)
	p.results = true
	return p
}

// NewBatchTDSP builds a multi-source TDSP program over partitioned data.
// Query sources must be distinct (a serving layer deduplicates before
// batching); duplicate targets within a query are deduplicated here. Every
// source and target must lie in parts, so a sharded rank passes the full
// partition set and runs only its own share (core.Mesh.Local).
func NewBatchTDSP(parts []*subgraph.PartitionData, queries []BatchQuery, depart int, delta float64, weightAttr string) (*BatchTDSPProgram, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("algorithms: batch TDSP needs at least one query")
	}
	if depart < 0 {
		return nil, fmt.Errorf("algorithms: negative departure timestep %d", depart)
	}
	seenSrc := make(map[int]bool)
	for i := range queries {
		q := &queries[i]
		if seenSrc[q.Source] {
			return nil, fmt.Errorf("algorithms: batch TDSP sources must be distinct (vertex index %d repeats)", q.Source)
		}
		seenSrc[q.Source] = true
		dedup := q.Targets[:0]
		seenTgt := make(map[int]bool, len(q.Targets))
		for _, tgt := range q.Targets {
			if !seenTgt[tgt] {
				seenTgt[tgt] = true
				dedup = append(dedup, tgt)
			}
		}
		q.Targets = dedup
	}
	p := newBatchTDSP(parts, queries, depart, delta, weightAttr)
	for _, q := range queries {
		if _, ok := p.loc[q.Source]; !ok {
			return nil, fmt.Errorf("algorithms: batch TDSP source vertex index %d not in the partitioned view", q.Source)
		}
		for _, tgt := range q.Targets {
			if _, ok := p.loc[tgt]; !ok {
				return nil, fmt.Errorf("algorithms: batch TDSP target vertex index %d not in the partitioned view", tgt)
			}
		}
	}
	return p, nil
}

// newBatchTDSP allocates the per-partition state and locates the vertices
// the queries name; a named vertex outside parts is left out of loc.
func newBatchTDSP(parts []*subgraph.PartitionData, queries []BatchQuery, depart int, delta float64, weightAttr string) *BatchTDSPProgram {
	p := &BatchTDSPProgram{
		Queries:    queries,
		Depart:     depart,
		Delta:      delta,
		WeightAttr: weightAttr,
		nsrc:       len(queries),
		srcLocal:   make(map[subgraph.ID][]srcSeed),
		targetsOf:  make(map[int]map[int32][]int32),
		loc:        make(map[int]vloc),
		remaining:  make([]atomic.Int32, len(queries)),
		retiredAt:  make([]atomic.Int32, len(queries)),
	}
	needed := make(map[int]bool)
	for i, q := range queries {
		needed[q.Source] = true
		for _, tgt := range q.Targets {
			needed[tgt] = true
		}
		p.retiredAt[i].Store(-1)
		if len(q.Targets) == 0 {
			p.remaining[i].Store(-1)
		} else {
			p.remaining[i].Store(int32(len(q.Targets)))
		}
	}
	n := maxPID(parts)
	p.labels = make([][]float64, n)
	p.final = make([][]bool, n)
	p.finalArrival = make([][]float64, n)
	p.finalAt = make([][]int32, n)
	for _, pd := range parts {
		nv := pd.NumVertices()
		p.labels[pd.PID] = make([]float64, p.nsrc*nv)
		p.final[pd.PID] = make([]bool, p.nsrc*nv)
		p.finalArrival[pd.PID] = make([]float64, p.nsrc*nv)
		at := make([]int32, p.nsrc*nv)
		for i := range at {
			at[i] = -1
		}
		p.finalAt[pd.PID] = at
		for lv, g := range pd.GlobalIdx {
			if needed[int(g)] {
				p.loc[int(g)] = vloc{pid: pd.PID, lv: int32(lv), sgi: pd.SubgraphOf[lv]}
			}
		}
	}
	for si, q := range queries {
		if l, ok := p.loc[q.Source]; ok {
			sid := subgraph.MakeID(l.pid, int(l.sgi))
			p.srcLocal[sid] = append(p.srcLocal[sid], srcSeed{si: si, lv: l.lv})
		}
		for _, tgt := range q.Targets {
			tl, ok := p.loc[tgt]
			if !ok {
				continue
			}
			m := p.targetsOf[tl.pid]
			if m == nil {
				m = make(map[int32][]int32)
				p.targetsOf[tl.pid] = m
			}
			m[tl.lv] = append(m[tl.lv], int32(si))
		}
	}
	return p
}

// live reports whether query si still does work at a timestep: it has not
// retired, or retires in this very timestep.
func (p *BatchTDSPProgram) live(si, timestep int) bool {
	r := p.retiredAt[si].Load()
	return r < 0 || int(r) >= timestep
}

// edgeWeightFn builds the per-instance edge-weight closure of the weighted
// traversals: weightAttr travel times with optional existsAttr gating.
func edgeWeightFn(ctx *core.Context, sg *subgraph.Subgraph, weightAttr, existsAttr string) func(int) float64 {
	col := ctx.Instance().EdgeFloats(ctx.Template(), weightAttr)
	if col == nil {
		panic(fmt.Sprintf("algorithms: template lacks float edge attribute %q", weightAttr))
	}
	eg := sg.Part.EdgeGlobal
	exists := existsFn(ctx, existsAttr)
	return func(e int) float64 {
		if !exists(int(eg[e])) {
			return skipEdge
		}
		return col[eg[e]]
	}
}

// Compute implements core.Program: Alg 2 lines 1–25, once per batch member,
// over shared supersteps.
//
// Most subgraphs sit outside the TDSP wave in most timesteps, and what such
// a call costs is what the elastic-headroom analysis (and Fig 7's idle
// hosts) reads as idleness, so it is kept to the label reset alone. The
// engine runs each timestep's calls on fresh goroutines with minimal
// stacks: a deep call on this path (the seed-map lookup out of a wide
// frame) crosses the initial stack and costs a ~2 µs growth per call, five
// times the reset itself. Everything that expands labels therefore lives
// in relax, entered only with messages to apply or, in the departure
// timestep, a source to seed.
func (p *BatchTDSPProgram) Compute(ctx *core.Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
	if superstep == 0 {
		p.reset(sg, timestep)
	}
	departing := superstep == 0 && timestep == p.Depart
	if len(msgs) > 0 || (departing && len(p.srcLocal[sg.SID]) > 0) {
		p.relax(ctx, sg, timestep, superstep, msgs)
	}
	ctx.VoteToHalt()
}

// reset is Alg 2 lines 3–11 at the top of a timestep: labels ← ∞ for every
// live source; all other labels are discarded (edge values changed).
// Retired queries are skipped wholesale — no rebuild, no re-seed, no
// expansion — which is what keeps a batch member's cost proportional to its
// own resolution time, not the batch's.
func (p *BatchTDSPProgram) reset(sg *subgraph.Subgraph, timestep int) {
	nv, verts := sg.Part.NumVertices(), sg.Verts
	labels, final := p.labels[sg.Part.PID], p.final[sg.Part.PID]
	for si := 0; si < p.nsrc; si++ {
		if !p.live(si, timestep) {
			continue
		}
		lab, fin := labels[si*nv:(si+1)*nv], final[si*nv:(si+1)*nv]
		for _, lv := range verts {
			lab[lv] = Inf
			fin[lv] = false
		}
	}
}

// relax is the working half of Compute: collect each source's roots — its
// seed at departure, its finalized set at any later superstep 0, improved
// boundary labels after that — and expand them with one horizon-capped
// ModifiedSSSP per source.
func (p *BatchTDSPProgram) relax(ctx *core.Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
	pd := sg.Part
	nv := pd.NumVertices()
	labels := p.labels[pd.PID]
	final := p.final[pd.PID]
	roots := make([][]int32, p.nsrc)

	switch {
	case superstep == 0 && timestep == p.Depart:
		// First timestep of the window: seed each source that lives in
		// this subgraph at the departure time.
		depart := float64(p.Depart) * p.Delta
		for _, s := range p.srcLocal[sg.SID] {
			labels[s.si*nv+int(s.lv)] = depart
			roots[s.si] = append(roots[s.si], s.lv)
		}
	case superstep == 0:
		// Rebuild each live source's state from its temporal message: the
		// finalized set re-seeds at timestep·δ via the idling edges.
		seed := float64(timestep) * p.Delta
		for _, m := range msgs {
			f := m.Payload.(BatchVertexSet)
			si := int(f.Source)
			if !p.live(si, timestep) {
				continue
			}
			base := si * nv
			for _, lv := range f.Vertices {
				labels[base+int(lv)] = seed
				final[base+int(lv)] = true
			}
			roots[si] = append(roots[si], f.Vertices...)
		}
	default:
		// Lines 13–18: boundary updates from other subgraphs, per source.
		for _, m := range msgs {
			b := m.Payload.(BatchLabelBatch)
			si := int(b.Source)
			if !p.live(si, timestep) {
				continue
			}
			base := si * nv
			for i, lv := range b.Vertices {
				idx := base + int(lv)
				if !final[idx] && b.Labels[i] < labels[idx] {
					labels[idx] = b.Labels[i]
					roots[si] = append(roots[si], lv)
				}
			}
		}
	}

	horizon := float64(timestep+1) * p.Delta
	var weight func(int) float64
	for si, r := range roots {
		if len(r) == 0 {
			continue
		}
		if weight == nil {
			weight = edgeWeightFn(ctx, sg, p.WeightAttr, p.ExistsAttr)
		}
		base := si * nv
		remote := modifiedSSSP(sg, labels[base:base+nv], final[base:base+nv], r, horizon, weight)
		forEachBatch(remote, func(dst subgraph.ID, b LabelBatch) {
			ctx.SendTo(dst, BatchLabelBatch{Source: int32(si), Vertices: b.Vertices, Labels: b.Labels})
		})
	}
}

// EndOfTimestep implements Alg 2 lines 26–31 per batch member: finalize
// newly reached vertices, count resolved targets, and pass each source's
// finalized set along the temporal edge.
func (p *BatchTDSPProgram) EndOfTimestep(ctx *core.EndContext, sg *subgraph.Subgraph, timestep int) {
	pd := sg.Part
	nv := pd.NumVertices()
	labels := p.labels[pd.PID]
	final := p.final[pd.PID]
	arrival := p.finalArrival[pd.PID]
	at := p.finalAt[pd.PID]
	targets := p.targetsOf[pd.PID]

	var newly, targetsDone int64
	allFinal := true
	for si := 0; si < p.nsrc; si++ {
		if !p.live(si, timestep) {
			continue // retired in an earlier timestep: state is frozen
		}
		base := si * nv
		var all []int32
		for _, lv := range sg.Verts {
			idx := base + int(lv)
			if !final[idx] && labels[idx] != Inf {
				final[idx] = true
				arrival[idx] = labels[idx]
				at[idx] = int32(timestep)
				newly++
				if p.results {
					ctx.Output(TDSPResult{
						Vertex:   ctx.Template().VertexID(int(pd.GlobalIdx[lv])),
						Timestep: timestep,
						Arrival:  arrival[idx],
					})
				}
				for _, tsi := range targets[lv] {
					if int(tsi) == si {
						targetsDone++
						if p.remaining[si].Add(-1) == 0 {
							p.retiredAt[si].Store(int32(timestep))
						}
					}
				}
			}
			if final[idx] {
				all = append(all, lv)
			}
		}
		// F ← F ∪ F_timestep; send to next timestep.
		if len(all) > 0 {
			ctx.SendToNextTimestep(BatchVertexSet{Source: int32(si), Vertices: all})
		}
		if len(all) != sg.NumVertices() {
			allFinal = false
		}
	}
	if p.results {
		ctx.AddCounter(CounterFinalized, newly)
	} else {
		ctx.AddCounter(CounterTargetsDone, targetsDone)
	}
	if allFinal {
		// Everything here is finalized; if every subgraph agrees the
		// application can stop early.
		ctx.VoteToHaltTimestep()
	}
}

// tdspCheckpoint is the gob payload of a TDSP checkpoint: the accumulators
// that outlive a timestep. Labels are rebuilt from the temporal message at
// superstep 0 and need no persistence.
type tdspCheckpoint struct {
	Final     [][]bool
	Arrival   [][]float64
	At        [][]int32
	Remaining []int32
	RetiredAt []int32
}

// CheckpointState implements core.Checkpointer.
func (p *BatchTDSPProgram) CheckpointState() ([]byte, error) {
	st := tdspCheckpoint{
		Final: p.final, Arrival: p.finalArrival, At: p.finalAt,
		Remaining: make([]int32, p.nsrc), RetiredAt: make([]int32, p.nsrc),
	}
	for si := range st.Remaining {
		st.Remaining[si] = p.remaining[si].Load()
		st.RetiredAt[si] = p.retiredAt[si].Load()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RestoreCheckpoint implements core.Checkpointer.
func (p *BatchTDSPProgram) RestoreCheckpoint(data []byte) error {
	var st tdspCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("algorithms: tdsp restore: %w", err)
	}
	if len(st.Final) != len(p.final) || len(st.Arrival) != len(p.final) || len(st.At) != len(p.final) {
		return fmt.Errorf("algorithms: tdsp restore: checkpoint has %d partitions, program has %d", len(st.Final), len(p.final))
	}
	if len(st.Remaining) != p.nsrc || len(st.RetiredAt) != p.nsrc {
		return fmt.Errorf("algorithms: tdsp restore: checkpoint has %d queries, program has %d", len(st.Remaining), p.nsrc)
	}
	p.final, p.finalArrival, p.finalAt = st.Final, st.Arrival, st.At
	for si := range st.Remaining {
		p.remaining[si].Store(st.Remaining[si])
		p.retiredAt[si].Store(st.RetiredAt[si])
	}
	return nil
}

// Arrival returns query si's earliest arrival at a template vertex index
// that the batch named as a source or target, plus the timestep it
// finalized in. ok is false if the vertex was never reached within the
// processed window (or was not named by the batch).
func (p *BatchTDSPProgram) Arrival(si int, vertex int) (arrival float64, timestep int, ok bool) {
	l, found := p.loc[vertex]
	if !found || si < 0 || si >= p.nsrc {
		return Inf, -1, false
	}
	nv := len(p.final[l.pid]) / p.nsrc
	idx := si*nv + int(l.lv)
	if !p.final[l.pid][idx] {
		return Inf, -1, false
	}
	return p.finalArrival[l.pid][idx], int(p.finalAt[l.pid][idx]), true
}

// Arrivals is ArrivalsOf for the single query of a NewTDSP program.
func (p *BatchTDSPProgram) Arrivals(parts []*subgraph.PartitionData, t *graph.Template) []float64 {
	return p.ArrivalsOf(0, parts, t)
}

// ArrivalsOf gathers query si's finalized arrivals into a template-indexed
// array (Inf for vertices never reached within the processed range). For a
// query with targets, the array reflects the timesteps processed before the
// query retired (all targets resolved); arrivals at the named targets
// themselves are always exact.
func (p *BatchTDSPProgram) ArrivalsOf(si int, parts []*subgraph.PartitionData, t *graph.Template) []float64 {
	out := make([]float64, t.NumVertices())
	for i := range out {
		out[i] = Inf
	}
	for _, pd := range parts {
		base := si * pd.NumVertices()
		for lv, g := range pd.GlobalIdx {
			if p.final[pd.PID][base+lv] {
				out[g] = p.finalArrival[pd.PID][base+lv]
			}
		}
	}
	return out
}

// Sweep is the one Algorithm 2 driver. The caller fills the job's Template,
// Parts, Source, Config and, if wanted, Recorder and Tracer; Sweep runs the
// program over the source's window [Depart, end), in this process or, with
// job.Mesh set, as this rank's share of a distributed sweep. The Master-style
// global termination follows from how the program was built — a NewTDSP
// program stops once every vertex is finalized (the paper's WIKI run
// converges in 4 of 50 timesteps), a batch whose queries all name targets
// once every target is, any other batch runs the window out — and is
// dropped on a mesh (see the package-level Sweep).
func (p *BatchTDSPProgram) Sweep(job *core.Job) (*core.Result, error) {
	job.Program = p
	job.StartTimestep = p.Depart
	counter, want := CounterTargetsDone, int64(0)
	if p.results {
		counter, want = CounterFinalized, int64(job.Template.NumVertices())
	} else {
		for _, q := range p.Queries {
			if len(q.Targets) == 0 {
				want = 0
				break
			}
			want += int64(len(q.Targets))
		}
	}
	if job.Mesh == nil && want > 0 {
		var done int64
		job.HaltCondition = func(ts int, tr *metrics.TimestepRecord) bool {
			if tr == nil {
				return false
			}
			for i := range tr.Parts {
				done += tr.Parts[i].Counters[counter]
			}
			return done >= want
		}
	}
	return Sweep(job)
}

// RunTDSP runs single-source TDSP from src over all instances of a source,
// stopping early once every vertex is finalized. Returns template-indexed
// arrival times plus the run result.
func RunTDSP(
	t *graph.Template,
	parts []*subgraph.PartitionData,
	src int,
	source core.InstanceSource,
	delta float64,
	weightAttr string,
	cfg bsp.Config,
	rec *metrics.Recorder,
) ([]float64, *core.Result, error) {
	prog := NewTDSP(parts, src, delta, weightAttr)
	res, err := prog.Sweep(&core.Job{Template: t, Parts: parts, Source: source, Config: cfg, Recorder: rec})
	if err != nil {
		return nil, nil, err
	}
	return prog.Arrivals(parts, t), res, nil
}

// RunBatchTDSP sweeps the instance window [depart, end) once, resolving
// every query of the batch. When every query names targets, the run halts
// as soon as all of them are finalized; otherwise it runs the window out.
// The returned program answers Arrival lookups.
func RunBatchTDSP(
	t *graph.Template,
	parts []*subgraph.PartitionData,
	queries []BatchQuery,
	depart int,
	source core.InstanceSource,
	delta float64,
	weightAttr string,
	cfg bsp.Config,
	rec *metrics.Recorder,
	tracer *obs.Tracer,
) (*BatchTDSPProgram, *core.Result, error) {
	prog, err := NewBatchTDSP(parts, queries, depart, delta, weightAttr)
	if err != nil {
		return nil, nil, err
	}
	res, err := prog.Sweep(&core.Job{Template: t, Parts: parts, Source: source, Config: cfg, Recorder: rec, Tracer: tracer})
	if err != nil {
		return nil, nil, err
	}
	return prog, res, nil
}
