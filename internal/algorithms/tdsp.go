package algorithms

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"
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
	k   int32 // row of the vertex in the frozen Arrival table
}

// srcSeed is one batch query's source vertex inside a subgraph.
type srcSeed struct {
	si int
	lv int32
}

// frozenArrival is one (query, named vertex) answer kept by Release.
type frozenArrival struct {
	arrival float64
	at      int32 // -1: never reached
}

// BatchTDSPProgram is the repo's one implementation of Algorithm 2 of the
// paper: discrete-time Time-Dependent Shortest Path over a sequentially
// dependent TI-BSP run. Each timestep runs a horizon-capped SSSP over that
// instance's edge latencies; vertices reached within the current interval
// are finalized and become, via the uni-directional temporal ("idling")
// edges, the seeds of the next timestep at label timestep·δ.
//
// It runs the algorithm for many sources simultaneously over ONE sweep:
// per-source label/finalized state is kept side by side (one dense slab
// per source per partition), messages are tagged with their source, and
// each timestep's ModifiedSSSP runs once per source with roots. The
// per-timestep fixed costs — instance load, superstep barriers, engine
// setup — are paid once for the whole batch, which is what makes
// micro-batched serving (internal/serve) win over one sweep per query. The
// paper's single-source program is a batch of one (NewTDSP).
//
// A timestep costs what its wave reaches, not the graph: finalized state
// persists across timesteps, only the boundary of the finalized set rides
// the temporal edge (interior finals relax nothing), and each subgraph
// lists the vertices it reached so the end of the timestep walks those
// instead of every vertex.
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
	// parts is the partitioned view, indexed by PID (nil where a host does
	// not hold the partition).
	parts []*subgraph.PartitionData
	// slabs[pid][si] is query si's dense state over partition pid; written
	// only by the owning subgraph's Compute/EndOfTimestep. nil after
	// Release.
	slabs [][]*tdspSlab
	// pooled reports that every slab is tracked by its finals lists, so
	// Release can clean it and return it to the pool. A failed sweep or a
	// RestoreCheckpoint clears it.
	pooled bool
	// frozen is Release's answer table, [vloc.k*nsrc + si].
	frozen []frozenArrival
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

// newBatchTDSP takes the per-partition state from the slab pool and
// locates the vertices the queries name; a named vertex outside parts is
// left out of loc.
func newBatchTDSP(parts []*subgraph.PartitionData, queries []BatchQuery, depart int, delta float64, weightAttr string) *BatchTDSPProgram {
	p := &BatchTDSPProgram{
		Queries:    queries,
		Depart:     depart,
		Delta:      delta,
		WeightAttr: weightAttr,
		nsrc:       len(queries),
		pooled:     true,
		srcLocal:   make(map[subgraph.ID][]srcSeed),
		targetsOf:  make(map[int]map[int32][]int32),
		loc:        make(map[int]vloc),
		remaining:  make([]atomic.Int32, len(queries)),
		retiredAt:  make([]atomic.Int32, len(queries)),
	}
	n := maxPID(parts)
	p.parts = make([]*subgraph.PartitionData, n)
	p.slabs = make([][]*tdspSlab, n)
	for _, pd := range parts {
		p.parts[pd.PID] = pd
		slabs := make([]*tdspSlab, p.nsrc)
		for si := range slabs {
			slabs[si] = getSlab(pd.NumVertices(), len(pd.Subgraphs))
		}
		p.slabs[pd.PID] = slabs
	}
	for i, q := range queries {
		p.locate(parts, q.Source)
		for _, tgt := range q.Targets {
			p.locate(parts, tgt)
		}
		p.retiredAt[i].Store(-1)
		if len(q.Targets) == 0 {
			p.remaining[i].Store(-1)
		} else {
			p.remaining[i].Store(int32(len(q.Targets)))
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

// locate adds a named template vertex to loc. A partition's local indices
// follow global order, so each partition is one binary search.
func (p *BatchTDSPProgram) locate(parts []*subgraph.PartitionData, g int) {
	if _, ok := p.loc[g]; ok || int(int32(g)) != g {
		return
	}
	for _, pd := range parts {
		if lv, ok := slices.BinarySearch(pd.GlobalIdx, int32(g)); ok {
			p.loc[g] = vloc{pid: pd.PID, lv: int32(lv), sgi: pd.SubgraphOf[lv], k: int32(len(p.loc))}
			return
		}
	}
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
// hosts) reads as idleness, so it does nothing but vote to halt. Alg 2's
// per-timestep reset (lines 3–11, labels ← ∞) needs no pass either: every
// vertex that gets a finite label in a timestep is finalized at its end,
// so every label that is not final is already ∞ when the next timestep
// starts. The engine runs each timestep's calls on fresh goroutines with
// minimal stacks: a deep call on this path (the seed-map lookup out of a
// wide frame) crosses the initial stack and costs a ~2 µs growth per call.
// Everything that expands labels therefore lives in relax, entered only
// with messages to apply or, in the departure timestep, a source to seed.
func (p *BatchTDSPProgram) Compute(ctx *core.Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
	departing := superstep == 0 && timestep == p.Depart
	if len(msgs) > 0 || (departing && len(p.srcLocal[sg.SID]) > 0) {
		p.relax(ctx, sg, timestep, superstep, msgs)
	}
	ctx.VoteToHalt()
}

// relax is the working half of Compute: collect each source's roots — its
// seed at departure, the boundary of its finalized set at any later
// superstep 0, improved boundary labels after that — and expand them with
// one horizon-capped ModifiedSSSP per source. Retired queries are skipped
// wholesale, which keeps a batch member's cost proportional to its own
// resolution time, not the batch's.
func (p *BatchTDSPProgram) relax(ctx *core.Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
	slabs := p.slabs[sg.Part.PID]
	sgi := sg.SID.Index()
	roots := make([][]int32, p.nsrc)

	switch {
	case superstep == 0 && timestep == p.Depart:
		// First timestep of the window: seed each source that lives in
		// this subgraph at the departure time.
		depart := float64(p.Depart) * p.Delta
		for _, s := range p.srcLocal[sg.SID] {
			sl := slabs[s.si]
			sl.labels[s.lv] = depart
			sl.sgs[sgi].finals = append(sl.sgs[sgi].finals, s.lv)
			roots[s.si] = append(roots[s.si], s.lv)
		}
	case superstep == 0:
		// The boundary of each live source's finalized set re-seeds at
		// timestep·δ via the idling edges; interior finals would relax
		// nothing.
		seed := float64(timestep) * p.Delta
		for _, m := range msgs {
			f := m.Payload.(BatchVertexSet)
			si := int(f.Source)
			if !p.live(si, timestep) {
				continue
			}
			sl := slabs[si]
			for _, lv := range f.Vertices {
				sl.labels[lv] = seed
			}
			// Already so unless the state was just restored from a
			// checkpoint, whose pending messages carry the boundary.
			sl.sgs[sgi].boundary = f.Vertices
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
			sl := slabs[si]
			for i, lv := range b.Vertices {
				if !sl.final[lv] && b.Labels[i] < sl.labels[lv] {
					if sl.labels[lv] == Inf {
						sl.sgs[sgi].finals = append(sl.sgs[sgi].finals, lv)
					}
					sl.labels[lv] = b.Labels[i]
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
		sl := slabs[si]
		remote := modifiedSSSP(sg, sl.labels, sl.final, r, horizon, weight, &sl.sgs[sgi].finals)
		forEachBatch(remote, func(dst subgraph.ID, b LabelBatch) {
			ctx.SendTo(dst, BatchLabelBatch{Source: int32(si), Vertices: b.Vertices, Labels: b.Labels})
		})
	}
}

// EndOfTimestep implements Alg 2 lines 26–31 per batch member: finalize
// the vertices reached in this timestep, count resolved targets, and pass
// the boundary of each source's finalized set along the temporal edge.
//
// Line 31 sends all of F. A final vertex whose template out-edges all lead
// to final vertices of its own subgraph relaxes nothing when re-seeded, so
// only the boundary is sent: finals with a remote out-edge or a non-final
// local out-neighbour. Arrivals and data messages are identical by
// construction. The boundary is judged on template edges, not the
// instance's, because an edge absent now may exist in the next instance.
func (p *BatchTDSPProgram) EndOfTimestep(ctx *core.EndContext, sg *subgraph.Subgraph, timestep int) {
	pd := sg.Part
	slabs := p.slabs[pd.PID]
	sgi := sg.SID.Index()
	targets := p.targetsOf[pd.PID]

	var newly, targetsDone int64
	allFinal := true
	for si := 0; si < p.nsrc; si++ {
		if !p.live(si, timestep) {
			continue // retired in an earlier timestep: state is frozen
		}
		sl := slabs[si]
		st := &sl.sgs[sgi]
		reached := st.finals[st.mark:]
		if p.results {
			slices.Sort(reached) // outputs in ascending local index
		}
		for _, lv := range reached {
			sl.final[lv] = true
			sl.arrival[lv] = sl.labels[lv]
			sl.at[lv] = int32(timestep)
			if p.results {
				ctx.Output(TDSPResult{
					Vertex:   ctx.Template().VertexID(int(pd.GlobalIdx[lv])),
					Timestep: timestep,
					Arrival:  sl.arrival[lv],
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
		newly += int64(len(reached))
		st.nfinal += len(reached)
		st.mark = len(st.finals)
		if len(reached) > 0 {
			// Only a newly final vertex can take a boundary vertex's last
			// non-final neighbour, so with none the boundary stands.
			next := make([]int32, 0, len(st.boundary)+len(reached))
			for _, lv := range st.boundary {
				if onBoundary(pd, sl.final, lv) {
					next = append(next, lv)
				}
			}
			for _, lv := range reached {
				if onBoundary(pd, sl.final, lv) {
					next = append(next, lv)
				}
			}
			st.boundary = next
		}
		// F ← F ∪ F_timestep; send its boundary to the next timestep.
		if len(st.boundary) > 0 {
			ctx.SendToNextTimestep(BatchVertexSet{Source: int32(si), Vertices: st.boundary})
		}
		if st.nfinal != sg.NumVertices() {
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

// onBoundary reports whether final vertex lv can still relax something: it
// has a remote out-edge or a local out-neighbour that is not final.
func onBoundary(pd *subgraph.PartitionData, final []bool, lv int32) bool {
	lo, hi := pd.OutEdges(int(lv))
	for _, t := range pd.Targets[lo:hi] {
		if t < 0 || !final[t] {
			return true
		}
	}
	return false
}

// tdspCheckpoint is the gob payload of a TDSP checkpoint: the accumulators
// that outlive a timestep, flattened [si*numVertices + lv] per partition.
// Labels are rebuilt from the temporal message at superstep 0 and need no
// persistence.
type tdspCheckpoint struct {
	Final     [][]bool
	Arrival   [][]float64
	At        [][]int32
	Remaining []int32
	RetiredAt []int32
}

// CheckpointState implements core.Checkpointer.
func (p *BatchTDSPProgram) CheckpointState() ([]byte, error) {
	if p.slabs == nil {
		return nil, fmt.Errorf("algorithms: tdsp checkpoint after Release")
	}
	n := len(p.slabs)
	st := tdspCheckpoint{
		Final: make([][]bool, n), Arrival: make([][]float64, n), At: make([][]int32, n),
		Remaining: make([]int32, p.nsrc), RetiredAt: make([]int32, p.nsrc),
	}
	for pid, slabs := range p.slabs {
		for _, sl := range slabs {
			st.Final[pid] = append(st.Final[pid], sl.final...)
			st.Arrival[pid] = append(st.Arrival[pid], sl.arrival...)
			st.At[pid] = append(st.At[pid], sl.at...)
		}
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

// RestoreCheckpoint implements core.Checkpointer. The restored state is not
// tracked by finals lists, so its slabs never return to the pool.
func (p *BatchTDSPProgram) RestoreCheckpoint(data []byte) error {
	var st tdspCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("algorithms: tdsp restore: %w", err)
	}
	if p.slabs == nil {
		return fmt.Errorf("algorithms: tdsp restore after Release")
	}
	if len(st.Final) != len(p.slabs) || len(st.Arrival) != len(p.slabs) || len(st.At) != len(p.slabs) {
		return fmt.Errorf("algorithms: tdsp restore: checkpoint has %d partitions, program has %d", len(st.Final), len(p.slabs))
	}
	if len(st.Remaining) != p.nsrc || len(st.RetiredAt) != p.nsrc {
		return fmt.Errorf("algorithms: tdsp restore: checkpoint has %d queries, program has %d", len(st.Remaining), p.nsrc)
	}
	for pid, pd := range p.parts {
		if pd == nil {
			continue
		}
		nv := pd.NumVertices()
		if len(st.Final[pid]) != p.nsrc*nv || len(st.Arrival[pid]) != p.nsrc*nv || len(st.At[pid]) != p.nsrc*nv {
			return fmt.Errorf("algorithms: tdsp restore: partition %d state does not fit %d queries of %d vertices", pid, p.nsrc, nv)
		}
	}
	p.pooled = false
	for pid, pd := range p.parts {
		if pd == nil {
			continue
		}
		nv := pd.NumVertices()
		for si := range p.slabs[pid] {
			sl := newSlab(nv, len(pd.Subgraphs))
			sl.final = st.Final[pid][si*nv : (si+1)*nv]
			sl.arrival = st.Arrival[pid][si*nv : (si+1)*nv]
			sl.at = st.At[pid][si*nv : (si+1)*nv]
			for lv, fin := range sl.final {
				if fin {
					sl.sgs[pd.SubgraphOf[lv]].nfinal++
				}
			}
			p.slabs[pid][si] = sl
		}
	}
	for si := range st.Remaining {
		p.remaining[si].Store(st.Remaining[si])
		p.retiredAt[si].Store(st.RetiredAt[si])
	}
	return nil
}

// Arrival returns query si's earliest arrival at a template vertex index
// that the batch named as a source or target, plus the timestep it
// finalized in. ok is false if the vertex was never reached within the
// processed window (or was not named by the batch). It answers the same
// before and after Release.
func (p *BatchTDSPProgram) Arrival(si int, vertex int) (arrival float64, timestep int, ok bool) {
	l, found := p.loc[vertex]
	if !found || si < 0 || si >= p.nsrc {
		return Inf, -1, false
	}
	if p.slabs == nil {
		a := p.frozen[int(l.k)*p.nsrc+si]
		return a.arrival, int(a.at), a.at >= 0
	}
	sl := p.slabs[l.pid][si]
	if !sl.final[l.lv] {
		return Inf, -1, false
	}
	return sl.arrival[l.lv], int(sl.at[l.lv]), true
}

// Release ends the sweep's use of its dense state: it freezes what Arrival
// can answer (the named sources and targets) into a table of nsrc entries
// per named vertex, resets the entries the sweep finalized, and returns the
// slabs to the pool for the next program. A caller that answers through
// Arrival alone (the serving tier, a shard rank) calls it once the sweep
// succeeded; ArrivalsOf and checkpoints need the dense state and fail
// after it. State from a failed sweep or a restored checkpoint is not
// tracked finalize by finalize, so it is dropped instead of pooled.
// Release is idempotent.
func (p *BatchTDSPProgram) Release() {
	if p.slabs == nil {
		return
	}
	frozen := make([]frozenArrival, len(p.loc)*p.nsrc)
	for _, l := range p.loc {
		for si := 0; si < p.nsrc; si++ {
			a := frozenArrival{arrival: Inf, at: -1}
			if sl := p.slabs[l.pid][si]; sl.final[l.lv] {
				a = frozenArrival{arrival: sl.arrival[l.lv], at: sl.at[l.lv]}
			}
			frozen[int(l.k)*p.nsrc+si] = a
		}
	}
	if p.pooled {
		for _, slabs := range p.slabs {
			for _, sl := range slabs {
				sl.clean()
				putSlab(sl)
			}
		}
	}
	p.frozen, p.slabs = frozen, nil
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
//
// It reads the dense state, so it panics after Release.
func (p *BatchTDSPProgram) ArrivalsOf(si int, parts []*subgraph.PartitionData, t *graph.Template) []float64 {
	if p.slabs == nil {
		panic("algorithms: ArrivalsOf after Release: only Arrival answers a released TDSP program")
	}
	out := make([]float64, t.NumVertices())
	for i := range out {
		out[i] = Inf
	}
	for _, pd := range parts {
		sl := p.slabs[pd.PID][si]
		for lv, g := range pd.GlobalIdx {
			if sl.final[lv] {
				out[g] = sl.arrival[lv]
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
	res, err := Sweep(job)
	if err != nil {
		p.pooled = false // a timestep may have stopped half done
	}
	return res, err
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
