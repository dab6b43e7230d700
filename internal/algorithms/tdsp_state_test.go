package algorithms

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/gen"
	"tsgraph/internal/graph"
	"tsgraph/internal/partition"
	"tsgraph/internal/subgraph"
)

// TestTDSPBoundaryJudgedOnTemplateEdges: the region {0,1,2} finalizes in
// timestep 0 while its only edge out, 2-3, is absent (isExists false); the
// edge appears in timestep 1. Vertex 2 must stay on the boundary, or the
// wave never crosses to 3 and 4. Judging the boundary on the instance's
// edges would drop it.
func TestTDSPBoundaryJudgedOnTemplateEdges(t *testing.T) {
	vs, _ := gen.StandardSchemas()
	es := graph.MustSchema(
		[]string{gen.AttrLatency, "exists"},
		[]graph.AttrType{graph.TFloat, graph.TBool},
	)
	b := graph.NewBuilder("gate", vs, es)
	b.AddUndirectedEdge(0, 1)
	b.AddUndirectedEdge(1, 2)
	gate := b.AddUndirectedEdge(2, 3)
	b.AddUndirectedEdge(3, 4)
	g := b.MustBuild()

	const delta, steps = 10, 4
	// c carries isExists; ref encodes an absent edge as an infinite
	// latency, which refTDSP can never traverse.
	c := graph.NewCollection(g, 0, delta)
	ref := graph.NewCollection(g, 0, delta)
	li := g.EdgeSchema().Index(gen.AttrLatency)
	xi := g.EdgeSchema().Index("exists")
	for ts := 0; ts < steps; ts++ {
		ins := graph.NewInstance(g, ts, c.TimeOf(ts))
		rins := graph.NewInstance(g, ts, c.TimeOf(ts))
		for e := 0; e < g.NumEdges(); e++ {
			exists := g.EdgeID(e) != gate || ts >= 1
			ins.EdgeCols[li].Floats[e] = 2
			ins.EdgeCols[xi].Bools[e] = exists
			rins.EdgeCols[li].Floats[e] = 2
			if !exists {
				rins.EdgeCols[li].Floats[e] = Inf
			}
		}
		if err := c.Append(ins); err != nil {
			t.Fatal(err)
		}
		if err := ref.Append(rins); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []int{1, 2} {
		a := &partition.Assignment{K: k, Parts: make([]int32, g.NumVertices())}
		if k == 2 {
			a.Parts = []int32{0, 0, 0, 1, 1}
		}
		parts, err := subgraph.Build(g, a)
		if err != nil {
			t.Fatal(err)
		}
		src := g.VertexIndex(0)
		prog := NewTDSP(parts, src, delta, gen.AttrLatency)
		prog.ExistsAttr = "exists"
		if _, err := core.Run(&core.Job{
			Template: g, Parts: parts, Source: core.MemorySource{C: c},
			Program: prog, Pattern: core.SequentiallyDependent,
		}); err != nil {
			t.Fatal(err)
		}
		want, wantAt := refTDSP(ref, src, 0, gen.AttrLatency, delta)
		if wantAt[g.VertexIndex(3)] != 1 {
			t.Fatalf("fixture: vertex 3 should finalize in timestep 1, reference says %d", wantAt[g.VertexIndex(3)])
		}
		got := prog.Arrivals(parts, g)
		for v := range want {
			lv := -1
			var pd *subgraph.PartitionData
			for _, p := range parts {
				for i, gv := range p.GlobalIdx {
					if int(gv) == v {
						pd, lv = p, i
					}
				}
			}
			at := int(prog.slabs[pd.PID][0].at[lv])
			if !sameArrival(got[v], want[v]) || at != wantAt[v] {
				t.Fatalf("%d partitions, vertex %d: (%v, ts %d), reference (%v, ts %d)", k, v, got[v], at, want[v], wantAt[v])
			}
		}
	}
}

// setCounter counts the vertices of every BatchVertexSet delivered to a
// TDSP program, per timestep and per receiving subgraph.
type setCounter struct {
	*BatchTDSPProgram
	mu      sync.Mutex
	carried int
	byTS    map[int]map[subgraph.ID]int
}

func (c *setCounter) Compute(ctx *core.Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
	if superstep == 0 {
		n := 0
		for _, m := range msgs {
			if f, ok := m.Payload.(BatchVertexSet); ok {
				n += len(f.Vertices)
			}
		}
		c.mu.Lock()
		c.carried += n
		if n > 0 {
			if c.byTS[timestep] == nil {
				c.byTS[timestep] = make(map[subgraph.ID]int)
			}
			c.byTS[timestep][sg.SID] += n
		}
		c.mu.Unlock()
	}
	c.BatchTDSPProgram.Compute(ctx, sg, timestep, superstep, msgs)
}

// TestTDSPSendsOnlyTheBoundary: over a grid, the finalized sets carried
// along the temporal edge add up to strictly fewer vertices than Alg 2
// line 31's Σₜ|Fₜ|, answers unchanged, and a subgraph whose every vertex
// is final (here, the only subgraph of a one-partition grid) sends none.
func TestTDSPSendsOnlyTheBoundary(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 16, Cols: 16, RemoveFrac: 0.1, Seed: 3})
	const delta, steps = 60, 30
	c := latencyFixture(t, g, steps, delta, 40)
	src := g.NumVertices() / 2
	want, wantAt := refTDSP(c, src, 0, gen.AttrLatency, delta)
	for _, k := range []int{1, 3} {
		parts := buildParts(t, g, k)
		prog := &setCounter{BatchTDSPProgram: NewTDSP(parts, src, delta, gen.AttrLatency), byTS: map[int]map[subgraph.ID]int{}}
		res, err := core.Run(&core.Job{
			Template: g, Parts: parts, Source: core.MemorySource{C: c},
			Program: prog, Pattern: core.SequentiallyDependent,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := prog.Arrivals(parts, g)
		finalAt := make([]int, steps+1) // vertices finalized per timestep
		allFinalAt := -1
		for v := range want {
			if !sameArrival(got[v], want[v]) {
				t.Fatalf("%d partitions, vertex %d: arrival %v, reference %v", k, v, got[v], want[v])
			}
			if wantAt[v] < 0 {
				t.Fatalf("fixture: vertex %d unreached", v)
			}
			finalAt[wantAt[v]]++
			allFinalAt = max(allFinalAt, wantAt[v])
		}
		// Line 31 carries F_t from every timestep t that has a successor.
		sumF, f := 0, 0
		for ts := 0; ts < res.TimestepsRun-1; ts++ {
			f += finalAt[ts]
			sumF += f
		}
		if prog.carried >= sumF {
			t.Fatalf("%d partitions: temporal messages carried %d vertices, all of F is %d", k, prog.carried, sumF)
		}
		t.Logf("%d partitions: boundary carried %d vertices, Σₜ|Fₜ| = %d (%.3f)", k, prog.carried, sumF, float64(prog.carried)/float64(sumF))
		if k == 1 {
			if allFinalAt+1 >= res.TimestepsRun {
				t.Fatalf("fixture: everything finalizes at timestep %d of %d", allFinalAt, res.TimestepsRun)
			}
			for ts := allFinalAt + 1; ts < res.TimestepsRun; ts++ {
				if n := prog.byTS[ts]; len(n) > 0 {
					t.Fatalf("timestep %d: a fully final subgraph received %v", ts, n)
				}
			}
		}
	}
}

// TestTDSPOutputsAscendingPerSubgraph: within one subgraph's outputs of one
// timestep, TDSPResults come in ascending local index, as a scan of the
// subgraph's vertices would emit them.
func TestTDSPOutputsAscendingPerSubgraph(t *testing.T) {
	chainG, chainParts, chainC := chainFixture(t, 8, 12)
	road := gen.RoadNetwork(gen.RoadConfig{Rows: 12, Cols: 12, RemoveFrac: 0.1, Seed: 9})
	for _, fx := range []struct {
		g     *graph.Template
		parts []*subgraph.PartitionData
		c     *graph.Collection
		delta float64
	}{
		{chainG, chainParts, chainC, 60},
		{road, buildParts(t, road, 3), latencyFixture(t, road, 20, 60, 40), 60},
	} {
		local := make(map[int]int32) // template index -> local index
		for _, pd := range fx.parts {
			for lv, gv := range pd.GlobalIdx {
				local[int(gv)] = int32(lv)
			}
		}
		prog := NewTDSP(fx.parts, 0, fx.delta, gen.AttrLatency)
		res, err := prog.Sweep(&core.Job{Template: fx.g, Parts: fx.parts, Source: core.MemorySource{C: fx.c}})
		if err != nil {
			t.Fatal(err)
		}
		outputs := 0
		for i, o := range res.Outputs {
			r := o.Data.(TDSPResult)
			outputs++
			if i == 0 {
				continue
			}
			prev := res.Outputs[i-1]
			if prev.From != o.From || prev.Timestep != o.Timestep {
				continue
			}
			a, b := local[fx.g.VertexIndex(prev.Data.(TDSPResult).Vertex)], local[fx.g.VertexIndex(r.Vertex)]
			if a >= b {
				t.Fatalf("%s subgraph %v timestep %d: local %d output before %d", fx.g.Name, o.From, o.Timestep, a, b)
			}
		}
		if outputs < fx.g.NumVertices()/2 {
			t.Fatalf("%s: only %d outputs", fx.g.Name, outputs)
		}
	}
}

// checkSlabClean verifies a slab is what newSlab returns: labels ∞,
// nothing final, arrivals 0, every finalize timestep -1, no touched lists.
func checkSlabClean(sl *tdspSlab) error {
	for lv := range sl.labels {
		if sl.labels[lv] != Inf || sl.final[lv] || sl.arrival[lv] != 0 || sl.at[lv] != -1 {
			return fmt.Errorf("vertex %d: label %v final %v arrival %v at %d", lv, sl.labels[lv], sl.final[lv], sl.arrival[lv], sl.at[lv])
		}
	}
	for i, st := range sl.sgs[:cap(sl.sgs)] {
		if len(st.finals) != 0 || st.mark != 0 || st.nfinal != 0 || st.boundary != nil {
			return fmt.Errorf("subgraph %d: %d finals, mark %d, nfinal %d, %d boundary", i, len(st.finals), st.mark, st.nfinal, len(st.boundary))
		}
	}
	return nil
}

// TestTDSPReleaseLifecycle: after Release, Arrival answers every named
// (query, vertex) exactly as before, ArrivalsOf fails loudly, and the
// slabs the pool hands out next are clean — over several batch sizes,
// each sweep running on the slabs the previous one released.
func TestTDSPReleaseLifecycle(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 10, Cols: 10, RemoveFrac: 0.1, Seed: 41})
	const delta, steps = 60, 12
	c := latencyFixture(t, g, steps, delta, 50)
	parts := buildParts(t, g, 3)
	n := g.NumVertices()
	for _, size := range []int{1, 4, 9, 4, 1} {
		queries := make([]BatchQuery, size)
		var named []int
		for i := range queries {
			src := (i*37 + size) % n
			queries[i] = BatchQuery{Source: src, Targets: []int{(src + 11) % n, (src + 53) % n}}
			named = append(named, src, (src+11)%n, (src+53)%n)
		}
		named = append(named, (n-1+size)%n) // possibly unnamed
		depart := size % 3
		prog, _, err := RunBatchTDSP(g, parts, queries, depart, core.MemorySource{C: c}, delta, gen.AttrLatency, bsp.Config{CoresPerHost: 2}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		type answer struct {
			arr float64
			at  int
			ok  bool
		}
		before := make([]answer, 0, size*len(named))
		for si, q := range queries {
			ref, refAt := refTDSP(c, q.Source, depart, gen.AttrLatency, delta)
			for _, tgt := range q.Targets {
				arr, at, ok := prog.Arrival(si, tgt)
				if ok != !math.IsInf(ref[tgt], 1) || !sameArrival(arr, ref[tgt]) || at != refAt[tgt] {
					t.Fatalf("batch %d query %d target %d: (%v, ts %d, %v), reference (%v, ts %d)", size, si, tgt, arr, at, ok, ref[tgt], refAt[tgt])
				}
			}
			for _, v := range named {
				arr, at, ok := prog.Arrival(si, v)
				before = append(before, answer{arr, at, ok})
			}
		}
		prog.Release()
		prog.Release() // idempotent
		i := 0
		for si := range queries {
			for _, v := range named {
				arr, at, ok := prog.Arrival(si, v)
				if w := before[i]; !sameArrival(arr, w.arr) || at != w.at || ok != w.ok {
					t.Fatalf("batch %d query %d vertex %d: released (%v, ts %d, %v), before (%v, ts %d, %v)", size, si, v, arr, at, ok, w.arr, w.at, w.ok)
				}
				i++
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("batch %d: ArrivalsOf after Release did not panic", size)
				}
			}()
			prog.ArrivalsOf(0, parts, g)
		}()
		// The pool is LIFO: the next slabs out are the ones just released.
		for _, pd := range parts {
			var taken []*tdspSlab
			for range queries {
				sl := getSlab(pd.NumVertices(), len(pd.Subgraphs))
				if err := checkSlabClean(sl); err != nil {
					t.Fatalf("batch %d partition %d: pooled slab not clean: %v", size, pd.PID, err)
				}
				taken = append(taken, sl)
			}
			for _, sl := range taken {
				putSlab(sl)
			}
		}
	}
}

// TestTDSPPoolConcurrentSweeps: sweeps that take and release pooled slabs
// from several goroutines at once keep their answers exact.
func TestTDSPPoolConcurrentSweeps(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 10, Cols: 10, RemoveFrac: 0.1, Seed: 43})
	const delta, steps = 60, 12
	c := latencyFixture(t, g, steps, delta, 50)
	parts := buildParts(t, g, 3)
	n := g.NumVertices()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				src := (w*29 + i*13) % n
				q := []BatchQuery{{Source: src, Targets: []int{(src + 41) % n}}}
				prog, _, err := RunBatchTDSP(g, parts, q, 0, core.MemorySource{C: c}, delta, gen.AttrLatency, bsp.Config{CoresPerHost: 2}, nil, nil)
				if err != nil {
					t.Error(err)
					return
				}
				prog.Release()
				ref, refAt := refTDSP(c, src, 0, gen.AttrLatency, delta)
				tgt := q[0].Targets[0]
				if arr, at, ok := prog.Arrival(0, tgt); ok != !math.IsInf(ref[tgt], 1) || !sameArrival(arr, ref[tgt]) || at != refAt[tgt] {
					t.Errorf("worker %d source %d target %d: (%v, ts %d, %v), reference (%v, ts %d)", w, src, tgt, arr, at, ok, ref[tgt], refAt[tgt])
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestTDSPFailedSweepNotPooled: the slabs of a sweep that failed mid-way
// are dropped by Release, not pooled.
func TestTDSPFailedSweepNotPooled(t *testing.T) {
	g, parts, c := chainFixture(t, 8, 12)
	prog, err := NewBatchTDSP(parts, []BatchQuery{{Source: 0, Targets: []int{g.NumVertices() - 1}}}, 0, 60, gen.AttrLatency)
	if err != nil {
		t.Fatal(err)
	}
	dirty := prog.slabs[parts[0].PID][0]
	if _, err := prog.Sweep(&core.Job{Template: g, Parts: parts, Source: killSource{core.MemorySource{C: c}, 3}}); err == nil {
		t.Fatal("sweep over a failing source succeeded")
	}
	prog.Release()
	slabPool.Lock()
	defer slabPool.Unlock()
	for _, sl := range slabPool.free[len(dirty.labels)] {
		if sl == dirty {
			t.Fatal("a failed sweep's slab was pooled")
		}
	}
}
