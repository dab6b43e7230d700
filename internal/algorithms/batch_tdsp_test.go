package algorithms

import (
	"fmt"
	"math"
	"testing"

	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/gen"
	"tsgraph/internal/graph"
	"tsgraph/internal/partition"
	"tsgraph/internal/subgraph"
)

func sameArrival(a, b float64) bool {
	return math.IsInf(a, 1) == math.IsInf(b, 1) && (math.IsInf(a, 1) || math.Abs(a-b) <= 1e-9)
}

// TestBatchTDSPMatchesReference anchors the one Algorithm 2 implementation
// to the independent refTDSP (RunTDSP is the same code, so it is no
// oracle): four sources per sweep over seeds × {depart 0, depart > 0} ×
// {no targets, targets}. Without targets every arrival of every source
// must match; with targets the named arrivals and their finalize timesteps
// must, and the sweep must stop right after the last target resolves.
func TestBatchTDSPMatchesReference(t *testing.T) {
	const steps, delta = 10, 60
	// Seed 7 is the serve and shard test fixture's graph.
	for _, seed := range []int64{7, 41, 43, 45} {
		g := gen.RoadNetwork(gen.RoadConfig{Rows: 8, Cols: 8, RemoveFrac: 0.1, Seed: seed})
		c, err := gen.RandomLatencies(g, gen.LatencyConfig{Timesteps: steps, Delta: delta, Min: 1, Max: 50, Seed: seed + 1})
		if err != nil {
			t.Fatal(err)
		}
		parts := buildParts(t, g, 3)
		n := g.NumVertices()
		sources := []int{0, 17, 40, n - 1}
		for _, depart := range []int{0, 3} {
			for _, withTargets := range []bool{false, true} {
				name := fmt.Sprintf("seed %d depart %d targets %v", seed, depart, withTargets)
				queries := make([]BatchQuery, len(sources))
				for i, s := range sources {
					queries[i] = BatchQuery{Source: s}
					if withTargets {
						// The duplicate must be deduplicated, not counted twice.
						queries[i].Targets = []int{(s + 23) % n, (s + 5) % n, (s + 23) % n}
					}
				}
				prog, res, err := RunBatchTDSP(g, parts, queries, depart, core.MemorySource{C: c}, delta, gen.AttrLatency, bsp.Config{}, nil, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				wantRun := steps
				if withTargets {
					wantRun = depart + 1
				}
				for si, s := range sources {
					want, wantAt := refTDSP(c, s, depart, gen.AttrLatency, delta)
					if !withTargets {
						got := prog.ArrivalsOf(si, parts, g)
						for v := range want {
							if !sameArrival(got[v], want[v]) {
								t.Fatalf("%s: source %d vertex %d: arrival %v, reference %v", name, s, v, got[v], want[v])
							}
						}
					}
					for _, tgt := range queries[si].Targets {
						arr, at, ok := prog.Arrival(si, tgt)
						if ok != !math.IsInf(want[tgt], 1) || !sameArrival(arr, want[tgt]) || at != wantAt[tgt] {
							t.Fatalf("%s: source %d target %d: (%v, ts %d, %v), reference (%v, ts %d)", name, s, tgt, arr, at, ok, want[tgt], wantAt[tgt])
						}
						if wantAt[tgt] < 0 {
							wantRun = steps // an unreachable target runs the window out
						} else if wantAt[tgt]+1 > wantRun {
							wantRun = wantAt[tgt] + 1
						}
					}
					// A vertex no query of the batch named is not resolvable.
					if _, _, ok := prog.Arrival(si, 33); ok {
						t.Fatalf("%s: unnamed vertex resolved", name)
					}
				}
				if res.TimestepsRun != wantRun {
					t.Fatalf("%s: ran to timestep %d, reference says %d", name, res.TimestepsRun, wantRun)
				}
			}
		}
	}
}

// chainFixture is a 2-partition template whose partitions each hold several
// subgraphs (disjoint 3-vertex chains, alternately bridged across the cut),
// so one partition's subgraphs compute concurrently.
func chainFixture(tb testing.TB, chains, steps int) (*graph.Template, []*subgraph.PartitionData, *graph.Collection) {
	tb.Helper()
	vs, es := gen.StandardSchemas()
	b := graph.NewBuilder("chains", vs, es)
	n := 3 * chains
	assign := &partition.Assignment{K: 2, Parts: make([]int32, n)}
	for v := 0; v < n; v++ {
		b.AddVertex(graph.VertexID(v))
		assign.Parts[v] = int32(v / 3 % 2)
	}
	for ch := 0; ch < chains; ch++ {
		b.AddUndirectedEdge(graph.VertexID(3*ch), graph.VertexID(3*ch+1))
		b.AddUndirectedEdge(graph.VertexID(3*ch+1), graph.VertexID(3*ch+2))
		if ch+1 < chains {
			b.AddUndirectedEdge(graph.VertexID(3*ch+2), graph.VertexID(3*ch+3))
		}
	}
	g := b.MustBuild()
	parts, err := subgraph.Build(g, assign)
	if err != nil {
		tb.Fatal(err)
	}
	for _, pd := range parts {
		if len(pd.Subgraphs) < 2 {
			tb.Fatalf("partition %d has %d subgraphs, want >= 2", pd.PID, len(pd.Subgraphs))
		}
	}
	c, err := gen.RandomLatencies(g, gen.LatencyConfig{Timesteps: steps, Delta: 60, Min: 5, Max: 40, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	return g, parts, c
}

// TestBatchTDSPConcurrentSubgraphs is the -race regression for query
// liveness: with several subgraphs per partition on two compute goroutines
// the liveness decision must not be a write shared by the partition's
// subgraphs, and a query retiring mid-sweep must leave answers exact.
func TestBatchTDSPConcurrentSubgraphs(t *testing.T) {
	g, parts, c := chainFixture(t, 8, 12)
	n := g.NumVertices()
	queries := []BatchQuery{
		{Source: 0, Targets: []int{4}},     // resolves early, retires
		{Source: 9, Targets: []int{n - 1}}, // keeps the sweep going
		{Source: n - 1, Targets: []int{0, 7}},
	}
	prog, _, err := RunBatchTDSP(g, parts, queries, 0, core.MemorySource{C: c}, 60, gen.AttrLatency, bsp.Config{CoresPerHost: 2}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for si, q := range queries {
		want, wantAt := refTDSP(c, q.Source, 0, gen.AttrLatency, 60)
		for _, tgt := range q.Targets {
			arr, at, ok := prog.Arrival(si, tgt)
			if !ok || !sameArrival(arr, want[tgt]) || at != wantAt[tgt] {
				t.Fatalf("query %d target %d: (%v, ts %d, %v), reference (%v, ts %d)", si, tgt, arr, at, ok, want[tgt], wantAt[tgt])
			}
		}
	}
}

// killSource fails the load of one timestep, standing in for a crash.
type killSource struct {
	core.MemorySource
	failAt int
}

func (k killSource) Load(ts int) (*graph.Instance, error) {
	if ts == k.failAt {
		return nil, fmt.Errorf("injected crash at timestep %d", ts)
	}
	return k.MemorySource.Load(ts)
}

// TestBatchTDSPCheckpointResume: a batch killed after one of its queries
// retired resumes from the timestep-boundary checkpoint into exactly the
// state of the uninterrupted sweep — retirement included, so the retired
// query's frozen arrivals are not recomputed.
func TestBatchTDSPCheckpointResume(t *testing.T) {
	g, parts, c := chainFixture(t, 8, 12)
	n := g.NumVertices()
	queries := func() []BatchQuery {
		return []BatchQuery{{Source: 0, Targets: []int{4}}, {Source: 9, Targets: []int{n - 1}}}
	}
	run := func(src core.InstanceSource, dir string, resume bool) (*BatchTDSPProgram, error) {
		prog, err := NewBatchTDSP(parts, queries(), 0, 60, gen.AttrLatency)
		if err != nil {
			t.Fatal(err)
		}
		_, err = core.Run(&core.Job{
			Template: g, Parts: parts, Source: src, Program: prog,
			Pattern: core.SequentiallyDependent, CheckpointDir: dir, Resume: resume,
		})
		return prog, err
	}
	mem := core.MemorySource{C: c}
	ref, err := run(mem, "", false)
	if err != nil {
		t.Fatal(err)
	}
	_, at, ok := ref.Arrival(0, 4)
	const failAt = 6
	if !ok || at >= failAt-1 {
		t.Fatalf("fixture: query 0 must retire before the kill (finalized at %d, %v)", at, ok)
	}
	dir := t.TempDir()
	if _, err := run(killSource{mem, failAt}, dir, false); err == nil {
		t.Fatal("interrupted run finished cleanly, want injected failure")
	}
	resumed, err := run(mem, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	for si := range queries() {
		want, got := ref.ArrivalsOf(si, parts, g), resumed.ArrivalsOf(si, parts, g)
		for v := range want {
			if !sameArrival(got[v], want[v]) {
				t.Fatalf("query %d vertex %d: resumed arrival %v, uninterrupted %v", si, v, got[v], want[v])
			}
		}
	}
}

func TestBatchTDSPValidation(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 3, Cols: 3, Seed: 47})
	parts := buildParts(t, g, 1)
	if _, err := NewBatchTDSP(parts, nil, 0, 60, gen.AttrLatency); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := NewBatchTDSP(parts, []BatchQuery{{Source: 1}, {Source: 1}}, 0, 60, gen.AttrLatency); err == nil {
		t.Error("duplicate sources accepted")
	}
	if _, err := NewBatchTDSP(parts, []BatchQuery{{Source: 0}}, -1, 60, gen.AttrLatency); err == nil {
		t.Error("negative departure accepted")
	}
	if _, err := NewBatchTDSP(parts, []BatchQuery{{Source: 99}}, 0, 60, gen.AttrLatency); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := NewBatchTDSP(parts, []BatchQuery{{Source: 0, Targets: []int{99}}}, 0, 60, gen.AttrLatency); err == nil {
		t.Error("out-of-range target accepted")
	}
}
