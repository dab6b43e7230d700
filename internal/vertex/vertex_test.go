// Package vertex tests the vertex-centric (Pregel) model as this repo runs
// it: the one bsp engine over subgraph.Singletons, where each subgraph holds
// one vertex. It has no code of its own.
package vertex

import (
	"container/heap"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"tsgraph/internal/algorithms"
	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/gen"
	"tsgraph/internal/graph"
	"tsgraph/internal/partition"
	"tsgraph/internal/subgraph"
)

func singletonsFor(tb testing.TB, g *graph.Template, k int) []*subgraph.PartitionData {
	tb.Helper()
	a, err := (partition.Multilevel{Seed: 7}).Partition(g, k)
	if err != nil {
		tb.Fatal(err)
	}
	parts, err := subgraph.Singletons(g, a)
	if err != nil {
		tb.Fatal(err)
	}
	return parts
}

// subgraphOf returns the singleton subgraph holding template vertex v.
func subgraphOf(tb testing.TB, parts []*subgraph.PartitionData, v int) subgraph.ID {
	tb.Helper()
	for _, pd := range parts {
		for _, sg := range pd.Subgraphs {
			if int(pd.GlobalIdx[sg.Verts[0]]) == v {
				return sg.SID
			}
		}
	}
	tb.Fatalf("vertex %d in no subgraph", v)
	return 0
}

func latencies(tb testing.TB, g *graph.Template, maxLat float64) *graph.Collection {
	tb.Helper()
	c, err := gen.RandomLatencies(g, gen.LatencyConfig{Timesteps: 1, Delta: 300, Min: 1, Max: maxLat, Seed: 4})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func TestEngineHaltImmediately(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 6, Cols: 6, Seed: 1})
	e := bsp.NewEngine(singletonsFor(t, g, 2), bsp.Config{})
	var calls int64
	prog := bsp.ComputeFunc(func(ctx *bsp.Context, sg *subgraph.Subgraph, superstep int, msgs []bsp.Message) {
		atomic.AddInt64(&calls, 1)
		ctx.VoteToHalt()
	})
	res, err := e.Run(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps != 1 {
		t.Errorf("supersteps = %d, want 1", res.Supersteps)
	}
	if calls != int64(g.NumVertices()) {
		t.Errorf("calls = %d, want %d", calls, g.NumVertices())
	}
}

func TestBFSMatchesReference(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 10, Cols: 10, RemoveFrac: 0.1, Seed: 2})
	parts := singletonsFor(t, g, 3)
	src := g.NumVertices() / 2
	dist, res, err := algorithms.RunSSSP(g, parts, src, core.MemorySource{C: latencies(t, g, 10)}, 0, "", bsp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := graph.BFSLevels(g, src)
	for v := range dist {
		switch {
		case want[v] < 0 && !math.IsInf(dist[v], 1):
			t.Fatalf("vertex %d: unreachable but dist %v", v, dist[v])
		case want[v] >= 0 && dist[v] != float64(want[v]):
			t.Fatalf("vertex %d: dist %v, want %d", v, dist[v], want[v])
		}
	}
	// One superstep per hop: the structural cost the paper attributes to
	// vertex-centric BFS.
	if ecc := int(slices.Max(want)); res.Supersteps != ecc+2 {
		t.Errorf("supersteps %d, want source eccentricity %d + 2", res.Supersteps, ecc)
	}
}

// dijkstra is the reference SSSP implementation.
func dijkstra(g *graph.Template, src int, weights []float64) []float64 {
	dist := make([]float64, g.NumVertices())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	pq := &vheap{{src, 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(vitem)
		if it.d > dist[it.v] {
			continue
		}
		lo, hi := g.OutEdges(it.v)
		for e := lo; e < hi; e++ {
			nd := it.d + weights[e]
			if v := g.Target(e); nd < dist[v] {
				dist[v] = nd
				heap.Push(pq, vitem{v, nd})
			}
		}
	}
	return dist
}

type vitem struct {
	v int
	d float64
}
type vheap []vitem

func (h vheap) Len() int            { return len(h) }
func (h vheap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h vheap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *vheap) Push(x interface{}) { *h = append(*h, x.(vitem)) }
func (h *vheap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func TestSSSPWeightedMatchesDijkstra(t *testing.T) {
	g := gen.SmallWorld(gen.SmallWorldConfig{N: 300, M: 2, Seed: 3})
	parts := singletonsFor(t, g, 3)
	c := latencies(t, g, 10)
	src := 0
	dist, _, err := algorithms.RunSSSP(g, parts, src, core.MemorySource{C: c}, 0, gen.AttrLatency, bsp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := dijkstra(g, src, c.Instance(0).EdgeFloats(g, gen.AttrLatency))
	for v := range dist {
		if math.IsInf(want[v], 1) != math.IsInf(dist[v], 1) ||
			!math.IsInf(want[v], 1) && math.Abs(dist[v]-want[v]) > 1e-9 {
			t.Fatalf("vertex %d: %v, want %v", v, dist[v], want[v])
		}
	}
}

func TestInitialMessages(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 4, Cols: 4, Seed: 6})
	parts := singletonsFor(t, g, 2)
	target := subgraphOf(t, parts, 5)
	var got atomic.Value
	prog := bsp.ComputeFunc(func(ctx *bsp.Context, sg *subgraph.Subgraph, superstep int, msgs []bsp.Message) {
		if sg.SID == target && superstep == 0 && len(msgs) > 0 {
			got.Store(msgs[0].Payload)
		}
		ctx.VoteToHalt()
	})
	if _, err := bsp.NewEngine(parts, bsp.Config{}).Run(prog, []bsp.Message{{To: target, Payload: 42.0}}, nil); err != nil {
		t.Fatal(err)
	}
	if got.Load() != 42.0 {
		t.Errorf("initial message = %v, want 42", got.Load())
	}
}

func TestMaxSuperstepsEnforced(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 3, Cols: 3, Seed: 7})
	e := bsp.NewEngine(singletonsFor(t, g, 1), bsp.Config{MaxSupersteps: 4})
	prog := bsp.ComputeFunc(func(ctx *bsp.Context, sg *subgraph.Subgraph, superstep int, msgs []bsp.Message) {
		// never halts
	})
	if _, err := e.Run(prog, nil, nil); err == nil {
		t.Fatal("expected MaxSupersteps error")
	}
}

func TestBadAssignmentRejected(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 3, Cols: 3, Seed: 8})
	bad := &partition.Assignment{K: 2, Parts: make([]int32, 1)}
	if _, err := subgraph.Singletons(g, bad); err == nil {
		t.Fatal("bad assignment accepted")
	}
}

func TestMessagesToInvalidVertexDropped(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 3, Cols: 3, Seed: 9})
	parts := singletonsFor(t, g, 1)
	from := subgraphOf(t, parts, 0)
	prog := bsp.ComputeFunc(func(ctx *bsp.Context, sg *subgraph.Subgraph, superstep int, msgs []bsp.Message) {
		if superstep == 0 && sg.SID == from {
			ctx.SendTo(subgraph.MakeID(0, -1), 1.0)
			ctx.SendTo(subgraph.MakeID(0, 10_000), 1.0)
		}
		ctx.VoteToHalt()
	})
	res, err := bsp.NewEngine(parts, bsp.Config{}).Run(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps > 2 {
		t.Errorf("supersteps = %d", res.Supersteps)
	}
	if res.MsgsDropped != 2 {
		t.Errorf("MsgsDropped = %d, want 2", res.MsgsDropped)
	}
}
