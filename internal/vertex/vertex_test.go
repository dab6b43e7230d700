package vertex

import (
	"container/heap"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"tsgraph/internal/gen"
	"tsgraph/internal/graph"
	"tsgraph/internal/partition"
)

func assignmentFor(tb testing.TB, g *graph.Template, k int) *partition.Assignment {
	tb.Helper()
	a, err := (partition.Multilevel{Seed: 7}).Partition(g, k)
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

func TestEngineHaltImmediately(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 6, Cols: 6, Seed: 1})
	a := assignmentFor(t, g, 2)
	e, err := NewEngine(g, a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var calls int64
	prog := ComputeFunc(func(ctx *Context, u int, superstep int, msgs []float64) {
		atomic.AddInt64(&calls, 1)
		ctx.VoteToHalt()
	})
	res, err := e.Run(prog, nil)
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
	a := assignmentFor(t, g, 3)
	src := g.NumVertices() / 2
	dist, res, err := BFS(g, a, Config{}, src)
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
	// Superstep count ≈ eccentricity of src + constant: the structural cost
	// the paper attributes to vertex-centric BFS.
	maxLevel := int32(0)
	for _, d := range want {
		if d > maxLevel {
			maxLevel = d
		}
	}
	if res.Supersteps < int(maxLevel) {
		t.Errorf("supersteps %d below source eccentricity %d", res.Supersteps, maxLevel)
	}
}

// dijkstra is the reference SSSP implementation.
func dijkstra(g *graph.Template, src int, weights []float64) []float64 {
	dist := make([]float64, g.NumVertices())
	for i := range dist {
		dist[i] = Inf
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
			w := 1.0
			if weights != nil {
				w = weights[e]
			}
			nd := it.d + w
			v := g.Target(e)
			if nd < dist[v] {
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
	a := assignmentFor(t, g, 3)
	rng := rand.New(rand.NewSource(4))
	weights := make([]float64, g.NumEdges())
	for e := range weights {
		weights[e] = 1 + rng.Float64()*9
	}
	src := 0
	dist, _, err := SSSP(g, a, Config{}, src, weights)
	if err != nil {
		t.Fatal(err)
	}
	want := dijkstra(g, src, weights)
	for v := range dist {
		if math.Abs(dist[v]-want[v]) > 1e-9 {
			t.Fatalf("vertex %d: %v, want %v", v, dist[v], want[v])
		}
	}
}

// TestSSSPRandomGraphsProperty compares against Dijkstra on random graphs
// with random weights and partition counts.
func TestSSSPRandomGraphsProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(60)
		k := 1 + int(kRaw)%4
		if k > n {
			k = n
		}
		b := graph.NewBuilder("rand", nil, nil)
		for i := 0; i < n; i++ {
			b.AddVertex(graph.VertexID(i))
		}
		for e := 0; e < 3*n; e++ {
			b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
		}
		g := b.MustBuild()
		a := &partition.Assignment{K: k, Parts: make([]int32, n)}
		for v := range a.Parts {
			a.Parts[v] = int32(rng.Intn(k))
		}
		weights := make([]float64, g.NumEdges())
		for e := range weights {
			weights[e] = float64(1 + rng.Intn(20))
		}
		src := rng.Intn(n)
		dist, _, err := SSSP(g, a, Config{CoresPerHost: 2}, src, weights)
		if err != nil {
			return false
		}
		want := dijkstra(g, src, weights)
		for v := range dist {
			if math.IsInf(want[v], 1) != math.IsInf(dist[v], 1) {
				return false
			}
			if !math.IsInf(want[v], 1) && math.Abs(dist[v]-want[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCombinerReducesMessages(t *testing.T) {
	g := gen.SmallWorld(gen.SmallWorldConfig{N: 500, M: 3, Seed: 5})
	a := assignmentFor(t, g, 2)
	src := 0
	_, withComb, err := SSSP(g, a, Config{Combiner: math.Min}, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Without combiner (explicitly disabled through a fresh engine).
	e, err := NewEngine(g, a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	prog := &ssspProgram{src: src, dist: make([]float64, g.NumVertices())}
	for i := range prog.dist {
		prog.dist[i] = Inf
	}
	noComb, err := e.Run(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if withComb.Messages >= noComb.Messages {
		t.Errorf("combiner did not reduce messages: %d vs %d", withComb.Messages, noComb.Messages)
	}
}

func TestInitialMessages(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 4, Cols: 4, Seed: 6})
	a := assignmentFor(t, g, 2)
	e, err := NewEngine(g, a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var got atomic.Value
	prog := ComputeFunc(func(ctx *Context, u int, superstep int, msgs []float64) {
		if u == 5 && superstep == 0 && len(msgs) > 0 {
			got.Store(msgs[0])
		}
		ctx.VoteToHalt()
	})
	if _, err := e.Run(prog, []Message{{To: 5, Value: 42}}); err != nil {
		t.Fatal(err)
	}
	if got.Load() != 42.0 {
		t.Errorf("initial message = %v, want 42", got.Load())
	}
}

func TestMaxSuperstepsEnforced(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 3, Cols: 3, Seed: 7})
	a := assignmentFor(t, g, 1)
	e, err := NewEngine(g, a, Config{MaxSupersteps: 4})
	if err != nil {
		t.Fatal(err)
	}
	prog := ComputeFunc(func(ctx *Context, u int, superstep int, msgs []float64) {
		// never halts
	})
	if _, err := e.Run(prog, nil); err == nil {
		t.Fatal("expected MaxSupersteps error")
	}
}

func TestBadAssignmentRejected(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 3, Cols: 3, Seed: 8})
	bad := &partition.Assignment{K: 2, Parts: make([]int32, 1)}
	if _, err := NewEngine(g, bad, Config{}); err == nil {
		t.Fatal("bad assignment accepted")
	}
}

func TestMessagesToInvalidVertexDropped(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 3, Cols: 3, Seed: 9})
	a := assignmentFor(t, g, 1)
	e, err := NewEngine(g, a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	prog := ComputeFunc(func(ctx *Context, u int, superstep int, msgs []float64) {
		if superstep == 0 && u == 0 {
			ctx.SendTo(-1, 1)
			ctx.SendTo(10_000, 1)
		}
		ctx.VoteToHalt()
	})
	res, err := e.Run(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps > 2 {
		t.Errorf("supersteps = %d", res.Supersteps)
	}
}
