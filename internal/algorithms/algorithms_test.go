package algorithms

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/gen"
	"tsgraph/internal/graph"
	"tsgraph/internal/metrics"
	"tsgraph/internal/partition"
	"tsgraph/internal/subgraph"
)

type builder func(*graph.Template, *partition.Assignment) ([]*subgraph.PartitionData, error)

// builders are the two subgraph constructions: WCC subgraphs, and the
// singletons over which a subgraph-centric program is vertex-centric.
var builders = []struct {
	name  string
	build builder
}{{"Build", subgraph.Build}, {"Singletons", subgraph.Singletons}}

func buildParts(tb testing.TB, g *graph.Template, k int) []*subgraph.PartitionData {
	return buildPartsWith(tb, g, k, subgraph.Build)
}

func buildPartsWith(tb testing.TB, g *graph.Template, k int, build builder) []*subgraph.PartitionData {
	tb.Helper()
	a, err := (partition.Multilevel{Seed: 11}).Partition(g, k)
	if err != nil {
		tb.Fatal(err)
	}
	parts, err := build(g, a)
	if err != nil {
		tb.Fatal(err)
	}
	return parts
}

func latencyFixture(tb testing.TB, g *graph.Template, steps int, delta int64, maxLat float64) *graph.Collection {
	tb.Helper()
	c, err := gen.RandomLatencies(g, gen.LatencyConfig{
		Timesteps: steps, T0: 0, Delta: delta,
		Min: 1, Max: maxLat, Seed: 21,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 12, Cols: 12, RemoveFrac: 0.1, Seed: 1})
	c := latencyFixture(t, g, 1, 300, 100)
	src := g.NumVertices() / 3
	want := refDijkstra(g, src, c.Instance(0).EdgeFloats(g, gen.AttrLatency))
	for _, b := range builders {
		parts := buildPartsWith(t, g, 3, b.build)
		dist, _, err := RunSSSP(g, parts, src, core.MemorySource{C: c}, 0, gen.AttrLatency, bsp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sameDistances(dist, want); err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
	}
}

// sameDistances compares SSSP labels with a reference, Inf matching Inf.
func sameDistances(got, want []float64) error {
	for v := range got {
		if math.IsInf(got[v], 1) != math.IsInf(want[v], 1) ||
			!math.IsInf(want[v], 1) && math.Abs(got[v]-want[v]) > 1e-9 {
			return fmt.Errorf("vertex %d: %v, want %v", v, got[v], want[v])
		}
	}
	return nil
}

// TestSSSPUnweightedIsBFS also pins the vertex-centric superstep count of
// Fig 5b: over singletons, superstep s settles the vertices s hops out, the
// farthest send once more, and one quiet superstep confirms the halt.
func TestSSSPUnweightedIsBFS(t *testing.T) {
	g := gen.SmallWorld(gen.SmallWorldConfig{N: 400, M: 2, Seed: 2})
	c := latencyFixture(t, g, 1, 300, 10)
	src := 7
	levels := graph.BFSLevels(g, src)
	ecc := int(slices.Max(levels))
	for _, b := range builders {
		parts := buildPartsWith(t, g, 2, b.build)
		dist, res, err := RunSSSP(g, parts, src, core.MemorySource{C: c}, 0, "", bsp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for v := range dist {
			switch {
			case levels[v] < 0 && !math.IsInf(dist[v], 1):
				t.Fatalf("%s: vertex %d unreachable but dist %v", b.name, v, dist[v])
			case levels[v] >= 0 && dist[v] != float64(levels[v]):
				t.Fatalf("%s: vertex %d dist %v, want %d", b.name, v, dist[v], levels[v])
			}
		}
		if b.name == "Singletons" && res.Supersteps != ecc+2 {
			t.Errorf("singletons: %d supersteps, want eccentricity %d + 2", res.Supersteps, ecc)
		}
	}
}

// TestSSSPRandomGraphsProperty compares SSSP with Dijkstra on random
// directed graphs (self-loops, parallel edges) under random assignments
// that may leave partitions empty, over both subgraph constructions.
func TestSSSPRandomGraphsProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(60)
		k := 1 + int(kRaw)%4
		vs, es := gen.StandardSchemas()
		b := graph.NewBuilder("rand", vs, es)
		for i := 0; i < n; i++ {
			b.AddVertex(graph.VertexID(i))
		}
		for e := 0; e < 3*n; e++ {
			b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
		}
		g := b.MustBuild()
		c, err := gen.RandomLatencies(g, gen.LatencyConfig{Timesteps: 1, Delta: 300, Min: 1, Max: 20, Seed: seed})
		if err != nil {
			return false
		}
		a := &partition.Assignment{K: k, Parts: make([]int32, n)}
		for v := range a.Parts {
			a.Parts[v] = int32(rng.Intn(k))
		}
		src := rng.Intn(n)
		want := refDijkstra(g, src, c.Instance(0).EdgeFloats(g, gen.AttrLatency))
		for _, bl := range builders {
			parts, err := bl.build(g, a)
			if err != nil {
				return false
			}
			dist, _, err := RunSSSP(g, parts, src, core.MemorySource{C: c}, 0, gen.AttrLatency, bsp.Config{CoresPerHost: 2})
			if err != nil || sameDistances(dist, want) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSSSPFewerSuperstepsThanDiameter verifies the headline claim of the
// subgraph-centric model: supersteps scale with the number of subgraph
// crossings, not the graph diameter.
func TestSSSPFewerSuperstepsThanDiameter(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 20, Cols: 20, Seed: 3})
	parts := buildParts(t, g, 2)
	c := latencyFixture(t, g, 1, 300, 10)
	_, res, err := RunSSSP(g, parts, 0, core.MemorySource{C: c}, 0, "", bsp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Diameter is ~40; with 2 partitions the traversal crosses boundaries a
	// handful of times.
	if res.Supersteps > 15 {
		t.Errorf("subgraph-centric SSSP took %d supersteps; expected far below diameter 40", res.Supersteps)
	}
}

func TestTDSPMatchesReference(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 10, Cols: 10, RemoveFrac: 0.15, Seed: 4})
	parts := buildParts(t, g, 3)
	// Latencies up to 2δ so multi-timestep travel and waiting both matter.
	c := latencyFixture(t, g, 30, 10, 20)
	src := 0
	got, _, err := RunTDSP(g, parts, src, core.MemorySource{C: c}, 10, gen.AttrLatency, bsp.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := refTDSP(c, src, 0, gen.AttrLatency, 10)
	for v := range got {
		if math.IsInf(want[v], 1) != math.IsInf(got[v], 1) {
			t.Fatalf("vertex %d: finality mismatch %v vs %v", v, got[v], want[v])
		}
		if !math.IsInf(want[v], 1) && math.Abs(got[v]-want[v]) > 1e-9 {
			t.Fatalf("vertex %d: %v, want %v", v, got[v], want[v])
		}
	}
}

// TestTDSPRandomProperty cross-checks the distributed TDSP against the
// global reference on random graphs, assignments and latencies.
func TestTDSPRandomProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(40)
		k := 1 + int(kRaw)%4
		if k > n {
			k = n
		}
		vs, es := gen.StandardSchemas()
		b := graph.NewBuilder("rand", vs, es)
		for i := 0; i < n; i++ {
			b.AddVertex(graph.VertexID(i))
		}
		for e := 0; e < 2*n; e++ {
			b.AddUndirectedEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
		}
		g := b.MustBuild()
		c, err := gen.RandomLatencies(g, gen.LatencyConfig{
			Timesteps: 8, Delta: 5, Min: 1, Max: 12, Seed: seed + 1,
		})
		if err != nil {
			return false
		}
		a := &partition.Assignment{K: k, Parts: make([]int32, n)}
		for v := range a.Parts {
			a.Parts[v] = int32(rng.Intn(k))
		}
		parts, err := subgraph.Build(g, a)
		if err != nil {
			return false
		}
		src := rng.Intn(n)
		got, _, err := RunTDSP(g, parts, src, core.MemorySource{C: c}, 5, gen.AttrLatency, bsp.Config{}, nil)
		if err != nil {
			return false
		}
		want, _ := refTDSP(c, src, 0, gen.AttrLatency, 5)
		for v := range got {
			if math.IsInf(want[v], 1) != math.IsInf(got[v], 1) {
				return false
			}
			if !math.IsInf(want[v], 1) && math.Abs(got[v]-want[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestTDSPWaitingBeatsGreedy reconstructs the paper's Fig 5a scenario: the
// optimal time-dependent route waits at an intermediate vertex for a cheap
// future edge, beating the path that a static SSSP on the first instance
// would pick.
func TestTDSPWaitingBeatsGreedy(t *testing.T) {
	// Vertices: S=0, A=1, E=2, C=3. δ=5.
	//   g0: S→A=5, S→E=5, E→C=2 (but E is only reached at t=5, see below),
	//       A→C=30.
	//   g1: E→C=100, A→C=30.
	//   g2: A→C=4, E→C=100.
	// Static SSSP on g0 picks S→E→C (estimate 7); but E is reached at t=5,
	// the boundary, when E→C has become 100 → actual arrival 105.
	// TDSP: S→A by t=5, wait during g1, then A→C in 4 → arrival 14.
	vs, es := gen.StandardSchemas()
	b := graph.NewBuilder("fig5a", vs, es)
	const S, A, E, C = 0, 1, 2, 3
	sa := b.AddEdge(S, A)
	se := b.AddEdge(S, E)
	ec := b.AddEdge(E, C)
	ac := b.AddEdge(A, C)
	g := b.MustBuild()
	slot := func(id graph.EdgeID) int {
		for e := 0; e < g.NumEdges(); e++ {
			if g.EdgeID(e) == id {
				return e
			}
		}
		t.Fatalf("edge %d not found", id)
		return -1
	}
	const delta = 5
	col := graph.NewCollection(g, 0, delta)
	lat := [][4]float64{
		// [sa, se, ec, ac] per timestep
		{5, 5, 2, 30},
		{100, 100, 100, 30},
		{100, 100, 100, 4},
		{100, 100, 100, 100},
	}
	li := g.EdgeSchema().Index(gen.AttrLatency)
	for ts := range lat {
		ins := graph.NewInstance(g, ts, col.TimeOf(ts))
		ins.EdgeCols[li].Floats[slot(sa)] = lat[ts][0]
		ins.EdgeCols[li].Floats[slot(se)] = lat[ts][1]
		ins.EdgeCols[li].Floats[slot(ec)] = lat[ts][2]
		ins.EdgeCols[li].Floats[slot(ac)] = lat[ts][3]
		if err := col.Append(ins); err != nil {
			t.Fatal(err)
		}
	}
	a := &partition.Assignment{K: 2, Parts: []int32{0, 0, 1, 1}}
	parts, err := subgraph.Build(g, a)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := RunTDSP(g, parts, g.VertexIndex(S), core.MemorySource{C: col}, delta, gen.AttrLatency, bsp.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[g.VertexIndex(C)] != 14 {
		t.Errorf("TDSP(C) = %v, want 14 (wait at A, then A→C)", got[g.VertexIndex(C)])
	}
	if got[g.VertexIndex(A)] != 5 {
		t.Errorf("TDSP(A) = %v, want 5", got[g.VertexIndex(A)])
	}
	// The greedy estimate on g0 alone would have been 7 via E; confirm the
	// naive route is actually worse in the time-dependent model.
	if got[g.VertexIndex(E)] != 5 {
		t.Errorf("TDSP(E) = %v, want 5", got[g.VertexIndex(E)])
	}
}

func TestTDSPStopsEarlyWhenAllFinalized(t *testing.T) {
	// A small-world graph with generous latencies finalizes everything
	// quickly; the run must stop well before the timestep bound.
	g := gen.SmallWorld(gen.SmallWorldConfig{N: 200, M: 3, Seed: 5})
	parts := buildParts(t, g, 2)
	c := latencyFixture(t, g, 40, 100, 30)
	rec := metrics.NewRecorder(2)
	_, res, err := RunTDSP(g, parts, 0, core.MemorySource{C: c}, 100, gen.AttrLatency, bsp.Config{}, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HaltedEarly {
		t.Error("expected early halt once all vertices finalized")
	}
	if res.TimestepsRun >= 40 {
		t.Errorf("ran %d timesteps; expected early convergence", res.TimestepsRun)
	}
	if rec.CounterTotal(CounterFinalized) != int64(g.NumVertices()) {
		t.Errorf("finalized counter %d, want %d", rec.CounterTotal(CounterFinalized), g.NumVertices())
	}
}

func TestTDSPOutputsMatchArrivals(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 6, Cols: 6, Seed: 6})
	parts := buildParts(t, g, 2)
	c := latencyFixture(t, g, 20, 10, 15)
	prog := NewTDSP(parts, 0, 10, gen.AttrLatency)
	res, err := core.Run(&core.Job{
		Template: g, Parts: parts,
		Source:  core.MemorySource{C: c},
		Program: prog, Pattern: core.SequentiallyDependent,
	})
	if err != nil {
		t.Fatal(err)
	}
	arr := prog.Arrivals(parts, g)
	seen := map[graph.VertexID]bool{}
	for _, o := range res.Outputs {
		r, ok := o.Data.(TDSPResult)
		if !ok {
			continue
		}
		if seen[r.Vertex] {
			t.Fatalf("vertex %d finalized twice", r.Vertex)
		}
		seen[r.Vertex] = true
		if arr[g.VertexIndex(r.Vertex)] != r.Arrival {
			t.Fatalf("vertex %d: output %v, state %v", r.Vertex, r.Arrival, arr[g.VertexIndex(r.Vertex)])
		}
		if r.Timestep != int(r.Arrival/10) && r.Arrival != float64(r.Timestep+1)*10 {
			t.Fatalf("vertex %d finalized at ts %d with arrival %v outside its horizon", r.Vertex, r.Timestep, r.Arrival)
		}
	}
	finals := 0
	for v := range arr {
		if !math.IsInf(arr[v], 1) {
			finals++
		}
	}
	if len(seen) != finals {
		t.Errorf("%d outputs but %d finalized vertices", len(seen), finals)
	}
}

func memeFixture(tb testing.TB, g *graph.Template, steps int, hitProb float64) *gen.SIRResult {
	tb.Helper()
	res, err := gen.SIRTweets(g, gen.SIRConfig{
		Timesteps: steps, T0: 0, Delta: 60,
		Memes: []string{"#viral"}, SeedsPerMeme: 2,
		HitProb: hitProb, RecoverAfter: 4, Seed: 31,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func TestMemeMatchesReference(t *testing.T) {
	g := gen.SmallWorld(gen.SmallWorldConfig{N: 600, M: 2, Seed: 7})
	parts := buildParts(t, g, 3)
	sir := memeFixture(t, g, 15, 0.2)
	got, _, err := RunMeme(g, parts, "#viral", gen.AttrTweets, core.MemorySource{C: sir.Collection}, bsp.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := refMeme(sir.Collection, "#viral", gen.AttrTweets)
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("vertex %d colored at %d, want %d", v, got[v], want[v])
		}
	}
}

// TestMemeRandomProperty cross-checks meme tracking against the reference
// on random graphs and partitions.
func TestMemeRandomProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(80)
		k := 1 + int(kRaw)%4
		vs, es := gen.StandardSchemas()
		b := graph.NewBuilder("rand", vs, es)
		for i := 0; i < n; i++ {
			b.AddVertex(graph.VertexID(i))
		}
		for e := 0; e < 2*n; e++ {
			b.AddUndirectedEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
		}
		g := b.MustBuild()
		sir, err := gen.SIRTweets(g, gen.SIRConfig{
			Timesteps: 6, Delta: 1, Memes: []string{"#m"},
			SeedsPerMeme: 2, HitProb: 0.4, Seed: seed,
		})
		if err != nil {
			return false
		}
		a := &partition.Assignment{K: k, Parts: make([]int32, n)}
		for v := range a.Parts {
			a.Parts[v] = int32(rng.Intn(k))
		}
		parts, err := subgraph.Build(g, a)
		if err != nil {
			return false
		}
		got, _, err := RunMeme(g, parts, "#m", gen.AttrTweets, core.MemorySource{C: sir.Collection}, bsp.Config{}, nil)
		if err != nil {
			return false
		}
		want := refMeme(sir.Collection, "#m", gen.AttrTweets)
		for v := range got {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMemeCountersMatchColoring(t *testing.T) {
	g := gen.SmallWorld(gen.SmallWorldConfig{N: 300, M: 2, Seed: 8})
	parts := buildParts(t, g, 2)
	sir := memeFixture(t, g, 10, 0.3)
	rec := metrics.NewRecorder(2)
	got, _, err := RunMeme(g, parts, "#viral", gen.AttrTweets, core.MemorySource{C: sir.Collection}, bsp.Config{}, rec)
	if err != nil {
		t.Fatal(err)
	}
	coloredTotal := 0
	for _, at := range got {
		if at >= 0 {
			coloredTotal++
		}
	}
	if rec.CounterTotal(CounterColored) != int64(coloredTotal) {
		t.Errorf("colored counter %d, want %d", rec.CounterTotal(CounterColored), coloredTotal)
	}
}

func TestHashtagMatchesDirectCount(t *testing.T) {
	g := gen.SmallWorld(gen.SmallWorldConfig{N: 400, M: 2, Seed: 9})
	parts := buildParts(t, g, 3)
	sir := memeFixture(t, g, 12, 0.25)
	stats, _, err := RunHashtag(g, parts, "#viral", gen.AttrTweets, core.MemorySource{C: sir.Collection}, bsp.Config{}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := refHashtagCounts(sir.Collection, "#viral", gen.AttrTweets)
	if len(stats.Counts) != len(want) {
		t.Fatalf("counts length %d, want %d", len(stats.Counts), len(want))
	}
	var total int64
	for ts := range want {
		if stats.Counts[ts] != want[ts] {
			t.Fatalf("timestep %d count %d, want %d", ts, stats.Counts[ts], want[ts])
		}
		total += want[ts]
	}
	if stats.Total != total {
		t.Errorf("total %d, want %d", stats.Total, total)
	}
	if stats.Counts[stats.PeakTimestep] < stats.Counts[0] {
		t.Error("peak timestep is not the maximum")
	}
}

func TestHashtagTemporalParallelismEquivalent(t *testing.T) {
	g := gen.SmallWorld(gen.SmallWorldConfig{N: 300, M: 2, Seed: 10})
	parts := buildParts(t, g, 2)
	sir := memeFixture(t, g, 8, 0.3)
	seqStats, _, err := RunHashtag(g, parts, "#viral", gen.AttrTweets, core.MemorySource{C: sir.Collection}, bsp.Config{}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	parStats, _, err := RunHashtag(g, parts, "#viral", gen.AttrTweets, core.MemorySource{C: sir.Collection}, bsp.Config{}, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	for ts := range seqStats.Counts {
		if seqStats.Counts[ts] != parStats.Counts[ts] {
			t.Fatalf("timestep %d: sequential %d != parallel %d", ts, seqStats.Counts[ts], parStats.Counts[ts])
		}
	}
}

func TestMasterSubgraphSelection(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 10, Cols: 10, Seed: 12})
	parts := buildParts(t, g, 3)
	m := masterSubgraph(parts)
	if m.Partition() != 0 {
		t.Errorf("master in partition %d, want 0", m.Partition())
	}
	size := parts[0].Subgraphs[m.Index()].NumVertices()
	for _, sg := range parts[0].Subgraphs {
		if sg.NumVertices() > size {
			t.Errorf("master is not the largest subgraph of partition 0")
		}
	}
	if masterSubgraph(nil) != subgraph.MakeID(0, 0) {
		t.Error("empty parts should give 0/0")
	}
}
