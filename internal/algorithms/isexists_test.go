package algorithms

import (
	"math"
	"testing"

	"tsgraph/internal/core"
	"tsgraph/internal/gen"
	"tsgraph/internal/graph"
	"tsgraph/internal/partition"
	"tsgraph/internal/subgraph"
)

// TestIsExistsEdgeAppears demonstrates the paper's isExists mechanism for
// slow topology change: a bridge edge exists only from timestep 2 on, so
// TDSP can reach the far side only by waiting for the bridge to appear.
func TestIsExistsEdgeAppears(t *testing.T) {
	vs, _ := gen.StandardSchemas()
	es := graph.MustSchema(
		[]string{gen.AttrLatency, "exists"},
		[]graph.AttrType{graph.TFloat, graph.TBool},
	)
	b := graph.NewBuilder("bridge", vs, es)
	// 0 -- 1 == bridge ==> 2 -- 3 (undirected chain; the 1-2 bridge opens
	// at timestep 2).
	b.AddUndirectedEdge(0, 1)
	bridge := b.AddUndirectedEdge(1, 2)
	b.AddUndirectedEdge(2, 3)
	g := b.MustBuild()

	const delta = 10
	c := graph.NewCollection(g, 0, delta)
	li := g.EdgeSchema().Index(gen.AttrLatency)
	xi := g.EdgeSchema().Index("exists")
	for ts := 0; ts < 5; ts++ {
		ins := graph.NewInstance(g, ts, c.TimeOf(ts))
		for e := 0; e < g.NumEdges(); e++ {
			ins.EdgeCols[li].Floats[e] = 2
			ins.EdgeCols[xi].Bools[e] = g.EdgeID(e) != bridge || ts >= 2
		}
		if err := c.Append(ins); err != nil {
			t.Fatal(err)
		}
	}
	a := &partition.Assignment{K: 2, Parts: []int32{0, 0, 1, 1}}
	parts, err := subgraph.Build(g, a)
	if err != nil {
		t.Fatal(err)
	}
	prog := NewTDSP(parts, g.VertexIndex(0), delta, gen.AttrLatency)
	prog.ExistsAttr = "exists"
	res, err := core.Run(&core.Job{
		Template: g, Parts: parts,
		Source:  core.MemorySource{C: c},
		Program: prog, Pattern: core.SequentiallyDependent,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	arr := prog.Arrivals(parts, g)
	if arr[g.VertexIndex(1)] != 2 {
		t.Errorf("vertex 1 arrival %v, want 2", arr[g.VertexIndex(1)])
	}
	// Vertex 2 is only reachable once the bridge opens at t=20: wait at 1,
	// cross for 2 → arrival 22.
	if arr[g.VertexIndex(2)] != 22 {
		t.Errorf("vertex 2 arrival %v, want 22 (bridge opens at 20)", arr[g.VertexIndex(2)])
	}
	if arr[g.VertexIndex(3)] != 24 {
		t.Errorf("vertex 3 arrival %v, want 24", arr[g.VertexIndex(3)])
	}

	// Without honoring isExists the greedy traversal would cross at t=2.
	naive := NewTDSP(parts, g.VertexIndex(0), delta, gen.AttrLatency)
	if _, err := core.Run(&core.Job{
		Template: g, Parts: parts,
		Source:  core.MemorySource{C: c},
		Program: naive, Pattern: core.SequentiallyDependent,
	}); err != nil {
		t.Fatal(err)
	}
	wrong := naive.Arrivals(parts, g)
	if wrong[g.VertexIndex(2)] != 4 {
		t.Errorf("ignoring isExists should cross immediately (got %v)", wrong[g.VertexIndex(2)])
	}
}

// TestIsExistsSSSP checks single-instance SSSP honors existence too.
func TestIsExistsSSSP(t *testing.T) {
	vs, _ := gen.StandardSchemas()
	es := graph.MustSchema(
		[]string{gen.AttrLatency, "exists"},
		[]graph.AttrType{graph.TFloat, graph.TBool},
	)
	b := graph.NewBuilder("cut", vs, es)
	b.AddUndirectedEdge(0, 1)
	dead := b.AddUndirectedEdge(1, 2)
	g := b.MustBuild()
	c := graph.NewCollection(g, 0, 1)
	ins := graph.NewInstance(g, 0, 0)
	li := g.EdgeSchema().Index(gen.AttrLatency)
	xi := g.EdgeSchema().Index("exists")
	for e := 0; e < g.NumEdges(); e++ {
		ins.EdgeCols[li].Floats[e] = 1
		ins.EdgeCols[xi].Bools[e] = g.EdgeID(e) != dead
	}
	if err := c.Append(ins); err != nil {
		t.Fatal(err)
	}
	a := &partition.Assignment{K: 1, Parts: []int32{0, 0, 0}}
	parts, err := subgraph.Build(g, a)
	if err != nil {
		t.Fatal(err)
	}
	prog := NewSSSP(parts, g.VertexIndex(0), gen.AttrLatency)
	prog.ExistsAttr = "exists"
	if _, err := core.Run(&core.Job{
		Template: g, Parts: parts,
		Source:  core.MemorySource{C: c},
		Program: prog, Pattern: core.SequentiallyDependent, Timesteps: 1,
	}); err != nil {
		t.Fatal(err)
	}
	dist := prog.Distances(parts, g)
	if !math.IsInf(dist[g.VertexIndex(2)], 1) {
		t.Errorf("vertex 2 should be unreachable over a non-existent edge, got %v", dist[g.VertexIndex(2)])
	}
	if dist[g.VertexIndex(1)] != 1 {
		t.Errorf("vertex 1 dist %v, want 1", dist[g.VertexIndex(1)])
	}
}
