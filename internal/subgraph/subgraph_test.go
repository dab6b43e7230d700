package subgraph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"tsgraph/internal/gen"
	"tsgraph/internal/graph"
	"tsgraph/internal/partition"
)

func TestMakeID(t *testing.T) {
	id := MakeID(3, 17)
	if id.Partition() != 3 || id.Index() != 17 {
		t.Fatalf("MakeID round trip: %d/%d", id.Partition(), id.Index())
	}
	if id.String() != "3/17" {
		t.Errorf("String = %q", id.String())
	}
	big := MakeID(123456, 7890123)
	if big.Partition() != 123456 || big.Index() != 7890123 {
		t.Errorf("large ids: %d/%d", big.Partition(), big.Index())
	}
}

func TestIDOrdering(t *testing.T) {
	if MakeID(0, 5) >= MakeID(1, 0) {
		t.Error("IDs should order by partition first")
	}
	if MakeID(2, 1) >= MakeID(2, 2) {
		t.Error("IDs should order by index second")
	}
}

type builder func(*graph.Template, *partition.Assignment) ([]*PartitionData, error)

// builders are the two constructions every invariant must hold for.
var builders = []struct {
	name  string
	build builder
}{{"Build", Build}, {"Singletons", Singletons}}

func buildFor(t *testing.T, g *graph.Template, k int, build builder) []*PartitionData {
	t.Helper()
	a, err := (partition.Multilevel{Seed: 9}).Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := build(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, parts); err != nil {
		t.Fatal(err)
	}
	return parts
}

// checkSingletons asserts the shape of Singletons: one vertex per subgraph,
// and every edge remote except a self-loop. It returns how many remote edges
// stay inside their partition.
func checkSingletons(g *graph.Template, parts []*PartitionData) (intra int, err error) {
	for _, pd := range parts {
		for _, sg := range pd.Subgraphs {
			if len(sg.Verts) != 1 {
				return 0, fmt.Errorf("%v has %d vertices", sg.SID, len(sg.Verts))
			}
		}
		for lv := 0; lv < pd.NumVertices(); lv++ {
			lo, hi := pd.OutEdges(lv)
			for e := lo; e < hi; e++ {
				remote, ri := pd.IsRemote(e)
				selfLoop := g.Target(int(pd.EdgeGlobal[e])) == int(pd.GlobalIdx[lv])
				if remote == selfLoop {
					return 0, fmt.Errorf("partition %d edge slot %d: remote %v, self-loop %v", pd.PID, e, remote, selfLoop)
				}
				if remote && int(pd.Remote[ri].TargetPartition) == pd.PID {
					intra++
				}
			}
		}
	}
	return intra, nil
}

func TestBuildRoad(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 20, Cols: 20, RemoveFrac: 0.1, Seed: 2})
	parts := buildFor(t, g, 4, Build)
	if len(parts) != 4 {
		t.Fatalf("%d partitions", len(parts))
	}
	totalV, totalE, totalRemote := 0, 0, 0
	for _, pd := range parts {
		totalV += pd.NumVertices()
		totalE += len(pd.Targets)
		totalRemote += len(pd.Remote)
	}
	if totalV != g.NumVertices() {
		t.Errorf("partitions own %d vertices, template has %d", totalV, g.NumVertices())
	}
	if totalE != g.NumEdges() {
		t.Errorf("partitions carry %d edges, template has %d", totalE, g.NumEdges())
	}
	if totalRemote == 0 {
		t.Error("expected some remote edges for k=4")
	}
	// Remote count must match the assignment's edge cut.
	a, _ := (partition.Multilevel{Seed: 9}).Partition(g, 4)
	cut, _ := a.EdgeCut(g)
	if totalRemote != cut {
		t.Errorf("remote edges %d != edge cut %d", totalRemote, cut)
	}
}

func TestBuildSingletonPartition(t *testing.T) {
	g := gen.SmallWorld(gen.SmallWorldConfig{N: 100, M: 2, Seed: 3})
	parts := buildFor(t, g, 1, Build)
	if len(parts) != 1 {
		t.Fatalf("%d partitions", len(parts))
	}
	if len(parts[0].Remote) != 0 {
		t.Errorf("k=1 should have no remote edges, got %d", len(parts[0].Remote))
	}
	// A connected graph in one partition is a single subgraph.
	if len(parts[0].Subgraphs) != 1 {
		t.Errorf("connected graph in 1 partition: %d subgraphs, want 1", len(parts[0].Subgraphs))
	}
}

func TestSubgraphsAreMaximalComponents(t *testing.T) {
	// Two disjoint triangles plus an isolated vertex, all in one partition:
	// expect 3 subgraphs.
	b := graph.NewBuilder("tri2", nil, nil)
	tri := func(base graph.VertexID) {
		b.AddUndirectedEdge(base, base+1)
		b.AddUndirectedEdge(base+1, base+2)
		b.AddUndirectedEdge(base+2, base)
	}
	tri(0)
	tri(10)
	b.AddVertex(99)
	g := b.MustBuild()
	a := &partition.Assignment{K: 1, Parts: make([]int32, g.NumVertices())}
	parts, err := Build(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, parts); err != nil {
		t.Fatal(err)
	}
	if len(parts[0].Subgraphs) != 3 {
		t.Fatalf("%d subgraphs, want 3", len(parts[0].Subgraphs))
	}
	if TotalSubgraphs(parts) != 3 {
		t.Errorf("TotalSubgraphs = %d", TotalSubgraphs(parts))
	}
}

func TestRemoteEdgeResolution(t *testing.T) {
	// A 4-cycle split across 2 partitions: each partition has one subgraph
	// of 2 vertices and 2 outgoing remote edge slots per direction pair.
	b := graph.NewBuilder("c4", nil, nil)
	b.AddUndirectedEdge(0, 1)
	b.AddUndirectedEdge(1, 2)
	b.AddUndirectedEdge(2, 3)
	b.AddUndirectedEdge(3, 0)
	g := b.MustBuild()
	parts01 := make([]int32, 4)
	parts01[g.VertexIndex(0)] = 0
	parts01[g.VertexIndex(1)] = 0
	parts01[g.VertexIndex(2)] = 1
	parts01[g.VertexIndex(3)] = 1
	a := &partition.Assignment{K: 2, Parts: parts01}
	parts, err := Build(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, parts); err != nil {
		t.Fatal(err)
	}
	for p, pd := range parts {
		if len(pd.Subgraphs) != 1 {
			t.Fatalf("partition %d: %d subgraphs, want 1", p, len(pd.Subgraphs))
		}
		sg := pd.Subgraphs[0]
		if len(sg.Neighbors) != 1 {
			t.Fatalf("partition %d: %d neighbor subgraphs, want 1", p, len(sg.Neighbors))
		}
		want := MakeID(1-p, 0)
		if sg.Neighbors[0] != want {
			t.Errorf("partition %d neighbor = %v, want %v", p, sg.Neighbors[0], want)
		}
		for _, re := range pd.Remote {
			if int(re.TargetPartition) != 1-p {
				t.Errorf("remote edge from %d targets partition %d", p, re.TargetPartition)
			}
			if re.TargetSubgraph != 0 {
				t.Errorf("remote edge target subgraph = %d", re.TargetSubgraph)
			}
		}
	}
}

func TestEdgeGlobalMapsAttributes(t *testing.T) {
	// EdgeGlobal must point at the template slot with the same head vertex.
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 8, Cols: 8, Seed: 4})
	for _, b := range builders {
		parts := buildFor(t, g, 3, b.build)
		for _, pd := range parts {
			for lv := 0; lv < pd.NumVertices(); lv++ {
				lo, hi := pd.OutEdges(lv)
				glo, _ := g.OutEdges(int(pd.GlobalIdx[lv]))
				for e := lo; e < hi; e++ {
					ge := int(pd.EdgeGlobal[e])
					if ge < glo {
						t.Fatalf("%s: edge slot mapping out of range", b.name)
					}
					var headGlobal int32
					if remote, ri := pd.IsRemote(e); remote {
						headGlobal = pd.Remote[ri].TargetGlobal
					} else {
						headGlobal = pd.GlobalIdx[pd.Targets[e]]
					}
					if int32(g.Target(ge)) != headGlobal {
						t.Fatalf("%s: EdgeGlobal slot %d: template head %d, local head %d", b.name, ge, g.Target(ge), headGlobal)
					}
				}
			}
		}
		if b.name == "Singletons" {
			intra, err := checkSingletons(g, parts)
			if err != nil {
				t.Fatal(err)
			}
			if intra == 0 {
				t.Error("singletons: no remote edge inside a partition")
			}
		}
	}
}

// TestBuildInvariantsRandom is a property test: Build/Singletons+Validate
// succeed and subgraph counts are sane on random graphs with random
// assignments.
func TestBuildInvariantsRandom(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(50)
		k := 1 + int(kRaw)%4
		if k > n {
			k = n
		}
		b := graph.NewBuilder("rand", nil, nil)
		for i := 0; i < n; i++ {
			b.AddVertex(graph.VertexID(i))
		}
		for e := 0; e < n; e++ {
			b.AddUndirectedEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
		}
		g := b.MustBuild()
		a := &partition.Assignment{K: k, Parts: make([]int32, n)}
		for v := range a.Parts {
			a.Parts[v] = int32(rng.Intn(k))
		}
		for _, b := range builders {
			parts, err := b.build(g, a)
			if err != nil {
				return false
			}
			if Validate(g, parts) != nil {
				return false
			}
			// Each partition has between 0 and its vertex count subgraphs.
			for _, pd := range parts {
				if len(pd.Subgraphs) > pd.NumVertices() {
					return false
				}
				if pd.NumVertices() > 0 && len(pd.Subgraphs) == 0 {
					return false
				}
			}
			if b.name == "Singletons" {
				if _, err := checkSingletons(g, parts); err != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildRejectsBadAssignment(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 3, Cols: 3, Seed: 1})
	bad := &partition.Assignment{K: 2, Parts: make([]int32, 3)} // wrong length
	for _, b := range builders {
		if _, err := b.build(g, bad); err == nil {
			t.Errorf("%s should reject an assignment of the wrong size", b.name)
		}
	}
}

func TestValidateRejectsRemoteEdgeIntoOwnSubgraph(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 4, Cols: 4, Seed: 5})
	a := &partition.Assignment{K: 1, Parts: make([]int32, g.NumVertices())}
	parts, err := Singletons(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, parts); err != nil {
		t.Fatalf("singletons in one partition: %v", err)
	}
	// Point local vertex 0's first remote edge back at its own subgraph.
	pd := parts[0]
	lo, _ := pd.OutEdges(0)
	remote, ri := pd.IsRemote(lo)
	if !remote {
		t.Fatal("singleton edge is local")
	}
	pd.Remote[ri].TargetSubgraph = pd.SubgraphOf[0]
	if err := Validate(g, parts); err == nil {
		t.Error("Validate accepted a remote edge into its own subgraph")
	}
}
