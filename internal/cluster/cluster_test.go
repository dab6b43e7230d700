package cluster

import (
	"encoding/gob"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"

	"tsgraph/internal/algorithms"
	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/gen"
	"tsgraph/internal/graph"
	"tsgraph/internal/partition"
	"tsgraph/internal/subgraph"
)

func init() {
	gob.Register(map[string]int{}) // test payloads
}

// mesh builds n ranks with NewMesh over parts (nil for tests that use
// only the nodes) on ephemeral localhost ports, starts them, and closes
// them when the test ends. mutate, when non-nil, fills each rank's Config
// beyond Rank, Addrs and Listener.
func mesh(tb testing.TB, n int, parts []*subgraph.PartitionData, mutate func(rank int, cfg *Config)) ([]*Node, []*core.Mesh) {
	tb.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*Node, n)
	meshes := make([]*core.Mesh, n)
	for i := range nodes {
		cfg := Config{Rank: i, Addrs: addrs, Listener: listeners[i]}
		if mutate != nil {
			mutate(i, &cfg)
		}
		node, m, err := NewMesh(cfg, parts)
		if err != nil {
			tb.Fatal(err)
		}
		nodes[i], meshes[i] = node, m
		tb.Cleanup(func() { node.Close() })
	}
	for i, err := range eachRank(n, func(r int) error { return nodes[r].Start() }) {
		if err != nil {
			tb.Fatalf("node %d start: %v", i, err)
		}
	}
	return nodes, meshes
}

// eachRank calls fn for every rank concurrently and returns the ranks'
// errors.
func eachRank(n int, fn func(rank int) error) []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(r)
		}(r)
	}
	wg.Wait()
	return errs
}

func requireNoErrors(tb testing.TB, errs []error) {
	tb.Helper()
	for r, err := range errs {
		if err != nil {
			tb.Fatalf("node %d: %v", r, err)
		}
	}
}

// distFixture builds a partitioned time-series dataset shared by the
// distributed tests.
type distFixture struct {
	tmpl  *graph.Template
	coll  *graph.Collection
	parts []*subgraph.PartitionData
}

func newDistFixture(tb testing.TB, k int) *distFixture {
	tb.Helper()
	tmpl := gen.RoadNetwork(gen.RoadConfig{Rows: 12, Cols: 12, RemoveFrac: 0.1, Seed: 9})
	coll, err := gen.RandomLatencies(tmpl, gen.LatencyConfig{
		Timesteps: 12, T0: 0, Delta: 20, Min: 1, Max: 30, Seed: 10,
	})
	if err != nil {
		tb.Fatal(err)
	}
	a, err := (partition.Multilevel{Seed: 11}).Partition(tmpl, k)
	if err != nil {
		tb.Fatal(err)
	}
	parts, err := subgraph.Build(tmpl, a)
	if err != nil {
		tb.Fatal(err)
	}
	return &distFixture{tmpl: tmpl, coll: coll, parts: parts}
}

// runDistributedTDSP runs TDSP on every rank of a mesh and returns the
// merged template-indexed arrivals.
func runDistributedTDSP(tb testing.TB, f *distFixture, meshes []*core.Mesh) []float64 {
	tb.Helper()
	merged := make([]float64, f.tmpl.NumVertices())
	for i := range merged {
		merged[i] = algorithms.Inf
	}
	var mu sync.Mutex
	requireNoErrors(tb, eachRank(len(meshes), func(r int) error {
		local := meshes[r].Local
		prog := algorithms.NewTDSP(local, 0, 20, gen.AttrLatency)
		if _, err := prog.Sweep(&core.Job{
			Template: f.tmpl,
			Source:   core.MemorySource{C: f.coll},
			Mesh:     meshes[r],
		}); err != nil {
			return err
		}
		arr := prog.Arrivals(local, f.tmpl)
		mu.Lock()
		for _, pd := range local {
			for _, g := range pd.GlobalIdx {
				merged[g] = arr[g]
			}
		}
		mu.Unlock()
		return nil
	}))
	return merged
}

// meshShapes are the (ranks, partitions) pairs the single-process
// equivalence tests run: one partition per rank, and ranks owning several.
var meshShapes = []struct{ ranks, parts int }{{3, 3}, {2, 5}}

func TestDistributedTDSPMatchesSingleProcess(t *testing.T) {
	for _, shape := range meshShapes {
		t.Run(fmt.Sprintf("ranks%d_parts%d", shape.ranks, shape.parts), func(t *testing.T) {
			f := newDistFixture(t, shape.parts)
			_, meshes := mesh(t, shape.ranks, f.parts, nil)

			// Single-process reference over the identical parts.
			refProg := algorithms.NewTDSP(f.parts, 0, 20, gen.AttrLatency)
			if _, err := core.Run(&core.Job{
				Template: f.tmpl, Parts: f.parts,
				Source:  core.MemorySource{C: f.coll},
				Program: refProg, Pattern: core.SequentiallyDependent,
			}); err != nil {
				t.Fatal(err)
			}
			want := refProg.Arrivals(f.parts, f.tmpl)

			got := runDistributedTDSP(t, f, meshes)
			for v := range want {
				if math.IsInf(want[v], 1) != math.IsInf(got[v], 1) {
					t.Fatalf("vertex %d: distributed %v vs single %v", v, got[v], want[v])
				}
				if !math.IsInf(want[v], 1) && math.Abs(want[v]-got[v]) > 1e-9 {
					t.Fatalf("vertex %d: distributed %v vs single %v", v, got[v], want[v])
				}
			}
		})
	}
}

func TestDistributedMemeMatchesSingleProcess(t *testing.T) {
	tmpl := gen.SmallWorld(gen.SmallWorldConfig{N: 400, M: 2, Seed: 12})
	sir, err := gen.SIRTweets(tmpl, gen.SIRConfig{
		Timesteps: 8, Delta: 10, Memes: []string{"#d"},
		SeedsPerMeme: 2, HitProb: 0.35, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range meshShapes {
		t.Run(fmt.Sprintf("ranks%d_parts%d", shape.ranks, shape.parts), func(t *testing.T) {
			a, err := (partition.Multilevel{Seed: 14}).Partition(tmpl, shape.parts)
			if err != nil {
				t.Fatal(err)
			}
			parts, err := subgraph.Build(tmpl, a)
			if err != nil {
				t.Fatal(err)
			}
			_, meshes := mesh(t, shape.ranks, parts, nil)

			refProg := algorithms.NewMeme(parts, "#d", gen.AttrTweets)
			if _, err := core.Run(&core.Job{
				Template: tmpl, Parts: parts,
				Source:  core.MemorySource{C: sir.Collection},
				Program: refProg, Pattern: core.SequentiallyDependent,
			}); err != nil {
				t.Fatal(err)
			}
			want := refProg.ColoredAt(parts, tmpl)

			got := make([]int32, tmpl.NumVertices())
			for i := range got {
				got[i] = -1
			}
			var mu sync.Mutex
			requireNoErrors(t, eachRank(shape.ranks, func(r int) error {
				local := meshes[r].Local
				prog := algorithms.NewMeme(local, "#d", gen.AttrTweets)
				if _, err := algorithms.Sweep(&core.Job{
					Template: tmpl,
					Source:   core.MemorySource{C: sir.Collection},
					Program:  prog,
					Mesh:     meshes[r],
				}); err != nil {
					return err
				}
				at := prog.ColoredAt(local, tmpl)
				mu.Lock()
				for _, pd := range local {
					for _, g := range pd.GlobalIdx {
						got[g] = at[g]
					}
				}
				mu.Unlock()
				return nil
			}))
			for v := range want {
				if want[v] != got[v] {
					t.Fatalf("vertex %d: distributed colored at %d, single %d", v, got[v], want[v])
				}
			}
		})
	}
}

// votingProgram exercises distributed WhileMode consensus: every subgraph
// keeps the loop alive until a target timestep, then votes to halt.
type votingProgram struct {
	until int
}

func (p *votingProgram) Compute(ctx *core.Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
	if timestep < p.until {
		ctx.SendToNextTimestep(int64(timestep))
	} else {
		ctx.VoteToHaltTimestep()
	}
	ctx.VoteToHalt()
}

func TestDistributedWhileModeConsensus(t *testing.T) {
	const k = 2
	f := newDistFixture(t, k)
	_, meshes := mesh(t, k, f.parts, nil)

	results := make([]*core.Result, k)
	requireNoErrors(t, eachRank(k, func(r int) (err error) {
		results[r], err = core.Run(&core.Job{
			Template: f.tmpl,
			Source:   core.MemorySource{C: f.coll},
			Program:  &votingProgram{until: 4},
			Pattern:  core.SequentiallyDependent, WhileMode: true,
			Mesh: meshes[r],
		})
		return err
	}))
	for r := 0; r < k; r++ {
		if !results[r].HaltedEarly || results[r].TimestepsRun != 5 {
			t.Errorf("node %d: haltedEarly=%v timesteps=%d, want early at 5",
				r, results[r].HaltedEarly, results[r].TimestepsRun)
		}
	}
}

func TestNodeConfigValidation(t *testing.T) {
	if _, err := New(Config{Rank: 3, Addrs: []string{"a", "b"}}); err == nil {
		t.Error("out-of-range rank accepted")
	}
}

func TestSingleNodeMesh(t *testing.T) {
	nodes, _ := mesh(t, 1, nil, nil)
	// A 1-node mesh degenerates to local behavior.
	stats, err := nodes[0].Barrier(0, bsp.BarrierStats{Sent: 3, AllHalted: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent != 3 || !stats.AllHalted {
		t.Errorf("stats = %+v", stats)
	}
	in, votes, msgs, err := nodes[0].ExchangeTemporal(0, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(in) != 0 || votes != 2 || msgs != 0 {
		t.Errorf("exchange = %v %d %d", in, votes, msgs)
	}
}

func TestLocalPartitions(t *testing.T) {
	n, err := New(Config{Rank: 1, Addrs: []string{"127.0.0.1:0", "127.0.0.1:0"}, Owner: []int32{0, 1, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	lp := n.LocalPartitions()
	if len(lp) != 2 || lp[0] != 1 || lp[1] != 2 {
		t.Errorf("LocalPartitions = %v", lp)
	}
	if n.Rank() != 1 || n.NumNodes() != 2 {
		t.Errorf("rank/nodes = %d/%d", n.Rank(), n.NumNodes())
	}
}
