// The allocation guards count exact heap allocations, which the race
// detector's instrumentation inflates; CI runs it in a separate non-race
// invocation.
//go:build !race

package tsgraph_test

import (
	"testing"

	"tsgraph/internal/algorithms"
	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/gen"
	"tsgraph/internal/partition"
	"tsgraph/internal/subgraph"
)

// TestAllocGuard pins the superstep hot path's allocation budget: one full
// 64-superstep Run on the BenchmarkSuperstepHotPath workload must stay
// within the budget established when the hot path went zero-allocation
// (31 allocs per Run — all in per-Run setup, none per superstep). Tracing
// is left disabled, as in production defaults; the instrumentation sites
// must cost nothing when off.
func TestAllocGuard(t *testing.T) {
	const (
		supersteps = 64
		maxAllocs  = 31
	)
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 12, Cols: 12, Seed: 42})
	a, err := (partition.Multilevel{Seed: 2}).Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := subgraph.Build(g, a)
	if err != nil {
		t.Fatal(err)
	}
	e := bsp.NewEngine(parts, bsp.Config{CoresPerHost: 2})
	prog := bsp.ComputeFunc(func(ctx *bsp.Context, sg *subgraph.Subgraph, superstep int, msgs []bsp.Message) {
		if superstep < supersteps-1 {
			ctx.SendToAllNeighbors(superstep)
			return
		}
		ctx.VoteToHalt()
	})
	// Warm up once so lazily-grown scratch buffers reach steady state.
	if _, err := e.Run(prog, nil, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		res, err := e.Run(prog, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Supersteps != supersteps {
			t.Fatalf("supersteps = %d, want %d", res.Supersteps, supersteps)
		}
	})
	if allocs > maxAllocs {
		t.Fatalf("superstep hot path allocated %.1f times per Run, budget is %d", allocs, maxAllocs)
	}
}

// TestTDSPSweepAllocGuard pins a served TDSP sweep's allocation budget: one
// batch-of-one RunBatchTDSP plus Release on a fixed 24×24 road, after a
// warm-up that fills the slab pool. The heap is typed and the dense state
// is pooled, so what remains is per-timestep engine and message traffic
// (3 046 allocs per sweep when the budget was set).
func TestTDSPSweepAllocGuard(t *testing.T) {
	const maxAllocs = 3200
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 24, Cols: 24, RemoveFrac: 0.1, Seed: 42})
	c, err := gen.RandomLatencies(g, gen.LatencyConfig{Timesteps: 40, Delta: 60, Min: 5, Max: 60, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	a, err := (partition.Multilevel{Seed: 2}).Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := subgraph.Build(g, a)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := 0, g.NumVertices()-1
	sweep := func() {
		prog, _, err := algorithms.RunBatchTDSP(g, parts, []algorithms.BatchQuery{{Source: src, Targets: []int{dst}}},
			0, core.MemorySource{C: c}, 60, gen.AttrLatency, bsp.Config{CoresPerHost: 2}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		prog.Release()
		if _, _, ok := prog.Arrival(0, dst); !ok {
			t.Fatal("target unreached")
		}
	}
	sweep()
	allocs := testing.AllocsPerRun(10, sweep)
	t.Logf("%.1f allocs per sweep", allocs)
	if allocs > maxAllocs {
		t.Fatalf("a batch-of-one TDSP sweep allocated %.1f times, budget is %d", allocs, maxAllocs)
	}
}
