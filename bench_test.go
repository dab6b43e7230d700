package tsgraph_test

import (
	"sync"
	"testing"

	"tsgraph/internal/bsp"
	"tsgraph/internal/experiments"
	"tsgraph/internal/gen"
	"tsgraph/internal/obs"
	"tsgraph/internal/partition"
	"tsgraph/internal/subgraph"
)

// Benchmarks regenerate each of the paper's tables and figures at the
// Small scale (run `cmd/tsbench -scale medium` for the full-size harness).
// Reported metrics: ns/op is the real single-machine wall time of one full
// experiment; sim_ms/op is the simulated cluster time where applicable.

var (
	benchOnce sync.Once
	benchRoad *experiments.Dataset
	benchSW   *experiments.Dataset
)

func benchDatasets(b *testing.B) (*experiments.Dataset, *experiments.Dataset) {
	b.Helper()
	benchOnce.Do(func() {
		road, sw, err := experiments.BuildDatasets(experiments.Small)
		if err != nil {
			panic(err)
		}
		benchRoad, benchSW = road, sw
	})
	return benchRoad, benchSW
}

var benchCfg = bsp.Config{CoresPerHost: 2}

// BenchmarkSuperstepHotPath isolates the engine's per-superstep overhead
// from algorithm cost: a fixed instance, a trivial Compute, and many
// supersteps per Run, so allocs/op is dominated by the superstep
// scaffolding (inbox handling, barriers, scratch state) rather than user
// work. Run with -benchmem (ReportAllocs is on) to track the zero-alloc
// hot-path contract.
func BenchmarkSuperstepHotPath(b *testing.B) {
	const supersteps = 64
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 12, Cols: 12, Seed: 42})
	a, err := (partition.Multilevel{Seed: 2}).Partition(g, 4)
	if err != nil {
		b.Fatal(err)
	}
	parts, err := subgraph.Build(g, a)
	if err != nil {
		b.Fatal(err)
	}
	e := bsp.NewEngine(parts, bsp.Config{CoresPerHost: 2})
	prog := bsp.ComputeFunc(func(ctx *bsp.Context, sg *subgraph.Subgraph, superstep int, msgs []bsp.Message) {
		if superstep < supersteps-1 {
			ctx.SendToAllNeighbors(superstep)
			return
		}
		ctx.VoteToHalt()
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(prog, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.Supersteps != supersteps {
			b.Fatalf("supersteps = %d, want %d", res.Supersteps, supersteps)
		}
	}
}

// BenchmarkTracerOverhead runs the superstep hot-path workload with the obs
// tracer disabled (the default: a nil-check plus one atomic load per
// instrumentation site) and enabled (one atomic counter increment plus a
// struct store into the preallocated span ring). The contract is near-zero
// overhead disabled and <5% ns/op enabled; compare the two sub-benchmarks.
func BenchmarkTracerOverhead(b *testing.B) {
	const supersteps = 64
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 12, Cols: 12, Seed: 42})
	a, err := (partition.Multilevel{Seed: 2}).Partition(g, 4)
	if err != nil {
		b.Fatal(err)
	}
	parts, err := subgraph.Build(g, a)
	if err != nil {
		b.Fatal(err)
	}
	prog := bsp.ComputeFunc(func(ctx *bsp.Context, sg *subgraph.Subgraph, superstep int, msgs []bsp.Message) {
		if superstep < supersteps-1 {
			ctx.SendToAllNeighbors(superstep)
			return
		}
		ctx.VoteToHalt()
	})
	for _, mode := range []struct {
		name    string
		enabled bool
	}{{"disabled", false}, {"enabled", true}} {
		b.Run(mode.name, func(b *testing.B) {
			e := bsp.NewEngine(parts, bsp.Config{CoresPerHost: 2})
			if mode.enabled {
				tracer := obs.NewTracer(0)
				tracer.Enable()
				e.SetTracer(tracer)
				e.SetTraceTimestep(0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := e.Run(prog, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				if res.Supersteps != supersteps {
					b.Fatalf("supersteps = %d, want %d", res.Supersteps, supersteps)
				}
			}
		})
	}
}

// BenchmarkTableDatasets regenerates the §IV-A dataset table.
func BenchmarkTableDatasets(b *testing.B) {
	b.ReportAllocs()
	road, sw := benchDatasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.DatasetTable(road, sw)
		if len(rows) != 2 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkTableEdgeCut regenerates the §IV-B edge-cut table.
func BenchmarkTableEdgeCut(b *testing.B) {
	b.ReportAllocs()
	road, sw := benchDatasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.EdgeCutTable([]*experiments.Dataset{road, sw}, []int{3, 6, 9}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatal("bad table")
		}
	}
}

// benchScalabilityCell benchmarks one Fig 5a cell and reports its simulated
// cluster time.
func benchScalabilityCell(b *testing.B, ds *experiments.Dataset, algo string, k int) {
	b.Helper()
	b.ReportAllocs()
	var lastSim float64
	for i := 0; i < b.N; i++ {
		cell, _, err := experiments.RunAlgo(ds, algo, k, benchCfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		lastSim = cell.SimTime.Seconds() * 1000
	}
	b.ReportMetric(lastSim, "sim_ms/op")
}

// BenchmarkFig5a regenerates Fig 5a: each algorithm × dataset × partition
// count.
func BenchmarkFig5a(b *testing.B) {
	b.ReportAllocs()
	road, sw := benchDatasets(b)
	for _, algo := range []string{experiments.AlgoHash, experiments.AlgoMeme, experiments.AlgoTDSP} {
		for _, ds := range []*experiments.Dataset{road, sw} {
			for _, k := range []int{3, 6, 9} {
				b.Run(algo+"/"+ds.Name+"/k="+string(rune('0'+k)), func(b *testing.B) {
					benchScalabilityCell(b, ds, algo, k)
				})
			}
		}
	}
}

// BenchmarkFig5b regenerates Fig 5b: the Giraph-like baseline comparison.
func BenchmarkFig5b(b *testing.B) {
	b.ReportAllocs()
	road, sw := benchDatasets(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Baseline([]*experiments.Dataset{road, sw}, 6, benchCfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatal("bad baseline")
		}
	}
}

// BenchmarkFig6a regenerates Fig 6a: per-timestep time for TDSP on the road
// network over GoFS with synchronized GC.
func BenchmarkFig6a(b *testing.B) {
	b.ReportAllocs()
	road, _ := benchDatasets(b)
	for i := 0; i < b.N; i++ {
		series, err := experiments.RunTimestepSeries(road, experiments.AlgoTDSP,
			[]int{3}, b.TempDir(), 10, 5, 10, benchCfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 1 {
			b.Fatal("bad series")
		}
	}
}

// BenchmarkFig6b regenerates Fig 6b: per-timestep time for MEME on the
// small world.
func BenchmarkFig6b(b *testing.B) {
	b.ReportAllocs()
	_, sw := benchDatasets(b)
	for i := 0; i < b.N; i++ {
		series, err := experiments.RunTimestepSeries(sw, experiments.AlgoMeme,
			[]int{3}, b.TempDir(), 10, 5, 10, benchCfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 1 {
			b.Fatal("bad series")
		}
	}
}

// BenchmarkFig7a regenerates Fig 7a: vertices finalized by TDSP per
// timestep per partition.
func BenchmarkFig7a(b *testing.B) {
	b.ReportAllocs()
	road, _ := benchDatasets(b)
	for i := 0; i < b.N; i++ {
		ps, _, err := experiments.RunProgress(road, experiments.AlgoTDSP, 6, benchCfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(ps.PerPart) != 6 {
			b.Fatal("bad progress")
		}
	}
}

// BenchmarkFig7b regenerates Fig 7b: compute/overhead split per partition
// for TDSP on the road network.
func BenchmarkFig7b(b *testing.B) {
	b.ReportAllocs()
	road, _ := benchDatasets(b)
	for i := 0; i < b.N; i++ {
		ur, err := experiments.RunUtilization(road, experiments.AlgoTDSP, 6, benchCfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(ur.Utils) != 6 {
			b.Fatal("bad utilization")
		}
	}
}

// BenchmarkFig7c regenerates Fig 7c: vertices colored by MEME per timestep.
func BenchmarkFig7c(b *testing.B) {
	b.ReportAllocs()
	_, sw := benchDatasets(b)
	for i := 0; i < b.N; i++ {
		ps, _, err := experiments.RunProgress(sw, experiments.AlgoMeme, 6, benchCfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(ps.PerPart) != 6 {
			b.Fatal("bad progress")
		}
	}
}

// BenchmarkFig7d regenerates Fig 7d: compute/overhead split for MEME.
func BenchmarkFig7d(b *testing.B) {
	b.ReportAllocs()
	_, sw := benchDatasets(b)
	for i := 0; i < b.N; i++ {
		ur, err := experiments.RunUtilization(sw, experiments.AlgoMeme, 6, benchCfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(ur.Utils) != 6 {
			b.Fatal("bad utilization")
		}
	}
}

// BenchmarkAblationPartitioner compares hash/BFS/multilevel partitioning
// end to end (DESIGN.md §5).
func BenchmarkAblationPartitioner(b *testing.B) {
	b.ReportAllocs()
	road, _ := benchDatasets(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PartitionerAblation(road, 6, benchCfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("bad ablation")
		}
	}
}

// BenchmarkAblationTemporal measures the temporal-parallelism headroom the
// paper leaves unexploited for HASH.
func BenchmarkAblationTemporal(b *testing.B) {
	b.ReportAllocs()
	_, sw := benchDatasets(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TemporalParallelismAblation(sw, 3, []int{1, 4}, benchCfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 2 {
			b.Fatal("bad ablation")
		}
	}
}

// BenchmarkAblationPacking sweeps the GoFS temporal packing factor.
func BenchmarkAblationPacking(b *testing.B) {
	b.ReportAllocs()
	road, _ := benchDatasets(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PackingAblation(road, 3, []int{1, 5, 10}, b.TempDir(), benchCfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("bad ablation")
		}
	}
}

// BenchmarkExtensionElastic measures the elastic-scaling headroom analysis
// (paper §IV-E future work).
func BenchmarkExtensionElastic(b *testing.B) {
	b.ReportAllocs()
	road, _ := benchDatasets(b)
	for i := 0; i < b.N; i++ {
		row, err := experiments.ElasticHeadroom(road, experiments.AlgoTDSP, 6, benchCfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(row.Headroom()*100, "headroom_pct")
	}
}
