package experiments

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"tsgraph/internal/algorithms"
	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/gofs"
	"tsgraph/internal/partition"
	"tsgraph/internal/subgraph"
)

// PartitionerAblationRow compares partitioning strategies end to end:
// edge cut and TDSP run time under each.
type PartitionerAblationRow struct {
	Partitioner string
	Graph       string
	K           int
	CutPct      float64
	TDSPSim     time.Duration
	Supersteps  int
}

// PartitionerAblation runs TDSP under hash, BFS-grow and multilevel
// partitioning (DESIGN.md §5).
func PartitionerAblation(ds *Dataset, k int, cfg bsp.Config, seed int64) ([]PartitionerAblationRow, error) {
	parters := []partition.Partitioner{
		partition.Hash{},
		partition.BFSGrow{},
		partition.Multilevel{Seed: seed},
	}
	var rows []PartitionerAblationRow
	for _, p := range parters {
		a, err := p.Partition(ds.Template, k)
		if err != nil {
			return nil, err
		}
		parts, err := subgraph.Build(ds.Template, a)
		if err != nil {
			return nil, err
		}
		_, res, err := algorithms.RunTDSP(ds.Template, parts, ds.SourceVertex,
			core.MemorySource{C: ds.Latencies}, ds.Delta, "latency", cfg, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, PartitionerAblationRow{
			Partitioner: p.Name(), Graph: ds.Name, K: k,
			CutPct:  a.CutFraction(ds.Template) * 100,
			TDSPSim: res.SimTime, Supersteps: res.Supersteps,
		})
	}
	return rows, nil
}

// RenderPartitionerAblation writes the ablation as text.
func RenderPartitionerAblation(w io.Writer, rows []PartitionerAblationRow) {
	fmt.Fprintf(w, "== Ablation: partitioning strategy (TDSP end-to-end) ==\n")
	fmt.Fprintf(w, "%-12s %-12s %8s %12s %10s\n", "Partitioner", "Graph", "Cut%", "TDSP time", "Supersteps")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-12s %7.3f%% %12s %10d\n",
			r.Partitioner, r.Graph, r.CutPct, r.TDSPSim.Round(time.Millisecond), r.Supersteps)
	}
}

// TemporalParallelismRow measures the eventually dependent HASH algorithm
// with and without temporal parallelism — the optimization the paper notes
// GoFFish does not exploit ("there is the possibility of pleasingly
// parallelizing each timestep before the merge. However, this is currently
// not exploited").
type TemporalParallelismRow struct {
	Graph       string
	Parallelism int
	// SimTime models the instances pipelined over the parallel slots.
	SimTime time.Duration
	Wall    time.Duration
}

// TemporalParallelismAblation runs HASH at several temporal parallelism
// degrees. The engine's simulated cluster time is accumulated per instance;
// with P-way temporal parallelism the cluster overlaps P instances, so the
// modeled time divides by min(P, instances), an idealized upper bound on
// the win the paper leaves on the table.
func TemporalParallelismAblation(ds *Dataset, k int, degrees []int, cfg bsp.Config, seed int64) ([]TemporalParallelismRow, error) {
	parts, _, err := buildParts(ds, k, seed)
	if err != nil {
		return nil, err
	}
	var rows []TemporalParallelismRow
	for _, par := range degrees {
		rec := newRecorder(k)
		wallStart := time.Now()
		_, res, err := algorithms.RunHashtag(ds.Template, parts, ds.Meme, "tweets",
			core.MemorySource{C: ds.Tweets}, cfg, rec, par)
		if err != nil {
			return nil, err
		}
		sim := res.SimTime
		if par > 1 {
			slots := par
			if n := ds.Tweets.NumInstances(); slots > n {
				slots = n
			}
			sim = res.SimTime / time.Duration(slots)
		}
		rows = append(rows, TemporalParallelismRow{
			Graph: ds.Name, Parallelism: par,
			SimTime: sim, Wall: time.Since(wallStart),
		})
	}
	return rows, nil
}

// RenderTemporalParallelism writes the ablation as text.
func RenderTemporalParallelism(w io.Writer, rows []TemporalParallelismRow) {
	fmt.Fprintf(w, "== Ablation: temporal parallelism for eventually-dependent HASH ==\n")
	fmt.Fprintf(w, "%-12s %12s %14s\n", "Graph", "Parallelism", "Modeled time")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %12d %14s\n", r.Graph, r.Parallelism, r.SimTime.Round(time.Millisecond))
	}
}

// PackingRow measures GoFS temporal packing: steady-state per-timestep time
// vs load-spike amplitude.
type PackingRow struct {
	Pack int
	// MeanLoad is the average per-timestep load share; SpikeLoad is the
	// maximum (the pack-boundary spike).
	MeanLoad  time.Duration
	SpikeLoad time.Duration
	// SliceReads counts slice-file reads over the whole run.
	SliceReads int
	TotalSim   time.Duration
}

// PackingAblation sweeps the temporal packing factor (DESIGN.md §5) running
// TDSP over GoFS-backed data.
func PackingAblation(ds *Dataset, k int, packs []int, dir string, cfg bsp.Config, seed int64) ([]PackingRow, error) {
	parts, a, err := buildParts(ds, k, seed)
	if err != nil {
		return nil, err
	}
	var rows []PackingRow
	for _, pack := range packs {
		dsDir := filepath.Join(dir, fmt.Sprintf("packing_%d", pack))
		if err := gofs.WriteDataset(dsDir, ds.Latencies, a, pack, gofs.DefaultBin); err != nil {
			return nil, err
		}
		store, err := gofs.Open(dsDir)
		if err != nil {
			return nil, err
		}
		rec := newRecorder(k)
		job := &core.Job{
			Template: ds.Template,
			Parts:    parts,
			Source:   gofs.NewLoader(store),
			Program:  algorithms.NewTDSP(parts, ds.SourceVertex, ds.Delta, "latency"),
			Pattern:  core.SequentiallyDependent,
			Config:   cfg,
			Recorder: rec,
		}
		if _, err := core.Run(job); err != nil {
			return nil, err
		}
		row := PackingRow{Pack: pack, SliceReads: int(store.Telemetry().SliceReads())}
		var total time.Duration
		n := rec.NumTimesteps()
		for i := 0; i < n; i++ {
			step := rec.Step(i)
			load := step.Load / time.Duration(k)
			total += load
			if load > row.SpikeLoad {
				row.SpikeLoad = load
			}
			row.TotalSim += step.SimWall
		}
		if n > 0 {
			row.MeanLoad = total / time.Duration(n)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderPackingAblation writes the ablation as text.
func RenderPackingAblation(w io.Writer, rows []PackingRow) {
	fmt.Fprintf(w, "== Ablation: GoFS temporal packing (TDSP, load share per host) ==\n")
	fmt.Fprintf(w, "%6s %12s %12s %12s %12s\n", "pack", "mean load", "spike load", "slice reads", "total sim")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %12s %12s %12d %12s\n",
			r.Pack, r.MeanLoad.Round(time.Microsecond), r.SpikeLoad.Round(time.Microsecond),
			r.SliceReads, r.TotalSim.Round(time.Millisecond))
	}
}
