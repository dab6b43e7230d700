package experiments

import (
	"fmt"
	"io"
	"time"

	"tsgraph/internal/algorithms"
	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/metrics"
	"tsgraph/internal/partition"
	"tsgraph/internal/subgraph"
)

// Algo names used across the harness.
const (
	AlgoHash = "HASH"
	AlgoMeme = "MEME"
	AlgoTDSP = "TDSP"
)

// OnRecorder, when set, observes every metrics recorder the harness creates
// (tsbench points it at an obs.Registry so /metrics scrapes always reflect
// the experiment currently running). Set before running experiments; not
// safe to change concurrently with them.
var OnRecorder func(*metrics.Recorder)

// newRecorder creates a recorder for k partitions and hands it to OnRecorder.
func newRecorder(k int) *metrics.Recorder {
	rec := metrics.NewRecorder(k)
	if OnRecorder != nil {
		OnRecorder(rec)
	}
	return rec
}

// buildParts partitions a dataset's template for k hosts.
func buildParts(ds *Dataset, k int, seed int64) ([]*subgraph.PartitionData, *partition.Assignment, error) {
	a, err := (partition.Multilevel{Seed: seed}).Partition(ds.Template, k)
	if err != nil {
		return nil, nil, err
	}
	parts, err := subgraph.Build(ds.Template, a)
	if err != nil {
		return nil, nil, err
	}
	return parts, a, nil
}

// ScalabilityCell is one bar of Fig 5a: total time for one algorithm on one
// dataset at one partition count.
type ScalabilityCell struct {
	Algo  string
	Graph string
	K     int
	// SimTime is the simulated cluster time of the run.
	SimTime time.Duration
	// Wall is the real single-machine wall time (total work).
	Wall time.Duration
	// TimestepsRun counts executed timesteps (TDSP may converge early).
	TimestepsRun int
	Supersteps   int
}

// RunAlgo executes one of the paper's three algorithms on a dataset over k
// partitions and returns the cell plus the recorder for deeper analysis.
func RunAlgo(ds *Dataset, algo string, k int, cfg bsp.Config, seed int64) (*ScalabilityCell, *metrics.Recorder, error) {
	parts, _, err := buildParts(ds, k, seed)
	if err != nil {
		return nil, nil, err
	}
	rec := newRecorder(k)
	wallStart := time.Now()
	var res *core.Result
	switch algo {
	case AlgoHash:
		_, res, err = algorithms.RunHashtag(ds.Template, parts, ds.Meme, "tweets",
			core.MemorySource{C: ds.Tweets}, cfg, rec, 1)
	case AlgoMeme:
		_, res, err = algorithms.RunMeme(ds.Template, parts, ds.Meme, "tweets",
			core.MemorySource{C: ds.Tweets}, cfg, rec)
	case AlgoTDSP:
		_, res, err = algorithms.RunTDSP(ds.Template, parts, ds.SourceVertex,
			core.MemorySource{C: ds.Latencies}, ds.Delta, "latency", cfg, rec)
	default:
		return nil, nil, fmt.Errorf("experiments: unknown algorithm %q", algo)
	}
	if err != nil {
		return nil, nil, err
	}
	return &ScalabilityCell{
		Algo: algo, Graph: ds.Name, K: k,
		SimTime: res.SimTime, Wall: time.Since(wallStart),
		TimestepsRun: res.TimestepsRun, Supersteps: res.Supersteps,
	}, rec, nil
}

// Scalability reproduces Fig 5a: every algorithm × dataset × partition
// count. Each cell runs `repeats` times (≥1) and keeps the minimum
// simulated time — the standard defense against scheduler noise when the
// whole simulated cluster shares one physical machine.
func Scalability(datasets []*Dataset, ks []int, cfg bsp.Config, seed int64, repeats int) ([]ScalabilityCell, error) {
	if repeats < 1 {
		repeats = 1
	}
	var cells []ScalabilityCell
	for _, algo := range []string{AlgoHash, AlgoMeme, AlgoTDSP} {
		for _, ds := range datasets {
			for _, k := range ks {
				var best *ScalabilityCell
				for r := 0; r < repeats; r++ {
					cell, _, err := RunAlgo(ds, algo, k, cfg, seed)
					if err != nil {
						return nil, fmt.Errorf("%s/%s/k=%d: %w", algo, ds.Name, k, err)
					}
					if best == nil || cell.SimTime < best.SimTime {
						best = cell
					}
				}
				cells = append(cells, *best)
			}
		}
	}
	return cells, nil
}

// RenderScalability writes Fig 5a as a text table with speedups.
func RenderScalability(w io.Writer, cells []ScalabilityCell, ks []int) {
	fmt.Fprintf(w, "== Fig 5a: total time per algorithm/dataset/partitions (simulated cluster time) ==\n")
	fmt.Fprintf(w, "%-6s %-12s", "Algo", "Graph")
	for _, k := range ks {
		fmt.Fprintf(w, " %12s", fmt.Sprintf("%d parts", k))
	}
	fmt.Fprintf(w, " %14s %9s\n", "speedup", "steps")
	type key struct {
		algo, g string
	}
	byKey := map[key]map[int]ScalabilityCell{}
	var order []key
	for _, c := range cells {
		kk := key{c.Algo, c.Graph}
		if byKey[kk] == nil {
			byKey[kk] = map[int]ScalabilityCell{}
			order = append(order, kk)
		}
		byKey[kk][c.K] = c
	}
	for _, kk := range order {
		fmt.Fprintf(w, "%-6s %-12s", kk.algo, kk.g)
		for _, k := range ks {
			fmt.Fprintf(w, " %12s", byKey[kk][k].SimTime.Round(time.Millisecond))
		}
		first, last := byKey[kk][ks[0]], byKey[kk][ks[len(ks)-1]]
		speedup := 0.0
		if last.SimTime > 0 {
			speedup = float64(first.SimTime) / float64(last.SimTime)
		}
		fmt.Fprintf(w, " %9.2fx %d->%d %6d\n", speedup, ks[0], ks[len(ks)-1], last.TimestepsRun)
	}
}

// BaselineRow is one bar of Fig 5b.
type BaselineRow struct {
	System     string // "vertex-centric SSSP 1x", "subgraph SSSP 1x", "subgraph TDSP Nx"
	Graph      string
	SimTime    time.Duration
	Wall       time.Duration
	Supersteps int
	Instances  int
}

// Per-superstep coordination costs for the Fig 5b comparison. A
// Giraph-class system pays Hadoop/ZooKeeper coordination on every
// superstep (hundreds of ms even for empty supersteps — consistent with the
// paper's Giraph SSSP on CARN taking ~100s over its ~216 BFS supersteps),
// whereas GoFFish's lean socket barrier across a handful of VMs costs
// milliseconds. These model the frameworks' coordination, not the graphs.
const (
	GiraphSuperstepLatency  = 150 * time.Millisecond
	GoFFishSuperstepLatency = 5 * time.Millisecond
)

// Baseline reproduces Fig 5b: vertex-centric (Giraph-like) SSSP on one
// unweighted instance vs subgraph-centric SSSP on one instance vs
// subgraph-centric TDSP over all instances, all at the same partition
// count (the paper uses 6 VMs). The vertex-centric row is the same SSSP
// program on the same engine over singleton subgraphs, charged Giraph's
// coordination cost per superstep, so it needs one superstep per BFS hop.
func Baseline(datasets []*Dataset, k int, cfg bsp.Config, seed int64) ([]BaselineRow, error) {
	vcfg := cfg
	vcfg.SuperstepLatency = GiraphSuperstepLatency
	cfg.SuperstepLatency = GoFFishSuperstepLatency
	var rows []BaselineRow
	for _, ds := range datasets {
		parts, a, err := buildParts(ds, k, seed)
		if err != nil {
			return nil, err
		}
		singletons, err := subgraph.Singletons(ds.Template, a)
		if err != nil {
			return nil, err
		}
		// Vertex-centric unweighted SSSP (= BFS, favoring the baseline just
		// as the paper notes).
		wallStart := time.Now()
		_, vres, err := algorithms.RunSSSP(ds.Template, singletons, ds.SourceVertex,
			core.MemorySource{C: ds.Latencies}, 0, "", vcfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, BaselineRow{
			System: "vertex-centric SSSP 1x", Graph: ds.Name,
			SimTime: vres.SimTime, Wall: time.Since(wallStart),
			Supersteps: vres.Supersteps, Instances: 1,
		})

		wallStart = time.Now()
		_, sres, err := algorithms.RunSSSP(ds.Template, parts, ds.SourceVertex,
			core.MemorySource{C: ds.Latencies}, 0, "", cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, BaselineRow{
			System: "subgraph SSSP 1x", Graph: ds.Name,
			SimTime: sres.SimTime, Wall: time.Since(wallStart),
			Supersteps: sres.Supersteps, Instances: 1,
		})

		wallStart = time.Now()
		_, tres, err := algorithms.RunTDSP(ds.Template, parts, ds.SourceVertex,
			core.MemorySource{C: ds.Latencies}, ds.Delta, "latency", cfg, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, BaselineRow{
			System: fmt.Sprintf("subgraph TDSP %dx", tres.TimestepsRun), Graph: ds.Name,
			SimTime: tres.SimTime, Wall: time.Since(wallStart),
			Supersteps: tres.Supersteps, Instances: tres.TimestepsRun,
		})
	}
	return rows, nil
}

// RenderBaseline writes Fig 5b as text.
func RenderBaseline(w io.Writer, rows []BaselineRow) {
	fmt.Fprintf(w, "== Fig 5b: vertex-centric (Giraph-like) vs subgraph-centric (GoFFish) ==\n")
	fmt.Fprintf(w, "%-12s %-24s %12s %10s %10s\n", "Graph", "System", "SimTime", "Supersteps", "Instances")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-24s %12s %10d %10d\n",
			r.Graph, r.System, r.SimTime.Round(time.Millisecond), r.Supersteps, r.Instances)
	}
}
