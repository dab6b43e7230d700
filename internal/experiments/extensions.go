package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tsgraph/internal/algorithms"
	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/gofs"
)

// ElasticHeadroomRow quantifies the paper's §IV-E research suggestion
// ("partitions which are active at a given timestep can pass some of their
// subgraphs to an idle partition … or use elastic scaling on Clouds"): per
// timestep, the gap between the busiest host's compute and the fleet
// average is the time a perfect rebalancer or elastic scaler could
// reclaim.
type ElasticHeadroomRow struct {
	Algo  string
	Graph string
	K     int
	// Actual is the simulated compute-bound cluster time (sum over
	// timesteps of the slowest host's compute).
	Actual time.Duration
	// Balanced is the idealized time with compute perfectly spread (sum of
	// per-timestep mean host compute).
	Balanced time.Duration
	// IdleSteps counts (timestep, host) pairs whose compute is under 5% of
	// that timestep's busiest host — the near-idle VMs the paper suggests
	// spinning down or stealing subgraphs from.
	IdleSteps  int
	TotalPairs int
}

// Headroom returns the fraction of compute time an ideal rebalancer
// reclaims.
func (r ElasticHeadroomRow) Headroom() float64 {
	if r.Actual == 0 {
		return 0
	}
	return 1 - float64(r.Balanced)/float64(r.Actual)
}

// ElasticHeadroom replays an algorithm and derives the rebalancing headroom
// from the per-partition compute recordings.
func ElasticHeadroom(ds *Dataset, algo string, k int, cfg bsp.Config, seed int64) (*ElasticHeadroomRow, error) {
	_, rec, err := RunAlgo(ds, algo, k, cfg, seed)
	if err != nil {
		return nil, err
	}
	row := &ElasticHeadroomRow{Algo: algo, Graph: ds.Name, K: k}
	for i := 0; i < rec.NumTimesteps(); i++ {
		step := rec.Step(i)
		var maxC, sumC time.Duration
		for p := range step.Parts {
			c := step.Parts[p].Compute
			sumC += c
			if c > maxC {
				maxC = c
			}
		}
		for p := range step.Parts {
			row.TotalPairs++
			if maxC > 0 && step.Parts[p].Compute < maxC/20 {
				row.IdleSteps++
			}
		}
		row.Actual += maxC
		row.Balanced += sumC / time.Duration(k)
	}
	return row, nil
}

// PrefetchRow is one configuration of the instance-prefetch ablation: the
// same GoFS-backed job with loads paid inline (Depth 0, the paper's §IV-D
// behavior with its periodic pack-load spikes) versus decoded ahead on a
// background goroutine (Depth > 0).
type PrefetchRow struct {
	Algo  string
	Graph string
	K     int
	// Depth is the prefetch lookahead; 0 means loads are inline.
	Depth int
	// SimTime is the simulated cluster time including the load share.
	SimTime time.Duration
	// LoadWait is the wall time the runner was blocked on Load across all
	// timesteps.
	LoadWait time.Duration
	// LoadFetch is the full decode cost across all timesteps, whether paid
	// inline or on the background goroutine.
	LoadFetch time.Duration
	// Overlapped is the portion of LoadFetch hidden behind compute.
	Overlapped time.Duration
	// Prefetched counts timesteps whose instance was already buffered when
	// requested.
	Prefetched int
	// PackLoads counts GoFS pack materializations.
	PackLoads int
	Timesteps int
}

// HiddenFrac returns the fraction of decode cost hidden behind compute.
func (r PrefetchRow) HiddenFrac() float64 {
	if r.LoadFetch == 0 {
		return 0
	}
	return float64(r.Overlapped) / float64(r.LoadFetch)
}

// PrefetchAblation writes a GoFS dataset, then runs the same algorithm once
// with inline loads and once per requested lookahead depth, quantifying how
// much of the pack-decode cost the pipelined source hides behind compute.
func PrefetchAblation(ds *Dataset, algo string, k int, depths []int, dir string, pack, bin int, cfg bsp.Config, seed int64) ([]PrefetchRow, error) {
	if pack <= 0 {
		pack = gofs.DefaultPack
	}
	if bin <= 0 {
		bin = gofs.DefaultBin
	}
	coll := ds.Latencies
	if algo == AlgoMeme || algo == AlgoHash {
		coll = ds.Tweets
	}
	parts, a, err := buildParts(ds, k, seed)
	if err != nil {
		return nil, err
	}
	dsDir := filepath.Join(dir, fmt.Sprintf("%s_%s_k%d_prefetch", strings.ToLower(ds.Name), strings.ToLower(algo), k))
	if err := gofs.WriteDataset(dsDir, coll, a, pack, bin); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dsDir)

	var out []PrefetchRow
	for _, depth := range append([]int{0}, depths...) {
		store, err := gofs.Open(dsDir)
		if err != nil {
			return nil, err
		}
		loader := gofs.NewLoader(store)
		rec := newRecorder(k)
		job := &core.Job{
			Template:      ds.Template,
			Parts:         parts,
			Source:        loader,
			Pattern:       core.SequentiallyDependent,
			Config:        cfg,
			Recorder:      rec,
			PrefetchDepth: depth,
		}
		switch algo {
		case AlgoTDSP:
			job.Program = algorithms.NewTDSP(parts, ds.SourceVertex, ds.Delta, "latency")
		case AlgoMeme:
			job.Program = algorithms.NewMeme(parts, ds.Meme, "tweets")
		default:
			return nil, fmt.Errorf("experiments: prefetch ablation supports TDSP and MEME, not %q", algo)
		}
		res, err := core.Run(job)
		if err != nil {
			return nil, err
		}
		row := PrefetchRow{
			Algo: algo, Graph: ds.Name, K: k, Depth: depth,
			SimTime:    res.SimTime,
			Overlapped: rec.TotalLoadOverlap(),
			PackLoads:  loader.PackLoads,
			Timesteps:  rec.NumTimesteps(),
		}
		for i := 0; i < rec.NumTimesteps(); i++ {
			step := rec.Step(i)
			row.LoadWait += step.Load
			row.LoadFetch += step.LoadFetch
			if step.Prefetched {
				row.Prefetched++
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderPrefetch writes the prefetch ablation as text.
func RenderPrefetch(w io.Writer, rows []PrefetchRow) {
	fmt.Fprintf(w, "== Extension: pipelined GoFS instance prefetch (hiding §IV-D load spikes behind compute) ==\n")
	fmt.Fprintf(w, "%-6s %-12s %4s %6s %12s %12s %12s %10s %10s %6s\n",
		"Algo", "Graph", "K", "depth", "load wait", "load fetch", "overlapped", "hidden", "prefetched", "packs")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %-12s %4d %6d %12s %12s %12s %9.1f%% %6d/%-3d %6d\n",
			r.Algo, r.Graph, r.K, r.Depth,
			r.LoadWait.Round(time.Microsecond), r.LoadFetch.Round(time.Microsecond),
			r.Overlapped.Round(time.Microsecond), r.HiddenFrac()*100,
			r.Prefetched, r.Timesteps, r.PackLoads)
	}
}

// RenderElasticHeadroom writes the analysis as text.
func RenderElasticHeadroom(w io.Writer, rows []*ElasticHeadroomRow) {
	fmt.Fprintf(w, "== Extension: elastic-scaling headroom (paper §IV-E future work) ==\n")
	fmt.Fprintf(w, "%-6s %-12s %4s %12s %12s %10s %12s\n",
		"Algo", "Graph", "K", "actual", "balanced", "headroom", "idle hostxts")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %-12s %4d %12s %12s %9.1f%% %6d/%d\n",
			r.Algo, r.Graph, r.K,
			r.Actual.Round(time.Microsecond), r.Balanced.Round(time.Microsecond),
			r.Headroom()*100, r.IdleSteps, r.TotalPairs)
	}
}
