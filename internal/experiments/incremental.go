package experiments

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tsgraph/internal/algorithms"
	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/gen"
	"tsgraph/internal/gofs"
)

// IncrementalStorageRow compares the full (v1) and delta-encoded (v2) GoFS
// formats on the same latency collection at one churn rate: on-disk bytes
// and the wall time of one sequential loader sweep over every timestep.
// At low churn the delta format stores and decodes only what changed, so
// both columns shrink roughly with the churn rate.
type IncrementalStorageRow struct {
	Churn     float64
	Timesteps int
	// FullBytes / DeltaBytes count the instance slice files only: the
	// template, assignment and manifest are format-invariant fixed costs
	// shared byte-for-byte by both datasets.
	FullBytes  int64
	DeltaBytes int64
	// FullSweep / DeltaSweep are the wall times of decoding every timestep
	// in order through a fresh gofs.NewLoader.
	FullSweep  time.Duration
	DeltaSweep time.Duration
}

// Shrink is the on-disk size ratio full/delta.
func (r IncrementalStorageRow) Shrink() float64 {
	if r.DeltaBytes == 0 {
		return 0
	}
	return float64(r.FullBytes) / float64(r.DeltaBytes)
}

// Speedup is the sequential-sweep wall ratio full/delta.
func (r IncrementalStorageRow) Speedup() float64 {
	if r.DeltaSweep == 0 {
		return 0
	}
	return float64(r.FullSweep) / float64(r.DeltaSweep)
}

// IncrementalComputeRow is one configuration of the recompute ablation: the
// same meme-tracking job over the same localized-churn tweet collection,
// varying the store format and the scheduler.
type IncrementalComputeRow struct {
	Mode  string // full-store | delta-store | delta+incremental
	Store string // full | delta
	// Wall is the end-to-end wall time of core.Run.
	Wall time.Duration
	// SimTime is the simulated cluster time.
	SimTime time.Duration
	// Skipped counts (timestep, subgraph) slots the incremental scheduler
	// proved clean and never ran; Slots is the total number of such slots.
	Skipped int
	Slots   int
	// Identical reports whether every deliverable (per-vertex coloring
	// times) matched the full-recompute baseline exactly.
	Identical bool
}

// IncrementalResult bundles both tables of the -exp incremental ablation.
type IncrementalResult struct {
	Graph     string
	Pack      int
	Bin       int
	SnapEvery int
	K         int
	Storage   []IncrementalStorageRow
	Compute   []IncrementalComputeRow
}

// dirBytes sums the sizes of all regular files under root.
func dirBytes(root string) (int64, error) {
	var n int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// sweepDataset decodes every timestep in order through a fresh loader and
// returns the wall time; the minimum of three sweeps is kept (the suite's
// convention for timing cells).
func sweepDataset(dir string) (time.Duration, error) {
	var best time.Duration
	for rep := 0; rep < 3; rep++ {
		store, err := gofs.Open(dir)
		if err != nil {
			return 0, err
		}
		loader := gofs.NewLoader(store)
		start := time.Now()
		for t := 0; t < loader.Timesteps(); t++ {
			if _, err := loader.Load(t); err != nil {
				return 0, err
			}
		}
		if d := time.Since(start); rep == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// IncrementalAblation quantifies the delta-encoded store and the
// incremental scheduler (DESIGN.md's storage section).
//
// The storage table regenerates the dataset's latency collection at each
// churn rate (the fraction of edge latencies re-randomized per timestep;
// the suite's standard datasets use 1.0, the paper's fully uncorrelated
// behavior), writes it in both formats, and measures on-disk bytes plus a
// sequential decode sweep.
//
// The compute table runs meme tracking over a localized SIR collection
// (one seed, no background noise — the regime where instance churn is
// spatially concentrated) through a full-format store, a delta store, and
// a delta store with core.Job.Incremental, verifying that every mode
// produces identical colorings while the incremental run skips the
// delta-clean subgraphs.
func IncrementalAblation(ds *Dataset, churns []float64, k int, dir string, pack, bin, snapEvery int, cfg bsp.Config, seed int64) (*IncrementalResult, error) {
	if pack <= 0 {
		pack = gofs.DefaultPack
	}
	if bin <= 0 {
		bin = gofs.DefaultBin
	}
	if snapEvery <= 0 {
		snapEvery = pack
	}
	steps := ds.Latencies.NumInstances()
	res := &IncrementalResult{
		Graph: ds.Name, Pack: pack, Bin: bin, SnapEvery: snapEvery, K: k,
	}
	parts, a, err := buildParts(ds, k, seed)
	if err != nil {
		return nil, err
	}
	scratch := filepath.Join(dir, fmt.Sprintf("%s_k%d_incremental", strings.ToLower(ds.Name), k))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	for _, churn := range churns {
		lat, err := gen.RandomLatencies(ds.Template, gen.LatencyConfig{
			Timesteps: steps, T0: 0, Delta: int64(ds.Delta),
			Min: latMin, Max: latMax, Seed: seed + 11, Churn: churn,
		})
		if err != nil {
			return nil, err
		}
		fullDir := filepath.Join(scratch, fmt.Sprintf("churn%g_full", churn))
		deltaDir := filepath.Join(scratch, fmt.Sprintf("churn%g_delta", churn))
		if err := gofs.WriteDatasetOptions(fullDir, lat, a, gofs.Options{Pack: pack, Bin: bin}); err != nil {
			return nil, err
		}
		if err := gofs.WriteDatasetOptions(deltaDir, lat, a, gofs.Options{Pack: pack, Bin: bin, SnapshotEvery: snapEvery}); err != nil {
			return nil, err
		}
		row := IncrementalStorageRow{Churn: churn, Timesteps: steps}
		if row.FullBytes, err = dirBytes(filepath.Join(fullDir, "slices")); err != nil {
			return nil, err
		}
		if row.DeltaBytes, err = dirBytes(filepath.Join(deltaDir, "slices")); err != nil {
			return nil, err
		}
		if row.FullSweep, err = sweepDataset(fullDir); err != nil {
			return nil, err
		}
		if row.DeltaSweep, err = sweepDataset(deltaDir); err != nil {
			return nil, err
		}
		res.Storage = append(res.Storage, row)
		os.RemoveAll(fullDir)
		os.RemoveAll(deltaDir)
	}

	// Localized tweet churn: one SIR seed, no background tags, so distant
	// subgraphs stay delta-clean until the wave reaches them and every
	// subgraph is clean after it burns out.
	sir, err := gen.SIRTweets(ds.Template, gen.SIRConfig{
		Timesteps: steps, T0: 0, Delta: int64(ds.Delta),
		Memes: []string{ds.Meme}, SeedsPerMeme: 1,
		HitProb: 0.30, RecoverAfter: 3, Seed: seed + 12,
	})
	if err != nil {
		return nil, err
	}
	fullDir := filepath.Join(scratch, "sir_full")
	deltaDir := filepath.Join(scratch, "sir_delta")
	if err := gofs.WriteDatasetOptions(fullDir, sir.Collection, a, gofs.Options{Pack: pack, Bin: bin}); err != nil {
		return nil, err
	}
	if err := gofs.WriteDatasetOptions(deltaDir, sir.Collection, a, gofs.Options{Pack: pack, Bin: bin, SnapshotEvery: snapEvery}); err != nil {
		return nil, err
	}
	slots := 0
	for _, pd := range parts {
		slots += len(pd.Subgraphs) * steps
	}
	modes := []struct {
		mode, store, dir string
		incremental      bool
	}{
		{"full-store", "full", fullDir, false},
		{"delta-store", "delta", deltaDir, false},
		{"delta+incremental", "delta", deltaDir, true},
	}
	var baseline []int32
	for _, m := range modes {
		store, err := gofs.Open(m.dir)
		if err != nil {
			return nil, err
		}
		prog := algorithms.NewMeme(parts, ds.Meme, "tweets")
		rec := newRecorder(k)
		start := time.Now()
		run, err := core.Run(&core.Job{
			Template:    ds.Template,
			Parts:       parts,
			Source:      gofs.NewLoader(store),
			Program:     prog,
			Pattern:     core.SequentiallyDependent,
			Config:      cfg,
			Recorder:    rec,
			Incremental: m.incremental,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: incremental %s: %w", m.mode, err)
		}
		row := IncrementalComputeRow{
			Mode: m.mode, Store: m.store,
			Wall: time.Since(start), SimTime: run.SimTime,
			Skipped: run.SubgraphsSkipped, Slots: slots,
		}
		colored := prog.ColoredAt(parts, ds.Template)
		if baseline == nil {
			baseline = colored
			row.Identical = true
		} else {
			row.Identical = true
			for v := range colored {
				if colored[v] != baseline[v] {
					row.Identical = false
					break
				}
			}
		}
		res.Compute = append(res.Compute, row)
	}
	return res, nil
}

// RenderIncremental writes the ablation as text.
func RenderIncremental(w io.Writer, r *IncrementalResult) {
	fmt.Fprintf(w, "== Extension: delta-encoded GoFS instances + incremental recompute ==\n")
	fmt.Fprintf(w, "storage (%s latencies, %d timesteps, pack=%d bin=%d, snapshot every %d):\n",
		r.Graph, rowTimesteps(r.Storage), r.Pack, r.Bin, r.SnapEvery)
	fmt.Fprintf(w, "%8s %12s %12s %8s %12s %12s %8s\n",
		"churn", "full slices", "delta slices", "shrink", "full sweep", "delta sweep", "speedup")
	for _, s := range r.Storage {
		fmt.Fprintf(w, "%7.2f%% %12d %12d %7.1fx %12s %12s %7.1fx\n",
			s.Churn*100, s.FullBytes, s.DeltaBytes, s.Shrink(),
			s.FullSweep.Round(time.Microsecond), s.DeltaSweep.Round(time.Microsecond), s.Speedup())
	}
	fmt.Fprintf(w, "compute (MEME over localized SIR churn, k=%d):\n", r.K)
	fmt.Fprintf(w, "%-18s %-5s %12s %12s %14s %10s\n",
		"mode", "store", "wall", "sim time", "skipped", "identical")
	for _, c := range r.Compute {
		fmt.Fprintf(w, "%-18s %-5s %12s %12s %8d/%-5d %10v\n",
			c.Mode, c.Store, c.Wall.Round(time.Microsecond), c.SimTime.Round(time.Microsecond),
			c.Skipped, c.Slots, c.Identical)
	}
}

func rowTimesteps(rows []IncrementalStorageRow) int {
	if len(rows) == 0 {
		return 0
	}
	return rows[0].Timesteps
}
