package serve

import (
	"context"

	"tsgraph/internal/algorithms"
	"tsgraph/internal/core"
)

// TDSPLookup reads one (source, target) answer out of a completed TDSP
// sweep: si indexes the batch query whose source the request named, vertex
// is the template index of the target. ok=false means the target was not
// reached by the departure.
type TDSPLookup func(si, vertex int) (arrival float64, timestep int, ok bool)

// MemeSpread is the result of one meme sweep: the global colored-vertex
// count plus the coloring timestep of each requested probe vertex (aligned
// with the probes argument; -1 means never colored).
type MemeSpread struct {
	Colored int
	ProbeAt []int
}

// Sweeper executes the three sweep kinds the scheduler batches. The
// Server's admission control, batching, result cache, and watermark
// pinning all live above this seam; a Sweeper only computes. The default
// implementation runs sweeps in-process over Options.Parts; the shard
// router implements the same interface by scattering to partition-owning
// ranks and merging their partials, which is what keeps sharded answers
// byte-identical — everything above the seam is shared code.
type Sweeper interface {
	// SweepTDSP runs one multi-source time-dependent shortest-path sweep
	// over the first watermark timesteps and returns a lookup over its
	// arrivals. Queries are canonical: sources ascending, targets sorted
	// per source.
	SweepTDSP(ctx context.Context, watermark, depart int, queries []algorithms.BatchQuery) (TDSPLookup, error)
	// SweepTopN ranks vertices by a float attribute for count timesteps
	// starting at from, n entries per timestep, over the first watermark
	// timesteps.
	SweepTopN(ctx context.Context, watermark int, attr string, n, from, count int) ([][]RankEntry, error)
	// SweepMeme runs one meme spread over the first watermark timesteps.
	// Probes are template vertex indices, sorted ascending and unique.
	SweepMeme(ctx context.Context, watermark int, tag string, probes []int) (*MemeSpread, error)
}

// localSweeper is the in-process Sweeper: sweeps run over the server's own
// resident partitions through the same algorithm entry points the offline
// tools use.
type localSweeper struct {
	s *Server
}

func (l localSweeper) SweepTDSP(_ context.Context, watermark, depart int, queries []algorithms.BatchQuery) (TDSPLookup, error) {
	s := l.s
	prog, _, err := algorithms.RunBatchTDSP(
		s.opt.Template, s.opt.Parts, queries, depart,
		core.Window{Src: s.sources[ClassTDSP], Hi: watermark},
		s.opt.Delta, s.opt.WeightAttr, s.cfg, nil, s.opt.Tracer)
	if err != nil {
		return nil, err
	}
	prog.Release()
	return prog.Arrival, nil
}

func (l localSweeper) SweepTopN(_ context.Context, watermark int, attr string, n, from, count int) ([][]RankEntry, error) {
	s := l.s
	steps, _, err := algorithms.RunTopNRange(
		s.opt.Template, s.opt.Parts, attr, n,
		core.Window{Src: s.sources[ClassTopN], Hi: watermark},
		from, count, s.cfg, nil, s.topNParallelism(count))
	if err != nil {
		return nil, err
	}
	out := make([][]RankEntry, len(steps))
	for i, vv := range steps {
		out[i] = make([]RankEntry, len(vv))
		for j, e := range vv {
			out[i][j] = RankEntry{Vertex: int64(e.Vertex), Value: e.Value}
		}
	}
	return out, nil
}

func (l localSweeper) SweepMeme(_ context.Context, watermark int, tag string, probes []int) (*MemeSpread, error) {
	s := l.s
	coloredAt, _, err := algorithms.RunMeme(
		s.opt.Template, s.opt.Parts, tag, s.opt.TweetsAttr,
		core.Window{Src: s.sources[ClassMeme], Hi: watermark}, s.cfg, nil)
	if err != nil {
		return nil, err
	}
	sp := &MemeSpread{ProbeAt: make([]int, len(probes))}
	for _, at := range coloredAt {
		if at >= 0 {
			sp.Colored++
		}
	}
	for i, v := range probes {
		sp.ProbeAt[i] = int(coloredAt[v])
	}
	return sp, nil
}
