package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"tsgraph/internal/algorithms"
	"tsgraph/internal/bsp"
	"tsgraph/internal/cluster"
	"tsgraph/internal/core"
	"tsgraph/internal/obs"
)

// DistributedSmokeRow is one rank of the loopback-cluster smoke run: the
// rank's run shape plus its aggregate wire traffic (frames/bytes sent and
// received, cumulative flush latency), proving the TCP mesh carried the run
// and surfacing the per-peer wire counters the observability endpoint
// exports.
type DistributedSmokeRow struct {
	Rank         int
	Partitions   int
	TimestepsRun int
	Supersteps   int
	Wall         time.Duration
	Reached      int // TDSP-reached vertices owned by this rank
	Wire         []cluster.PeerWireStats
}

// DistributedSmokeOptions tunes the loopback smoke run's observability.
type DistributedSmokeOptions struct {
	// OnNode, when non-nil, sees every node before the run starts (tsbench
	// registers them with its obs registry so /metrics scrapes include the
	// per-peer wire counters).
	OnNode func(*cluster.Node)
	// Trace gives every rank its own enabled tracer, gathers the per-rank
	// shards over the mesh at rank 0 after the run, and returns the
	// clock-aligned merged trace plus its cluster skew decomposition.
	Trace bool
	// Watchdog, when non-nil, attaches a cluster-level stall watchdog to
	// every rank (parties are ranks; warnings are collected in the result).
	Watchdog *obs.WatchdogConfig
}

// DistributedSmokeResult is the full outcome of a loopback smoke run.
type DistributedSmokeResult struct {
	Rows []DistributedSmokeRow
	// Merged is the clock-aligned cross-rank trace and Shards the raw
	// per-rank inputs it was built from (nil unless Options.Trace was set).
	Merged *obs.MergedTrace
	Shards []obs.TraceShard
	// Skew decomposes imbalance into intra-rank compute skew vs inter-rank
	// barrier wait (zero value unless Options.Trace was set).
	Skew obs.ClusterSkewReport
	// Offsets is rank 0's clock view: Offsets[r] ≈ rank r's clock minus
	// rank 0's clock (nil unless Options.Trace was set).
	Offsets []time.Duration
	// Stalls are the watchdog warnings fired across all ranks, if any.
	Stalls []obs.StallWarning
}

// DistributedSmoke runs TDSP as a genuine nodes-way distributed execution
// inside one process: one cluster.Node per rank over loopback TCP, each
// owning a round-robin share of the partitions.
func DistributedSmoke(ds *Dataset, nodesN, k int, cfg bsp.Config, seed int64, opts DistributedSmokeOptions) (*DistributedSmokeResult, error) {
	if nodesN < 2 {
		nodesN = 2
	}
	parts, _, err := buildParts(ds, k, seed)
	if err != nil {
		return nil, err
	}
	tracers := make([]*obs.Tracer, nodesN)
	watchdogs := make([]*obs.Watchdog, nodesN)
	defer func() {
		for _, wd := range watchdogs {
			if wd != nil {
				wd.Close()
			}
		}
	}()
	g, err := startLoopback(nodesN, parts, func(i int, c *cluster.Config) {
		if opts.Trace {
			tracers[i] = obs.NewTracer(0)
			tracers[i].Enable()
		}
		if opts.Watchdog != nil {
			wcfg := *opts.Watchdog
			wcfg.Parties = nodesN
			wcfg.Tracer = tracers[i]
			if wcfg.Describe == nil {
				wcfg.Describe = func(party int) string {
					return fmt.Sprintf("rank %d (seen from rank %d)", party, i)
				}
			}
			watchdogs[i] = obs.NewWatchdog(wcfg)
		}
		c.Tracer, c.Watchdog = tracers[i], watchdogs[i]
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: distributed smoke: %w", err)
	}
	defer g.close()
	nodes := g.nodes
	if opts.OnNode != nil {
		for _, n := range nodes {
			opts.OnNode(n)
		}
	}

	rows := make([]DistributedSmokeRow, nodesN)
	err = g.each(func(r int) error {
		local := g.meshes[r].Local
		prog := algorithms.NewTDSP(local, ds.SourceVertex, ds.Delta, "latency")
		wallStart := time.Now()
		res, err := algorithms.Sweep(&core.Job{
			Template: ds.Template,
			Source:   core.MemorySource{C: ds.Latencies},
			Program:  prog,
			Config:   cfg,
			Tracer:   tracers[r],
			Mesh:     g.meshes[r],
		})
		if err != nil {
			return err
		}
		arr := prog.Arrivals(local, ds.Template)
		reached := 0
		for _, pd := range local {
			for _, v := range pd.GlobalIdx {
				if !math.IsInf(arr[v], 1) {
					reached++
				}
			}
		}
		rows[r] = DistributedSmokeRow{
			Rank: r, Partitions: len(local),
			TimestepsRun: res.TimestepsRun, Supersteps: res.Supersteps,
			Wall: time.Since(wallStart), Reached: reached,
			Wire: nodes[r].WireStats(),
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: distributed smoke: %w", err)
	}

	result := &DistributedSmokeResult{Rows: rows}
	for _, wd := range watchdogs {
		result.Stalls = append(result.Stalls, wd.Warnings()...)
	}
	if opts.Trace {
		// Non-zero ranks ship their shards first (non-blocking sends), then
		// rank 0 collects — exercising the same wire path a multi-process
		// deployment uses.
		for r := 1; r < nodesN; r++ {
			if _, err := nodes[r].GatherTraces(0); err != nil {
				return nil, fmt.Errorf("experiments: rank %d trace gather: %w", r, err)
			}
		}
		shards, err := nodes[0].GatherTraces(0)
		if err != nil {
			return nil, fmt.Errorf("experiments: trace gather: %w", err)
		}
		merged := obs.MergeTraces(shards)
		result.Merged = merged
		result.Shards = shards
		result.Skew = *merged.ClusterSkew()
		result.Offsets = nodes[0].ClockOffsets()
	}
	return result, nil
}

// RenderDistributedSmoke writes the loopback-cluster smoke table.
func RenderDistributedSmoke(w io.Writer, rows []DistributedSmokeRow) {
	fmt.Fprintf(w, "== Distributed smoke: TDSP over a %d-node loopback TCP mesh ==\n", len(rows))
	fmt.Fprintf(w, "%5s %6s %6s %6s %8s %8s %11s %11s %11s\n",
		"rank", "parts", "steps", "sups", "reached", "wall", "sent", "recv", "flush")
	for _, r := range rows {
		var framesSent, bytesSent, framesRecv, bytesRecv int64
		var flush time.Duration
		for _, ws := range r.Wire {
			framesSent += ws.FramesSent
			bytesSent += ws.BytesSent
			framesRecv += ws.FramesRecv
			bytesRecv += ws.BytesRecv
			flush += ws.FlushTime
		}
		fmt.Fprintf(w, "%5d %6d %6d %6d %8d %8s %11s %11s %11s\n",
			r.Rank, r.Partitions, r.TimestepsRun, r.Supersteps, r.Reached,
			r.Wall.Round(time.Millisecond),
			fmt.Sprintf("%df/%dB", framesSent, bytesSent),
			fmt.Sprintf("%df/%dB", framesRecv, bytesRecv),
			flush.Round(time.Microsecond))
	}
}
