package experiments

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"tsgraph/internal/algorithms"
	"tsgraph/internal/bsp"
	"tsgraph/internal/chaos"
	"tsgraph/internal/cluster"
	"tsgraph/internal/core"
	"tsgraph/internal/subgraph"
)

// ChaosRow is one fault-rate point of the fault-tolerance experiment: a
// distributed TDSP run under a seeded per-frame fault probability, with the
// transport's recovery work and the cost it added.
type ChaosRow struct {
	// FaultRate is the per-frame probability that a send severs its
	// connection (the wire.send failpoint; wire.recv runs at half this).
	FaultRate float64
	// Faults is the number of injected faults that actually fired.
	Faults int64
	// Retries / Reconnects / DupFrames are the transport's recovery
	// counters summed over all ranks.
	Retries    int64
	Reconnects int64
	DupFrames  int64
	// Recoveries counts completed down->up incidents; MeanRecovery is the
	// mean time a lost inbound link stayed down before its replacement
	// landed (the paper-style recovery latency).
	Recoveries   int64
	MeanRecovery time.Duration
	// Wall is the slowest rank's wall time for the whole run.
	Wall time.Duration
	// Correct reports whether the run's arrivals matched the fault-free
	// reference exactly.
	Correct bool
}

// ChaosTable runs distributed TDSP over a loopback mesh at each fault rate
// and reports recovery work, recovery latency, and wall-time overhead. The
// first rate should be 0: it doubles as the correctness reference.
func ChaosTable(ds *Dataset, nodesN, k int, cfg bsp.Config, seed int64, rates []float64) ([]ChaosRow, error) {
	if nodesN < 2 {
		nodesN = 2
	}
	parts, _, err := buildParts(ds, k, seed)
	if err != nil {
		return nil, err
	}
	rows := make([]ChaosRow, 0, len(rates))
	var reference []float64
	for _, rate := range rates {
		row, arrivals, err := runChaosTDSP(ds, parts, nodesN, cfg, seed, rate)
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos at rate %g: %w", rate, err)
		}
		if reference == nil {
			reference = arrivals
			row.Correct = true
		} else {
			row.Correct = sameArrivals(reference, arrivals)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func sameArrivals(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.IsInf(a[i], 1) != math.IsInf(b[i], 1) {
			return false
		}
		if !math.IsInf(a[i], 1) && a[i] != b[i] {
			return false
		}
	}
	return true
}

// runChaosTDSP executes one fault-rate point: a nodes-way loopback mesh
// with the resilient transport enabled and a seeded injector per rank.
func runChaosTDSP(ds *Dataset, parts []*subgraph.PartitionData, nodesN int, cfg bsp.Config, seed int64, rate float64) (ChaosRow, []float64, error) {
	row := ChaosRow{FaultRate: rate}
	injectors := make([]*chaos.Injector, nodesN)
	g, err := startLoopback(nodesN, parts, func(i int, c *cluster.Config) {
		if rate > 0 {
			injectors[i] = chaos.New(seed+int64(i)).
				SetProb(chaos.SiteWireSend, rate).
				SetProb(chaos.SiteWireRecv, rate/2)
		}
		c.Resilience = &cluster.Resilience{
			BackoffBase:    2 * time.Millisecond,
			BackoffCap:     100 * time.Millisecond,
			RecoveryWindow: 30 * time.Second,
		}
		c.Chaos = injectors[i]
	})
	if err != nil {
		return row, nil, err
	}
	defer g.close()

	merged := make([]float64, ds.Template.NumVertices())
	for i := range merged {
		merged[i] = math.Inf(1)
	}
	var mu sync.Mutex
	walls := make([]time.Duration, nodesN)
	err = g.each(func(r int) error {
		local := g.meshes[r].Local
		prog := algorithms.NewTDSP(local, ds.SourceVertex, ds.Delta, "latency")
		wallStart := time.Now()
		_, err := algorithms.Sweep(&core.Job{
			Template: ds.Template,
			Source:   core.MemorySource{C: ds.Latencies},
			Program:  prog,
			Config:   cfg,
			Mesh:     g.meshes[r],
		})
		walls[r] = time.Since(wallStart)
		if err != nil {
			g.nodes[r].Close() // fail loudly: unblock the peers
			return err
		}
		arr := prog.Arrivals(local, ds.Template)
		mu.Lock()
		for _, pd := range local {
			for _, v := range pd.GlobalIdx {
				merged[v] = arr[v]
			}
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return row, nil, err
	}

	var downTotal time.Duration
	for r, n := range g.nodes {
		retries, reconnects, dups, recoveries, down := n.RecoveryStats()
		row.Retries += retries
		row.Reconnects += reconnects
		row.DupFrames += dups
		row.Recoveries += recoveries
		downTotal += down
		if walls[r] > row.Wall {
			row.Wall = walls[r]
		}
		if inj := injectors[r]; inj != nil {
			for _, hf := range inj.Stats() {
				row.Faults += hf[1]
			}
		}
	}
	if row.Recoveries > 0 {
		row.MeanRecovery = downTotal / time.Duration(row.Recoveries)
	}
	return row, merged, nil
}

// RenderChaosTable writes the fault-tolerance table.
func RenderChaosTable(w io.Writer, nodesN int, rows []ChaosRow) {
	fmt.Fprintf(w, "== Fault tolerance: TDSP under injected wire faults (%d-node loopback mesh) ==\n", nodesN)
	fmt.Fprintf(w, "%9s %7s %8s %10s %6s %11s %9s %9s %8s\n",
		"rate", "faults", "retries", "reconnects", "dups", "recoveries", "meanrec", "wall", "correct")
	for _, r := range rows {
		fmt.Fprintf(w, "%9g %7d %8d %10d %6d %11d %9s %9s %8v\n",
			r.FaultRate, r.Faults, r.Retries, r.Reconnects, r.DupFrames, r.Recoveries,
			r.MeanRecovery.Round(time.Microsecond), r.Wall.Round(time.Millisecond), r.Correct)
	}
}
