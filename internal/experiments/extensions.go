package experiments

import (
	"fmt"
	"io"
	"time"

	"tsgraph/internal/bsp"
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
