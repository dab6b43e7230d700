package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"tsgraph/internal/gen"
	"tsgraph/internal/gofs"
	"tsgraph/internal/graph"
	"tsgraph/internal/partition"
	"tsgraph/internal/subgraph"
)

// scale fixes every input size of a run. The benchmark runs at
// defaultScale only; the tests use a smaller one to stay under 10 s.
type scale struct {
	RoadRows, RoadCols int
	SWN, SWM           int
	Steps              int
	// IngestSeedSteps is the prefix of the road collection ingest-live
	// starts from; the appends extend it.
	IngestSeedSteps int
	// TripRadius bounds |Δrow| and |Δcol| between a query's source and
	// target: local trips, reachable inside the window.
	TripRadius int
	// IngestTripRadius is the same bound for the ingest-live reader, whose
	// window is only the last few timesteps before the watermark.
	IngestTripRadius int
	// HotPool is the size of serve-hot's fixed query pool.
	HotPool int
	// AppendRate is ingest-live's open-loop schedule, appends per second.
	AppendRate float64
}

var defaultScale = scale{
	RoadRows: 160, RoadCols: 160, SWN: 30000, SWM: 2, Steps: 48,
	IngestSeedSteps: 16, TripRadius: 32, IngestTripRadius: 12,
	HotPool: 4096, AppendRate: 12,
}

// templateSeed fixes the two topologies: the road map and the social graph
// are the same under every --seed, which varies what flows over them (the
// latency, load and tweet time series) and what is asked (trips, pools,
// mutations). A seeded map would also reseed the partition layout, and with
// it how many trips cross a shard boundary: a different workload, not a
// different input of the same one (shard-2x1's median moved 47 -> 60 ms
// between two seeds' layouts).
const templateSeed = 42

const (
	numParts = 4
	latMin   = 1.0
	latMax   = 20.0
	churn    = 0.10
	memeTag  = "#meme"
)

// storeOptions is the GoFS layout every workload writes: v2 delta records
// with a snapshot every 4 steps, 8 timesteps per pack.
var storeOptions = gofs.Options{Pack: 8, Bin: 5, SnapshotEvery: 4}

// roadDelta recomputes experiments.roadDelta (unexported there): δ such
// that a corner-source TDSP needs most of the timestep range to sweep the
// road network.
func roadDelta(rows, cols, steps int) float64 {
	ecc := float64(rows + cols)
	avgLat := (latMin + latMax) / 2
	d := ecc / (1.4 * float64(steps)) * avgLat
	if d < latMax {
		d = latMax
	}
	return float64(int(d + 1))
}

// setupTimes is the per-layer decomposition of one dataset build.
type setupTimes struct {
	Gen, Partition, Write, Subgraph time.Duration
	EdgeCutShare                    float64
	Subgraphs                       int
}

func (a *setupTimes) add(b setupTimes) {
	a.Gen += b.Gen
	a.Partition += b.Partition
	a.Write += b.Write
	a.Subgraph += b.Subgraph
	a.Subgraphs += b.Subgraphs
	if b.EdgeCutShare > a.EdgeCutShare {
		a.EdgeCutShare = b.EdgeCutShare
	}
}

// dataset is one generated collection, partitioned, written to disk as a
// GoFS dataset and opened again: the state every workload starts from.
type dataset struct {
	Name  string
	Dir   string
	Tmpl  *graph.Template
	Coll  *graph.Collection // the in-memory truth the oracle reads
	Delta float64
	Store *gofs.Store
	Parts []*subgraph.PartitionData
	Times setupTimes
}

// edgeSteps is the denominator of disk_bytes_per_edge_step.
func (d *dataset) edgeSteps() float64 {
	return float64(d.Tmpl.NumEdges()) * float64(d.Store.Timesteps())
}

func buildRoadCollection(sc scale, seed int64, steps int) (*graph.Collection, float64, error) {
	t := gen.RoadNetwork(gen.RoadConfig{
		Rows: sc.RoadRows, Cols: sc.RoadCols,
		RemoveFrac: 0.15, ShortcutFrac: 0.01, Seed: templateSeed, Name: "ROAD",
	})
	delta := roadDelta(sc.RoadRows, sc.RoadCols, sc.Steps)
	c, err := gen.RandomLatencies(t, gen.LatencyConfig{
		Timesteps: steps, Delta: int64(delta),
		Min: latMin, Max: latMax, Seed: seed + 1, Churn: churn,
	})
	if err != nil {
		return nil, 0, err
	}
	if err := gen.RandomLoads(c, seed+2, 0, 100); err != nil {
		return nil, 0, err
	}
	return c, delta, nil
}

func buildSmallWorldCollection(sc scale, seed int64) (*graph.Collection, float64, error) {
	t := gen.SmallWorld(gen.SmallWorldConfig{N: sc.SWN, M: sc.SWM, Seed: templateSeed + 10, Name: "SMALLWORLD"})
	delta := roadDelta(sc.RoadRows, sc.RoadCols, sc.Steps)
	sir, err := gen.SIRTweets(t, gen.SIRConfig{
		Timesteps: sc.Steps, Delta: int64(delta),
		Memes: []string{memeTag}, SeedsPerMeme: 10,
		HitProb: 0.15, RecoverAfter: 3, BackgroundTags: 20,
		Seed: seed + 12,
	})
	if err != nil {
		return nil, 0, err
	}
	return sir.Collection, delta, nil
}

// materialize partitions a collection, writes it under dir and opens it
// the way tsrun and tsserve do, timing each layer.
func materialize(name, dir string, c *graph.Collection, delta float64, genDur time.Duration) (*dataset, error) {
	d := &dataset{Name: name, Dir: dir, Tmpl: c.Template, Coll: c, Delta: delta}
	d.Times.Gen = genDur

	t0 := time.Now()
	a, err := partition.Multilevel{Seed: 1}.Partition(c.Template, numParts)
	if err != nil {
		return nil, fmt.Errorf("partition %s: %w", name, err)
	}
	d.Times.Partition = time.Since(t0)
	d.Times.EdgeCutShare = a.CutFraction(c.Template)

	t0 = time.Now()
	if err := gofs.WriteDatasetOptions(dir, c, a, storeOptions); err != nil {
		return nil, fmt.Errorf("write %s: %w", name, err)
	}
	d.Times.Write = time.Since(t0)

	if d.Store, err = gofs.Open(dir); err != nil {
		return nil, fmt.Errorf("open %s: %w", name, err)
	}

	t0 = time.Now()
	if d.Parts, err = subgraph.Build(d.Store.Template(), d.Store.Assignment()); err != nil {
		return nil, fmt.Errorf("subgraphs %s: %w", name, err)
	}
	d.Times.Subgraph = time.Since(t0)
	d.Times.Subgraphs = subgraph.TotalSubgraphs(d.Parts)
	return d, nil
}

func buildRoad(sc scale, seed int64, steps int, dir string) (*dataset, error) {
	t0 := time.Now()
	c, delta, err := buildRoadCollection(sc, seed, steps)
	if err != nil {
		return nil, err
	}
	return materialize("road", dir, c, delta, time.Since(t0))
}

func buildSmallWorld(sc scale, seed int64, dir string) (*dataset, error) {
	t0 := time.Now()
	c, delta, err := buildSmallWorldCollection(sc, seed)
	if err != nil {
		return nil, err
	}
	return materialize("smallworld", dir, c, delta, time.Since(t0))
}

// dirBytes sums the regular files under a dataset directory: packs,
// manifest, template, WAL and retained superseded generations.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// tdspQuery is one point-to-point request of the query stream, in
// template vertex indices (the road generator's ids equal its indices).
type tdspQuery struct {
	Src, Dst, Depart int
}

// queryGen draws the TDSP stream: source uniform, target within radius
// grid cells of it, departure uniform in [0, departMax).
type queryGen struct {
	rng        *rand.Rand
	rows, cols int
	radius     int
}

func newQueryGen(sc scale, seed int64, radius int) *queryGen {
	return &queryGen{rng: rand.New(rand.NewSource(seed)), rows: sc.RoadRows, cols: sc.RoadCols, radius: radius}
}

func (g *queryGen) next(departLo, departHi int) tdspQuery {
	for {
		r, c := g.rng.Intn(g.rows), g.rng.Intn(g.cols)
		dr := g.rng.Intn(2*g.radius+1) - g.radius
		dc := g.rng.Intn(2*g.radius+1) - g.radius
		r2, c2 := r+dr, c+dc
		if r2 < 0 || r2 >= g.rows || c2 < 0 || c2 >= g.cols || (dr == 0 && dc == 0) {
			continue
		}
		depart := departLo
		if departHi > departLo {
			depart += g.rng.Intn(departHi - departLo)
		}
		return tdspQuery{Src: r*g.cols + c, Dst: r2*g.cols + c2, Depart: depart}
	}
}

// zipf draws ranks in [0,n) with P(k) ∝ 1/(k+1)^s by inverting the
// cumulative weights; math/rand's Zipf needs s > 1 but fixes its own
// offset parameter, and an explicit table keeps the draw identical across
// Go versions.
type zipf struct {
	rng *rand.Rand
	cum []float64
}

func newZipf(seed int64, n int, s float64) *zipf {
	cum := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cum[k] = sum
	}
	for k := range cum {
		cum[k] /= sum
	}
	return &zipf{rng: rand.New(rand.NewSource(seed)), cum: cum}
}

func (z *zipf) next() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
