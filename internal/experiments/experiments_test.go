package experiments

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"tsgraph/internal/bsp"
	"tsgraph/internal/graph"
)

// testScale is smaller than Small to keep the suite snappy.
var testScale = Scale{Name: "test", RoadRows: 30, RoadCols: 30, SWN: 1200, SWM: 2, Timesteps: 12, Seed: 7}

func datasets(tb testing.TB) (*Dataset, *Dataset) {
	tb.Helper()
	road, sw, err := BuildDatasets(testScale)
	if err != nil {
		tb.Fatal(err)
	}
	return road, sw
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"small", "medium", "large"} {
		sc, err := ScaleByName(name)
		if err != nil || sc.Name != name {
			t.Errorf("ScaleByName(%q) = %+v, %v", name, sc, err)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Error("bogus scale accepted")
	}
}

func TestDatasetTableShape(t *testing.T) {
	road, sw := datasets(t)
	rows := DatasetTable(road, sw)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Diameter <= 4*rows[1].Diameter {
		t.Errorf("road diameter %d should dwarf small-world %d", rows[0].Diameter, rows[1].Diameter)
	}
	if rows[1].MaxDegree <= 3*rows[0].MaxDegree {
		t.Errorf("small-world hubs (%d) should dwarf road max degree (%d)", rows[1].MaxDegree, rows[0].MaxDegree)
	}
	var buf bytes.Buffer
	RenderDatasetTable(&buf, rows)
	if !strings.Contains(buf.String(), "ROAD") {
		t.Error("render missing ROAD row")
	}
}

func TestEdgeCutContrast(t *testing.T) {
	road, sw := datasets(t)
	ks := []int{3, 6, 9}
	rows, err := EdgeCutTable([]*Dataset{road, sw}, ks, 1)
	if err != nil {
		t.Fatal(err)
	}
	cut := map[string]map[int]float64{"ROAD": {}, "SMALLWORLD": {}}
	for _, r := range rows {
		cut[r.Graph][r.K] = r.CutPct
	}
	for _, k := range ks {
		if cut["ROAD"][k] >= cut["SMALLWORLD"][k] {
			t.Errorf("k=%d: road cut %.2f%% not below small-world %.2f%%", k, cut["ROAD"][k], cut["SMALLWORLD"][k])
		}
	}
	if cut["SMALLWORLD"][3] >= cut["SMALLWORLD"][9] {
		t.Errorf("small-world cut should grow with k: %v", cut["SMALLWORLD"])
	}
	var buf bytes.Buffer
	RenderEdgeCutTable(&buf, rows, ks)
	if !strings.Contains(buf.String(), "%") {
		t.Error("render missing percentages")
	}
}

func TestScalabilityShapes(t *testing.T) {
	road, sw := datasets(t)
	ks := []int{3, 6}
	cells, err := Scalability([]*Dataset{road, sw}, ks, bsp.Config{CoresPerHost: 2}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]ScalabilityCell{}
	for _, c := range cells {
		byKey[c.Algo+"/"+c.Graph+string(rune('0'+c.K))] = c
	}
	// TDSP: road uses most of the timestep range, small world a fraction.
	roadSteps := byKey["TDSP/ROAD3"].TimestepsRun
	swSteps := byKey["TDSP/SMALLWORLD3"].TimestepsRun
	if roadSteps < testScale.Timesteps/2 {
		t.Errorf("TDSP road converged in %d of %d steps; want a long sweep", roadSteps, testScale.Timesteps)
	}
	if swSteps > testScale.Timesteps/3 {
		t.Errorf("TDSP small-world took %d steps; want rapid convergence", swSteps)
	}
	// Every cell ran and recorded simulated time.
	for key, c := range byKey {
		if c.SimTime <= 0 {
			t.Errorf("%s: no simulated time recorded", key)
		}
	}
	var buf bytes.Buffer
	RenderScalability(&buf, cells, ks)
	if !strings.Contains(buf.String(), "TDSP") {
		t.Error("render missing TDSP")
	}
}

func TestBaselineOrdering(t *testing.T) {
	road, sw := datasets(t)
	rows, err := Baseline([]*Dataset{road, sw}, 3, bsp.Config{CoresPerHost: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6", len(rows))
	}
	byGraph := map[string][]BaselineRow{}
	for _, r := range rows {
		byGraph[r.Graph] = append(byGraph[r.Graph], r)
	}
	for g, rs := range byGraph {
		vertexRow, ssspRow, tdspRow := rs[0], rs[1], rs[2]
		// The paper's headline: even Giraph SSSP on ONE instance exceeds
		// GoFFish TDSP over ALL instances.
		if vertexRow.SimTime <= tdspRow.SimTime {
			t.Errorf("%s: vertex-centric SSSP (%v) should exceed subgraph TDSP (%v)", g, vertexRow.SimTime, tdspRow.SimTime)
		}
		if ssspRow.SimTime >= tdspRow.SimTime {
			t.Errorf("%s: single-instance subgraph SSSP (%v) should undercut TDSP over all instances (%v)", g, ssspRow.SimTime, tdspRow.SimTime)
		}
		// Structural cause: one vertex-centric superstep per BFS hop, plus
		// the farthest vertices' last send and the quiet halting superstep.
		ds := map[string]*Dataset{road.Name: road, sw.Name: sw}[g]
		ecc := int(slices.Max(graph.BFSLevels(ds.Template, ds.SourceVertex)))
		if vertexRow.Supersteps != ecc+2 {
			t.Errorf("%s: vertex-centric supersteps %d, want eccentricity %d + 2", g, vertexRow.Supersteps, ecc)
		}
	}
	var buf bytes.Buffer
	RenderBaseline(&buf, rows)
	if !strings.Contains(buf.String(), "vertex-centric") {
		t.Error("render missing baseline rows")
	}
}

func TestTimestepSeriesSpikes(t *testing.T) {
	road, _ := datasets(t)
	dir := t.TempDir()
	series, err := RunTimestepSeries(road, AlgoTDSP, []int{3}, dir, 5, 3, 0, bsp.Config{CoresPerHost: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 {
		t.Fatalf("%d series", len(series))
	}
	s := series[0]
	if len(s.PerStep) == 0 {
		t.Fatal("empty series")
	}
	// Pack boundaries (steps 0, 5, 10) must carry the load; interior steps
	// must not.
	if s.Loads[0] == 0 {
		t.Error("no load at pack start")
	}
	for _, i := range []int{1, 2, 3, 4} {
		if i < len(s.Loads) && s.Loads[i] >= s.Loads[0] && s.Loads[i] != 0 {
			t.Errorf("interior step %d load %v not below pack-boundary load %v", i, s.Loads[i], s.Loads[0])
		}
	}
	if len(s.Loads) > 5 && s.Loads[5] == 0 {
		t.Error("no load spike at second pack boundary")
	}
	var buf bytes.Buffer
	RenderTimestepSeries(&buf, series)
	if !strings.Contains(buf.String(), "timestep") {
		t.Error("render missing header")
	}
}

func TestMemeSeriesRuns(t *testing.T) {
	_, sw := datasets(t)
	dir := t.TempDir()
	series, err := RunTimestepSeries(sw, AlgoMeme, []int{3}, dir, 0, 0, 4, bsp.Config{CoresPerHost: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(series[0].PerStep) != testScale.Timesteps {
		t.Errorf("series length %d, want %d", len(series[0].PerStep), testScale.Timesteps)
	}
}

func TestTimestepSeriesRejectsHash(t *testing.T) {
	road, _ := datasets(t)
	if _, err := RunTimestepSeries(road, AlgoHash, []int{2}, t.TempDir(), 0, 0, 0, bsp.Config{}, 1); err == nil {
		t.Error("HASH series should be rejected")
	}
}

func TestProgressSeries(t *testing.T) {
	road, _ := datasets(t)
	ps, rec, err := RunProgress(road, AlgoTDSP, 3, bsp.Config{CoresPerHost: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.PerPart) != 3 {
		t.Fatalf("%d partitions", len(ps.PerPart))
	}
	var total int64
	for p := range ps.PerPart {
		for _, v := range ps.PerPart[p] {
			total += v
		}
	}
	if total != rec.CounterTotal(ps.Counter) {
		t.Errorf("series total %d != recorder total %d", total, rec.CounterTotal(ps.Counter))
	}
	if total == 0 {
		t.Error("no progress recorded")
	}
	// The wave: the source's partition finalizes vertices at timestep 0,
	// some other partition does not.
	firstStepTotal := int64(0)
	for p := range ps.PerPart {
		firstStepTotal += ps.PerPart[p][0]
	}
	if firstStepTotal == 0 {
		t.Error("nothing finalized at timestep 0")
	}
	var buf bytes.Buffer
	RenderProgress(&buf, ps)
	if !strings.Contains(buf.String(), "part 0") {
		t.Error("render missing partitions")
	}
}

func TestUtilizationReport(t *testing.T) {
	road, _ := datasets(t)
	ur, err := RunUtilization(road, AlgoMeme, 3, bsp.Config{CoresPerHost: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ur.Utils) != 3 {
		t.Fatalf("%d partitions", len(ur.Utils))
	}
	for _, u := range ur.Utils {
		sum := u.ComputeFrac() + u.FlushFrac() + u.BarrierFrac()
		if u.Total() > 0 && (sum < 0.999 || sum > 1.001) {
			t.Errorf("partition %d fractions sum to %v", u.Partition, sum)
		}
	}
	var buf bytes.Buffer
	RenderUtilization(&buf, ur)
	if !strings.Contains(buf.String(), "compute%") {
		t.Error("render missing header")
	}
}

func TestPartitionerAblation(t *testing.T) {
	road, _ := datasets(t)
	rows, err := PartitionerAblation(road, 3, bsp.Config{CoresPerHost: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	cut := map[string]float64{}
	for _, r := range rows {
		cut[r.Partitioner] = r.CutPct
	}
	if cut["multilevel"] >= cut["hash"] {
		t.Errorf("multilevel cut %.2f%% should beat hash %.2f%%", cut["multilevel"], cut["hash"])
	}
	var buf bytes.Buffer
	RenderPartitionerAblation(&buf, rows)
	if !strings.Contains(buf.String(), "multilevel") {
		t.Error("render missing partitioners")
	}
}

func TestTemporalParallelismAblation(t *testing.T) {
	_, sw := datasets(t)
	// One HASH run is ~100µs of measured Compute, so a single scheduler
	// pause inside one timing window can inflate a run several-fold (the
	// ratio of two single runs exceeded 4x in ~3% of pairs, GC off or on).
	// Compare each degree's best of several runs, as Scalability does.
	var best []TemporalParallelismRow
	for i := 0; i < 5; i++ {
		rows, err := TemporalParallelismAblation(sw, 3, []int{1, 4}, bsp.Config{CoresPerHost: 2}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("%d rows", len(rows))
		}
		if best == nil {
			best = rows
			continue
		}
		for j, r := range rows {
			if r.SimTime < best[j].SimTime {
				best[j] = r
			}
		}
	}
	if best[1].SimTime >= best[0].SimTime {
		t.Errorf("temporal parallelism 4 (%v) should model faster than 1 (%v)", best[1].SimTime, best[0].SimTime)
	}
	var buf bytes.Buffer
	RenderTemporalParallelism(&buf, best)
	if !strings.Contains(buf.String(), "Parallelism") {
		t.Error("render missing header")
	}
}

func TestPackingAblation(t *testing.T) {
	road, _ := datasets(t)
	rows, err := PackingAblation(road, 3, []int{1, 6}, t.TempDir(), bsp.Config{CoresPerHost: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].SliceReads <= rows[1].SliceReads {
		t.Errorf("pack=1 reads (%d) should exceed pack=6 reads (%d)", rows[0].SliceReads, rows[1].SliceReads)
	}
	var buf bytes.Buffer
	RenderPackingAblation(&buf, rows)
	if !strings.Contains(buf.String(), "pack") {
		t.Error("render missing header")
	}
}

func TestElasticHeadroom(t *testing.T) {
	road, _ := datasets(t)
	row, err := ElasticHeadroom(road, AlgoTDSP, 3, bsp.Config{CoresPerHost: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The TDSP wave leaves hosts idle: headroom must be positive and some
	// (host, timestep) pairs fully idle.
	if row.Headroom() <= 0 {
		t.Errorf("headroom = %v, want > 0 for the skewed TDSP wave", row.Headroom())
	}
	if row.IdleSteps == 0 {
		t.Error("expected idle host-timesteps during the wave")
	}
	if row.Balanced >= row.Actual {
		t.Errorf("balanced %v not below actual %v", row.Balanced, row.Actual)
	}
	var buf bytes.Buffer
	RenderElasticHeadroom(&buf, []*ElasticHeadroomRow{row})
	if !strings.Contains(buf.String(), "headroom") {
		t.Error("render missing header")
	}
}
func TestIncrementalAblation(t *testing.T) {
	road, _ := datasets(t)
	res, err := IncrementalAblation(road, []float64{0.01, 1}, 6, t.TempDir(), 4, 2, 4, bsp.Config{CoresPerHost: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Storage) != 2 {
		t.Fatalf("%d storage rows", len(res.Storage))
	}
	low, high := res.Storage[0], res.Storage[1]
	if low.Churn != 0.01 || high.Churn != 1 {
		t.Fatalf("row churns = %v,%v", low.Churn, high.Churn)
	}
	// At 1% churn the delta format must shrink the dataset substantially;
	// at full churn every timestep still pays snapshot-sized deltas.
	if low.Shrink() < 2 {
		t.Errorf("shrink at 1%% churn = %.2fx, want >= 2x", low.Shrink())
	}
	if low.Shrink() < high.Shrink() {
		t.Errorf("shrink should fall with churn: %.2fx at 1%% vs %.2fx at 100%%", low.Shrink(), high.Shrink())
	}
	if len(res.Compute) != 3 {
		t.Fatalf("%d compute rows", len(res.Compute))
	}
	for _, c := range res.Compute {
		if !c.Identical {
			t.Errorf("%s: results diverged from the full-store baseline", c.Mode)
		}
		if c.Mode != "delta+incremental" && c.Skipped != 0 {
			t.Errorf("%s skipped %d subgraphs", c.Mode, c.Skipped)
		}
	}
	inc := res.Compute[2]
	if inc.Mode != "delta+incremental" || inc.Skipped == 0 {
		t.Errorf("incremental row skipped %d of %d slots, want > 0", inc.Skipped, inc.Slots)
	}
	var buf bytes.Buffer
	RenderIncremental(&buf, res)
	if !strings.Contains(buf.String(), "incremental recompute") {
		t.Error("render missing header")
	}
}
