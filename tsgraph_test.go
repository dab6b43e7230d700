package tsgraph_test

import (
	"math"
	"path/filepath"
	"sync"
	"testing"

	"tsgraph"
)

// buildTrafficFixture assembles a small road dataset entirely through the
// public API.
func buildTrafficFixture(tb testing.TB) (*tsgraph.Template, *tsgraph.Collection, []*tsgraph.PartitionData) {
	tb.Helper()
	tmpl := tsgraph.RoadNetwork(tsgraph.RoadConfig{Rows: 12, Cols: 12, RemoveFrac: 0.1, Seed: 3})
	coll, err := tsgraph.RandomLatencies(tmpl, tsgraph.LatencyConfig{
		Timesteps: 15, T0: 0, Delta: 30, Min: 1, Max: 25, Seed: 4,
	})
	if err != nil {
		tb.Fatal(err)
	}
	assign, err := tsgraph.PartitionMultilevel(tmpl, 3, 5)
	if err != nil {
		tb.Fatal(err)
	}
	parts, err := tsgraph.BuildSubgraphs(tmpl, assign)
	if err != nil {
		tb.Fatal(err)
	}
	return tmpl, coll, parts
}

func TestPublicTDSPEndToEnd(t *testing.T) {
	tmpl, coll, parts := buildTrafficFixture(t)
	rec := tsgraph.NewRecorder(3)
	arrivals, res, err := tsgraph.TDSP(tmpl, parts, 0, tsgraph.MemorySource{C: coll}, 30,
		tsgraph.AttrLatency, tsgraph.EngineConfig{}, rec)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimestepsRun == 0 {
		t.Fatal("no timesteps ran")
	}
	if arrivals[0] != 0 {
		t.Errorf("source arrival = %v", arrivals[0])
	}
	reached := 0
	for _, a := range arrivals {
		if !math.IsInf(a, 1) {
			reached++
		}
	}
	if reached < tmpl.NumVertices()/2 {
		t.Errorf("only %d of %d vertices reached", reached, tmpl.NumVertices())
	}
	if rec.NumTimesteps() != res.TimestepsRun {
		t.Errorf("recorder has %d timesteps, run reports %d", rec.NumTimesteps(), res.TimestepsRun)
	}
}

func TestPublicGoFSRoundTrip(t *testing.T) {
	tmpl, coll, parts := buildTrafficFixture(t)
	assign, _ := tsgraph.PartitionMultilevel(tmpl, 3, 5)
	dir := filepath.Join(t.TempDir(), "ds")
	if err := tsgraph.WriteDataset(dir, coll, assign, 0, 0); err != nil {
		t.Fatal(err)
	}
	store, err := tsgraph.OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	loader := tsgraph.NewLoader(store)
	// TDSP over GoFS-backed instances must match the in-memory run.
	mem, _, err := tsgraph.TDSP(tmpl, parts, 0, tsgraph.MemorySource{C: coll}, 30,
		tsgraph.AttrLatency, tsgraph.EngineConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	disk, _, err := tsgraph.TDSP(tmpl, parts, 0, loader, 30,
		tsgraph.AttrLatency, tsgraph.EngineConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range mem {
		if mem[v] != disk[v] && !(math.IsInf(mem[v], 1) && math.IsInf(disk[v], 1)) {
			t.Fatalf("vertex %d: memory %v, gofs %v", v, mem[v], disk[v])
		}
	}
}

func TestPublicMemeAndHashtag(t *testing.T) {
	tmpl := tsgraph.SmallWorld(tsgraph.SmallWorldConfig{N: 500, M: 2, Seed: 6})
	sir, err := tsgraph.SIRTweets(tmpl, tsgraph.SIRConfig{
		Timesteps: 10, Delta: 60, Memes: []string{"#go"},
		SeedsPerMeme: 2, HitProb: 0.3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	assign, err := tsgraph.PartitionMultilevel(tmpl, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := tsgraph.BuildSubgraphs(tmpl, assign)
	if err != nil {
		t.Fatal(err)
	}
	coloredAt, _, err := tsgraph.TrackMeme(tmpl, parts, "#go", tsgraph.AttrTweets,
		tsgraph.MemorySource{C: sir.Collection}, tsgraph.EngineConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	colored := 0
	for _, at := range coloredAt {
		if at >= 0 {
			colored++
		}
	}
	if colored == 0 {
		t.Error("meme tracking colored nothing")
	}
	stats, _, err := tsgraph.AggregateHashtag(tmpl, parts, "#go", tsgraph.AttrTweets,
		tsgraph.MemorySource{C: sir.Collection}, tsgraph.EngineConfig{}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Total == 0 || len(stats.Counts) != 10 {
		t.Errorf("hashtag stats: %+v", stats)
	}
}

// degreeProgram is a custom user program written against the public API: it
// sums vertex degrees per subgraph and reports one output per timestep.
type degreeProgram struct {
	mu     sync.Mutex
	totals map[int]int
}

func (p *degreeProgram) Compute(ctx *tsgraph.Context, sg *tsgraph.Subgraph, timestep, superstep int, msgs []tsgraph.Message) {
	sum := 0
	for _, lv := range sg.Verts {
		lo, hi := sg.Part.OutEdges(int(lv))
		sum += hi - lo
	}
	p.mu.Lock()
	p.totals[timestep] += sum
	p.mu.Unlock()
	ctx.Output(sum)
	ctx.VoteToHalt()
}

func TestPublicCustomProgram(t *testing.T) {
	tmpl, coll, parts := buildTrafficFixture(t)
	prog := &degreeProgram{totals: map[int]int{}}
	res, err := tsgraph.Run(&tsgraph.Job{
		Template: tmpl,
		Parts:    parts,
		Source:   tsgraph.MemorySource{C: coll},
		Program:  prog,
		Pattern:  tsgraph.Independent,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimestepsRun != 15 {
		t.Fatalf("ran %d timesteps", res.TimestepsRun)
	}
	// Degrees summed over all subgraphs equal the template edge count.
	for ts, total := range prog.totals {
		if total != tmpl.NumEdges() {
			t.Errorf("timestep %d degree total %d, want %d", ts, total, tmpl.NumEdges())
		}
	}
	if len(res.Outputs) == 0 {
		t.Error("no outputs recorded")
	}
}

func TestPublicStatsAndSchema(t *testing.T) {
	s, err := tsgraph.NewSchema([]string{"w"}, []tsgraph.AttrType{tsgraph.TFloat})
	if err != nil {
		t.Fatal(err)
	}
	b := tsgraph.NewBuilder("tiny", nil, s)
	b.AddUndirectedEdge(1, 2)
	b.AddUndirectedEdge(2, 3)
	tmpl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	st := tsgraph.ComputeStats(tmpl, 2)
	if st.Vertices != 3 || st.DiameterLB != 2 {
		t.Errorf("stats: %+v", st)
	}
	coll := tsgraph.NewCollection(tmpl, 0, 1)
	ins := tsgraph.NewInstance(tmpl, 0, 0)
	if err := coll.Append(ins); err != nil {
		t.Fatal(err)
	}
}
