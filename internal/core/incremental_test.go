package core

import (
	"fmt"
	"sync"
	"testing"

	"tsgraph/internal/bsp"
	"tsgraph/internal/gen"
	"tsgraph/internal/gofs"
	"tsgraph/internal/graph"
	"tsgraph/internal/metrics"
	"tsgraph/internal/partition"
	"tsgraph/internal/subgraph"
)

// maxTagsProgram is a minimal incremental-safe program: each subgraph
// retains the maximum (over timesteps) of its total tweet-tag count. A
// timestep whose instance data is unchanged recomputes the same count and
// the max is a no-op — exactly the idempotence core.IncrementalProgram
// demands. EndOfTimestep (which runs for every subgraph every timestep,
// skipped or not) outputs the retained state, so outputs must be identical
// between full and incremental runs.
type maxTagsProgram struct {
	attr string

	mu   sync.Mutex
	best map[subgraph.ID]int
	ran  map[int][]subgraph.ID // timestep -> subgraphs that computed
}

func newMaxTags(attr string) *maxTagsProgram {
	return &maxTagsProgram{attr: attr, best: map[subgraph.ID]int{}, ran: map[int][]subgraph.ID{}}
}

func (p *maxTagsProgram) IncrementalSafe() {}

func (p *maxTagsProgram) Compute(ctx *Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
	tweets := ctx.Instance().VertexStringLists(ctx.Template(), p.attr)
	count := 0
	for _, lv := range sg.Verts {
		count += len(tweets[sg.Part.GlobalIdx[lv]])
	}
	p.mu.Lock()
	p.ran[timestep] = append(p.ran[timestep], sg.SID)
	if count > p.best[sg.SID] {
		p.best[sg.SID] = count
	}
	p.mu.Unlock()
	ctx.VoteToHalt()
}

func (p *maxTagsProgram) EndOfTimestep(ctx *EndContext, sg *subgraph.Subgraph, timestep int) {
	p.mu.Lock()
	best := p.best[sg.SID]
	p.mu.Unlock()
	ctx.Output(best)
}

// sirDataset writes a GoFS dataset whose tweet changes are localized (an
// SIR meme spreading with no background noise), so most subgraphs are
// delta-clean at most timesteps.
func sirDataset(tb testing.TB, dir string, steps, k, snapEvery int) (*graph.Template, []*subgraph.PartitionData) {
	tb.Helper()
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 12, Cols: 12, RemoveFrac: 0.1, Seed: 3})
	sir, err := gen.SIRTweets(g, gen.SIRConfig{
		Timesteps: steps, T0: 0, Delta: 60,
		Memes: []string{"#m"}, SeedsPerMeme: 1, HitProb: 0.3, Seed: 9,
	})
	if err != nil {
		tb.Fatal(err)
	}
	a, err := (partition.Multilevel{Seed: 5}).Partition(g, k)
	if err != nil {
		tb.Fatal(err)
	}
	if err := gofs.WriteDatasetOptions(dir, sir.Collection, a, gofs.Options{
		Pack: 4, Bin: 2, SnapshotEvery: snapEvery,
	}); err != nil {
		tb.Fatal(err)
	}
	parts, err := subgraph.Build(g, a)
	if err != nil {
		tb.Fatal(err)
	}
	return g, parts
}

func runMaxTags(tb testing.TB, g *graph.Template, parts []*subgraph.PartitionData, dir string, incremental bool) (*maxTagsProgram, *Result, *metrics.Recorder) {
	tb.Helper()
	store, err := gofs.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	prog := newMaxTags(gen.AttrTweets)
	rec := metrics.NewRecorder(len(parts))
	res, err := Run(&Job{
		Template:    g,
		Parts:       parts,
		Source:      gofs.NewLoader(store),
		Program:     prog,
		Pattern:     SequentiallyDependent,
		Incremental: incremental,
		Recorder:    rec,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return prog, res, rec
}

func outputKey(o Output) string { return fmt.Sprintf("%d/%v", o.Timestep, o.From) }

func TestIncrementalMatchesFullRecompute(t *testing.T) {
	const steps = 12
	dir := t.TempDir()
	g, parts := sirDataset(t, dir, steps, 3, 4)

	fullProg, fullRes, _ := runMaxTags(t, g, parts, dir, false)
	incProg, incRes, incRec := runMaxTags(t, g, parts, dir, true)

	if fullRes.SubgraphsSkipped != 0 {
		t.Errorf("full run skipped %d subgraphs", fullRes.SubgraphsSkipped)
	}
	if incRes.SubgraphsSkipped == 0 {
		t.Fatal("incremental run skipped nothing on a localized-churn dataset")
	}
	if got := incRec.TotalSubgraphsSkipped(); got != incRes.SubgraphsSkipped {
		t.Errorf("recorder skip total %d != result %d", got, incRes.SubgraphsSkipped)
	}
	if incRec.Step(0).SubgraphsSkipped != 0 {
		t.Error("first executed timestep must run in full")
	}

	// Skipped subgraphs really did not compute.
	total := 0
	for _, pd := range parts {
		total += len(pd.Subgraphs)
	}
	ranLess := 0
	for ts := 0; ts < steps; ts++ {
		if len(fullProg.ran[ts]) != total {
			t.Fatalf("full run computed %d subgraphs at ts %d, want %d", len(fullProg.ran[ts]), ts, total)
		}
		if want := total - incRec.Step(ts).SubgraphsSkipped; len(incProg.ran[ts]) != want {
			t.Errorf("incremental computed %d subgraphs at ts %d, want %d", len(incProg.ran[ts]), ts, want)
		}
		if len(incProg.ran[ts]) < total {
			ranLess++
		}
	}
	if ranLess == 0 {
		t.Error("no timestep ran a reduced frontier")
	}

	// Deliverable state is identical: same outputs at every (timestep,
	// subgraph) and same final per-subgraph maxima.
	if len(fullRes.Outputs) != len(incRes.Outputs) {
		t.Fatalf("output counts differ: full %d, incremental %d", len(fullRes.Outputs), len(incRes.Outputs))
	}
	fullOut := map[string]any{}
	for _, o := range fullRes.Outputs {
		fullOut[outputKey(o)] = o.Data
	}
	for _, o := range incRes.Outputs {
		if want, ok := fullOut[outputKey(o)]; !ok || want != o.Data {
			t.Fatalf("output %s = %v, full run has %v", outputKey(o), o.Data, want)
		}
	}
	for sid, want := range fullProg.best {
		if incProg.best[sid] != want {
			t.Errorf("subgraph %v best = %d, want %d", sid, incProg.best[sid], want)
		}
	}
}

func TestIncrementalFullFormatRunsEverything(t *testing.T) {
	// A v1 (full-format) dataset yields nil deltas: incremental mode is
	// legal but must degrade to running every subgraph every timestep.
	dir := t.TempDir()
	g, parts := sirDataset(t, dir, 8, 2, 0)
	prog, res, _ := runMaxTags(t, g, parts, dir, true)
	if res.SubgraphsSkipped != 0 {
		t.Errorf("full-format dataset skipped %d subgraphs", res.SubgraphsSkipped)
	}
	total := 0
	for _, pd := range parts {
		total += len(pd.Subgraphs)
	}
	for ts := 0; ts < 8; ts++ {
		if len(prog.ran[ts]) != total {
			t.Errorf("ts %d computed %d subgraphs, want %d", ts, len(prog.ran[ts]), total)
		}
	}
}

func TestIncrementalValidation(t *testing.T) {
	f := newFixture(t, 4, 2)
	base := func() *Job {
		j := f.job(newMaxTags(gen.AttrTweets), SequentiallyDependent)
		j.Incremental = true
		return j
	}

	// MemorySource is not a DeltaSource.
	if _, err := Run(base()); err == nil {
		t.Error("Incremental with a non-DeltaSource should error")
	}

	dir := t.TempDir()
	a, err := (partition.Multilevel{Seed: 5}).Partition(f.g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := gofs.WriteDatasetOptions(dir, f.c, a, gofs.Options{Pack: 2, Bin: 2, SnapshotEvery: 2}); err != nil {
		t.Fatal(err)
	}
	store, err := gofs.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	job := base()
	job.Source = gofs.NewLoader(store)
	job.Program = &countingProgram{} // no IncrementalSafe marker
	if _, err := Run(job); err == nil {
		t.Error("Incremental with an unmarked Program should error")
	}

	job = base()
	job.Source = gofs.NewLoader(store)
	job.WhileMode = true
	if _, err := Run(job); err == nil {
		t.Error("Incremental with WhileMode should error")
	}

	job = base()
	job.Source = gofs.NewLoader(store)
	job.Pattern = Independent
	if _, err := Run(job); err == nil {
		t.Error("Incremental with the Independent pattern should error")
	}
}
