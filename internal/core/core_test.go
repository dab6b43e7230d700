package core

import (
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

// fixture bundles a small dataset ready for TI-BSP runs.
type fixture struct {
	g     *graph.Template
	c     *graph.Collection
	parts []*subgraph.PartitionData
}

func newFixture(tb testing.TB, steps, k int) *fixture {
	tb.Helper()
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 8, Cols: 8, RemoveFrac: 0.1, Seed: 3})
	c, err := gen.RandomLatencies(g, gen.LatencyConfig{Timesteps: steps, T0: 0, Delta: 60, Min: 1, Max: 50, Seed: 4})
	if err != nil {
		tb.Fatal(err)
	}
	a, err := (partition.Multilevel{Seed: 5}).Partition(g, k)
	if err != nil {
		tb.Fatal(err)
	}
	parts, err := subgraph.Build(g, a)
	if err != nil {
		tb.Fatal(err)
	}
	return &fixture{g: g, c: c, parts: parts}
}

func (f *fixture) job(p Program, pattern Pattern) *Job {
	return &Job{
		Template: f.g,
		Parts:    f.parts,
		Source:   MemorySource{C: f.c},
		Program:  p,
		Pattern:  pattern,
	}
}

// countingProgram records the (timestep, superstep) pairs at which each
// subgraph ran, and forwards a running counter via SendToNextTimestep.
type countingProgram struct {
	mu       sync.Mutex
	invokes  map[subgraph.ID][][2]int
	received map[int][]int // timestep -> payloads received at superstep 0
}

func (p *countingProgram) Compute(ctx *Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
	p.mu.Lock()
	if p.invokes == nil {
		p.invokes = map[subgraph.ID][][2]int{}
		p.received = map[int][]int{}
	}
	p.invokes[sg.SID] = append(p.invokes[sg.SID], [2]int{timestep, superstep})
	if superstep == 0 {
		for _, m := range msgs {
			p.received[timestep] = append(p.received[timestep], m.Payload.(int))
		}
	}
	p.mu.Unlock()
	if superstep == 0 {
		ctx.SendToNextTimestep(timestep * 10)
	}
	ctx.VoteToHalt()
}

func TestSequentialTemporalMessaging(t *testing.T) {
	f := newFixture(t, 4, 2)
	prog := &countingProgram{}
	res, err := Run(f.job(prog, SequentiallyDependent))
	if err != nil {
		t.Fatal(err)
	}
	if res.TimestepsRun != 4 {
		t.Fatalf("ran %d timesteps, want 4", res.TimestepsRun)
	}
	// Each subgraph sends timestep*10 to itself in the next timestep: at
	// timestep ts>0, superstep 0, each subgraph receives (ts-1)*10.
	nSG := subgraph.TotalSubgraphs(f.parts)
	for ts := 1; ts < 4; ts++ {
		got := prog.received[ts]
		if len(got) != nSG {
			t.Fatalf("timestep %d received %d temporal messages, want %d", ts, len(got), nSG)
		}
		for _, v := range got {
			if v != (ts-1)*10 {
				t.Errorf("timestep %d received %d, want %d", ts, v, (ts-1)*10)
			}
		}
	}
	if len(prog.received[0]) != 0 {
		t.Errorf("timestep 0 received %d messages, want 0", len(prog.received[0]))
	}
	// Every subgraph ran exactly once per timestep.
	for sid, inv := range prog.invokes {
		if len(inv) != 4 {
			t.Errorf("subgraph %v ran %d times, want 4", sid, len(inv))
		}
	}
}

func TestInitialMessagesSequential(t *testing.T) {
	f := newFixture(t, 3, 2)
	target := f.parts[0].Subgraphs[0].SID
	var mu sync.Mutex
	byTimestep := map[int]int{}
	prog := programFunc(func(ctx *Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
		if superstep == 0 && sg.SID == target {
			mu.Lock()
			byTimestep[timestep] += len(msgs)
			mu.Unlock()
		}
		ctx.VoteToHalt()
	})
	job := f.job(prog, SequentiallyDependent)
	job.Initial = []bsp.Message{{To: target, Payload: "in"}}
	if _, err := Run(job); err != nil {
		t.Fatal(err)
	}
	if byTimestep[0] != 1 {
		t.Errorf("timestep 0 got %d initial messages, want 1", byTimestep[0])
	}
	if byTimestep[1] != 0 || byTimestep[2] != 0 {
		t.Errorf("later timesteps got initial messages: %v", byTimestep)
	}
}

func TestInitialMessagesIndependentDeliveredEachTimestep(t *testing.T) {
	f := newFixture(t, 3, 2)
	target := f.parts[0].Subgraphs[0].SID
	var mu sync.Mutex
	byTimestep := map[int]int{}
	prog := programFunc(func(ctx *Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
		if superstep == 0 && sg.SID == target {
			mu.Lock()
			byTimestep[timestep] += len(msgs)
			mu.Unlock()
		}
		ctx.VoteToHalt()
	})
	job := f.job(prog, Independent)
	job.Initial = []bsp.Message{{To: target, Payload: "in"}}
	if _, err := Run(job); err != nil {
		t.Fatal(err)
	}
	for ts := 0; ts < 3; ts++ {
		if byTimestep[ts] != 1 {
			t.Errorf("timestep %d got %d app inputs, want 1", ts, byTimestep[ts])
		}
	}
}

// programFunc adapts a function to Program.
type programFunc func(ctx *Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message)

func (f programFunc) Compute(ctx *Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
	f(ctx, sg, timestep, superstep, msgs)
}

func TestOutputsCollectedInOrder(t *testing.T) {
	f := newFixture(t, 3, 2)
	prog := programFunc(func(ctx *Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
		ctx.Output(timestep)
		ctx.VoteToHalt()
	})
	res, err := Run(f.job(prog, SequentiallyDependent))
	if err != nil {
		t.Fatal(err)
	}
	nSG := subgraph.TotalSubgraphs(f.parts)
	if len(res.Outputs) != 3*nSG {
		t.Fatalf("%d outputs, want %d", len(res.Outputs), 3*nSG)
	}
	for i, o := range res.Outputs {
		if o.Timestep != i/nSG {
			t.Fatalf("output %d has timestep %d, want %d (timestep-major order)", i, o.Timestep, i/nSG)
		}
		if o.Data.(int) != o.Timestep {
			t.Fatalf("output data %v at timestep %d", o.Data, o.Timestep)
		}
	}
}

func TestWhileModeStopsEarly(t *testing.T) {
	f := newFixture(t, 10, 2)
	prog := programFunc(func(ctx *Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
		if timestep < 3 {
			ctx.SendToNextTimestep("keep going")
		} else {
			ctx.VoteToHaltTimestep()
		}
		ctx.VoteToHalt()
	})
	job := f.job(prog, SequentiallyDependent)
	job.WhileMode = true
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HaltedEarly {
		t.Error("expected early halt")
	}
	if res.TimestepsRun != 4 {
		t.Errorf("ran %d timesteps, want 4 (0..3)", res.TimestepsRun)
	}
}

func TestWhileModeRequiresAllVotes(t *testing.T) {
	f := newFixture(t, 5, 2)
	// Only one subgraph votes to halt: the loop must run all timesteps.
	voter := f.parts[0].Subgraphs[0].SID
	prog := programFunc(func(ctx *Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
		if sg.SID == voter {
			ctx.VoteToHaltTimestep()
		}
		ctx.VoteToHalt()
	})
	job := f.job(prog, SequentiallyDependent)
	job.WhileMode = true
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.HaltedEarly || res.TimestepsRun != 5 {
		t.Errorf("haltedEarly=%v timesteps=%d, want full 5", res.HaltedEarly, res.TimestepsRun)
	}
}

// endProgram exercises the EndOfTimestep hook.
type endProgram struct {
	mu    sync.Mutex
	ends  map[subgraph.ID][]int
	state map[int][]string // timestep -> temporal payloads seen at ss 0
}

func (p *endProgram) Compute(ctx *Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
	if superstep == 0 && timestep > 0 {
		p.mu.Lock()
		for _, m := range msgs {
			p.state[timestep] = append(p.state[timestep], m.Payload.(string))
		}
		p.mu.Unlock()
	}
	ctx.VoteToHalt()
}

func (p *endProgram) EndOfTimestep(ctx *EndContext, sg *subgraph.Subgraph, timestep int) {
	p.mu.Lock()
	p.ends[sg.SID] = append(p.ends[sg.SID], timestep)
	p.mu.Unlock()
	ctx.SendToNextTimestep("from-end")
	ctx.Output("end-output")
}

func TestEndOfTimestepHook(t *testing.T) {
	f := newFixture(t, 3, 2)
	prog := &endProgram{ends: map[subgraph.ID][]int{}, state: map[int][]string{}}
	res, err := Run(f.job(prog, SequentiallyDependent))
	if err != nil {
		t.Fatal(err)
	}
	nSG := subgraph.TotalSubgraphs(f.parts)
	for sid, ts := range prog.ends {
		if len(ts) != 3 {
			t.Errorf("subgraph %v EndOfTimestep ran %d times, want 3", sid, len(ts))
		}
		for i, v := range ts {
			if v != i {
				t.Errorf("subgraph %v EndOfTimestep order %v", sid, ts)
			}
		}
	}
	// Temporal messages from EndOfTimestep arrive next timestep.
	for ts := 1; ts < 3; ts++ {
		if len(prog.state[ts]) != nSG {
			t.Errorf("timestep %d: %d temporal messages from EndOfTimestep, want %d", ts, len(prog.state[ts]), nSG)
		}
	}
	// Outputs from EndOfTimestep are recorded.
	endOutputs := 0
	for _, o := range res.Outputs {
		if o.Data == "end-output" {
			endOutputs++
		}
	}
	if endOutputs != 3*nSG {
		t.Errorf("%d end outputs, want %d", endOutputs, 3*nSG)
	}
}

// mergeProgram exercises the eventually dependent pattern: each subgraph
// sends its per-timestep vertex count to merge; Merge sums everything at a
// designated subgraph.
type mergeProgram struct{}

func (mergeProgram) Compute(ctx *Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
	ctx.SendMessageToMerge(sg.NumVertices())
	ctx.VoteToHalt()
}

func (mergeProgram) Merge(ctx *MergeContext, sg *subgraph.Subgraph, superstep int, msgs []bsp.Message) {
	// Superstep 0: each subgraph receives its own per-timestep messages and
	// forwards their sum to the designated root subgraph 0/0.
	root := subgraph.MakeID(0, 0)
	if superstep == 0 {
		sum := 0
		for _, m := range msgs {
			sum += m.Payload.(int)
		}
		ctx.SendTo(root, sum)
		ctx.VoteToHalt()
		return
	}
	if sg.SID == root {
		total := 0
		for _, m := range msgs {
			total += m.Payload.(int)
		}
		ctx.Output(total)
	}
	ctx.VoteToHalt()
}

func TestEventuallyDependentMerge(t *testing.T) {
	f := newFixture(t, 4, 2)
	p := mergeProgram{}
	job := f.job(p, EventuallyDependent)
	job.Merger = p
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	var mergeOutputs []Output
	for _, o := range res.Outputs {
		if o.Timestep == -1 {
			mergeOutputs = append(mergeOutputs, o)
		}
	}
	if len(mergeOutputs) != 1 {
		t.Fatalf("%d merge outputs, want 1", len(mergeOutputs))
	}
	// Each subgraph sent its vertex count once per timestep.
	want := 4 * f.g.NumVertices()
	if got := mergeOutputs[0].Data.(int); got != want {
		t.Errorf("merged total = %d, want %d", got, want)
	}
}

func TestEventuallyDependentNeedsMerger(t *testing.T) {
	f := newFixture(t, 2, 2)
	job := f.job(mergeProgram{}, EventuallyDependent)
	job.Merger = nil
	if _, err := Run(job); err == nil {
		t.Fatal("missing Merger should error")
	}
}

// latencySums outputs each subgraph's summed edge latency, so the outputs
// prove which instance was bound to each timestep.
var latencySums = programFunc(func(ctx *Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
	lat := ctx.Instance().EdgeFloats(ctx.Template(), gen.AttrLatency)
	sum := 0
	for _, lv := range sg.Verts {
		lo, hi := sg.Part.OutEdges(int(lv))
		for e := lo; e < hi; e++ {
			sum += int(lat[sg.Part.EdgeGlobal[e]])
		}
	}
	ctx.Output(sum)
	ctx.VoteToHalt()
})

// requireParallelMatchesSequential runs latencySums over f's timesteps
// with TemporalParallelism 1 and 4, each over a fresh source, and requires
// the same per-timestep sums.
func requireParallelMatchesSequential(t *testing.T, f *fixture, source func() InstanceSource) {
	t.Helper()
	sums := func(par int) map[int]int {
		job := f.job(latencySums, Independent)
		job.Source = source()
		job.TemporalParallelism = par
		res, err := Run(job)
		if err != nil {
			t.Fatal(err)
		}
		out := map[int]int{}
		for _, o := range res.Outputs {
			out[o.Timestep] += o.Data.(int)
		}
		return out
	}
	seq, par := sums(1), sums(4)
	if steps := f.c.NumInstances(); len(seq) != steps || len(par) != steps {
		t.Fatalf("timestep coverage: %d vs %d, want %d", len(seq), len(par), steps)
	}
	for ts := range seq {
		if seq[ts] != par[ts] {
			t.Errorf("timestep %d: sequential %d != parallel %d", ts, seq[ts], par[ts])
		}
	}
}

func TestTemporalParallelismMatchesSequentialOutputs(t *testing.T) {
	f := newFixture(t, 6, 2)
	requireParallelMatchesSequential(t, f, func() InstanceSource { return MemorySource{C: f.c} })
}

func TestTimestepsBound(t *testing.T) {
	f := newFixture(t, 8, 2)
	prog := &countingProgram{}
	job := f.job(prog, SequentiallyDependent)
	job.Timesteps = 3
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimestepsRun != 3 {
		t.Errorf("ran %d, want 3", res.TimestepsRun)
	}
}

func TestRunValidation(t *testing.T) {
	f := newFixture(t, 2, 2)
	if _, err := Run(&Job{}); err == nil {
		t.Error("empty job should error")
	}
	job := f.job(nil, SequentiallyDependent)
	if _, err := Run(job); err == nil {
		t.Error("nil program should error")
	}
	job = f.job(&countingProgram{}, SequentiallyDependent)
	job.Source = nil
	if _, err := Run(job); err == nil {
		t.Error("nil source should error")
	}
	empty := graph.NewCollection(f.g, 0, 1)
	job = f.job(&countingProgram{}, SequentiallyDependent)
	job.Source = MemorySource{C: empty}
	if _, err := Run(job); err == nil {
		t.Error("empty source should error")
	}
}

func TestMetricsPerTimestep(t *testing.T) {
	f := newFixture(t, 5, 3)
	rec := metrics.NewRecorder(3)
	prog := programFunc(func(ctx *Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
		ctx.AddCounter("visited", int64(sg.NumVertices()))
		ctx.VoteToHalt()
	})
	job := f.job(prog, SequentiallyDependent)
	job.Recorder = rec
	if _, err := Run(job); err != nil {
		t.Fatal(err)
	}
	if rec.NumTimesteps() != 5 {
		t.Fatalf("recorded %d timesteps", rec.NumTimesteps())
	}
	if rec.CounterTotal("visited") != int64(5*f.g.NumVertices()) {
		t.Errorf("visited total = %d, want %d", rec.CounterTotal("visited"), 5*f.g.NumVertices())
	}
	for i := 0; i < 5; i++ {
		if rec.Step(i).Wall <= 0 {
			t.Errorf("timestep %d wall = %v", i, rec.Step(i).Wall)
		}
	}
	if len(rec.CounterNames()) != 1 || rec.CounterNames()[0] != "visited" {
		t.Errorf("counter names = %v", rec.CounterNames())
	}
}

// writeStore writes the fixture's collection as a GoFS dataset (packs of
// 5, 3 bins) and opens it.
func (f *fixture) writeStore(t *testing.T) *gofs.Store {
	t.Helper()
	dir := t.TempDir()
	a, err := (partition.Multilevel{Seed: 5}).Partition(f.g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := gofs.WriteDataset(dir, f.c, a, 5, 3); err != nil {
		t.Fatal(err)
	}
	store, err := gofs.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func TestGoFSBackedRun(t *testing.T) {
	f := newFixture(t, 12, 2)
	loader := gofs.NewLoader(f.writeStore(t))
	prog := &countingProgram{}
	job := f.job(prog, SequentiallyDependent)
	job.Source = loader
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimestepsRun != 12 {
		t.Errorf("ran %d timesteps, want 12", res.TimestepsRun)
	}
	// 12 steps / pack 5 = 3 packs, each decoded once.
	if n := loader.Stats().PackLoads; n != 3 {
		t.Errorf("GoFS loader decoded %d packs, want 3", n)
	}
}

// TestGoFSCacheUnderTemporalParallelism shares one one-pack
// gofs.InstanceCache (gofs.NewLoader) between concurrent timesteps: loads
// that cross pack boundaries at once must neither race nor bind a timestep
// to another timestep's instance.
func TestGoFSCacheUnderTemporalParallelism(t *testing.T) {
	f := newFixture(t, 12, 2)
	store := f.writeStore(t)
	requireParallelMatchesSequential(t, f, func() InstanceSource { return gofs.NewLoader(store) })
}
