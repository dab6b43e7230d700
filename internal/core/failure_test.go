package core

import (
	"errors"
	"testing"

	"tsgraph/internal/bsp"
	"tsgraph/internal/graph"
	"tsgraph/internal/metrics"
	"tsgraph/internal/subgraph"
)

// panickyEnd panics in EndOfTimestep.
type panickyEnd struct{}

func (panickyEnd) Compute(ctx *Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
	ctx.VoteToHalt()
}

func (panickyEnd) EndOfTimestep(ctx *EndContext, sg *subgraph.Subgraph, timestep int) {
	panic("end boom")
}

func TestEndOfTimestepPanicSurfaces(t *testing.T) {
	f := newFixture(t, 2, 2)
	if _, err := Run(f.job(panickyEnd{}, SequentiallyDependent)); err == nil {
		t.Fatal("EndOfTimestep panic not surfaced")
	}
}

// failingSource errors on a specific timestep.
type failingSource struct {
	inner InstanceSource
	bad   int
}

func (f failingSource) Timesteps() int { return f.inner.Timesteps() }
func (f failingSource) Load(ts int) (*graph.Instance, error) {
	if ts == f.bad {
		return nil, errors.New("disk gone")
	}
	return f.inner.Load(ts)
}

func TestLoadFailureMidRunSurfaces(t *testing.T) {
	f := newFixture(t, 5, 2)
	prog := &countingProgram{}
	job := f.job(prog, SequentiallyDependent)
	job.Source = failingSource{inner: MemorySource{C: f.c}, bad: 3}
	_, err := Run(job)
	if err == nil {
		t.Fatal("load failure not surfaced")
	}
}

func TestLoadFailureIndependentSurfaces(t *testing.T) {
	f := newFixture(t, 5, 2)
	prog := programFunc(func(ctx *Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
		ctx.VoteToHalt()
	})
	job := f.job(prog, Independent)
	job.Source = failingSource{inner: MemorySource{C: f.c}, bad: 2}
	job.TemporalParallelism = 3
	if _, err := Run(job); err == nil {
		t.Fatal("load failure not surfaced under temporal parallelism")
	}
}

func TestHaltConditionWithoutRecorder(t *testing.T) {
	f := newFixture(t, 6, 2)
	prog := programFunc(func(ctx *Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
		ctx.AddCounter("work", 1)
		ctx.VoteToHalt()
	})
	job := f.job(prog, SequentiallyDependent)
	// No Recorder configured: the runner must still collect counters
	// privately for the halt condition.
	var seen int64
	job.HaltCondition = func(ts int, rec *metrics.TimestepRecord) bool {
		if rec == nil {
			t.Fatal("halt condition got nil record without a Recorder")
		}
		for p := range rec.Parts {
			seen += rec.Parts[p].Counters["work"]
		}
		return ts >= 2
	}
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HaltedEarly || res.TimestepsRun != 3 {
		t.Errorf("haltedEarly=%v timesteps=%d, want early at 3", res.HaltedEarly, res.TimestepsRun)
	}
	if seen == 0 {
		t.Error("no counters flowed to the halt condition")
	}
}

func TestForceGCEveryRuns(t *testing.T) {
	f := newFixture(t, 6, 2)
	prog := &countingProgram{}
	job := f.job(prog, SequentiallyDependent)
	job.ForceGCEvery = 2
	rec := metrics.NewRecorder(2)
	job.Recorder = rec
	if _, err := Run(job); err != nil {
		t.Fatal(err)
	}
	// GC'd timesteps carry the (synchronized) pause on the cluster clock:
	// they should generally be slower than their neighbors, but at minimum
	// the run completes and records all steps.
	if rec.NumTimesteps() != 6 {
		t.Fatalf("recorded %d timesteps", rec.NumTimesteps())
	}
}

func TestDistributedValidation(t *testing.T) {
	f := newFixture(t, 2, 2)
	job := f.job(&countingProgram{}, Independent)
	job.Mesh = &Mesh{Node: nopNode{}, Engine: bsp.NewEngine(f.parts, bsp.Config{}), Local: f.parts}
	if _, err := Run(job); err == nil {
		t.Error("distributed independent pattern accepted")
	}
}

// nopNode is a mesh node with no peers.
type nopNode struct{}

func (nopNode) ExchangeTemporal(ts int, out []bsp.Message, votes int) ([]bsp.Message, int, int, error) {
	return out, votes, len(out), nil
}

func (nopNode) Send(int, []bsp.Message) error { return nil }
func (nopNode) Barrier(_ int, l bsp.BarrierStats) (bsp.BarrierStats, error) {
	return l, nil
}
