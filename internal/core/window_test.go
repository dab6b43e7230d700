package core

import (
	"sync"
	"testing"

	"tsgraph/internal/bsp"
	"tsgraph/internal/graph"
	"tsgraph/internal/subgraph"
)

// windowProgram records which absolute timesteps were executed.
type windowProgram struct {
	mu   sync.Mutex
	seen map[int]int // timestep -> compute invocations at superstep 0
}

func (p *windowProgram) Compute(ctx *Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
	if superstep == 0 {
		p.mu.Lock()
		if p.seen == nil {
			p.seen = map[int]int{}
		}
		p.seen[timestep]++
		p.mu.Unlock()
		ctx.Output(timestep)
	}
	ctx.VoteToHalt()
}

func TestStartTimestepWindowsSequential(t *testing.T) {
	f := newFixture(t, 6, 2)
	prog := &windowProgram{}
	job := f.job(prog, SequentiallyDependent)
	job.StartTimestep = 2
	job.Timesteps = 3
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimestepsRun != 5 {
		t.Fatalf("TimestepsRun = %d, want 5 (through timestep 4)", res.TimestepsRun)
	}
	nSG := subgraph.TotalSubgraphs(f.parts)
	for ts := 0; ts < 6; ts++ {
		want := 0
		if ts >= 2 && ts < 5 {
			want = nSG
		}
		if prog.seen[ts] != want {
			t.Errorf("timestep %d executed %d times, want %d", ts, prog.seen[ts], want)
		}
	}
	for _, o := range res.Outputs {
		if o.Timestep < 2 || o.Timestep >= 5 {
			t.Errorf("output carries timestep %d outside window [2,5)", o.Timestep)
		}
	}
}

func TestStartTimestepWindowsTemporallyParallel(t *testing.T) {
	f := newFixture(t, 6, 2)
	prog := &windowProgram{}
	job := f.job(prog, Independent)
	job.StartTimestep = 3
	job.TemporalParallelism = 2
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimestepsRun != 6 {
		t.Fatalf("TimestepsRun = %d, want 6", res.TimestepsRun)
	}
	nSG := subgraph.TotalSubgraphs(f.parts)
	for ts := 0; ts < 6; ts++ {
		want := 0
		if ts >= 3 {
			want = nSG
		}
		if prog.seen[ts] != want {
			t.Errorf("timestep %d executed %d times, want %d", ts, prog.seen[ts], want)
		}
	}
}

func TestStartTimestepValidation(t *testing.T) {
	f := newFixture(t, 4, 2)
	job := f.job(&windowProgram{}, SequentiallyDependent)
	job.StartTimestep = -1
	if _, err := Run(job); err == nil {
		t.Error("negative StartTimestep accepted")
	}
	job.StartTimestep = 4 // == Source.Timesteps()
	if _, err := Run(job); err == nil {
		t.Error("StartTimestep past the source accepted")
	}
}

// windowedSource is a DeltaSource that reports which timesteps were asked.
type windowedSource struct {
	MemorySource
	loads, deltas []int
}

func (s *windowedSource) Load(ts int) (*graph.Instance, error) {
	s.loads = append(s.loads, ts)
	return s.MemorySource.Load(ts)
}

func (s *windowedSource) Delta(ts int) *graph.Delta {
	s.deltas = append(s.deltas, ts)
	return nil
}

// TestWindowMapsTimesteps: Window{Lo, Hi} shows source timesteps [Lo, Hi) as
// [0, Hi-Lo) for loads and change summaries alike, and a source without
// change summaries reports none.
func TestWindowMapsTimesteps(t *testing.T) {
	f := newFixture(t, 6, 2)
	src := &windowedSource{MemorySource: MemorySource{C: f.c}}
	w := Window{Src: src, Lo: 2, Hi: 5}
	if w.Timesteps() != 3 {
		t.Fatalf("Timesteps = %d, want 3", w.Timesteps())
	}
	ins, err := w.Load(1)
	if err != nil || ins != f.c.Instance(3) {
		t.Fatalf("Load(1) = %v, %v; want source instance 3", ins, err)
	}
	w.Delta(2)
	if len(src.loads) != 1 || src.loads[0] != 3 || len(src.deltas) != 1 || src.deltas[0] != 4 {
		t.Fatalf("source saw loads %v deltas %v, want [3] [4]", src.loads, src.deltas)
	}
	if d := (Window{Src: MemorySource{C: f.c}, Hi: 4}).Delta(1); d != nil {
		t.Fatalf("Delta over a plain source = %v, want nil", d)
	}
}
