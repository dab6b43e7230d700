package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder(3)
	if r.K() != 3 {
		t.Fatalf("K = %d", r.K())
	}
	rec := r.BeginTimestep(0)
	rec.Supersteps = 4
	rec.Wall = 100 * time.Millisecond
	rec.SimWall = 40 * time.Millisecond
	rec.Load = 10 * time.Millisecond
	rec.Parts[0].Compute = 20 * time.Millisecond
	rec.Parts[0].Flush = 5 * time.Millisecond
	rec.Parts[0].Barrier = 15 * time.Millisecond
	rec.Parts[1].AddCounter("finalized", 7)
	rec.Parts[0].MsgsSent = 12

	rec2 := r.BeginTimestep(1)
	rec2.Supersteps = 2
	rec2.Wall = 50 * time.Millisecond
	rec2.SimWall = 20 * time.Millisecond
	rec2.Parts[1].AddCounter("finalized", 3)
	rec2.Parts[2].AddCounter("colored", 1)

	if r.NumTimesteps() != 2 {
		t.Fatalf("NumTimesteps = %d", r.NumTimesteps())
	}
	if r.TotalWall() != 150*time.Millisecond {
		t.Errorf("TotalWall = %v", r.TotalWall())
	}
	if r.TotalSupersteps() != 6 {
		t.Errorf("TotalSupersteps = %d", r.TotalSupersteps())
	}
	if r.TotalMessages() != 12 {
		t.Errorf("TotalMessages = %d", r.TotalMessages())
	}
	if r.CounterTotal("finalized") != 10 {
		t.Errorf("CounterTotal = %d", r.CounterTotal("finalized"))
	}
	series := r.CounterSeries(1, "finalized")
	if len(series) != 2 || series[0] != 7 || series[1] != 3 {
		t.Errorf("CounterSeries = %v", series)
	}
	names := r.CounterNames()
	if len(names) != 2 || names[0] != "colored" || names[1] != "finalized" {
		t.Errorf("CounterNames = %v", names)
	}
	walls := r.WallSeries()
	if walls[0] != 100*time.Millisecond || walls[1] != 50*time.Millisecond {
		t.Errorf("WallSeries = %v", walls)
	}
	sims := r.SimWallSeries()
	if sims[0] != 40*time.Millisecond {
		t.Errorf("SimWallSeries = %v", sims)
	}
}

func TestStepReturnsCopy(t *testing.T) {
	r := NewRecorder(2)
	rec := r.BeginTimestep(0)
	rec.Parts[0].Compute = time.Second
	cp := r.Step(0)
	cp.Parts[0].Compute = 5 * time.Second
	if r.Step(0).Parts[0].Compute != time.Second {
		t.Error("Step returned shared storage")
	}
}

func TestUtilizationFractions(t *testing.T) {
	u := Utilization{Compute: 60, Flush: 20, Barrier: 20}
	if u.Total() != 100 {
		t.Fatalf("Total = %v", u.Total())
	}
	if u.ComputeFrac() != 0.6 || u.FlushFrac() != 0.2 || u.BarrierFrac() != 0.2 {
		t.Errorf("fractions: %v %v %v", u.ComputeFrac(), u.FlushFrac(), u.BarrierFrac())
	}
	var zero Utilization
	if zero.ComputeFrac() != 0 || zero.FlushFrac() != 0 || zero.BarrierFrac() != 0 {
		t.Error("zero utilization should have zero fractions")
	}
}

func TestUtilizationsAggregate(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 3; i++ {
		rec := r.BeginTimestep(i)
		rec.Parts[0].Compute = 10 * time.Millisecond
		rec.Parts[1].Barrier = 10 * time.Millisecond
	}
	utils := r.Utilizations()
	if utils[0].Compute != 30*time.Millisecond {
		t.Errorf("partition 0 compute = %v", utils[0].Compute)
	}
	if utils[1].Barrier != 30*time.Millisecond {
		t.Errorf("partition 1 barrier = %v", utils[1].Barrier)
	}
	if utils[0].Partition != 0 || utils[1].Partition != 1 {
		t.Error("partition ids wrong")
	}
}

func TestSummary(t *testing.T) {
	r := NewRecorder(1)
	rec := r.BeginTimestep(0)
	rec.Supersteps = 3
	s := r.Summary()
	if !strings.Contains(s, "timesteps=1") || !strings.Contains(s, "supersteps=3") {
		t.Errorf("Summary = %q", s)
	}
}

func TestSparseOutOfOrderTimesteps(t *testing.T) {
	r := NewRecorder(2)
	// Begin out of order with a gap: 5, then 2; 0,1,3,4 never run.
	rec5 := r.BeginTimestep(5)
	rec5.Supersteps = 3
	rec5.Wall = 30 * time.Millisecond
	rec5.SimWall = 10 * time.Millisecond
	rec5.Parts[1].AddCounter("done", 4)
	rec2 := r.BeginTimestep(2)
	rec2.Supersteps = 1
	rec2.Wall = 10 * time.Millisecond
	rec2.Parts[0].MsgsSent = 3

	if got := r.NumTimesteps(); got != 6 {
		t.Fatalf("NumTimesteps = %d, want 6 (highest begun + 1)", got)
	}
	if got := r.RecordedTimesteps(); got != 2 {
		t.Fatalf("RecordedTimesteps = %d, want 2", got)
	}
	// Gaps read as empty records, not panics.
	for _, i := range []int{0, 1, 3, 4, 7, -1} {
		st := r.Step(i)
		if st.Supersteps != 0 || st.Wall != 0 {
			t.Errorf("Step(%d) not empty: %+v", i, st)
		}
		if len(st.Parts) != 2 {
			t.Errorf("Step(%d) has %d parts, want 2", i, len(st.Parts))
		}
	}
	if st := r.Step(5); st.Supersteps != 3 {
		t.Errorf("Step(5).Supersteps = %d", st.Supersteps)
	}
	// Aggregations skip gaps.
	if got := r.TotalSupersteps(); got != 4 {
		t.Errorf("TotalSupersteps = %d", got)
	}
	if got := r.TotalWall(); got != 40*time.Millisecond {
		t.Errorf("TotalWall = %v", got)
	}
	if got := r.TotalMessages(); got != 3 {
		t.Errorf("TotalMessages = %d", got)
	}
	// Series span the full range with zeros at gaps.
	walls := r.WallSeries()
	if len(walls) != 6 || walls[2] != 10*time.Millisecond || walls[5] != 30*time.Millisecond || walls[0] != 0 {
		t.Errorf("WallSeries = %v", walls)
	}
	series := r.CounterSeries(1, "done")
	if len(series) != 6 || series[5] != 4 || series[0] != 0 {
		t.Errorf("CounterSeries = %v", series)
	}
	// Re-beginning returns the same record.
	if again := r.BeginTimestep(5); again != rec5 {
		t.Error("BeginTimestep(5) did not return the existing record")
	}
}

func TestBeginTimestepNegativeDetached(t *testing.T) {
	r := NewRecorder(2)
	rec := r.BeginTimestep(-1)
	rec.Supersteps = 9
	rec.Parts[1].Compute = time.Second
	if r.NumTimesteps() != 0 {
		t.Errorf("negative timestep leaked into the index: %d", r.NumTimesteps())
	}
	if r.TotalSupersteps() != 0 {
		t.Errorf("detached record aggregated: %d", r.TotalSupersteps())
	}
}

func TestZeroTimestepRecorder(t *testing.T) {
	r := NewRecorder(3)
	if r.NumTimesteps() != 0 || r.RecordedTimesteps() != 0 {
		t.Fatal("fresh recorder not empty")
	}
	if r.TotalWall() != 0 || r.TotalSupersteps() != 0 ||
		r.TotalMessages() != 0 || r.TotalMsgsDropped() != 0 || r.TotalLoad() != 0 {
		t.Error("zero-timestep totals not all zero")
	}
	if got := r.ComputeSkew(); got != 0 {
		t.Errorf("ComputeSkew = %v on empty recorder", got)
	}
	utils := r.Utilizations()
	if len(utils) != 3 {
		t.Fatalf("Utilizations len = %d", len(utils))
	}
	for _, u := range utils {
		if u.Total() != 0 {
			t.Errorf("partition %d not empty: %+v", u.Partition, u)
		}
	}
	sent, recv := r.PartMessages()
	if len(sent) != 3 || len(recv) != 3 {
		t.Errorf("PartMessages lengths: %d %d", len(sent), len(recv))
	}
	if len(r.WallSeries()) != 0 || len(r.CounterSeries(0, "x")) != 0 || len(r.CounterNames()) != 0 {
		t.Error("zero-timestep series not empty")
	}
	if s := r.Summary(); !strings.Contains(s, "timesteps=0") {
		t.Errorf("Summary = %q", s)
	}
}

func TestSinglePartitionAggregations(t *testing.T) {
	r := NewRecorder(1)
	rec := r.BeginTimestep(0)
	rec.Parts[0].Compute = 40 * time.Millisecond
	rec.Parts[0].Flush = 10 * time.Millisecond
	rec.Parts[0].Barrier = 50 * time.Millisecond
	rec.Parts[0].MsgsSent = 6
	rec.Parts[0].MsgsRecv = 6
	rec.SimWall = 100 * time.Millisecond
	utils := r.Utilizations()
	if len(utils) != 1 || utils[0].Compute != 40*time.Millisecond {
		t.Fatalf("Utilizations = %+v", utils)
	}
	if utils[0].ComputeFrac() != 0.4 || utils[0].BarrierFrac() != 0.5 {
		t.Errorf("fractions: %v %v", utils[0].ComputeFrac(), utils[0].BarrierFrac())
	}
	sent, recv := r.PartMessages()
	if sent[0] != 6 || recv[0] != 6 {
		t.Errorf("PartMessages = %v %v", sent, recv)
	}
	// Single partition: max == median, perfectly balanced by definition.
	if got := r.ComputeSkew(); got != 1.0 {
		t.Errorf("ComputeSkew = %v, want 1.0", got)
	}
}

func TestCounterSeriesOutOfRangePartition(t *testing.T) {
	r := NewRecorder(2)
	r.BeginTimestep(0).Parts[1].AddCounter("x", 2)
	if s := r.CounterSeries(-1, "x"); len(s) != 1 || s[0] != 0 {
		t.Errorf("CounterSeries(-1) = %v", s)
	}
	if s := r.CounterSeries(9, "x"); len(s) != 1 || s[0] != 0 {
		t.Errorf("CounterSeries(9) = %v", s)
	}
}

func TestLoadTotals(t *testing.T) {
	r := NewRecorder(1)
	r.BeginTimestep(0).Load = 8 * time.Millisecond
	r.BeginTimestep(1).Load = 1 * time.Millisecond
	if got := r.TotalLoad(); got != 9*time.Millisecond {
		t.Errorf("TotalLoad = %v", got)
	}
	loads := r.LoadSeries()
	if len(loads) != 2 || loads[0] != 8*time.Millisecond || loads[1] != 1*time.Millisecond {
		t.Errorf("LoadSeries = %v", loads)
	}
}

func TestComputeSkew(t *testing.T) {
	r := NewRecorder(3)
	rec := r.BeginTimestep(0)
	rec.Parts[0].Compute = 10 * time.Millisecond
	rec.Parts[1].Compute = 20 * time.Millisecond // median
	rec.Parts[2].Compute = 60 * time.Millisecond // straggler
	if got := r.ComputeSkew(); got != 3.0 {
		t.Errorf("ComputeSkew = %v, want 3.0", got)
	}
	if s := r.Summary(); !strings.Contains(s, "skew=3.00") {
		t.Errorf("Summary missing skew: %q", s)
	}

	// Degenerate: median partition idle but one partition computed.
	r2 := NewRecorder(3)
	r2.BeginTimestep(0).Parts[2].Compute = time.Millisecond
	if got := r2.ComputeSkew(); got != 3.0 {
		t.Errorf("degenerate ComputeSkew = %v, want k=3", got)
	}
}

func TestCounterOnNilMap(t *testing.T) {
	var ps PartitionStep
	if ps.counter("x") != 0 {
		t.Error("counter on empty step should be 0")
	}
	ps.AddCounter("x", 5)
	ps.AddCounter("x", 2)
	if ps.counter("x") != 7 {
		t.Errorf("counter = %d", ps.counter("x"))
	}
}
