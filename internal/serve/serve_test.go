package serve

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"tsgraph/internal/algorithms"
	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/gen"
	"tsgraph/internal/graph"
	"tsgraph/internal/partition"
	"tsgraph/internal/subgraph"
)

const (
	fixSteps = 8
	fixDelta = 60
	fixMeme  = "#storm"
)

// fixture builds a small road network whose collection carries latencies,
// loads, and SIR tweets — every query class has data (mirrors tsgen -data
// both).
func fixture(tb testing.TB) (*graph.Template, []*subgraph.PartitionData, core.MemorySource) {
	tb.Helper()
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 8, Cols: 8, RemoveFrac: 0.1, Seed: 7})
	sir, err := gen.SIRTweets(g, gen.SIRConfig{
		Timesteps: fixSteps, T0: 0, Delta: fixDelta,
		Memes: []string{fixMeme}, SeedsPerMeme: 2, HitProb: 0.35, Seed: 9,
	})
	if err != nil {
		tb.Fatal(err)
	}
	c := sir.Collection
	lat, err := gen.RandomLatencies(g, gen.LatencyConfig{
		Timesteps: fixSteps, T0: 0, Delta: fixDelta, Min: 1, Max: 50, Seed: 10,
	})
	if err != nil {
		tb.Fatal(err)
	}
	li := g.EdgeSchema().Index(gen.AttrLatency)
	for s := 0; s < fixSteps; s++ {
		c.Instance(s).EdgeCols[li] = lat.Instance(s).EdgeCols[li]
	}
	if err := gen.RandomLoads(c, 11, 0, 100); err != nil {
		tb.Fatal(err)
	}
	a, err := (partition.Multilevel{Seed: 11}).Partition(g, 3)
	if err != nil {
		tb.Fatal(err)
	}
	parts, err := subgraph.Build(g, a)
	if err != nil {
		tb.Fatal(err)
	}
	return g, parts, core.MemorySource{C: c}
}

func baseOptions(g *graph.Template, parts []*subgraph.PartitionData, src core.InstanceSource) Options {
	return Options{
		Template: g, Parts: parts, Source: src,
		Delta: fixDelta, WeightAttr: gen.AttrLatency, TweetsAttr: gen.AttrTweets,
	}
}

func newServer(tb testing.TB, opt Options) *Server {
	tb.Helper()
	s, err := New(opt)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = s.Close() })
	return s
}

// offlineAnswer computes the expected answer of one query by calling the
// algorithm entry points directly, the way the offline tools do.
func offlineAnswer(tb testing.TB, g *graph.Template, parts []*subgraph.PartitionData, src core.InstanceSource, q Query) *Answer {
	tb.Helper()
	ans := offlineAnswerPayload(tb, g, parts, src, q)
	// The server stamps every answer with the dataset version it read: the
	// pinned watermark, or the full source for an unpinned query.
	ans.Watermark = src.Timesteps()
	if q.Watermark > 0 {
		ans.Watermark = q.Watermark
	}
	return ans
}

func offlineAnswerPayload(tb testing.TB, g *graph.Template, parts []*subgraph.PartitionData, src core.InstanceSource, q Query) *Answer {
	tb.Helper()
	switch q.Kind {
	case "tdsp":
		si := g.VertexIndex(graph.VertexID(q.Source))
		ti := g.VertexIndex(graph.VertexID(q.Target))
		prog, _, err := algorithms.RunBatchTDSP(g, parts,
			[]algorithms.BatchQuery{{Source: si, Targets: []int{ti}}},
			q.Depart, src, fixDelta, gen.AttrLatency, bsp.Config{}, nil, nil)
		if err != nil {
			tb.Fatal(err)
		}
		a := &TDSPAnswer{Source: q.Source, Target: q.Target, Depart: q.Depart, Timestep: -1}
		if arr, at, ok := prog.Arrival(0, ti); ok {
			a.Reached, a.Arrival, a.Timestep = true, arr, at
		}
		return &Answer{Kind: "tdsp", TDSP: a}
	case "topn":
		steps, _, err := algorithms.RunTopNRange(g, parts, q.Attr, q.N, src,
			q.From, q.Count, bsp.Config{}, nil, 1)
		if err != nil {
			tb.Fatal(err)
		}
		out := make([][]RankEntry, len(steps))
		for i, vv := range steps {
			out[i] = make([]RankEntry, len(vv))
			for j, e := range vv {
				out[i][j] = RankEntry{Vertex: int64(e.Vertex), Value: e.Value}
			}
		}
		return &Answer{Kind: "topn", TopN: &TopNAnswer{
			Attr: q.Attr, N: q.N, From: q.From, Count: len(steps), Steps: out,
		}}
	case "meme":
		coloredAt, _, err := algorithms.RunMeme(g, parts, q.Tag, gen.AttrTweets, src, bsp.Config{}, nil)
		if err != nil {
			tb.Fatal(err)
		}
		colored := 0
		for _, at := range coloredAt {
			if at >= 0 {
				colored++
			}
		}
		a := &MemeAnswer{Tag: q.Tag, Colored: colored}
		if q.Vertex != nil {
			at := int(coloredAt[g.VertexIndex(graph.VertexID(*q.Vertex))])
			v := *q.Vertex
			a.Vertex, a.ColoredAt = &v, &at
		}
		return &Answer{Kind: "meme", Meme: a}
	}
	tb.Fatalf("unknown kind %q", q.Kind)
	return nil
}

func vptr(v int64) *int64 { return &v }

// mixedQueries is the replay workload: every class, several departure
// timesteps, duplicates included.
func mixedQueries() []Query {
	return []Query{
		{Kind: "tdsp", Source: 0, Target: 63},
		{Kind: "tdsp", Source: 0, Target: 12},
		{Kind: "tdsp", Source: 17, Target: 40},
		{Kind: "tdsp", Source: 40, Target: 5, Depart: 2},
		{Kind: "tdsp", Source: 9, Target: 54, Depart: 2},
		{Kind: "tdsp", Source: 0, Target: 63}, // duplicate
		{Kind: "topn", Attr: gen.AttrLoad, N: 5, From: 1, Count: 3},
		{Kind: "topn", Attr: gen.AttrLoad, N: 3},
		{Kind: "meme", Tag: fixMeme},
		{Kind: "meme", Tag: fixMeme, Vertex: vptr(33)},
	}
}

// TestServedAnswersMatchOffline replays a mixed workload concurrently
// against a batching, caching server and requires every response to be
// byte-identical to the offline computation.
func TestServedAnswersMatchOffline(t *testing.T) {
	g, parts, src := fixture(t)
	queries := mixedQueries()
	want := make([][]byte, len(queries))
	for i, q := range queries {
		b, err := json.Marshal(offlineAnswer(t, g, parts, src, q))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = b
	}

	opt := baseOptions(g, parts, src)
	opt.MaxBatch = 8
	opt.Workers = 2
	opt.ResultCacheSize = 64
	s := newServer(t, opt)

	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(queries))
	for r := 0; r < rounds; r++ {
		for i, q := range queries {
			wg.Add(1)
			go func(i int, q Query) {
				defer wg.Done()
				ans, err := s.Submit(context.Background(), q)
				if err != nil {
					errs <- err
					return
				}
				got, err := json.Marshal(ans)
				if err != nil {
					errs <- err
					return
				}
				if string(got) != string(want[i]) {
					errs <- errors.New("query " + queries[i].Kind + " diverged:\n got " + string(got) + "\nwant " + string(want[i]))
				}
			}(i, q)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The oracle above is the same Algorithm 2 program the server sweeps, so
	// it pins the serving machinery, not the algorithm: the batch program is
	// anchored to an independent reference on this fixture's graph (seed 7)
	// by algorithms.TestBatchTDSPMatchesReference.
}

// gatedSource blocks instance loads until released, making scheduler states
// (busy worker, queued backlog) deterministic in tests.
type gatedSource struct {
	src     core.MemorySource
	entered chan struct{} // closed when the first Load begins
	release chan struct{} // loads proceed once closed
	once    sync.Once
}

func newGatedSource(src core.MemorySource) *gatedSource {
	return &gatedSource{src: src, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedSource) Timesteps() int { return g.src.Timesteps() }

func (g *gatedSource) Load(ts int) (*graph.Instance, error) {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return g.src.Load(ts)
}

func waitFor(tb testing.TB, cond func() bool, msg string) {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			tb.Fatal(msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestBatchingCoalescesCompatibleQueries pins the tentpole behavior: while
// the single worker is busy, 16 same-departure TDSP queries pile up and
// are answered by ONE additional multi-source sweep (2 sweeps for 17
// queries), with answers matching the offline runs.
func TestBatchingCoalescesCompatibleQueries(t *testing.T) {
	g, parts, src := fixture(t)
	gate := newGatedSource(src)
	opt := baseOptions(g, parts, gate)
	opt.Workers = 1
	opt.MaxBatch = 32
	s := newServer(t, opt)

	targets := []int64{63, 12, 40, 5, 54, 33, 20, 61, 7, 28, 35, 46, 51, 10, 18, 26}
	type result struct {
		ans *Answer
		err error
	}
	results := make([]result, len(targets)+1)
	var wg sync.WaitGroup
	submit := func(slot int, q Query) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ans, err := s.Submit(context.Background(), q)
			results[slot] = result{ans, err}
		}()
	}

	// Occupy the only worker; it blocks inside the gated instance load.
	submit(0, Query{Kind: "tdsp", Source: 0, Target: 63})
	<-gate.entered
	// Pile compatible queries (same departure timestep) into the queue.
	for i, tgt := range targets {
		submit(i+1, Query{Kind: "tdsp", Source: int64((i % 3) * 17), Target: tgt})
	}
	waitFor(t, func() bool { return s.queues[ClassTDSP].depth() == len(targets) },
		"backlog never reached the queue")
	close(gate.release)
	wg.Wait()

	for i, r := range results {
		if r.err != nil {
			t.Fatalf("query %d: %v", i, r.err)
		}
	}
	if got := s.Metrics().Sweeps(ClassTDSP); got != 2 {
		t.Fatalf("17 queries ran %d sweeps, want 2 (1 head-of-line + 1 coalesced)", got)
	}
	if got := s.Metrics().BatchedQueries(); got != int64(len(targets))+1 {
		t.Fatalf("batched queries = %d, want %d", got, len(targets)+1)
	}

	// Coalesced answers are still the offline answers.
	for _, slot := range []int{1, 8, 16} {
		q := Query{Kind: "tdsp", Source: int64(((slot - 1) % 3) * 17), Target: targets[slot-1]}
		wantB, _ := json.Marshal(offlineAnswer(t, g, parts, src, q))
		gotB, _ := json.Marshal(results[slot].ans)
		if string(gotB) != string(wantB) {
			t.Fatalf("coalesced answer diverged:\n got %s\nwant %s", gotB, wantB)
		}
	}
}

// TestResultCacheAndSingleFlight asserts the two cache tiers: a warm hit
// answers without any sweep, and identical concurrent queries share one
// execution.
func TestResultCacheAndSingleFlight(t *testing.T) {
	g, parts, src := fixture(t)
	gate := newGatedSource(src)
	opt := baseOptions(g, parts, gate)
	opt.Workers = 1
	opt.MaxBatch = 1
	opt.ResultCacheSize = 16
	s := newServer(t, opt)

	q := Query{Kind: "tdsp", Source: 0, Target: 63}
	var wg sync.WaitGroup
	answers := make([]*Answer, 3)
	errs := make([]error, 3)
	wg.Add(1)
	go func() { defer wg.Done(); answers[0], errs[0] = s.Submit(context.Background(), q) }()
	<-gate.entered
	wg.Add(1)
	go func() { defer wg.Done(); answers[1], errs[1] = s.Submit(context.Background(), q) }()
	waitFor(t, func() bool { return s.Metrics().FlightJoins(ClassTDSP) == 1 },
		"duplicate query never joined the in-flight leader")
	close(gate.release)
	wg.Wait()

	m := s.Metrics()
	if m.Sweeps(ClassTDSP) != 1 {
		t.Fatalf("identical concurrent queries ran %d sweeps, want 1", m.Sweeps(ClassTDSP))
	}
	if m.ResultHits(ClassTDSP) != 0 || m.ResultMisses(ClassTDSP) != 2 {
		t.Fatalf("cold counters off: hits=%d misses=%d", m.ResultHits(ClassTDSP), m.ResultMisses(ClassTDSP))
	}

	// Warm hit: no new sweep, hit counter moves.
	answers[2], errs[2] = s.Submit(context.Background(), q)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if m.Sweeps(ClassTDSP) != 1 {
		t.Fatalf("warm hit ran a sweep: %d total", m.Sweeps(ClassTDSP))
	}
	if m.ResultHits(ClassTDSP) != 1 {
		t.Fatalf("warm hit not counted: hits=%d", m.ResultHits(ClassTDSP))
	}
	a0, _ := json.Marshal(answers[0])
	for i := 1; i < 3; i++ {
		ai, _ := json.Marshal(answers[i])
		if string(ai) != string(a0) {
			t.Fatalf("answer %d diverged from leader: %s vs %s", i, ai, a0)
		}
	}
}

// TestAdmissionControl covers both rejection modes: a full queue and a
// deadline the estimated wait already exceeds.
func TestAdmissionControl(t *testing.T) {
	g, parts, src := fixture(t)
	gate := newGatedSource(src)
	opt := baseOptions(g, parts, gate)
	opt.Workers = 1
	opt.MaxBatch = 1
	opt.QueueCap = 2
	s := newServer(t, opt)

	var wg sync.WaitGroup
	launch := func(q Query) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Submit(context.Background(), q)
			if err != nil {
				t.Errorf("queued query failed: %v", err)
			}
		}()
	}
	launch(Query{Kind: "tdsp", Source: 0, Target: 63})
	<-gate.entered
	launch(Query{Kind: "tdsp", Source: 0, Target: 12})
	launch(Query{Kind: "tdsp", Source: 0, Target: 40})
	waitFor(t, func() bool { return s.queues[ClassTDSP].depth() == 2 }, "backlog never built")

	_, err := s.Submit(context.Background(), Query{Kind: "tdsp", Source: 0, Target: 5})
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("over-capacity submit returned %v, want RejectError", err)
	}
	if rej.RetryAfter <= 0 {
		t.Fatalf("rejection carries no retry hint: %+v", rej)
	}

	// A 1ms deadline can't survive the default 50ms estimate.
	_, err = s.Submit(context.Background(), Query{Kind: "topn", Attr: gen.AttrLoad, N: 3, DeadlineMillis: 1})
	if !errors.As(err, &rej) {
		t.Fatalf("unmeetable deadline returned %v, want RejectError", err)
	}

	close(gate.release)
	wg.Wait()
}

// TestDrain: queued work completes, new work is refused, workers exit.
func TestDrain(t *testing.T) {
	g, parts, src := fixture(t)
	gate := newGatedSource(src)
	opt := baseOptions(g, parts, gate)
	opt.Workers = 1
	opt.MaxBatch = 8
	s := newServer(t, opt)

	var wg sync.WaitGroup
	answers := make([]error, 3)
	submit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, answers[i] = s.Submit(context.Background(), Query{Kind: "tdsp", Source: 0, Target: int64(10 + i)})
		}()
	}
	// The first query alone occupies the worker, so the other two queue
	// behind it rather than joining its batch.
	submit(0)
	<-gate.entered
	submit(1)
	submit(2)
	waitFor(t, func() bool { return s.queues[ClassTDSP].depth() == 2 }, "backlog never built")

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	waitFor(t, s.Draining, "drain flag never set")

	if _, err := s.Submit(context.Background(), Query{Kind: "meme", Tag: fixMeme}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain returned %v, want ErrDraining", err)
	}

	close(gate.release)
	wg.Wait()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i, err := range answers {
		if err != nil {
			t.Fatalf("queued query %d dropped during drain: %v", i, err)
		}
	}
}

func TestQueryValidation(t *testing.T) {
	g, parts, src := fixture(t)
	s := newServer(t, baseOptions(g, parts, src))
	bad := []Query{
		{Kind: "warp", Source: 0, Target: 1},
		{Kind: "tdsp", Source: 9999, Target: 1},
		{Kind: "tdsp", Source: 0, Target: 9999},
		{Kind: "tdsp", Source: 0, Target: 1, Depart: fixSteps},
		{Kind: "topn", Attr: "nope", N: 3},
		{Kind: "topn", Attr: gen.AttrTweets, N: 3}, // not a float attribute
		{Kind: "topn", Attr: gen.AttrLoad, N: 0},
		{Kind: "topn", Attr: gen.AttrLoad, N: 3, From: fixSteps},
		{Kind: "meme"},
		{Kind: "meme", Tag: fixMeme, Vertex: vptr(9999)},
	}
	for _, q := range bad {
		if _, err := s.Submit(context.Background(), q); !errors.Is(err, ErrBadQuery) {
			t.Errorf("query %+v returned %v, want ErrBadQuery", q, err)
		}
	}
	// Count normalization: explicit overlong window clamps to the source.
	ans, err := s.Submit(context.Background(), Query{Kind: "topn", Attr: gen.AttrLoad, N: 2, From: 6, Count: 99})
	if err != nil {
		t.Fatal(err)
	}
	if ans.TopN.Count != 2 || len(ans.TopN.Steps) != 2 {
		t.Fatalf("window clamp: count=%d steps=%d, want 2", ans.TopN.Count, len(ans.TopN.Steps))
	}
}

// TestWatermarkPinning: a query pinned to watermark W answers exactly as
// an offline run over the dataset's first W timesteps — the contract that
// makes answers reproducible while live ingestion advances the head — and
// the stamped watermark distinguishes pinned from live-head answers.
func TestWatermarkPinning(t *testing.T) {
	g, parts, src := fixture(t)
	s := newServer(t, baseOptions(g, parts, src))
	const pin = 5
	prefix := core.Window{Src: src, Hi: pin}

	queries := []Query{
		{Kind: "tdsp", Source: 0, Target: 63, Depart: 2, Watermark: pin},
		{Kind: "topn", Attr: gen.AttrLoad, N: 3, From: 1, Count: 0, Watermark: pin},
		{Kind: "meme", Tag: fixMeme, Watermark: pin},
	}
	for _, q := range queries {
		want, err := json.Marshal(offlineAnswer(t, g, parts, prefix, q))
		if err != nil {
			t.Fatal(err)
		}
		ans, err := s.Submit(context.Background(), q)
		if err != nil {
			t.Fatalf("%s pinned: %v", q.Kind, err)
		}
		got, err := json.Marshal(ans)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s pinned at %d diverged:\n got %s\nwant %s", q.Kind, pin, got, want)
		}
		if ans.Watermark != pin {
			t.Errorf("%s pinned answer watermark = %d, want %d", q.Kind, ans.Watermark, pin)
		}
	}

	// An unpinned query reads the live head and says so.
	ans, err := s.Submit(context.Background(), Query{Kind: "meme", Tag: fixMeme})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Watermark != fixSteps {
		t.Errorf("live answer watermark = %d, want %d", ans.Watermark, fixSteps)
	}

	// Validation: beyond the head or negative is the client's error.
	for _, w := range []int{fixSteps + 1, -1} {
		_, err := s.Submit(context.Background(), Query{Kind: "meme", Tag: fixMeme, Watermark: w})
		if !errors.Is(err, ErrBadQuery) {
			t.Errorf("watermark %d: err = %v, want ErrBadQuery", w, err)
		}
	}

	// Pinning constrains per-query validation: a departure inside the
	// dataset but outside the pinned prefix is rejected.
	_, err = s.Submit(context.Background(), Query{Kind: "tdsp", Source: 0, Target: 63, Depart: pin, Watermark: pin})
	if !errors.Is(err, ErrBadQuery) {
		t.Errorf("depart beyond pin: err = %v, want ErrBadQuery", err)
	}
}
