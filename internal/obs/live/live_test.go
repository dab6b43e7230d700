package live

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"tsgraph/internal/obs"
)

// testClock is a manually-advanced clock so retention and burn-rate
// decisions are deterministic.
type testClock struct{ t time.Time }

func newTestClock() *testClock {
	return &testClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}
func (c *testClock) now() time.Time          { return c.t }
func (c *testClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// finishAfter runs one query to completion with the given simulated latency.
func finishAfter(r *Recorder, clk *testClock, class int, lat time.Duration, status Status, err error) *Query {
	q := r.Begin()
	q.SetClass(class)
	q.Stage(StageQueue, clk.now(), lat/4)
	q.Stage(StageSweep, clk.now().Add(lat/4), lat/2)
	clk.advance(lat)
	q.Finish(status, err)
	return q
}

func testRecorder(clk *testClock, cfg Config) *Recorder {
	cfg.Classes = []string{"tdsp", "topn"}
	cfg.Now = clk.now
	return NewRecorder(cfg)
}

// TestTailSamplingDeterministic: under a seeded clock and sampler, exactly
// the slow, errored, rejected, and head-sampled queries are retained, and
// the drop counter accounts for every discarded trace.
func TestTailSamplingDeterministic(t *testing.T) {
	clk := newTestClock()
	r := testRecorder(clk, Config{SlowThreshold: 100 * time.Millisecond, Seed: 7})

	fast := finishAfter(r, clk, 0, 5*time.Millisecond, StatusOK, nil)                   // dropped
	slow := finishAfter(r, clk, 0, 250*time.Millisecond, StatusOK, nil)                 // retained: slow
	errd := finishAfter(r, clk, 1, 5*time.Millisecond, StatusError, fmt.Errorf("boom")) // retained: error
	shed := finishAfter(r, clk, 1, time.Millisecond, StatusRejected, nil)               // retained: 429
	drain := finishAfter(r, clk, 0, time.Millisecond, StatusDraining, nil)              // retained: 503
	bad := finishAfter(r, clk, 0, time.Millisecond, StatusBadQuery, nil)                // dropped

	for _, c := range []struct {
		q    *Query
		want bool
	}{{fast, false}, {slow, true}, {errd, true}, {shed, true}, {drain, true}, {bad, false}} {
		_, ok := r.Trace(c.q.IDString())
		if ok != c.want {
			t.Errorf("query %s retained=%v, want %v", c.q.IDString(), ok, c.want)
		}
	}
	total, dropped, evicted, retained := r.Counters()
	if total != 6 || dropped != 2 || evicted != 0 || retained != 4 {
		t.Fatalf("counters = (%d,%d,%d,%d), want (6,2,0,4)", total, dropped, evicted, retained)
	}

	// Rerunning the same sequence against the same seed retains the same
	// set — the sampler is deterministic.
	for run := 0; run < 2; run++ {
		clk2 := newTestClock()
		r2 := testRecorder(clk2, Config{SlowThreshold: 100 * time.Millisecond, HeadSampleRate: 0.3, Seed: 42})
		var got []string
		for i := 0; i < 50; i++ {
			q := finishAfter(r2, clk2, 0, time.Millisecond, StatusOK, nil)
			if _, ok := r2.Trace(q.IDString()); ok {
				got = append(got, q.IDString())
			}
		}
		if len(got) == 0 || len(got) == 50 {
			t.Fatalf("head sampling at 0.3 retained %d/50", len(got))
		}
		if run == 0 {
			t.Logf("head-sampled set: %v", got)
		}
		// Determinism across runs: stash then compare.
		if run == 1 {
			clk3 := newTestClock()
			r3 := testRecorder(clk3, Config{SlowThreshold: 100 * time.Millisecond, HeadSampleRate: 0.3, Seed: 42})
			var again []string
			for i := 0; i < 50; i++ {
				q := finishAfter(r3, clk3, 0, time.Millisecond, StatusOK, nil)
				if _, ok := r3.Trace(q.IDString()); ok {
					again = append(again, q.IDString())
				}
			}
			if strings.Join(got, ",") != strings.Join(again, ",") {
				t.Fatalf("seeded head sampling not deterministic:\n%v\n%v", got, again)
			}
		}
	}
}

// TestFlightEvictionOrder: the retained store is FIFO — when the cap is
// exceeded the oldest trace goes first, and the eviction counter tracks it.
func TestFlightEvictionOrder(t *testing.T) {
	clk := newTestClock()
	r := testRecorder(clk, Config{SlowThreshold: time.Millisecond, RetainCap: 3})

	var ids []string
	for i := 0; i < 5; i++ { // all slow → all retained → 2 evictions
		q := finishAfter(r, clk, 0, 10*time.Millisecond, StatusOK, nil)
		ids = append(ids, q.IDString())
	}
	retained := r.Retained()
	if len(retained) != 3 {
		t.Fatalf("retained %d traces, want 3", len(retained))
	}
	for i, tr := range retained {
		if tr.ID != ids[i+2] {
			t.Errorf("retained[%d] = %s, want %s (oldest-first FIFO)", i, tr.ID, ids[i+2])
		}
	}
	for _, id := range ids[:2] {
		if _, ok := r.Trace(id); ok {
			t.Errorf("evicted trace %s still resolvable", id)
		}
	}
	if _, _, evicted, _ := r.Counters(); evicted != 2 {
		t.Fatalf("evicted = %d, want 2", evicted)
	}
}

// TestSummaryRing: the always-on ring keeps the last SummaryCap queries,
// oldest first, regardless of retention.
func TestSummaryRing(t *testing.T) {
	clk := newTestClock()
	r := testRecorder(clk, Config{SlowThreshold: time.Hour, SummaryCap: 4})
	var ids []string
	for i := 0; i < 6; i++ {
		q := finishAfter(r, clk, i%2, time.Millisecond, StatusOK, nil)
		ids = append(ids, q.IDString())
	}
	sums := r.Summaries()
	if len(sums) != 4 {
		t.Fatalf("got %d summaries, want 4", len(sums))
	}
	for i, s := range sums {
		if s.ID != ids[i+2] {
			t.Errorf("summaries[%d] = %s, want %s", i, s.ID, ids[i+2])
		}
		if s.Retained {
			t.Errorf("summary %s marked retained with an unreachable threshold", s.ID)
		}
	}
}

// TestFinishIdempotent: double Finish counts once; nil queries are no-ops.
func TestFinishIdempotent(t *testing.T) {
	clk := newTestClock()
	r := testRecorder(clk, Config{})
	q := r.Begin()
	q.SetClass(0)
	q.Finish(StatusOK, nil)
	q.Finish(StatusError, fmt.Errorf("late"))
	if total, _, _, _ := r.Counters(); total != 1 {
		t.Fatalf("double Finish counted twice")
	}

	var nilQ *Query
	nilQ.SetClass(1)
	nilQ.Stage(StageSweep, time.Now(), time.Second)
	nilQ.SetBatch(1, 2)
	nilQ.SetCacheHit()
	nilQ.Finish(StatusOK, nil)
	if nilQ.ID() != 0 || nilQ.IDString() != "" {
		t.Fatal("nil query not inert")
	}
	var nilR *Recorder
	if nilR.Begin() != nil {
		t.Fatal("nil recorder returned a live query")
	}
	nilR.CollectObs(func(obs.Sample) { t.Fatal("nil recorder emitted") })
}

// TestSLOBurnRate: burn rate reflects the windowed bad ratio over the
// budget, and old slots age out under the injected clock.
func TestSLOBurnRate(t *testing.T) {
	clk := newTestClock()
	s := NewSLO(100*time.Millisecond, 0.1, clk.now)
	for i := 0; i < 90; i++ {
		s.Observe(time.Millisecond, false)
	}
	for i := 0; i < 10; i++ {
		s.Observe(time.Second, false) // over target → bad
	}
	if br := s.BurnRate(); br < 0.99 || br > 1.01 {
		t.Fatalf("burn rate = %v, want 1.0 (10%% bad over 10%% budget)", br)
	}
	// Jump past the window: the bad slots age out.
	clk.advance(2 * sloSlots * sloSlotWidth)
	s.Observe(time.Millisecond, false)
	if br := s.BurnRate(); br != 0 {
		t.Fatalf("burn rate after window aged out = %v, want 0", br)
	}
}

// TestPrometheusHistogramExposition is the golden-format check: the
// recorder's scrape must contain a well-formed histogram family — buckets
// cumulative and monotone, +Inf bucket equal to _count, _sum consistent
// with the observations, one series per class/stage label set — plus the
// flight and SLO families.
func TestPrometheusHistogramExposition(t *testing.T) {
	clk := newTestClock()
	r := testRecorder(clk, Config{SlowThreshold: 50 * time.Millisecond})
	finishAfter(r, clk, 0, 10*time.Millisecond, StatusOK, nil)
	finishAfter(r, clk, 0, 100*time.Millisecond, StatusOK, nil)
	finishAfter(r, clk, 1, time.Millisecond, StatusError, fmt.Errorf("x"))

	reg := obs.NewRegistry(nil)
	reg.Register(r)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	if !strings.Contains(out, "# TYPE tsserve_latency_seconds histogram") {
		t.Fatalf("missing histogram TYPE header:\n%s", out)
	}
	for _, want := range []string{
		"tsserve_flight_dropped_traces_total",
		"tsserve_flight_queries_total 3",
		"tsserve_slo_burn_rate",
		"tsserve_slo_target_latency_seconds 0.05",
		`tsserve_latency_seconds_bucket{class="tdsp",stage="total",le="+Inf"} 2`,
		`tsserve_latency_seconds_count{class="tdsp",stage="total"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// Per-series bucket monotonicity and _sum/_count consistency.
	type series struct {
		buckets []float64 // in le order as emitted
		lastLe  float64
		infSeen bool
		inf     float64
		sum     float64
		sumSeen bool
		count   float64
		cntSeen bool
	}
	bySeries := map[string]*series{}
	get := func(lbl string) *series {
		s, ok := bySeries[lbl]
		if !ok {
			s = &series{lastLe: -1}
			bySeries[lbl] = s
		}
		return s
	}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "tsserve_latency_seconds") || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, _ := strings.Cut(line, "{")
		lblEnd := strings.Index(rest, "}")
		labels, valStr := rest[:lblEnd], strings.TrimSpace(rest[lblEnd+1:])
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		switch name {
		case "tsserve_latency_seconds_bucket":
			le := labels[strings.Index(labels, `le="`)+4:]
			le = le[:strings.Index(le, `"`)]
			key := strings.Replace(labels, `,le="`+le+`"`, "", 1)
			s := get(key)
			if le == "+Inf" {
				s.infSeen, s.inf = true, val
				break
			}
			leV, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("unparseable le %q", le)
			}
			if leV <= s.lastLe {
				t.Fatalf("le bounds not increasing in series %s: %v after %v", key, leV, s.lastLe)
			}
			if n := len(s.buckets); n > 0 && val < s.buckets[n-1] {
				t.Fatalf("bucket counts not cumulative in series %s: %v after %v", key, val, s.buckets[n-1])
			}
			s.lastLe = leV
			s.buckets = append(s.buckets, val)
		case "tsserve_latency_seconds_sum":
			s := get(labels)
			s.sum, s.sumSeen = val, true
		case "tsserve_latency_seconds_count":
			s := get(labels)
			s.count, s.cntSeen = val, true
		default:
			t.Fatalf("unexpected histogram sample name %q", name)
		}
	}
	if len(bySeries) != 6 { // 2 classes × 3 stages
		t.Fatalf("got %d series, want 6: %v", len(bySeries), bySeries)
	}
	for key, s := range bySeries {
		if !s.infSeen || !s.sumSeen || !s.cntSeen {
			t.Fatalf("series %s missing +Inf/_sum/_count", key)
		}
		if s.inf != s.count {
			t.Fatalf("series %s: +Inf bucket %v != _count %v", key, s.inf, s.count)
		}
		if n := len(s.buckets); n > 0 && s.buckets[n-1] > s.inf {
			t.Fatalf("series %s: last finite bucket %v exceeds +Inf %v", key, s.buckets[n-1], s.inf)
		}
		if s.count > 0 && s.sum < 0 {
			t.Fatalf("series %s: negative _sum", key)
		}
	}
}

// TestFlightHandler: the snapshot lists summaries and retained ids; a
// retained id round-trips to parseable Chrome trace JSON containing the
// lifecycle stages and the query id; unknown ids 404.
func TestFlightHandler(t *testing.T) {
	clk := newTestClock()
	r := testRecorder(clk, Config{SlowThreshold: 50 * time.Millisecond})
	finishAfter(r, clk, 0, time.Millisecond, StatusOK, nil)
	slow := finishAfter(r, clk, 0, 200*time.Millisecond, StatusOK, nil)

	h := Handler(r, nil)

	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/flight", nil))
	if rw.Code != 200 {
		t.Fatalf("snapshot status %d", rw.Code)
	}
	var snap flightSnapshot
	if err := json.Unmarshal(rw.Body.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot not JSON: %v", err)
	}
	if snap.QueriesTotal != 2 || len(snap.Summaries) != 2 || len(snap.Retained) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Retained[0].ID != slow.IDString() || !snap.Retained[0].Slow {
		t.Fatalf("retained entry = %+v, want slow query %s", snap.Retained[0], slow.IDString())
	}

	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/flight?id="+slow.IDString(), nil))
	if rw.Code != 200 {
		t.Fatalf("trace status %d: %s", rw.Code, rw.Body.String())
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		QueryID string `json:"query_id"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v\n%s", err, rw.Body.String())
	}
	if doc.QueryID != slow.IDString() {
		t.Fatalf("trace metadata query_id = %q", doc.QueryID)
	}
	stageSeen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			stageSeen[ev.Name] = true
			if got := ev.Args["query"]; got != slow.IDString() {
				t.Fatalf("stage event %s tagged %v, want %s", ev.Name, got, slow.IDString())
			}
		}
	}
	for _, want := range []string{"queue", "sweep"} {
		if !stageSeen[want] {
			t.Errorf("trace missing %s stage event; saw %v", want, stageSeen)
		}
	}

	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/flight?id=q12345678", nil))
	if rw.Code != 404 {
		t.Fatalf("unknown id status %d", rw.Code)
	}
}

// TestLogger: level filtering and both output formats.
func TestLogger(t *testing.T) {
	var sb strings.Builder
	l, err := NewLogger(&sb, "warn", "json")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("hidden")
	l.Warn("visible", "query", "q00000001")
	out := sb.String()
	if strings.Contains(out, "hidden") || !strings.Contains(out, "visible") {
		t.Fatalf("level filter broken: %q", out)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(out)), &rec); err != nil {
		t.Fatalf("json handler output not JSON: %v", err)
	}
	if rec["query"] != "q00000001" {
		t.Fatalf("structured field lost: %v", rec)
	}
	if _, err := NewLogger(&sb, "loud", "text"); err == nil {
		t.Fatal("bad level accepted")
	}
	if _, err := NewLogger(&sb, "info", "yaml"); err == nil {
		t.Fatal("bad format accepted")
	}
}

// BenchmarkQueryLifecycle measures the full per-query recorder cost —
// Begin, class, five stages, Finish on the dropped (common) path — against
// the nil-recorder no-op path. This is the absolute overhead the serving
// layer adds per request when live observability is on.
func BenchmarkQueryLifecycle(b *testing.B) {
	run := func(b *testing.B, r *Recorder) {
		start := time.Now()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := r.Begin()
			q.SetClass(0)
			q.Stage(StageAdmit, start, time.Microsecond)
			q.Stage(StageCache, start, time.Microsecond)
			q.Stage(StageQueue, start, time.Millisecond)
			q.Stage(StageSweep, start, time.Millisecond)
			q.Stage(StageEncode, start, time.Microsecond)
			q.SetBatch(1, 4)
			q.Finish(StatusOK, nil)
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("enabled", func(b *testing.B) {
		run(b, NewRecorder(Config{Classes: []string{"tdsp"}}))
	})
}
