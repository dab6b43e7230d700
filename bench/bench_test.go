package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// smokeScale keeps the five-workload smoke under 10 s; it is a test input
// only, so no command-line run can report numbers at it.
var smokeScale = scale{
	RoadRows: 24, RoadCols: 24, SWN: 600, SWM: 2, Steps: 8,
	IngestSeedSteps: 8, TripRadius: 8, IngestTripRadius: 6,
	HotPool: 256, AppendRate: 20,
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json equal to what spec.go
// declares: regenerate it with `go run -C bench . -benchmark-json`.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := writeBenchmarkJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want.Bytes()) {
		t.Fatalf("BENCHMARK.json differs from spec.go; regenerate it with `go run -C bench . -benchmark-json > BENCHMARK.json`")
	}
	seen := make(map[string]bool)
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q declared twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower")
	}
	for _, m := range perLayer {
		check(m.Name)
	}
}

// TestSmokeAllWorkloads runs every workload at the smoke scale with a
// short window, untraced and traced, and asserts that each run emits every
// declared metric of its mode exactly once, with its unit, that every
// answer verified, and that the bypasses the workloads were chosen for
// hold.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers and writes datasets")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{
				Workload: w.Name, Seed: 1, Seconds: 0.6, Trace: trace,
				Scale: smokeScale, WorkDir: t.TempDir(), OutDir: t.TempDir(), Setups: 1,
			}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d, failed %d: %v", w.Name, trace, res.Attempted, res.Failed, res.Notes)
			}
			want := make(map[string]string)
			if trace {
				for _, m := range perLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range endToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.Name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not emitted", w.Name, trace, name)
					continue
				}
				if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, declared %q", w.Name, trace, name, got.Unit, unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, name, got.Value)
				}
			}
			if trace {
				if share := res.Metrics["trace.explained_share"].Value; share < 0.90 {
					t.Errorf("%s: trace.explained_share %.3f < 0.90", w.Name, share)
				}
				if len(res.Spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", w.Name)
				}
				checkBypasses(t, w.Name, res.Metrics)
			}
			// The contract line must survive a JSON round trip.
			line, err := json.Marshal(contractLine{Correct: true, Attempted: res.Attempted, Metrics: res.Metrics})
			if err != nil {
				t.Fatal(err)
			}
			var back contractLine
			if err := json.Unmarshal(line, &back); err != nil || len(back.Metrics) != len(want) {
				t.Errorf("%s trace=%v: contract line does not round-trip: %v", w.Name, trace, err)
			}
		}
	}
}

// checkBypasses asserts the predictions each workload was chosen for:
// unique queries never hit the result cache, a resident dataset is never
// decoded again, the hot pool mostly hits, and the layers a workload does
// not use report nothing.
func checkBypasses(t *testing.T, workload string, m metricSet) {
	t.Helper()
	zero := func(names ...string) {
		for _, name := range names {
			if v := m[name].Value; v != 0 {
				t.Errorf("%s: %s = %v, want 0 (layer not on this path)", workload, name, v)
			}
		}
	}
	switch workload {
	case "serve-uncached":
		if v := m["serve.result_hit_ratio"].Value; v != 0 {
			t.Errorf("serve-uncached: result_hit_ratio %v, want 0", v)
		}
		if v := m["gofs.cache_hit_ratio"].Value; v < 0.99 {
			t.Errorf("serve-uncached: gofs.cache_hit_ratio %v, want >= 0.99", v)
		}
		zero("shard.sweep_ms_p50", "cluster.barrier_us_p50", "cluster.frames_per_sweep", "ingest.appends", "gofs.append_ms_p50")
	case "serve-hot":
		if v := m["serve.result_hit_ratio"].Value; v < 0.6 {
			t.Errorf("serve-hot: result_hit_ratio %v, want >= 0.6", v)
		}
	case "shard-2x1":
		if m["shard.sweep_ms_p50"].Value <= 0 || m["cluster.frames_per_sweep"].Value <= 0 {
			t.Errorf("shard-2x1: the Sweeper seam or the mesh saw no traffic: %v", m["shard.sweep_ms_p50"])
		}
		zero("ingest.appends", "gofs.append_ms_p50")
	case "ingest-live":
		if m["ingest.appends"].Value <= 0 || m["gofs.append_ms_p50"].Value <= 0 {
			t.Errorf("ingest-live: no appends measured")
		}
		zero("shard.sweep_ms_p50", "cluster.frames_per_sweep")
	case "offline-batch":
		zero("serve.sweeps", "shard.sweep_ms_p50", "ingest.appends")
	}
}

func TestTailPercentileRefusesThinTails(t *testing.T) {
	sample := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	// p95 of 200 has exactly 10 beyond it; of 199, only 9.
	if got, err := tailPercentile(sample(200), 0.95); err != nil || got != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190", got, err)
	}
	if _, err := tailPercentile(sample(199), 0.95); err == nil {
		t.Error("p95 of 199 samples accepted with 9 beyond it")
	}
	if _, err := tailPercentile(sample(50), 0.99); err == nil {
		t.Error("p99 of 50 samples accepted")
	}
	// The ladder falls to the highest rung the sample supports.
	if got, used, ok := supportedTail(sample(120), 0.99); !ok || used != 0.90 || got != 108 {
		t.Errorf("supportedTail(120 samples, p99) = %v at p%v ok=%v; want 108 at p90", got, used*100, ok)
	}
	// Too few for any rung: the upper quartile, flagged.
	if got, used, ok := supportedTail(sample(16), 0.75); ok || used != 0.75 || got != 12 {
		t.Errorf("supportedTail(16 samples, p75) = %v at p%v ok=%v; want 12 at p75, unsupported", got, used*100, ok)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestOpenLoopDueTimeAccounting(t *testing.T) {
	start := time.Unix(1000, 0)
	o := newOpenLoop(start, 10) // one request every 100 ms
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }

	if got := o.due(3); !got.Equal(at(300)) {
		t.Fatalf("due(3) = %v, want start+300ms", got)
	}
	o.record(0, at(0), at(20)) // on time, 20 ms
	// Request 1 stalls 250 ms, so 2 and 3 are sent late although each is
	// served in 10 ms: their latency counts from when they were due.
	o.record(1, at(100), at(350))
	o.record(2, at(350), at(360))
	o.record(3, at(360), at(370))

	wantLatency := []int{20, 250, 160, 70}
	wantLate := []int{0, 0, 150, 60}
	for i := range wantLatency {
		if got := o.latency[i]; got != time.Duration(wantLatency[i])*time.Millisecond {
			t.Errorf("request %d latency %v, want %d ms", i, got, wantLatency[i])
		}
		if got := o.lateness[i]; got != time.Duration(wantLate[i])*time.Millisecond {
			t.Errorf("request %d lateness %v, want %d ms", i, got, wantLate[i])
		}
	}
	if o.backlog != 2 {
		t.Errorf("backlog %d, want 2 (requests 2 and 3 came due while 1 was stalled)", o.backlog)
	}
}

func TestSpanSelfTime(t *testing.T) {
	msd := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "query", Layer: "http", Op: 7, Start: msd(0), End: msd(100)},
		{Name: "handler", Layer: "serve", Op: 7, Start: msd(10), End: msd(90)},
		// Two overlapping loads: 20..50 and 40..60 cover 40 ms, not 50.
		{Name: "load", Layer: "gofs", Start: msd(20), End: msd(50)},
		{Name: "load", Layer: "gofs", Start: msd(40), End: msd(60)},
		// A second request whose handler span never showed up.
		{Name: "query", Layer: "http", Op: 8, Start: msd(200), End: msd(300)},
	}
	nested := nest(spans)
	if nested[1].Parent != 0 || nested[2].Parent != 1 || nested[3].Parent != 1 || nested[4].Parent != -1 {
		t.Fatalf("parents = %d %d %d %d, want 0 1 1 -1", nested[1].Parent, nested[2].Parent, nested[3].Parent, nested[4].Parent)
	}
	if nested[2].Op != 7 {
		t.Errorf("load inherited op %d, want 7", nested[2].Op)
	}
	self := selfTimes(nested)
	want := []time.Duration{msd(20), msd(40), msd(30), msd(20), msd(100)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] (%s) = %v, want %v", i, nested[i].Name, self[i], want[i])
		}
	}
	b := analyze(spans, true)
	if b.LayerSelf["serve"] != msd(40) || b.LayerSelf["gofs"] != msd(50) || b.LayerSelf["http"] != msd(120) {
		t.Errorf("layer self times = %v", b.LayerSelf)
	}
	if b.RootTotal != msd(200) || b.Explained != msd(100) || b.explainedShare() != 0.5 {
		t.Errorf("root total %v explained %v share %v; want 200ms, 100ms, 0.5", b.RootTotal, b.Explained, b.explainedShare())
	}
}

// TestNestKeepsConcurrentRequestsApart is ingest-live's traced phase: an
// append that falls inside a longer query in time stays a root, its handler
// goes under it, and a load recorded under the query's op stays with the
// query although the append's spans surround it.
func TestNestKeepsConcurrentRequestsApart(t *testing.T) {
	msd := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	nested := nest([]span{
		{Name: "query", Layer: "http", Op: 3, Start: msd(0), End: msd(100)},
		{Name: "handler", Layer: "serve", Op: 3, Start: msd(5), End: msd(95)},
		{Name: "append", Layer: "http", Op: 4, Start: msd(20), End: msd(60)},
		{Name: "ingest-handler", Layer: "ingest", Op: 4, Start: msd(25), End: msd(55)},
		{Name: "load", Layer: "gofs", Op: 3, Start: msd(30), End: msd(40)},
	})
	want := []int{-1, 0, -1, 2, 1}
	for i, s := range nested {
		if s.Parent != want[i] {
			t.Errorf("%s: parent %d, want %d", s.Name, s.Parent, want[i])
		}
	}
	b := analyze(nested, true)
	if b.Roots != 2 || b.RootTotal != msd(140) || b.Explained != msd(140) {
		t.Errorf("roots %d total %v explained %v; want 2, 140ms, 140ms", b.Roots, b.RootTotal, b.Explained)
	}
	if b.LayerSelf["serve"] != msd(80) || b.LayerSelf["ingest"] != msd(30) || b.LayerSelf["gofs"] != msd(10) {
		t.Errorf("layer self times = %v", b.LayerSelf)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	spec := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	if v := verdict(spec, steady, []float64{115, 116, 114, 115, 115}); v != "worse" {
		t.Errorf("+15%% on a lower-is-better metric: %s, want worse", v)
	}
	if v := verdict(spec, steady, []float64{105, 104, 106, 105, 105}); v != "same" {
		t.Errorf("+5%% inside a 10%% bound: %s, want same", v)
	}
	if v := verdict(spec, steady, []float64{80, 81, 79, 80, 80}); v != "better" {
		t.Errorf("-20%%: %s, want better", v)
	}
	if v := verdict(spec, []float64{80, 100, 120, 90, 130}, []float64{115, 116, 114, 115, 115}); v != "unresolved" {
		t.Errorf("spread wider than bound: %s, want unresolved", v)
	}
}
