package tsgraph_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tsgraph/internal/bsp"
	"tsgraph/internal/cluster"
	"tsgraph/internal/core"
	"tsgraph/internal/experiments"
	"tsgraph/internal/obs"
)

// TestObservabilityEndToEnd exercises the whole obs pipeline the way tsbench
// wires it: a traced in-process run feeds the recorder samples, a loopback
// distributed run feeds the per-peer wire counters, and the HTTP endpoint
// serves a Prometheus scrape plus a loadable Chrome trace of it all.
func TestObservabilityEndToEnd(t *testing.T) {
	road, _ := benchDatasets2(t)

	tracer := obs.NewTracer(0)
	tracer.Enable()
	core.SetDefaultTracer(tracer)
	defer core.SetDefaultTracer(nil)
	reg := obs.NewRegistry(tracer)
	experiments.OnRecorder = reg.ObserveRecorder
	defer func() { experiments.OnRecorder = nil }()

	cfg := bsp.Config{CoresPerHost: 2}
	if _, _, err := experiments.RunAlgo(road, experiments.AlgoTDSP, 3, cfg, 1); err != nil {
		t.Fatal(err)
	}
	res, err := experiments.DistributedSmoke(road, 2, 4, cfg, 1,
		experiments.DistributedSmokeOptions{OnNode: func(n *cluster.Node) { reg.Register(n) }})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	if len(rows) != 2 {
		t.Fatalf("distributed smoke returned %d rows, want 2", len(rows))
	}
	for _, row := range rows {
		var frames int64
		for _, ws := range row.Wire {
			frames += ws.FramesSent
		}
		if frames == 0 {
			t.Fatalf("rank %d sent no frames over the mesh", row.Rank)
		}
	}

	srv := httptest.NewServer(obs.NewHandler(reg))
	defer srv.Close()
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	scrape := get("/metrics")
	for _, family := range []string{
		"tsgraph_supersteps_total",
		"tsgraph_load_seconds_total",
		"tsgraph_compute_skew_ratio",
		"tsgraph_wire_frames_sent_total{rank=",
		"tsgraph_wire_bytes_sent_total{rank=",
		"tsgraph_wire_bytes_recv_total{rank=",
		"tsgraph_trace_spans_total",
	} {
		if !strings.Contains(scrape, family) {
			t.Fatalf("/metrics scrape missing %q:\n%s", family, scrape)
		}
	}
	// Every family on the scrape is a census row, which catches a name the
	// census test cannot see because it is built at run time.
	census := readFamilies(t)
	for _, line := range strings.Split(scrape, "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ = strings.Cut(name, " ")
			if _, ok := census[name]; !ok {
				t.Errorf("/metrics family %s has no row in %s", name, familiesTable)
			}
		}
	}

	trace := get("/debug/trace")
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(trace), &parsed); err != nil {
		t.Fatalf("/debug/trace is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("/debug/trace has no events")
	}
	if !strings.Contains(trace, `"compute-phase"`) || !strings.Contains(trace, `"barrier"`) {
		t.Fatal("/debug/trace missing superstep phase lanes")
	}

	if rep := tracer.Skew(); rep.Supersteps == 0 {
		t.Fatal("skew report saw no supersteps")
	}
}

// benchDatasets2 reuses the bench fixture cache from a test context.
func benchDatasets2(t *testing.T) (*experiments.Dataset, *experiments.Dataset) {
	t.Helper()
	benchOnce.Do(func() {
		road, sw, err := experiments.BuildDatasets(experiments.Small)
		if err != nil {
			panic(err)
		}
		benchRoad, benchSW = road, sw
	})
	return benchRoad, benchSW
}
