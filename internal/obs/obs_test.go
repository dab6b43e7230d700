package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tsgraph/internal/metrics"
)

// sampleRecorder builds a recorder with one populated timestep so every
// exported family has a value.
func sampleRecorder() *metrics.Recorder {
	rec := metrics.NewRecorder(2)
	tr := rec.BeginTimestep(0)
	tr.Supersteps = 4
	tr.Wall = 20 * time.Millisecond
	tr.SimWall = 10 * time.Millisecond
	tr.Load = 3 * time.Millisecond
	tr.MsgsDropped = 1
	tr.Parts[0].Compute = 6 * time.Millisecond
	tr.Parts[0].MsgsSent = 10
	tr.Parts[1].Compute = 2 * time.Millisecond
	tr.Parts[1].Barrier = 4 * time.Millisecond
	tr.Parts[1].MsgsRecv = 10
	tr.Parts[1].Counters = map[string]int64{"finalized": 7}
	return rec
}

func TestNilRegistryIsSafe(t *testing.T) {
	var g *Registry
	if g.Samples() != nil || g.Tracer() != nil {
		t.Fatal("nil registry returned data")
	}
	g.ObserveRecorder(metrics.NewRecorder(1))
	g.Register(CollectorFunc(func(emit func(Sample)) {}))
}

func TestRegistrySamplesAndPrometheus(t *testing.T) {
	tracer := NewTracer(0)
	tracer.Enable()
	tracer.RecordSpan(SpanCompute, 0, 0, 0, 0, tracer.Epoch(), time.Millisecond)

	g := NewRegistry(tracer)
	g.ObserveRecorder(sampleRecorder())
	g.Register(CollectorFunc(func(emit func(Sample)) {
		emit(Sample{
			Name: "tsgraph_wire_bytes_sent_total", Help: "test collector", Kind: "counter",
			Labels: []Label{{Key: "peer", Value: `a"b\c`}},
			Value:  123,
		})
	}))

	var buf strings.Builder
	if err := g.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP tsgraph_supersteps_total",
		"# TYPE tsgraph_supersteps_total counter",
		"tsgraph_supersteps_total 4",
		"tsgraph_msgs_dropped_total 1",
		"tsgraph_load_seconds_total 0.003",
		"# TYPE tsgraph_compute_skew_ratio gauge",
		`tsgraph_compute_seconds_total{partition="0"} 0.006`,
		`tsgraph_msgs_sent_total{partition="0"} 10`,
		`tsgraph_msgs_recv_total{partition="1"} 10`,
		`tsgraph_app_counter_total{counter="finalized"} 7`,
		"tsgraph_trace_spans_total 1",
		"tsgraph_trace_enabled 1",
		`tsgraph_wire_bytes_sent_total{peer="a\"b\\c"} 123`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Families must be emitted as contiguous sorted blocks with exactly one
	// TYPE header each.
	if strings.Count(out, "# TYPE tsgraph_compute_seconds_total") != 1 {
		t.Fatal("family header repeated")
	}
	var prevFamily string
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		family := strings.Fields(line)[2]
		if prevFamily != "" && family < prevFamily {
			t.Fatalf("families not sorted: %s after %s", family, prevFamily)
		}
		prevFamily = family
	}

	buf.Reset()
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snapshot struct {
		Samples []Sample `json:"samples"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &snapshot); err != nil {
		t.Fatalf("JSON snapshot invalid: %v", err)
	}
	if len(snapshot.Samples) == 0 {
		t.Fatal("JSON snapshot empty")
	}
}

func TestObserveRecorderFollowsLatest(t *testing.T) {
	g := NewRegistry(nil)
	g.ObserveRecorder(sampleRecorder())
	second := metrics.NewRecorder(1)
	second.BeginTimestep(0).Supersteps = 99
	g.ObserveRecorder(second)
	var buf strings.Builder
	if err := g.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tsgraph_supersteps_total 99") {
		t.Fatalf("scrape does not reflect the latest recorder:\n%s", buf.String())
	}
}

func TestHTTPHandlerEndpoints(t *testing.T) {
	tracer := NewTracer(0)
	tracer.Enable()
	tracer.RecordStepStat(0, 0, 0, time.Millisecond, 0, time.Millisecond)
	g := NewRegistry(tracer)
	g.ObserveRecorder(sampleRecorder())
	srv := httptest.NewServer(NewHandler(g))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "tsgraph_supersteps_total") {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}
	code, body := get("/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("/metrics.json = %d", code)
	}
	if !json.Valid([]byte(body)) {
		t.Fatalf("/metrics.json not valid JSON: %s", body)
	}
	code, body = get("/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace = %d", code)
	}
	if !json.Valid([]byte(body)) {
		t.Fatalf("/debug/trace not valid JSON: %s", body)
	}
	if code, body := get("/debug/skew"); code != http.StatusOK || !strings.Contains(body, "supersteps") {
		t.Fatalf("/debug/skew = %d:\n%s", code, body)
	}
	if code, body := get("/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index = %d:\n%s", code, body)
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
	if code, _ := get("/no-such-page"); code != http.StatusNotFound {
		t.Fatalf("unknown path = %d, want 404", code)
	}
}
