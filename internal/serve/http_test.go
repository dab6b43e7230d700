package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tsgraph/internal/gofs"
	"tsgraph/internal/graph"
	"tsgraph/internal/obs"
)

func postQuery(tb testing.TB, url string, q Query) (*http.Response, []byte) {
	tb.Helper()
	body, err := json.Marshal(q)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return resp, out
}

// TestHTTPReplayMixedConcurrent is the end-to-end form of the
// byte-identity requirement: concurrent mixed queries over real HTTP, each
// response compared byte-for-byte against the offline answer.
func TestHTTPReplayMixedConcurrent(t *testing.T) {
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
	reg := obs.NewRegistry(nil)
	reg.Register(s)
	ts := httptest.NewServer(NewMux(s, reg))
	defer ts.Close()

	const rounds = 2
	var wg sync.WaitGroup
	errs := make(chan string, rounds*len(queries))
	for r := 0; r < rounds; r++ {
		for i, q := range queries {
			wg.Add(1)
			go func(i int, q Query) {
				defer wg.Done()
				resp, body := postQuery(t, ts.URL, q)
				if resp.StatusCode != http.StatusOK {
					errs <- "status " + resp.Status + ": " + string(body)
					return
				}
				// Every response names its lifecycle trace: the header and
				// the body's query_id (always the envelope's trailing field)
				// must agree, and the remaining answer bytes must match the
				// offline run exactly.
				id := resp.Header.Get("X-Tsserve-Query-Id")
				if id == "" {
					errs <- "response missing X-Tsserve-Query-Id"
					return
				}
				got := strings.TrimRight(string(body), "\n")
				tail := `,"query_id":"` + id + `"}`
				if !strings.HasSuffix(got, tail) {
					errs <- "body query_id does not match header " + id + ": " + got
					return
				}
				got = strings.TrimSuffix(got, tail) + "}"
				if got != string(want[i]) {
					errs <- "query diverged:\n got " + got + "\nwant " + string(want[i])
				}
			}(i, q)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// The obs endpoints are mounted and carry the serving metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(prom), "tsserve_queries_answered_total") {
		t.Error("/metrics lacks tsserve counters")
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	g, parts, src := fixture(t)
	gate := newGatedSource(src)
	opt := baseOptions(g, parts, gate)
	opt.Workers = 1
	opt.MaxBatch = 1
	opt.QueueCap = 1
	s := newServer(t, opt)
	// Registering the server on a registry exposes its collector.
	reg := obs.NewRegistry(nil)
	reg.Register(s)
	ts := httptest.NewServer(NewMux(s, reg))
	defer ts.Close()

	// Malformed JSON and unknown fields are 400s, counted as bad queries.
	for _, body := range []string{`{"kind":`, `{"kind":"tdsp","bogusfield":1}`} {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %s, want 400", body, resp.Status)
		}
	}
	if n := s.metrics.bad.Load(); n != 2 {
		t.Fatalf("tsserve_queries_bad_total = %d after two malformed bodies, want 2", n)
	}

	// Validation failures are 400s.
	resp, body := postQuery(t, ts.URL, Query{Kind: "tdsp", Source: 9999, Target: 0})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad vertex: %s (%s)", resp.Status, body)
	}

	// GET is rejected.
	getResp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: %s", getResp.Status)
	}

	// Overload: occupy the worker, fill the 1-slot queue, then expect 429
	// with a Retry-After hint.
	var wg sync.WaitGroup
	occupy := func(target int64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), Query{Kind: "tdsp", Source: 0, Target: target}); err != nil {
				t.Errorf("occupying query failed: %v", err)
			}
		}()
	}
	occupy(63)
	<-gate.entered
	occupy(12)
	waitFor(t, func() bool { return s.queues[ClassTDSP].depth() == 1 }, "backlog never built")

	resp, body = postQuery(t, ts.URL, Query{Kind: "tdsp", Source: 0, Target: 40})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload: %s (%s)", resp.Status, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Fatalf("429 body not an error envelope: %s", body)
	}

	close(gate.release)
	wg.Wait()

	// Drain: health flips, new queries get 503 + Retry-After.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %s", hresp.Status)
	}
	resp, _ = postQuery(t, ts.URL, Query{Kind: "meme", Tag: fixMeme})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: %s", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

func TestHTTPStats(t *testing.T) {
	g, parts, src := fixture(t)
	opt := baseOptions(g, parts, src)
	opt.ResultCacheSize = 8
	s := newServer(t, opt)
	ts := httptest.NewServer(NewMux(s, nil))
	defer ts.Close()

	if resp, _ := postQuery(t, ts.URL, Query{Kind: "tdsp", Source: 0, Target: 63}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %s", resp.Status)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Timesteps != fixSteps || st.Vertices != g.NumVertices() {
		t.Fatalf("stats shape: %+v", st)
	}
	if st.Answered["tdsp"] != 1 || st.Sweeps["tdsp"] != 1 {
		t.Fatalf("stats counters: %+v", st)
	}
	if len(st.SampleVertices) == 0 {
		t.Fatal("no sample vertices")
	}
	for _, v := range st.SampleVertices {
		if g.VertexIndex(graph.VertexID(v)) < 0 {
			t.Fatalf("sample vertex %d not in template", v)
		}
	}
	if st.InstanceCache != nil {
		t.Fatal("instance_cache reported without Options.InstanceStats")
	}
}

func TestHTTPStatsInstanceCache(t *testing.T) {
	g, parts, src := fixture(t)
	opt := baseOptions(g, parts, src)
	opt.InstanceStats = func() gofs.CacheStats {
		return gofs.CacheStats{
			Hits: 7, Misses: 2, Evictions: 1, PackLoads: 2, Resident: 1,
			DecodeTime:    3 * time.Millisecond,
			BytesResident: 4096, BytesLimit: 1 << 20,
			SnapshotSteps: 5, DeltaSteps: 15,
		}
	}
	s := newServer(t, opt)
	ts := httptest.NewServer(NewMux(s, nil))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	ic := st.InstanceCache
	if ic == nil {
		t.Fatal("stats missing instance_cache")
	}
	if ic.Hits != 7 || ic.Misses != 2 || ic.Evictions != 1 || ic.PackLoads != 2 {
		t.Fatalf("cache counters: %+v", ic)
	}
	if ic.ResidentPacks != 1 || ic.ResidentBytes != 4096 || ic.LimitBytes != 1<<20 {
		t.Fatalf("byte accounting: %+v", ic)
	}
	if ic.SnapshotSteps != 5 || ic.DeltaSteps != 15 {
		t.Fatalf("materialization counters: %+v", ic)
	}
	if ic.DecodeMS != 3 {
		t.Fatalf("decode ms = %v, want 3", ic.DecodeMS)
	}
}
