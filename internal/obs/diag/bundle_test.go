package diag

import (
	"archive/tar"
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tsgraph/internal/obs"
)

// testBundler builds a fast bundler (short CPU window) with a registry,
// log ring, and one custom section.
func testBundler(t *testing.T, dir string) *Bundler {
	t.Helper()
	reg := obs.NewRegistry(nil)
	reg.Register(obs.CollectorFunc(func(emit func(obs.Sample)) {
		emit(obs.Sample{Name: "test_metric", Help: "h", Kind: "gauge", Value: 42})
	}))
	ring := NewLogRing(16)
	slog.New(ring).Info("before the anomaly", "k", "v")
	return &Bundler{
		Dir: dir, Tool: "testtool",
		ProfileDuration: 50 * time.Millisecond,
		Registry:        reg,
		LogRing:         ring,
		Sections: []Section{
			{Name: "flight.json", Write: func(w io.Writer) error {
				_, err := io.WriteString(w, `{"retained":[{"id":"q1","class":"tdsp","status":"slow","latency_ms":1500}]}`)
				return err
			}},
			{Name: "broken.json", Write: func(w io.Writer) error { return errors.New("boom") }},
		},
	}
}

// readTar returns the bundle's members by name.
func readTar(t *testing.T, path string) map[string][]byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	tr := tar.NewReader(gz)
	members := map[string][]byte{}
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		members[hdr.Name] = b
	}
	return members
}

// TestBundleCaptureContents: one capture yields a tar.gz holding profiles,
// the metrics scrape, the log tail, the custom sections, and a meta.json
// that records the trigger plus the degraded section.
func TestBundleCaptureContents(t *testing.T) {
	dir := t.TempDir()
	b := testBundler(t, dir)
	ev := []Evidence{{Detector: "slo_burn", Value: 3.2, Baseline: 0.1, Threshold: 1}}
	path, err := b.Capture(Trigger{Cause: "detector", Evidence: ev})
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir || !strings.Contains(filepath.Base(path), "detector") {
		t.Fatalf("bundle path %q", path)
	}
	members := readTar(t, path)
	for _, want := range []string{"cpu.pprof", "heap.pprof", "goroutine.pprof", "metrics.prom", "logs.jsonl", "flight.json", "meta.json"} {
		if _, ok := members[want]; !ok {
			t.Errorf("bundle missing %s (has %v)", want, keys(members))
		}
	}
	if _, ok := members["broken.json"]; ok {
		t.Error("failing section must be omitted, not empty")
	}
	var meta Meta
	if err := json.Unmarshal(members["meta.json"], &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Tool != "testtool" || meta.Cause != "detector" {
		t.Fatalf("meta = %+v", meta)
	}
	if len(meta.Evidence) != 1 || meta.Evidence[0].Detector != "slo_burn" {
		t.Fatalf("meta evidence = %+v", meta.Evidence)
	}
	if meta.Degraded["broken.json"] != "boom" {
		t.Fatalf("degraded = %v", meta.Degraded)
	}
	if !strings.Contains(string(members["metrics.prom"]), "test_metric 42") {
		t.Errorf("metrics.prom missing registered collector:\n%s", members["metrics.prom"])
	}
	if !strings.Contains(string(members["logs.jsonl"]), "before the anomaly") {
		t.Errorf("logs.jsonl missing ring records:\n%s", members["logs.jsonl"])
	}
	// The CPU profile must be a parseable pprof proto.
	if sum, err := ParseProfile(strings.NewReader(string(members["cpu.pprof"]))); err != nil {
		t.Errorf("cpu.pprof unparseable: %v", err)
	} else if len(sum.SampleTypes) == 0 {
		t.Errorf("cpu.pprof has no sample types")
	}
	if bs, err := b.List(); err != nil || len(bs) != 1 {
		t.Fatalf("bundles listed = %v, %v; want one", bs, err)
	}
}

// TestBundleRateLimit: detector captures are rate-limited; manual and
// signal captures bypass the limit.
func TestBundleRateLimit(t *testing.T) {
	now := time.Unix(1000, 0)
	b := testBundler(t, t.TempDir())
	b.MinInterval = time.Minute
	b.Now = func() time.Time { return now }
	if _, err := b.Capture(Trigger{Cause: "detector"}); err != nil {
		t.Fatal(err)
	}
	now = now.Add(30 * time.Second)
	if _, err := b.Capture(Trigger{Cause: "detector"}); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("second detector capture: %v, want ErrRateLimited", err)
	}
	if _, err := b.Capture(Trigger{Cause: "manual"}); err != nil {
		t.Fatalf("manual capture rate-limited: %v", err)
	}
	now = now.Add(2 * time.Minute)
	if _, err := b.Capture(Trigger{Cause: "detector"}); err != nil {
		t.Fatalf("detector capture after interval: %v", err)
	}
}

// TestBundleRetention: oldest bundles are deleted beyond MaxBundles; the
// newest always survives even over the byte cap.
func TestBundleRetention(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(2000, 0)
	b := testBundler(t, dir)
	b.MaxBundles = 2
	b.MinInterval = time.Nanosecond
	b.Now = func() time.Time { return now }
	for i := 0; i < 4; i++ {
		if _, err := b.Capture(Trigger{Cause: "manual"}); err != nil {
			t.Fatal(err)
		}
		now = now.Add(time.Second)
	}
	got, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("retained %d bundles, want 2: %v", len(got), got)
	}
	// Byte cap of 1: everything but the newest goes.
	b.MaxBytes = 1
	if _, err := b.Capture(Trigger{Cause: "manual"}); err != nil {
		t.Fatal(err)
	}
	if got, _ = b.List(); len(got) != 1 {
		t.Fatalf("retained %d bundles under 1-byte cap, want 1", len(got))
	}
}

// TestBundleHTTP: POST captures, GET lists, GET?name= downloads, and path
// traversal is rejected.
func TestBundleHTTP(t *testing.T) {
	b := testBundler(t, t.TempDir())
	srv := httptest.NewServer(Handler(b))
	defer srv.Close()

	resp, err := http.Post(srv.URL, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		Bundle string `json:"bundle"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || created.Bundle == "" {
		t.Fatalf("POST -> %d %+v", resp.StatusCode, created)
	}

	resp, err = http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	var listed struct {
		Bundles []BundleInfo `json:"bundles"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listed.Bundles) != 1 {
		t.Fatalf("GET listed %d bundles, want 1", len(listed.Bundles))
	}

	resp, err = http.Get(srv.URL + "?name=" + listed.Bundles[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("download -> %d, %d bytes", resp.StatusCode, len(body))
	}
	if body[0] != 0x1f || body[1] != 0x8b {
		t.Fatalf("download is not gzip (starts %x)", body[:2])
	}

	resp, err = http.Get(srv.URL + "?name=../../etc/passwd.tar.gz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("traversal -> %d, want 400", resp.StatusCode)
	}
}

func keys(m map[string][]byte) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
