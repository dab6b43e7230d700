package gofs

import (
	"strings"
	"testing"

	"tsgraph/internal/obs"
)

// TestTelemetryObservesReads: reading slices through the store populates
// the pack-decode and slice-read histograms plus the bytes-read counter,
// and the scrape exposes them with the manifest's chain-depth gauges.
func TestTelemetryObservesReads(t *testing.T) {
	dir := t.TempDir()
	c, a := makeDataset(t, 12, 3)
	if err := WriteDataset(dir, c, a, 4, 2); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tel := s.Telemetry()
	if tel == nil {
		t.Fatal("store has no telemetry")
	}
	if _, err := s.LoadAll(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry(nil)
	reg.Register(tel)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, family := range []string{
		"tsgofs_pack_decode_seconds_bucket",
		"tsgofs_pack_decode_seconds_count",
		"tsgofs_slice_read_seconds_count",
		"tsgofs_bytes_read_total",
		"tsgofs_delta_chain_depth",
		"tsgofs_snapshot_steps",
		"tsgofs_delta_steps",
	} {
		if !strings.Contains(out, family) {
			t.Errorf("scrape missing %s", family)
		}
	}
	if tel.bytesRead.Load() <= 0 {
		t.Fatal("bytes-read counter did not advance")
	}
	if n := tel.sliceRead.Count(); n == 0 {
		t.Fatal("slice-read histogram observed nothing")
	}
	if n := tel.packDecode.Count(); n == 0 {
		t.Fatal("pack-decode histogram observed nothing")
	}
}

// TestTelemetryDeltaChain: a delta-encoded dataset reports its longest
// consecutive-delta run and the snapshot/delta step split.
func TestTelemetryDeltaChain(t *testing.T) {
	dir := t.TempDir()
	c, a := makeDataset(t, 12, 2)
	if err := WriteDatasetOptions(dir, c, a, Options{Pack: 6, Bin: 2, SnapshotEvery: 4}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tel := s.Telemetry()
	// Steps 0..11, snapshots at pack boundaries (0,6) and every 4th (0,4,8):
	// snapshots {0,4,6,8}, deltas elsewhere — longest run is 3 (9,10,11).
	if got := tel.maxChainDepth.Load(); got != 3 {
		t.Fatalf("maxChainDepth = %d, want 3", got)
	}
	if tel.snapshotSteps.Load() != 4 || tel.deltaSteps.Load() != 8 {
		t.Fatalf("snapshot/delta split = %d/%d, want 4/8", tel.snapshotSteps.Load(), tel.deltaSteps.Load())
	}
}

// TestClassCacheAttribution: loads through ClassSource wrappers attribute
// pack hits and misses to the issuing query class.
func TestClassCacheAttribution(t *testing.T) {
	dir := t.TempDir()
	c, a := makeDataset(t, 8, 2)
	if err := WriteDataset(dir, c, a, 4, 2); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewInstanceCache(s, 2)
	tdsp := cache.ClassSource("tdsp")
	topn := cache.ClassSource("topn")
	if tdsp.Timesteps() != 8 {
		t.Fatalf("Timesteps = %d", tdsp.Timesteps())
	}

	if _, err := tdsp.Load(0); err != nil { // pack 0: miss
		t.Fatal(err)
	}
	if _, err := tdsp.Load(1); err != nil { // pack 0: hit
		t.Fatal(err)
	}
	if _, err := topn.Load(2); err != nil { // pack 0: hit
		t.Fatal(err)
	}
	if _, err := topn.Load(4); err != nil { // pack 1: miss
		t.Fatal(err)
	}

	st := cache.Stats()
	if got := st.ByClass["tdsp"]; got.Hits != 1 || got.Misses != 1 {
		t.Fatalf("tdsp attribution = %+v", got)
	}
	if got := st.ByClass["topn"]; got.Hits != 1 || got.Misses != 1 {
		t.Fatalf("topn attribution = %+v", got)
	}
	// Unattributed loads (plain cache.Load) must not invent a class.
	if _, err := cache.Load(5); err != nil {
		t.Fatal(err)
	}
	st = cache.Stats()
	if len(st.ByClass) != 2 {
		t.Fatalf("ByClass grew to %v", st.ByClass)
	}
}
