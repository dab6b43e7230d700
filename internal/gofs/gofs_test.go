package gofs

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"tsgraph/internal/gen"
	"tsgraph/internal/graph"
	"tsgraph/internal/partition"
)

// makeDataset builds a small meme+latency dataset and its assignment.
func makeDataset(tb testing.TB, steps, k int) (*graph.Collection, *partition.Assignment) {
	tb.Helper()
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 8, Cols: 8, RemoveFrac: 0.1, Seed: 3})
	c, err := gen.RandomLatencies(g, gen.LatencyConfig{Timesteps: steps, T0: 1000, Delta: 60, Min: 1, Max: 100, Seed: 4})
	if err != nil {
		tb.Fatal(err)
	}
	// Overlay tweets so string lists are exercised.
	res, err := gen.SIRTweets(g, gen.SIRConfig{Timesteps: steps, T0: 1000, Delta: 60, Memes: []string{"#m"}, HitProb: 0.4, Seed: 5})
	if err != nil {
		tb.Fatal(err)
	}
	ti := g.VertexSchema().Index(gen.AttrTweets)
	for s := 0; s < steps; s++ {
		c.Instance(s).VertexCols[ti] = res.Collection.Instance(s).VertexCols[ti]
	}
	a, err := (partition.Multilevel{Seed: 6}).Partition(g, k)
	if err != nil {
		tb.Fatal(err)
	}
	return c, a
}

func collectionsEqual(tb testing.TB, want, got *graph.Collection) {
	tb.Helper()
	if want.NumInstances() != got.NumInstances() {
		tb.Fatalf("instances: want %d, got %d", want.NumInstances(), got.NumInstances())
	}
	g := want.Template
	for s := 0; s < want.NumInstances(); s++ {
		wi, gi := want.Instance(s), got.Instance(s)
		if wi.Time != gi.Time || wi.Timestep != gi.Timestep {
			tb.Fatalf("step %d meta mismatch", s)
		}
		for ci := range wi.VertexCols {
			wc, gc := &wi.VertexCols[ci], &gi.VertexCols[ci]
			switch wc.Type {
			case graph.TFloat:
				for v := range wc.Floats {
					if wc.Floats[v] != gc.Floats[v] {
						tb.Fatalf("step %d vcol %d vertex %d: %v != %v", s, ci, v, wc.Floats[v], gc.Floats[v])
					}
				}
			case graph.TStringList:
				for v := range wc.StringLists {
					if len(wc.StringLists[v]) != len(gc.StringLists[v]) {
						tb.Fatalf("step %d vertex %d list len %d != %d", s, v, len(wc.StringLists[v]), len(gc.StringLists[v]))
					}
					for j := range wc.StringLists[v] {
						if wc.StringLists[v][j] != gc.StringLists[v][j] {
							tb.Fatalf("step %d vertex %d tag %d mismatch", s, v, j)
						}
					}
				}
			}
		}
		for ci := range wi.EdgeCols {
			wc, gc := &wi.EdgeCols[ci], &gi.EdgeCols[ci]
			if wc.Type == graph.TFloat {
				for e := range wc.Floats {
					if wc.Floats[e] != gc.Floats[e] {
						tb.Fatalf("step %d ecol %d edge %d: %v != %v", s, ci, e, wc.Floats[e], gc.Floats[e])
					}
				}
			}
		}
	}
	_ = g
}

func TestWriteOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, a := makeDataset(t, 12, 3)
	if err := WriteDataset(dir, c, a, 5, 2); err != nil {
		t.Fatalf("WriteDataset: %v", err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if s.Timesteps() != 12 {
		t.Errorf("Timesteps = %d", s.Timesteps())
	}
	if s.Manifest().Pack != 5 || s.Manifest().Bin != 2 {
		t.Errorf("manifest pack/bin = %d/%d", s.Manifest().Pack, s.Manifest().Bin)
	}
	if s.Template().NumVertices() != c.Template.NumVertices() {
		t.Errorf("template vertices %d != %d", s.Template().NumVertices(), c.Template.NumVertices())
	}
	got, err := s.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	collectionsEqual(t, c, got)
	// Assignment survives.
	ra := s.Assignment()
	if ra.K != a.K {
		t.Errorf("assignment K %d != %d", ra.K, a.K)
	}
	for v := range a.Parts {
		if ra.Parts[v] != a.Parts[v] {
			t.Fatalf("assignment differs at %d", v)
		}
	}
}

func TestLoaderPackCaching(t *testing.T) {
	dir := t.TempDir()
	c, a := makeDataset(t, 20, 2)
	if err := WriteDataset(dir, c, a, 10, 5); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(s)
	reads := s.Telemetry().SliceReads
	if _, err := l.Load(0); err != nil {
		t.Fatal(err)
	}
	afterFirst := reads()
	if afterFirst == 0 {
		t.Fatal("first load read no slice files")
	}
	// Steps 1..9 are in the same pack: no further reads.
	for step := 1; step < 10; step++ {
		if _, err := l.Load(step); err != nil {
			t.Fatal(err)
		}
	}
	if reads() != afterFirst {
		t.Errorf("reads grew within a pack: %d -> %d", afterFirst, reads())
	}
	// Step 10 starts a new pack: reads happen.
	if _, err := l.Load(10); err != nil {
		t.Fatal(err)
	}
	if reads() != 2*afterFirst {
		t.Errorf("second pack reads = %d, want %d", reads()-afterFirst, afterFirst)
	}
	// Going back also re-reads (only one pack cached).
	if _, err := l.Load(3); err != nil {
		t.Fatal(err)
	}
	if reads() != 3*afterFirst {
		t.Errorf("re-load of evicted pack: reads = %d", reads())
	}

	// A sequential sweep decodes each pack once and keeps one resident.
	dir = t.TempDir()
	c, a = makeDataset(t, 12, 2)
	if err := WriteDataset(dir, c, a, 5, 5); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	l = NewLoader(s)
	for step := 0; step < 12; step++ {
		if _, err := l.Load(step); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.PackLoads != 3 || st.Resident != 1 {
		t.Errorf("sweep of 3 packs: %d pack loads, %d resident, want 3 and 1", st.PackLoads, st.Resident)
	}
}

func TestLoaderRange(t *testing.T) {
	dir := t.TempDir()
	c, a := makeDataset(t, 7, 2)
	if err := WriteDataset(dir, c, a, 3, 2); err != nil {
		t.Fatal(err)
	}
	s, _ := Open(dir)
	l := NewLoader(s)
	if _, err := l.Load(-1); err == nil {
		t.Error("negative timestep should error")
	}
	if _, err := l.Load(7); err == nil {
		t.Error("out-of-range timestep should error")
	}
	// Last, short pack (step 6 alone).
	ins, err := l.Load(6)
	if err != nil {
		t.Fatal(err)
	}
	if ins.Timestep != 6 {
		t.Errorf("Timestep = %d", ins.Timestep)
	}
}

func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	c, a := makeDataset(t, 4, 2)
	if err := WriteDataset(dir, c, a, 2, 3); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of every slice file; loading must fail
	// with a checksum (or structural) error, never succeed silently.
	slices, err := filepath.Glob(filepath.Join(dir, "slices", "*.slice"))
	if err != nil || len(slices) == 0 {
		t.Fatalf("no slice files found: %v", err)
	}
	data, err := os.ReadFile(slices[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(slices[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadAll(); err == nil {
		t.Fatal("corrupted slice loaded without error")
	}
}

func TestCorruptTemplateDetected(t *testing.T) {
	dir := t.TempDir()
	c, a := makeDataset(t, 2, 2)
	if err := WriteDataset(dir, c, a, 2, 2); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "template.gofs")
	data, _ := os.ReadFile(path)
	data[len(data)-10] ^= 0x01
	os.WriteFile(path, data, 0o644)
	if _, err := Open(dir); err == nil {
		t.Fatal("corrupted template opened without error")
	}
}

func TestOpenMissingDir(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("Open of missing dataset should error")
	}
}

func TestBadMagicRejected(t *testing.T) {
	dir := t.TempDir()
	c, a := makeDataset(t, 2, 2)
	if err := WriteDataset(dir, c, a, 2, 2); err != nil {
		t.Fatal(err)
	}
	// Swap template and manifest: both reads must fail on magic.
	tp := filepath.Join(dir, "template.gofs")
	mp := filepath.Join(dir, "manifest.gofs")
	td, _ := os.ReadFile(tp)
	md, _ := os.ReadFile(mp)
	os.WriteFile(tp, md, 0o644)
	os.WriteFile(mp, td, 0o644)
	if _, err := Open(dir); err == nil {
		t.Fatal("swapped files opened without error")
	}
}

// TestSliceRoundTripProperty: random small collections round trip exactly
// through the store for random pack/bin parameters.
func TestSliceRoundTripProperty(t *testing.T) {
	base := t.TempDir()
	iter := 0
	f := func(seed int64, packRaw, binRaw, kRaw uint8) bool {
		iter++
		rng := rand.New(rand.NewSource(seed))
		steps := 1 + rng.Intn(8)
		pack := 1 + int(packRaw)%6
		bin := 1 + int(binRaw)%4
		k := 1 + int(kRaw)%3
		g := gen.SmallWorld(gen.SmallWorldConfig{N: 20 + rng.Intn(30), M: 2, Seed: seed})
		c, err := gen.RandomLatencies(g, gen.LatencyConfig{Timesteps: steps, Delta: 10, Min: 0, Max: 9, Seed: seed + 1})
		if err != nil {
			return false
		}
		a, err := (partition.BFSGrow{}).Partition(g, k)
		if err != nil {
			return false
		}
		dir := filepath.Join(base, fmt.Sprintf("ds%d", iter))
		if err := WriteDataset(dir, c, a, pack, bin); err != nil {
			return false
		}
		s, err := Open(dir)
		if err != nil {
			return false
		}
		got, err := s.LoadAll()
		if err != nil {
			return false
		}
		for step := 0; step < steps; step++ {
			w := c.Instance(step).EdgeFloats(g, gen.AttrLatency)
			r := got.Instance(step).EdgeFloats(s.Template(), gen.AttrLatency)
			for e := range w {
				if w[e] != r[e] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteDatasetDefaults(t *testing.T) {
	dir := t.TempDir()
	c, a := makeDataset(t, 3, 2)
	if err := WriteDataset(dir, c, a, 0, 0); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Manifest().Pack != DefaultPack || s.Manifest().Bin != DefaultBin {
		t.Errorf("defaults not applied: pack=%d bin=%d", s.Manifest().Pack, s.Manifest().Bin)
	}
}

func TestWriteDatasetRejectsBadAssignment(t *testing.T) {
	dir := t.TempDir()
	c, _ := makeDataset(t, 2, 2)
	bad := &partition.Assignment{K: 2, Parts: make([]int32, 1)}
	if err := WriteDataset(dir, c, bad, 2, 2); err == nil {
		t.Fatal("bad assignment accepted")
	}
}

func TestTruncatedSliceDetected(t *testing.T) {
	dir := t.TempDir()
	c, a := makeDataset(t, 4, 2)
	if err := WriteDataset(dir, c, a, 2, 3); err != nil {
		t.Fatal(err)
	}
	slices, _ := filepath.Glob(filepath.Join(dir, "slices", "*.slice"))
	data, err := os.ReadFile(slices[0])
	if err != nil {
		t.Fatal(err)
	}
	// Chop the file mid-payload: the loader must fail, not return zeroes.
	if err := os.WriteFile(slices[0], data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadAll(); err == nil {
		t.Fatal("truncated slice loaded without error")
	}
}

func TestTruncatedManifestDetected(t *testing.T) {
	dir := t.TempDir()
	c, a := makeDataset(t, 2, 2)
	if err := WriteDataset(dir, c, a, 2, 2); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "manifest.gofs")
	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:len(data)-6], 0o644)
	if _, err := Open(dir); err == nil {
		t.Fatal("truncated manifest opened without error")
	}
}
