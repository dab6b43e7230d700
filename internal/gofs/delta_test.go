package gofs

import (
	"io/fs"
	"math/rand"
	"path/filepath"
	"testing"

	"tsgraph/internal/gen"
	"tsgraph/internal/graph"
	"tsgraph/internal/partition"
)

// writeBoth writes the same collection as a full-format (v1) and a
// delta-encoded (v2) dataset and returns the two directories.
func writeBoth(tb testing.TB, c *graph.Collection, a *partition.Assignment, pack, bin, snapEvery int) (fullDir, deltaDir string) {
	tb.Helper()
	fullDir, deltaDir = tb.TempDir(), tb.TempDir()
	if err := WriteDatasetOptions(fullDir, c, a, Options{Pack: pack, Bin: bin}); err != nil {
		tb.Fatal(err)
	}
	if err := WriteDatasetOptions(deltaDir, c, a, Options{Pack: pack, Bin: bin, SnapshotEvery: snapEvery}); err != nil {
		tb.Fatal(err)
	}
	return fullDir, deltaDir
}

func dirBytes(tb testing.TB, dir string) int64 {
	tb.Helper()
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return total
}

func TestDeltaRoundTrip(t *testing.T) {
	c, a := makeDataset(t, 12, 3)
	_, deltaDir := writeBoth(t, c, a, 4, 2, 3)
	s, err := Open(deltaDir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Manifest().SnapshotEvery != 3 {
		t.Fatalf("SnapshotEvery = %d, want 3", s.Manifest().SnapshotEvery)
	}
	got, err := s.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	collectionsEqual(t, c, got)

	l := NewLoader(s)
	if _, err := l.Load(11); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.DeltaSteps == 0 || st.SnapshotSteps == 0 {
		t.Fatalf("step-kind counters not accounted: snapshots %d, deltas %d", st.SnapshotSteps, st.DeltaSteps)
	}
	if d := l.Delta(8); d == nil {
		t.Fatal("Delta(8) = nil inside cached pack of a delta store")
	}
	if _, err := l.Load(0); err != nil {
		t.Fatal(err)
	}
	if d := l.Delta(0); d != nil {
		t.Fatalf("Delta(0) = %+v, want nil (no predecessor)", d)
	}
	// Snapshot-boundary timesteps (3, 6, 9 with SnapshotEvery 3; 4, 8 as
	// pack starts) still carry change summaries.
	for _, ts := range []int{3, 4} {
		if _, err := l.Load(ts); err != nil {
			t.Fatal(err)
		}
		if l.Delta(ts) == nil {
			t.Fatalf("Delta(%d) = nil at a snapshot timestep", ts)
		}
	}
}

func TestDeltaMatchesDiff(t *testing.T) {
	c, a := makeDataset(t, 10, 2)
	_, deltaDir := writeBoth(t, c, a, 5, 2, 2)
	s, err := Open(deltaDir)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(s)
	for ts := 1; ts < 10; ts++ {
		if _, err := l.Load(ts); err != nil {
			t.Fatal(err)
		}
		got := l.Delta(ts)
		if got == nil {
			t.Fatalf("Delta(%d) = nil", ts)
		}
		want := graph.DiffInstances(c.Instance(ts-1), c.Instance(ts))
		if len(got.Verts) != len(want.Verts) || len(got.Edges) != len(want.Edges) {
			t.Fatalf("Delta(%d): %d verts/%d edges, diff says %d/%d",
				ts, len(got.Verts), len(got.Edges), len(want.Verts), len(want.Edges))
		}
		for i := range want.Verts {
			if got.Verts[i] != want.Verts[i] {
				t.Fatalf("Delta(%d).Verts[%d] = %d, want %d", ts, i, got.Verts[i], want.Verts[i])
			}
		}
		for i := range want.Edges {
			if got.Edges[i] != want.Edges[i] {
				t.Fatalf("Delta(%d).Edges[%d] = %d, want %d", ts, i, got.Edges[i], want.Edges[i])
			}
		}
	}
}

func TestDeltaEmptySteps(t *testing.T) {
	c, a := makeDataset(t, 8, 2)
	// Freeze timesteps 1-3 to step 0's values: their deltas are empty.
	for s := 1; s <= 3; s++ {
		src, dst := c.Instance(0), c.Instance(s)
		for i := range src.VertexCols {
			dst.VertexCols[i] = src.VertexCols[i].Clone()
		}
		for i := range src.EdgeCols {
			dst.EdgeCols[i] = src.EdgeCols[i].Clone()
		}
	}
	_, deltaDir := writeBoth(t, c, a, 4, 2, 4)
	s, err := Open(deltaDir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	collectionsEqual(t, c, got)
	l := NewLoader(s)
	if _, err := l.Load(2); err != nil {
		t.Fatal(err)
	}
	for ts := 1; ts <= 3; ts++ {
		d := l.Delta(ts)
		if d == nil {
			t.Fatalf("Delta(%d) = nil, want empty non-nil", ts)
		}
		if len(d.Verts) != 0 || len(d.Edges) != 0 {
			t.Fatalf("Delta(%d) = %d verts/%d edges, want empty", ts, len(d.Verts), len(d.Edges))
		}
	}
}

func TestDeltaSequentialVsRandomAccess(t *testing.T) {
	c, a := makeDataset(t, 12, 3)
	_, deltaDir := writeBoth(t, c, a, 4, 2, 3)
	s, err := Open(deltaDir)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential sweep.
	seq := make([]*graph.Instance, 12)
	l := NewLoader(s)
	for ts := 0; ts < 12; ts++ {
		ins, err := l.Load(ts)
		if err != nil {
			t.Fatal(err)
		}
		seq[ts] = ins.Clone()
	}
	// Random access through a fresh loader and through the cache: pack
	// decode order must not matter because every pack starts at a snapshot.
	rng := rand.New(rand.NewSource(9))
	order := rng.Perm(12)
	rl := NewLoader(s)
	cache := NewInstanceCache(s, 2)
	for _, ts := range order {
		for name, src := range map[string]func(int) (*graph.Instance, error){"loader": rl.Load, "cache": cache.Load} {
			ins, err := src(ts)
			if err != nil {
				t.Fatalf("%s Load(%d): %v", name, ts, err)
			}
			w := seq[ts]
			for ci := range w.EdgeCols {
				for e := range w.EdgeCols[ci].Floats {
					if ins.EdgeCols[ci].Floats[e] != w.EdgeCols[ci].Floats[e] {
						t.Fatalf("%s step %d edge col %d slot %d differs from sequential sweep", name, ts, ci, e)
					}
				}
			}
			for ci := range w.VertexCols {
				if w.VertexCols[ci].Type != graph.TStringList {
					continue
				}
				for v := range w.VertexCols[ci].StringLists {
					wl, gl := w.VertexCols[ci].StringLists[v], ins.VertexCols[ci].StringLists[v]
					if len(wl) != len(gl) {
						t.Fatalf("%s step %d vertex %d list len differs", name, ts, v)
					}
					for j := range wl {
						if wl[j] != gl[j] {
							t.Fatalf("%s step %d vertex %d tag %d differs", name, ts, v, j)
						}
					}
				}
			}
		}
	}
}

// TestMixedFormatLoad: one reader loads a full-record and a delta-record
// dataset of the same collection and sees identical instances; the full
// store just reports no change summaries.
func TestMixedFormatLoad(t *testing.T) {
	c, a := makeDataset(t, 10, 2)
	fullDir, deltaDir := writeBoth(t, c, a, 4, 2, 2)
	for _, dir := range []string{fullDir, deltaDir} {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.LoadAll()
		if err != nil {
			t.Fatal(err)
		}
		collectionsEqual(t, c, got)
	}
	fs, err := Open(fullDir)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(fs)
	if _, err := l.Load(5); err != nil {
		t.Fatal(err)
	}
	if d := l.Delta(5); d != nil {
		t.Fatalf("full-format store reported a delta: %+v", d)
	}
	if n := l.Stats().DeltaSteps; n != 0 {
		t.Fatalf("full-format store counted %d delta steps", n)
	}
}

// TestDeltaShrinkLowChurn pins the acceptance bound: at 1% edge churn the
// delta layout must shrink the dataset at least 5x on disk.
func TestDeltaShrinkLowChurn(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 16, Cols: 16, RemoveFrac: 0.1, Seed: 3})
	c, err := gen.RandomLatencies(g, gen.LatencyConfig{
		Timesteps: 30, T0: 0, Delta: 60, Min: 1, Max: 100, Seed: 4, Churn: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := (partition.Multilevel{Seed: 6}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	fullDir, deltaDir := writeBoth(t, c, a, 10, 2, 10)
	full, delta := dirBytes(t, fullDir), dirBytes(t, deltaDir)
	if delta <= 0 || full/delta < 5 {
		t.Fatalf("delta store %d bytes vs full %d: shrink %.1fx, want >= 5x",
			delta, full, float64(full)/float64(delta))
	}
	// And it still decodes to the same collection.
	s, err := Open(deltaDir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	collectionsEqual(t, c, got)
}

// FuzzDeltaRoundTrip drives full↔delta encode/decode through random
// (seed, pack, snapshot-interval, length) combinations, covering empty
// deltas, snapshot-boundary steps, and ragged final packs.
func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3), uint8(12))
	f.Add(int64(7), uint8(1), uint8(1), uint8(5))
	f.Add(int64(11), uint8(10), uint8(7), uint8(20))
	f.Add(int64(3), uint8(3), uint8(10), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, pack, snapEvery, steps uint8) {
		nSteps := int(steps)%20 + 1
		nPack := int(pack)%10 + 1
		nSnap := int(snapEvery)%10 + 1
		g := gen.RoadNetwork(gen.RoadConfig{Rows: 6, Cols: 6, RemoveFrac: 0.1, Seed: 3})
		c, err := gen.RandomLatencies(g, gen.LatencyConfig{
			Timesteps: nSteps, T0: 0, Delta: 60, Min: 1, Max: 100,
			Seed: seed, Churn: 0.1,
		})
		if err != nil {
			t.Fatal(err)
		}
		sir, err := gen.SIRTweets(g, gen.SIRConfig{
			Timesteps: nSteps, T0: 0, Delta: 60, Memes: []string{"#m"},
			HitProb: 0.3, Seed: seed + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		ti := g.VertexSchema().Index(gen.AttrTweets)
		for s := 0; s < nSteps; s++ {
			c.Instance(s).VertexCols[ti] = sir.Collection.Instance(s).VertexCols[ti]
		}
		a, err := (partition.Multilevel{Seed: 6}).Partition(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := WriteDatasetOptions(dir, c, a, Options{Pack: nPack, Bin: 2, SnapshotEvery: nSnap}); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.LoadAll()
		if err != nil {
			t.Fatal(err)
		}
		collectionsEqual(t, c, got)
	})
}
