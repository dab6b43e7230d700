package gofs

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"tsgraph/internal/gen"
	"tsgraph/internal/graph"
	"tsgraph/internal/partition"
)

// appendFrom grows the dataset at dir with steps [from, to) of a reference
// collection built by makeDataset, returning the store.
func appendFrom(t *testing.T, dir string, from, to int) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	app, err := NewAppender(s)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	c, _ := makeDataset(t, to, 3)
	for step := from; step < to; step++ {
		if err := app.Append(c.Instance(step)); err != nil {
			t.Fatalf("append step %d: %v", step, err)
		}
	}
	return s
}

// readDirFiles maps file name -> content for every regular file directly
// under dir.
func readDirFiles(tb testing.TB, dir string) map[string][]byte {
	tb.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// TestAppendMatchesOffline: growing a dataset live, one timestep at a
// time, leaves after every append a directory byte-identical, file for
// file and tail pack included, to an offline WriteDataset of the same
// prefix — for both the full and the delta-encoded record layouts.
func TestAppendMatchesOffline(t *testing.T) {
	const steps, k = 12, 3
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"full", Options{Pack: 4, Bin: 2}},
		{"delta", Options{Pack: 4, Bin: 2, SnapshotEvery: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, a := makeDataset(t, steps, k)
			// Live: seed with three steps offline, so the first append
			// completes a partial pack, then append the rest.
			live := t.TempDir()
			if err := WriteDatasetOptions(live, prefixOf(t, c, 3), a, tc.opts); err != nil {
				t.Fatal(err)
			}
			s, err := Open(live)
			if err != nil {
				t.Fatal(err)
			}
			app, err := NewAppender(s)
			if err != nil {
				t.Fatal(err)
			}
			defer app.Close()
			for step := 3; step < steps; step++ {
				if err := app.Append(c.Instance(step)); err != nil {
					t.Fatalf("append step %d: %v", step, err)
				}
				offline := t.TempDir()
				if err := WriteDatasetOptions(offline, prefixOf(t, c, step+1), a, tc.opts); err != nil {
					t.Fatal(err)
				}
				sameFiles(t, offline, live)
			}

			reopened, err := Open(live)
			if err != nil {
				t.Fatal(err)
			}
			got, err := reopened.LoadAll()
			if err != nil {
				t.Fatal(err)
			}
			collectionsEqual(t, c, got)
		})
	}
}

// prefixOf returns the first n instances of c as a collection.
func prefixOf(tb testing.TB, c *graph.Collection, n int) *graph.Collection {
	tb.Helper()
	out := graph.NewCollection(c.Template, c.T0, c.Delta)
	for s := 0; s < n; s++ {
		if err := out.Append(c.Instance(s)); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// sameFiles fails unless the dataset directories hold the same file names
// with the same bytes (a WAL, which only a live directory has, aside).
func sameFiles(tb testing.TB, want, got string) {
	tb.Helper()
	w, g := hashTree(tb, want, ""), hashTree(tb, got, "")
	delete(g, "/"+WALName)
	for name, sum := range w {
		if g[name] != sum {
			tb.Errorf("%s: offline sha256 %.12s, live %.12q", name, sum, g[name])
		}
	}
	for name := range g {
		if _, ok := w[name]; !ok {
			tb.Errorf("%s: only in the live directory", name)
		}
	}
}

// TestAppendPartialTail: a dataset whose tail pack is incomplete loads
// correctly through a fresh Open, and continues growing after an Appender
// restart (rehydration) with byte-identical results to an uninterrupted
// appender.
func TestAppendPartialTail(t *testing.T) {
	const steps, k = 11, 3 // pack 4 -> tail pack holds 3 of 4 steps
	opts := Options{Pack: 4, Bin: 2, SnapshotEvery: 3}
	c, a := makeDataset(t, steps, k)

	// Uninterrupted: one appender session for steps 4..10.
	uni := t.TempDir()
	seed, _ := makeDataset(t, 4, k)
	if err := WriteDatasetOptions(uni, seed, a, opts); err != nil {
		t.Fatal(err)
	}
	appendFrom(t, uni, 4, steps)

	// Interrupted: stop after step 7, reopen (rehydrates mid-pack), finish.
	inter := t.TempDir()
	if err := WriteDatasetOptions(inter, seed, a, opts); err != nil {
		t.Fatal(err)
	}
	appendFrom(t, inter, 4, 8)
	appendFrom(t, inter, 8, steps)

	uniFiles := readDirFiles(t, filepath.Join(uni, sliceDir))
	interFiles := readDirFiles(t, filepath.Join(inter, sliceDir))
	for name, want := range uniFiles {
		got, ok := interFiles[name]
		if !ok {
			t.Fatalf("interrupted run missing %s", name)
		}
		if string(want) != string(got) {
			t.Errorf("%s differs between uninterrupted and restarted appender", name)
		}
	}

	s, err := Open(inter)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	collectionsEqual(t, c, got)
}

// TestAppendLiveReaders: a Loader and an InstanceCache opened before
// appends keep working as the dataset grows — the cache heals its stale
// tail-pack entry instead of indexing out of range, and Delta stays nil
// rather than wrong for timesteps a stale entry does not cover.
func TestAppendLiveReaders(t *testing.T) {
	const k = 3
	opts := Options{Pack: 4, Bin: 2, SnapshotEvery: 3}
	dir := t.TempDir()
	seed, a := makeDataset(t, 5, k)
	if err := WriteDatasetOptions(dir, seed, a, opts); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	app, err := NewAppender(s)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewInstanceCache(s, 4)
	loader := NewLoader(s)
	// Warm the tail pack (timesteps 4) at its 1-step length.
	if _, err := cache.Load(4); err != nil {
		t.Fatal(err)
	}
	if _, err := loader.Load(4); err != nil {
		t.Fatal(err)
	}

	c, _ := makeDataset(t, 8, k)
	for step := 5; step < 8; step++ {
		if err := app.Append(c.Instance(step)); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Timesteps() != 8 {
		t.Fatalf("cache sees %d timesteps, want 8", cache.Timesteps())
	}
	for step := 5; step < 8; step++ {
		ins, err := cache.Load(step)
		if err != nil {
			t.Fatalf("cache load %d after append: %v", step, err)
		}
		if ins.Timestep != step {
			t.Fatalf("cache load %d returned timestep %d", step, ins.Timestep)
		}
		if ins, err := loader.Load(step); err != nil || ins.Timestep != step {
			t.Fatalf("loader load %d after append: %v", step, err)
		}
	}
	if d := cache.Delta(6); d == nil || d.Timestep != 6 {
		t.Fatalf("Delta(6) = %+v after heal", d)
	}
}

// TestTrimSuperseded: the temp files an interrupted publish leaves are
// swept, and nothing else is touched.
func TestTrimSuperseded(t *testing.T) {
	dir := t.TempDir()
	seed, a := makeDataset(t, 5, 3)
	if err := WriteDatasetOptions(dir, seed, a, Options{Pack: 4, Bin: 2, SnapshotEvery: 3}); err != nil {
		t.Fatal(err)
	}
	before := hashTree(t, dir, "")
	if err := os.WriteFile(filepath.Join(dir, ".manifest_123"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	removed, freed, err := s.TrimSuperseded()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || freed != 4 {
		t.Fatalf("swept %d files / %d bytes, want 1 / 4", removed, freed)
	}
	after := hashTree(t, dir, "")
	if len(after) != len(before) {
		t.Fatalf("%d files after the sweep, want the %d written", len(after), len(before))
	}
	for name, sum := range before {
		if after[name] != sum {
			t.Errorf("%s changed by the sweep", name)
		}
	}
}

// TestAppendBytesPerDeltaStep measures what one live append writes at the
// benchmark's scale: a 160×160 road network in four partitions, packs of
// 8, a snapshot every 4 steps, and 1 % of edge latencies changed per
// step. A delta step appends one record per bin and nothing else.
func TestAppendBytesPerDeltaStep(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 25.6k-vertex dataset")
	}
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 160, Cols: 160, RemoveFrac: 0.15, ShortcutFrac: 0.01, Seed: 42})
	c, err := gen.RandomLatencies(g, gen.LatencyConfig{Timesteps: 1, Delta: 60, Min: 1, Max: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.RandomLoads(c, 2, 0, 100); err != nil {
		t.Fatal(err)
	}
	a, err := (partition.Multilevel{Seed: 1}).Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mustWrite(t, dir, c, a, Options{Pack: 8, Bin: 5, SnapshotEvery: 4})
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	app, err := NewAppender(s)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	rng := rand.New(rand.NewSource(3))
	li := g.EdgeSchema().Index(gen.AttrLatency)
	for step := 1; step < 4; step++ { // steps 1-3 are deltas
		ins := app.Head().Clone()
		ins.Timestep, ins.Time = step, int64(step)*60
		for i := 0; i < g.NumEdges()/100; i++ {
			ins.EdgeCols[li].Floats[rng.Intn(g.NumEdges())] = 1 + 19*rng.Float64()
		}
		before := dirBytes(t, filepath.Join(dir, sliceDir))
		if err := app.Append(ins); err != nil {
			t.Fatal(err)
		}
		grew := dirBytes(t, filepath.Join(dir, sliceDir)) - before
		t.Logf("delta step %d appended %d bytes of slice records", step, grew)
		if grew > 50_000 {
			t.Errorf("delta step %d appended %d bytes, want <= 50 KB", step, grew)
		}
	}
}

// TestAppendRejectsBadInstances: wrong timestep or time never touches disk.
func TestAppendRejectsBadInstances(t *testing.T) {
	const k = 3
	dir := t.TempDir()
	seed, a := makeDataset(t, 4, k)
	if err := WriteDatasetOptions(dir, seed, a, Options{Pack: 4, Bin: 2}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	app, err := NewAppender(s)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := makeDataset(t, 8, k)
	wrongStep := c.Instance(6) // want timestep 4
	if err := app.Append(wrongStep); err == nil {
		t.Fatal("append with wrong timestep succeeded")
	}
	bad := c.Instance(4).Clone()
	bad.Time += 1
	if err := app.Append(bad); err == nil {
		t.Fatal("append with wrong wall time succeeded")
	}
	if s.Timesteps() != 4 {
		t.Fatalf("failed appends advanced the watermark to %d", s.Timesteps())
	}
}
