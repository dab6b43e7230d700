package gofs

import (
	"encoding/binary"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"tsgraph/internal/gen"
	"tsgraph/internal/graph"
	"tsgraph/internal/partition"
)

// TestCorruptLengthBoundedAlloc: a slice file whose length prefix claims
// 2^30 of something it does not hold fails after allocating about what it
// read, not the gigabytes the prefix asks for. In a legacy file the
// prefix is the vertex list's; in a framed file it is the header frame's.
func TestCorruptLengthBoundedAlloc(t *testing.T) {
	c, a := makeDataset(t, 4, 2)
	framed := t.TempDir()
	mustWrite(t, framed, c, a, Options{Pack: 4, Bin: 2})
	legacy := writeFiles(t, legacyFiles(t, "road-v1"))
	for _, tc := range []struct {
		name, dir string
		head      []uint32
	}{
		{"legacy", legacy, []uint32{sliceMagic, formatVersion, 0, 0, 0, 3}},
		{"framed", framed, []uint32{sliceMagic, formatVersionFramed, 1 << 30}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(tc.dir)
			if err != nil {
				t.Fatal(err)
			}
			var file []byte
			for _, v := range tc.head {
				file = binary.LittleEndian.AppendUint32(file, v)
			}
			file = binary.LittleEndian.AppendUint64(file, 1<<30)
			file = append(file, make([]byte, 64-len(file))...)
			if err := os.WriteFile(slicePath(tc.dir, 0, 0, 0), file, 0o644); err != nil {
				t.Fatal(err)
			}

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, _, err = s.ReadPackDeltas(0, nil)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("ReadPackDeltas accepted a slice claiming 2^30 of something in 64 bytes")
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Fatalf("decode allocated %d bytes before failing, want < 1 MB", grew)
			}
		})
	}
}

// fuzzSliceDataset writes a 3×3 road dataset in one partition and one bin,
// one pack of three steps, so the whole pack is one slice file; it returns
// the collection and the dataset's files by relative path.
func fuzzSliceDataset(tb testing.TB, snapEvery int) (*graph.Collection, map[string][]byte) {
	tb.Helper()
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 3, Cols: 3, Seed: 1})
	c, err := gen.RandomLatencies(g, gen.LatencyConfig{Timesteps: 3, Delta: 60, Min: 1, Max: 9, Seed: 2, Churn: 0.3})
	if err != nil {
		tb.Fatal(err)
	}
	sir, err := gen.SIRTweets(g, gen.SIRConfig{Timesteps: 3, Delta: 60, Memes: []string{"#m"}, HitProb: 0.5, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	ti := g.VertexSchema().Index(gen.AttrTweets)
	for s := 0; s < 3; s++ {
		c.Instance(s).VertexCols[ti] = sir.Collection.Instance(s).VertexCols[ti]
	}
	dir := tb.TempDir()
	a := &partition.Assignment{K: 1, Parts: make([]int32, g.NumVertices())}
	if err := WriteDatasetOptions(dir, c, a, Options{Pack: 3, Bin: 10, SnapshotEvery: snapEvery}); err != nil {
		tb.Fatal(err)
	}
	files := map[string][]byte{}
	for _, rel := range []string{templateFile, manifestFile, filepath.Join(sliceDir, "p0_b0_t0.slice")} {
		data, err := os.ReadFile(filepath.Join(dir, rel))
		if err != nil {
			tb.Fatal(err)
		}
		files[rel] = data
	}
	return c, files
}

// FuzzSliceDecode feeds the slice decoder bytes it did not write: the
// fuzzed bytes replace the first slice file of a valid dataset — framed
// with full records (kind 0) or delta records (1), or the legacy version-1
// (2) or version-2 (3) fixture — and ReadPackDeltas must return an error or
// exactly the stored instances, never panic or hang.
func FuzzSliceDecode(f *testing.F) {
	slice := filepath.Join(sliceDir, "p0_b0_t0.slice")
	type base struct {
		c     *graph.Collection
		files map[string][]byte
	}
	var bases []base
	for _, snapEvery := range []int{0, 2} {
		c, files := fuzzSliceDataset(f, snapEvery)
		bases = append(bases, base{c, files})
	}
	legacy, _ := legacyRoad(f, 7)
	for _, name := range []string{"road-v1", "road-v2"} {
		bases = append(bases, base{legacy, legacyFiles(f, name)})
	}
	for kind, b := range bases {
		f.Add(uint8(kind), b.files[slice])
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		b := bases[int(kind)%len(bases)]
		files := maps.Clone(b.files)
		files[slice] = data
		s, err := Open(writeFiles(t, files))
		if err != nil {
			t.Fatal(err)
		}
		instances, _, _, err := s.ReadPackDeltas(0, nil)
		if err != nil {
			return
		}
		got := graph.NewCollection(s.Template(), b.c.T0, b.c.Delta)
		for _, ins := range instances {
			if err := got.Append(ins); err != nil {
				t.Fatal(err)
			}
		}
		collectionsEqual(t, prefixOf(t, b.c, len(instances)), got)
	})
}

// packBytes sums the sizes of the slice files of the pack starting at ps.
func packBytes(tb testing.TB, s *Store, ps int) int64 {
	tb.Helper()
	m := s.Manifest()
	packLen := min(m.Pack, m.Timesteps-ps)
	var n int64
	for p := 0; p < m.K; p++ {
		for b := 0; b < int(m.BinsPerPartition[p]); b++ {
			fi, err := os.Stat(slicePathFor(s.dir, m, p, b, ps, packLen))
			if err != nil {
				tb.Fatal(err)
			}
			n += fi.Size()
		}
	}
	return n
}

// openFixture writes a collection to a fresh directory and opens it.
func openFixture(tb testing.TB, c *graph.Collection, a *partition.Assignment, o Options) *Store {
	tb.Helper()
	dir := tb.TempDir()
	mustWrite(tb, dir, c, a, o)
	s, err := Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// BenchmarkReadPack decodes one whole pack: a 64×64 road network in the
// delta format, and a small-world graph with the string-list tweets
// column. Bytes/s is slice-file bytes decoded per second.
func BenchmarkReadPack(b *testing.B) {
	for _, bc := range []struct {
		name  string
		store func(testing.TB) *Store
	}{
		{"road-v2", func(tb testing.TB) *Store {
			c, a := roadFixture(tb, 10)
			return openFixture(tb, c, a, Options{Pack: 10, Bin: 5, SnapshotEvery: 5})
		}},
		{"smallworld", func(tb testing.TB) *Store {
			c, a := smallWorldFixture(tb, 10)
			return openFixture(tb, c, a, Options{Pack: 10, Bin: 5, SnapshotEvery: 5})
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := bc.store(b)
			b.SetBytes(packBytes(b, s, 0))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := s.ReadPackDeltas(0, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestReadPackAllocs: decoding a float-only road pack costs allocations
// per file, timestep and column, not per value. The 64×64 pack holds ~80k
// values in 2 files × 10 steps × 3 columns; it measured 88 allocations, and
// the bound is three per (file, step, column), twice that.
func TestReadPackAllocs(t *testing.T) {
	c, a := roadFixture(t, 10)
	s := openFixture(t, c, a, Options{Pack: 10, Bin: 5})
	m := s.Manifest()
	files := 0
	for _, bins := range m.BinsPerPartition {
		files += int(bins)
	}
	cols := s.Template().VertexSchema().Len() + s.Template().EdgeSchema().Len()
	bound := float64(3 * files * m.Pack * cols)
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, _, err := s.ReadPackDeltas(0, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > bound {
		t.Fatalf("ReadPackDeltas: %.0f allocations per pack, want <= %.0f", allocs, bound)
	}
}
