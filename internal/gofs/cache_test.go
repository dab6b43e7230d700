package gofs

import (
	"sync"
	"testing"
)

func TestInstanceCacheServesSameData(t *testing.T) {
	dir := t.TempDir()
	c, a := makeDataset(t, 12, 3)
	if err := WriteDataset(dir, c, a, 4, 2); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewInstanceCache(s, 2)
	if cache.Timesteps() != 12 {
		t.Fatalf("Timesteps = %d, want 12", cache.Timesteps())
	}
	want, err := s.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 12; step++ {
		ins, err := cache.Load(step)
		if err != nil {
			t.Fatalf("Load(%d): %v", step, err)
		}
		w := want.Instance(step)
		if ins.Timestep != w.Timestep || ins.Time != w.Time {
			t.Fatalf("step %d meta mismatch", step)
		}
		for ci := range w.EdgeCols {
			for e := range w.EdgeCols[ci].Floats {
				if ins.EdgeCols[ci].Floats[e] != w.EdgeCols[ci].Floats[e] {
					t.Fatalf("step %d edge col %d slot %d differs", step, ci, e)
				}
			}
		}
	}
	if _, err := cache.Load(12); err == nil {
		t.Error("out-of-range Load accepted")
	}
}

func TestInstanceCacheLRUAndStats(t *testing.T) {
	dir := t.TempDir()
	c, a := makeDataset(t, 12, 2)
	if err := WriteDataset(dir, c, a, 4, 2); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewInstanceCache(s, 2) // packs: [0,4) [4,8) [8,12)

	// Warm packs 0 and 1.
	for _, step := range []int{0, 4} {
		if _, err := cache.Load(step); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if st.Misses != 2 || st.PackLoads != 2 || st.Resident != 2 || st.Evictions != 0 {
		t.Fatalf("after warmup: %+v", st)
	}

	// Hits within resident packs decode nothing.
	for _, step := range []int{1, 2, 5, 7} {
		if _, err := cache.Load(step); err != nil {
			t.Fatal(err)
		}
	}
	st = cache.Stats()
	if st.Hits != 4 || st.PackLoads != 2 {
		t.Fatalf("after hits: %+v", st)
	}

	// Touch pack 0 so pack 1 is the LRU victim, then load pack 2.
	if _, err := cache.Load(3); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Load(8); err != nil {
		t.Fatal(err)
	}
	st = cache.Stats()
	if st.Evictions != 1 || st.Resident != 2 {
		t.Fatalf("after eviction: %+v", st)
	}
	// Pack 0 stayed resident; pack 1 was evicted.
	if _, err := cache.Load(0); err != nil {
		t.Fatal(err)
	}
	hitsBefore := cache.Stats().Hits
	if _, err := cache.Load(4); err != nil { // evicted: a miss again
		t.Fatal(err)
	}
	st = cache.Stats()
	if st.Hits != hitsBefore {
		t.Fatalf("evicted pack served as hit: %+v", st)
	}
	if st.DecodeTime <= 0 {
		t.Errorf("DecodeTime not accounted: %+v", st)
	}
}

func TestInstanceCacheByteAccounting(t *testing.T) {
	dir := t.TempDir()
	c, a := makeDataset(t, 12, 2)
	if err := WriteDatasetOptions(dir, c, a, Options{Pack: 4, Bin: 2, SnapshotEvery: 4}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Measure one pack's decoded size, then budget for exactly two packs:
	// packs are charged by what they decode to, not by their count, so a
	// delta-chained pack (tiny on disk, full-size in memory) still counts.
	probe := NewInstanceCacheBytes(s, 1)
	if _, err := probe.Load(0); err != nil {
		t.Fatal(err)
	}
	packBytes := probe.Stats().BytesResident
	if packBytes <= 0 {
		t.Fatalf("BytesResident = %d after a decode", packBytes)
	}

	cache := NewInstanceCacheBytes(s, 2*packBytes+packBytes/2)
	if st := cache.Stats(); st.BytesLimit != 2*packBytes+packBytes/2 {
		t.Fatalf("BytesLimit = %d", st.BytesLimit)
	}
	for _, step := range []int{0, 4} {
		if _, err := cache.Load(step); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if st.Resident != 2 || st.Evictions != 0 {
		t.Fatalf("two packs should fit the byte budget: %+v", st)
	}
	if st.BytesResident < 2*packBytes-packBytes/2 {
		t.Fatalf("BytesResident = %d, expected about %d", st.BytesResident, 2*packBytes)
	}
	// A third pack exceeds the budget and must evict the LRU one.
	if _, err := cache.Load(8); err != nil {
		t.Fatal(err)
	}
	st = cache.Stats()
	if st.Evictions != 1 || st.Resident != 2 {
		t.Fatalf("after third pack: %+v", st)
	}
	if st.BytesResident > st.BytesLimit {
		t.Fatalf("BytesResident %d over budget %d", st.BytesResident, st.BytesLimit)
	}
	// Delta materialization counters: pack starts are snapshots, the other
	// 9 of 12 timesteps were patched forward.
	if st.SnapshotSteps != 3 || st.DeltaSteps != 9 {
		t.Fatalf("step-kind counters: %+v", st)
	}
	// The change summary is available for resident packs.
	if cache.Delta(9) == nil {
		t.Fatal("Delta(9) = nil for resident delta pack")
	}
	if cache.Delta(0) != nil {
		t.Fatal("Delta(0) should be nil (no predecessor)")
	}
}

// TestInstanceCacheResidentBytes: in both capacity modes BytesResident is
// the decoded size of exactly the resident packs — charged at load when
// byte-bounded, summed when asked in pack-count mode — through loads,
// hits and evictions.
func TestInstanceCacheResidentBytes(t *testing.T) {
	dir := t.TempDir()
	c, a := makeDataset(t, 12, 2)
	if err := WriteDatasetOptions(dir, c, a, Options{Pack: 4, Bin: 2, SnapshotEvery: 4}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, cache := range []*InstanceCache{NewInstanceCache(s, 2), NewInstanceCacheBytes(s, 1<<40)} {
		for _, step := range []int{0, 5, 1, 9, 2, 10, 6} {
			if _, err := cache.Load(step); err != nil {
				t.Fatal(err)
			}
			var want int64
			cache.mu.Lock()
			for _, e := range cache.packs {
				want += decodedBytes(e.instances)
			}
			cache.mu.Unlock()
			if got := cache.Stats().BytesResident; got != want || want <= 0 {
				t.Fatalf("limit %d, after Load(%d): BytesResident %d, resident packs decode to %d", cache.maxBytes, step, got, want)
			}
		}
	}
}

func TestInstanceCacheSingleFlight(t *testing.T) {
	dir := t.TempDir()
	c, a := makeDataset(t, 8, 2)
	if err := WriteDataset(dir, c, a, 8, 2); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewInstanceCache(s, 1)
	// Many goroutines race onto the same cold pack; exactly one decode may
	// happen (single-flight), everyone gets the same instances.
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(step int) {
			defer wg.Done()
			if _, err := cache.Load(step); err != nil {
				t.Error(err)
			}
		}(i % 8)
	}
	wg.Wait()
	st := cache.Stats()
	if st.PackLoads != 1 {
		t.Fatalf("single-flight broken: %d pack decodes, want 1 (%+v)", st.PackLoads, st)
	}
	if st.Hits+st.Misses != 16 || st.Misses != 1 {
		t.Fatalf("hit/miss accounting: %+v", st)
	}
}
