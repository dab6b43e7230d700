package gofs

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"tsgraph/internal/chaos"
	"tsgraph/internal/graph"
)

// CacheStats is a point-in-time snapshot of an InstanceCache's counters.
type CacheStats struct {
	// Hits counts Loads served from a resident (or in-flight) pack. A
	// request that joins a decode another goroutine already started counts
	// as a hit: it paid a wait, not a decode.
	Hits uint64
	// Misses counts Loads that had to start a pack decode.
	Misses uint64
	// Evictions counts packs dropped to respect the capacity bound.
	Evictions uint64
	// PackLoads counts completed pack decodes (== Misses minus failures).
	PackLoads uint64
	// Resident is the number of packs currently held (including in-flight).
	Resident int
	// DecodeTime accumulates wall time spent decoding packs.
	DecodeTime time.Duration
	// BytesResident is the decoded size of all resident packs (in-flight
	// decodes are charged once they complete).
	BytesResident int64
	// BytesLimit is the byte budget when the cache is byte-bounded
	// (NewInstanceCacheBytes), 0 in pack-count mode.
	BytesLimit int64
	// SnapshotSteps counts timesteps materialized from full snapshot
	// records; DeltaSteps counts timesteps materialized by patching the
	// previous timestep (always 0 on full-format datasets).
	SnapshotSteps uint64
	DeltaSteps    uint64
	// ByClass attributes hits/misses to query classes for loads issued
	// through ClassSource wrappers (nil when no wrapper is in use).
	ByClass map[string]ClassCacheStats
}

// ClassCacheStats is one query class's share of the cache traffic.
type ClassCacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// cachedPack is one pack's cache entry. ready is closed once the decode
// finished; until then instances/deltas/err must not be read.
type cachedPack struct {
	start     int
	ready     chan struct{}
	instances []*graph.Instance
	deltas    []*graph.Delta
	bytes     int64
	sized     bool // bytes is set (at load when byte-bounded, else by Stats)
	err       error
	elem      *list.Element
}

// InstanceCache is a bounded, thread-safe LRU of decoded packs over a
// Store, and the one way GoFS holds decoded packs: an offline sweep reads
// through a one-pack cache (NewLoader), and the serving layer's lower tier
// is a larger one shared by concurrent TI-BSP sweeps. A miss decodes the
// pack once while concurrent readers of the same pack wait for that decode
// (per-pack single-flight) instead of duplicating it. Decoded instances are
// shared read-only, which is exactly how the engine consumes them.
//
// Two capacity modes exist: a pack-count bound (NewInstanceCache) and a
// decoded-byte bound (NewInstanceCacheBytes). The byte bound is the right
// one for delta-encoded datasets, where pack sizes on disk say little about
// materialized size: every pack decodes to full instances regardless of how
// it was stored, so the count of packs under-specifies memory exactly when
// delta chains make packs cheap to store.
type InstanceCache struct {
	store    *Store
	maxPacks int   // > 0: bound on resident pack count
	maxBytes int64 // > 0: bound on resident decoded bytes
	// Chaos, when non-nil, arms the gofs.load failpoint on pack decodes.
	Chaos *chaos.Injector
	// want, when non-nil, restricts pack decodes to these partitions (see
	// Restrict).
	want []bool

	mu            sync.Mutex
	packs         map[int]*cachedPack
	lru           *list.List // front = most recently used *cachedPack
	bytes         int64
	byClass       map[string]*ClassCacheStats
	hits          uint64
	misses        uint64
	evictions     uint64
	packLoads     uint64
	snapshotSteps uint64
	deltaSteps    uint64
	decodeTime    time.Duration
}

// NewInstanceCache creates a cache holding up to maxPacks decoded packs
// (minimum 1) over an open store.
func NewInstanceCache(s *Store, maxPacks int) *InstanceCache {
	if maxPacks < 1 {
		maxPacks = 1
	}
	return &InstanceCache{
		store:    s,
		maxPacks: maxPacks,
		packs:    make(map[int]*cachedPack),
		lru:      list.New(),
	}
}

// NewInstanceCacheBytes creates a cache bounded by the decoded in-memory
// size of its resident packs rather than their count. The most recently
// used pack is always kept, even when it alone exceeds the budget.
func NewInstanceCacheBytes(s *Store, maxBytes int64) *InstanceCache {
	if maxBytes < 1 {
		maxBytes = 1
	}
	return &InstanceCache{
		store:    s,
		maxBytes: maxBytes,
		packs:    make(map[int]*cachedPack),
		lru:      list.New(),
	}
}

// Restrict limits every subsequent pack decode to the named partitions:
// slice files of other partitions are never read, and their columns stay
// zero in the decoded instances. A shard rank calls this once, before any
// load, with its owned partitions — reads outside them would silently see
// zeros, which is exactly the contract (the rank's sweeps only touch its
// own partitions). Not safe to call concurrently with loads.
func (c *InstanceCache) Restrict(parts []int) {
	want := make([]bool, c.store.m().K)
	for _, p := range parts {
		if p >= 0 && p < len(want) {
			want[p] = true
		}
	}
	c.want = want
}

// Timesteps implements core.InstanceSource.
func (c *InstanceCache) Timesteps() int { return c.store.Timesteps() }

// Load implements core.InstanceSource. Safe for concurrent use.
func (c *InstanceCache) Load(timestep int) (*graph.Instance, error) {
	return c.load(timestep, "")
}

// classStatsLocked returns (allocating if needed) a class's counters.
func (c *InstanceCache) classStatsLocked(class string) *ClassCacheStats {
	if c.byClass == nil {
		c.byClass = make(map[string]*ClassCacheStats)
	}
	st := c.byClass[class]
	if st == nil {
		st = &ClassCacheStats{}
		c.byClass[class] = st
	}
	return st
}

// load is Load with optional query-class attribution ("" = unattributed).
func (c *InstanceCache) load(timestep int, class string) (*graph.Instance, error) {
	m := c.store.m()
	if timestep < 0 || timestep >= m.Timesteps {
		return nil, fmt.Errorf("gofs: timestep %d outside [0,%d)", timestep, m.Timesteps)
	}
	ps := (timestep / m.Pack) * m.Pack

	c.mu.Lock()
	if e := c.packs[ps]; e != nil {
		c.lru.MoveToFront(e.elem)
		c.hits++
		if class != "" {
			c.classStatsLocked(class).Hits++
		}
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, e.err
		}
		if timestep-ps < len(e.instances) {
			return packInstance(e, timestep)
		}
		// Stale tail-pack decode on a live dataset: the entry was decoded
		// when the pack held fewer timesteps than the manifest now
		// advertises. Drop it (if it is still the mapped entry) and
		// re-decode — the fresh read covers the requested timestep because
		// the bounds check above already passed against a newer manifest.
		c.mu.Lock()
		if cur := c.packs[ps]; cur == e {
			c.dropLocked(e)
		}
		c.mu.Unlock()
		return c.load(timestep, class)
	}
	c.misses++
	if class != "" {
		c.classStatsLocked(class).Misses++
	}
	e := &cachedPack{start: ps, ready: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	c.packs[ps] = e
	c.evictLocked()
	c.mu.Unlock()

	decodeStart := time.Now()
	instances, deltas, _, err := c.store.readPack(ps, c.Chaos, c.want)
	dur := time.Since(decodeStart)
	// Only the byte bound needs a pack's size at load; a pack-count cache
	// sizes its packs when Stats asks.
	var bytes int64
	if c.maxBytes > 0 && err == nil {
		bytes = decodedBytes(instances)
	}

	c.mu.Lock()
	e.instances, e.deltas, e.err = instances, deltas, err
	c.decodeTime += dur
	if err != nil {
		// Failed decodes are not cached; the next request retries.
		if e.elem != nil {
			c.lru.Remove(e.elem)
			e.elem = nil
		}
		delete(c.packs, ps)
	} else {
		c.packLoads++
		if c.maxBytes > 0 {
			e.bytes, e.sized = bytes, true
			c.bytes += bytes
		}
		snaps, dsteps := m.packStepKinds(ps, len(instances))
		c.snapshotSteps += uint64(snaps)
		c.deltaSteps += uint64(dsteps)
		// Bytes become known only now; the byte bound is enforced here
		// (in-flight entries are never evicted, so this entry is still
		// resident and charged).
		c.evictLocked()
	}
	c.mu.Unlock()
	close(e.ready)

	if err != nil {
		return nil, err
	}
	return packInstance(e, timestep)
}

// Delta returns the change summary leading into a timestep if its pack is
// resident (waiting for an in-flight decode), nil otherwise. nil also covers
// full-format datasets and the collection's first timestep — callers must
// then assume everything changed.
func (c *InstanceCache) Delta(timestep int) *graph.Delta {
	m := c.store.m()
	if timestep < 0 || timestep >= m.Timesteps {
		return nil
	}
	ps := (timestep / m.Pack) * m.Pack
	c.mu.Lock()
	e := c.packs[ps]
	c.mu.Unlock()
	if e == nil {
		return nil
	}
	<-e.ready
	// A stale tail-pack decode (live dataset, entry shorter than the pack
	// is now) reports nil — unknown — rather than indexing out of range;
	// callers already treat nil as "assume everything changed".
	if e.err != nil || e.deltas == nil || timestep-ps >= len(e.deltas) {
		return nil
	}
	return e.deltas[timestep-ps]
}

// overLocked reports whether the active capacity bound is exceeded. The
// byte bound never counts the cache down below one resident pack.
func (c *InstanceCache) overLocked() bool {
	if c.maxPacks > 0 && c.lru.Len() > c.maxPacks {
		return true
	}
	return c.maxBytes > 0 && c.bytes > c.maxBytes && c.lru.Len() > 1
}

// evictLocked drops least-recently-used fully-decoded packs beyond
// capacity. In-flight decodes are never evicted, so the cache can
// transiently exceed its bound while several cold packs decode concurrently.
func (c *InstanceCache) evictLocked() {
	for c.overLocked() {
		evicted := false
		for el := c.lru.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*cachedPack)
			select {
			case <-e.ready:
			default:
				continue // still decoding
			}
			c.dropLocked(e)
			evicted = true
			break
		}
		if !evicted {
			return // everything over capacity is in flight
		}
	}
}

// dropLocked evicts a resident entry.
func (c *InstanceCache) dropLocked(e *cachedPack) {
	c.lru.Remove(e.elem)
	e.elem = nil
	delete(c.packs, e.start)
	if c.maxBytes > 0 {
		c.bytes -= e.bytes
	}
	c.evictions++
}

// ClassSource returns a view of the cache that attributes its cache
// traffic to a query class — the serving layer hands each class's sweeps
// a distinct view so /stats and /metrics can show which class's access
// pattern is thrashing the cache. All views share the cache.
func (c *InstanceCache) ClassSource(class string) *ClassCacheSource {
	return &ClassCacheSource{cache: c, class: class}
}

// ClassCacheSource is a class-attributed InstanceSource over a shared
// InstanceCache.
type ClassCacheSource struct {
	cache *InstanceCache
	class string
}

// Timesteps implements core.InstanceSource.
func (s *ClassCacheSource) Timesteps() int { return s.cache.Timesteps() }

// Load implements core.InstanceSource.
func (s *ClassCacheSource) Load(timestep int) (*graph.Instance, error) {
	return s.cache.load(timestep, s.class)
}

// Stats snapshots the cache counters.
func (c *InstanceCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var byClass map[string]ClassCacheStats
	if len(c.byClass) > 0 {
		byClass = make(map[string]ClassCacheStats, len(c.byClass))
		for k, v := range c.byClass {
			byClass[k] = *v
		}
	}
	resident := c.bytes
	if c.maxBytes == 0 {
		resident = c.residentBytesLocked()
	}
	return CacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		PackLoads:     c.packLoads,
		Resident:      c.lru.Len(),
		DecodeTime:    c.decodeTime,
		BytesResident: resident,
		BytesLimit:    c.maxBytes,
		SnapshotSteps: c.snapshotSteps,
		DeltaSteps:    c.deltaSteps,
		ByClass:       byClass,
	}
}

// residentBytesLocked sums the decoded size of the resident, fully decoded
// packs of a pack-count cache, sizing each pack once.
func (c *InstanceCache) residentBytesLocked() int64 {
	var n int64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cachedPack)
		if e.instances == nil {
			continue // in flight: charged once it completes
		}
		if !e.sized {
			e.bytes, e.sized = decodedBytes(e.instances), true
		}
		n += e.bytes
	}
	return n
}

// decodedBytes is the decoded size of one pack's instances.
func decodedBytes(instances []*graph.Instance) int64 {
	var n int64
	for _, ins := range instances {
		n += instanceBytes(ins)
	}
	return n
}

// instanceBytes estimates the decoded in-memory footprint of one instance:
// 8 bytes per int/float, 1 per bool, header plus content for strings and
// string lists. Delta-chained packs alias unchanged string content between
// consecutive timesteps, so this logical size is a safe upper bound on the
// pack's real footprint.
func instanceBytes(ins *graph.Instance) int64 {
	var n int64
	cols := func(cs []graph.Column) {
		for i := range cs {
			c := &cs[i]
			switch c.Type {
			case graph.TInt:
				n += 8 * int64(len(c.Ints))
			case graph.TFloat:
				n += 8 * int64(len(c.Floats))
			case graph.TBool:
				n += int64(len(c.Bools))
			case graph.TString:
				for _, s := range c.Strings {
					n += 16 + int64(len(s))
				}
			case graph.TStringList:
				for _, l := range c.StringLists {
					n += 24
					for _, s := range l {
						n += 16 + int64(len(s))
					}
				}
			}
		}
	}
	cols(ins.VertexCols)
	cols(ins.EdgeCols)
	return n
}

func packInstance(e *cachedPack, timestep int) (*graph.Instance, error) {
	ins := e.instances[timestep-e.start]
	if ins == nil {
		return nil, fmt.Errorf("gofs: timestep %d missing from pack %d", timestep, e.start)
	}
	return ins, nil
}
