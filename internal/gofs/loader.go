package gofs

import (
	"fmt"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"tsgraph/internal/chaos"
	"tsgraph/internal/graph"
	"tsgraph/internal/partition"
)

// Store is an opened GoFS dataset: template and manifest are resident;
// instance data stays on disk until an InstanceCache touches it.
//
// The manifest is held behind an atomic pointer because a live Appender can
// publish new generations while queries are in flight: each reader captures
// one generation at the start of an operation and sees a consistent
// (possibly slightly stale) dataset — stored prefixes are immutable, so a
// stale manifest only under-reports Timesteps, never mis-describes data.
type Store struct {
	dir      string
	template *graph.Template
	manifest atomic.Pointer[Manifest]
	tel      *Telemetry
}

// Open opens a dataset directory written by WriteDataset.
func Open(dir string) (*Store, error) {
	t, err := readTemplateFile(joinPath(dir, templateFile))
	if err != nil {
		return nil, err
	}
	m, err := readManifestFile(joinPath(dir, manifestFile))
	if err != nil {
		return nil, err
	}
	if len(m.Parts) != t.NumVertices() {
		return nil, fmt.Errorf("gofs: manifest assignment covers %d vertices, template has %d", len(m.Parts), t.NumVertices())
	}
	s := &Store{dir: dir, template: t, tel: newTelemetry(m)}
	s.manifest.Store(m)
	return s, nil
}

// Telemetry returns the store's storage-tier instrumentation (never nil
// for an Open-ed store), an obs.Collector a daemon can register.
func (s *Store) Telemetry() *Telemetry { return s.tel }

func joinPath(dir, name string) string { return dir + string(os.PathSeparator) + name }

// Template returns the dataset's template.
func (s *Store) Template() *graph.Template { return s.template }

// Dir returns the dataset directory the store was opened on.
func (s *Store) Dir() string { return s.dir }

// m returns the current manifest generation. Callers capture it once per
// operation so every derived decision (pack length, file name, format)
// comes from one consistent generation.
func (s *Store) m() *Manifest { return s.manifest.Load() }

// Manifest returns the dataset's current manifest generation. Treat it as
// immutable: appends publish fresh copies rather than mutating it.
func (s *Store) Manifest() *Manifest { return s.m() }

// publish persists a new manifest generation atomically (temp+fsync+rename)
// and then makes it the store's current one. This is the single commit
// point for live appends: readers switch generations only after the bytes
// are durable.
func (s *Store) publish(m *Manifest) error {
	if err := writeManifestAtomic(joinPath(s.dir, manifestFile), m); err != nil {
		return err
	}
	s.manifest.Store(m)
	s.tel.updateShape(m)
	return nil
}

// Assignment reconstructs the stored partition assignment.
func (s *Store) Assignment() *partition.Assignment {
	m := s.m()
	return &partition.Assignment{K: m.K, Parts: m.Parts}
}

// Timesteps returns the number of stored instances. On a live dataset this
// is the watermark: it only ever grows, and every timestep below it is
// durably readable.
func (s *Store) Timesteps() int { return s.m().Timesteps }

// NewLoader returns the instance source an offline sweep reads through: a
// one-pack InstanceCache, which keeps the current temporal pack decoded and
// drops it when a timestep outside it is requested — the loading pattern
// behind the paper's periodic per-timestep load spikes.
func NewLoader(s *Store) *InstanceCache { return NewInstanceCache(s, 1) }

// ReadPackDeltas decodes the pack starting at ps into full instances,
// reading every partition's and bin's slice file, plus the per-timestep
// change summaries of a delta-encoded dataset: deltas[i] describes what
// changed between timesteps ps+i-1 and ps+i. Entries are nil where the store
// carries no change information (full-format datasets, or the collection's
// first timestep). sliceReads reports how many slice files were read. inj,
// when non-nil, arms the gofs.load failpoint. The decode touches no shared
// state, so concurrent calls on one Store are safe — the single-flight
// grouping that avoids duplicating them lives in InstanceCache.
func (s *Store) ReadPackDeltas(ps int, inj *chaos.Injector) (instances []*graph.Instance, deltas []*graph.Delta, sliceReads int, err error) {
	return s.readPack(ps, inj, nil)
}

// readPack is ReadPackDeltas restricted to a subset of partitions: slice
// files for partitions p with !want[p] are skipped entirely (no read, no
// decode), leaving those partitions' columns at zero values in the returned
// instances. This is how a shard rank loads only its owned partitions — the
// dominant cost of a pack load (slice I/O, attribute decode) scales with the
// partitions actually wanted. The returned deltas likewise summarize only
// the wanted partitions' changes. nil want loads everything.
func (s *Store) readPack(ps int, inj *chaos.Injector, want []bool) ([]*graph.Instance, []*graph.Delta, int, error) {
	if err := inj.Hit(chaos.SiteGoFSLoad); err != nil {
		return nil, nil, 0, fmt.Errorf("gofs: loading pack %d: %w", ps, err)
	}
	return s.readPackSlices(ps, want)
}

func (s *Store) readPackSlices(ps int, want []bool) ([]*graph.Instance, []*graph.Delta, int, error) {
	decodeStart := time.Now()
	defer func() { s.tel.ObservePackDecode(time.Since(decodeStart)) }()
	m := s.m()
	t := s.template
	packLen := m.Pack
	if ps+packLen > m.Timesteps {
		packLen = m.Timesteps - ps
	}
	instances := make([]*graph.Instance, packLen)
	for i := range instances {
		step := ps + i
		instances[i] = graph.NewInstance(t, step, m.T0+int64(step)*m.Delta)
	}
	var deltas []*graph.Delta
	if m.SnapshotEvery > 0 {
		deltas = make([]*graph.Delta, packLen)
		for i := range deltas {
			if ps+i > 0 {
				deltas[i] = &graph.Delta{Timestep: ps + i}
			}
		}
	}
	reads := 0
	for p := 0; p < m.K; p++ {
		if want != nil && (p >= len(want) || !want[p]) {
			continue
		}
		for b := 0; b < int(m.BinsPerPartition[p]); b++ {
			path := slicePathFor(s.dir, m, p, b, ps, packLen)
			if err := s.readSlice(path, m, p, b, ps, packLen, instances, deltas); err != nil {
				return nil, nil, reads, err
			}
			reads++
		}
	}
	// Each vertex and edge belongs to exactly one bin, so the per-bin
	// summaries concatenate without duplicates; sort for determinism.
	for _, d := range deltas {
		if d != nil {
			slices.Sort(d.Verts)
			slices.Sort(d.Edges)
		}
	}
	return instances, deltas, reads, nil
}

func (s *Store) readSlice(path string, m *Manifest, p, b, ps, packLen int, instances []*graph.Instance, deltas []*graph.Delta) error {
	readStart := time.Now()
	defer func() { s.tel.ObserveSliceRead(time.Since(readStart)) }()
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	size := fi.Size()
	r := newReader(&countingReader{r: f, t: s.tel})
	if m := r.u32(); r.err == nil && m != sliceMagic {
		return fmt.Errorf("gofs: %s: bad magic %08x", path, m)
	}
	v := int(r.u32())
	framed := v == formatVersionFramed
	if r.err == nil {
		if framed != (m.version == formatVersionFramed) || v != formatVersion && v != formatVersionDelta && !framed {
			return fmt.Errorf("gofs: %s: version-%d slice in a version-%d dataset", path, v, m.version)
		}
		if deltas != nil && v == formatVersion {
			// The manifest promised change summaries; a full-format slice
			// would silently present its bin as never changing to the
			// incremental scheduler.
			return fmt.Errorf("gofs: %s: version-%d slice in a delta-encoded dataset", path, v)
		}
	}
	// A framed file's records are version-2 records exactly when the
	// dataset is delta-encoded.
	deltaRecs := v == formatVersionDelta || framed && m.SnapshotEvery > 0
	var end int64
	if framed {
		end = r.beginFrame(size)
	}
	if got := int(r.u32()); r.err == nil && got != p {
		return fmt.Errorf("gofs: %s: partition %d, want %d", path, got, p)
	}
	if got := int(r.u32()); r.err == nil && got != b {
		return fmt.Errorf("gofs: %s: bin %d, want %d", path, got, b)
	}
	if got := int(r.u32()); r.err == nil && got != ps {
		return fmt.Errorf("gofs: %s: pack start %d, want %d", path, got, ps)
	}
	if !framed {
		if got := int(r.u32()); r.err == nil && got != packLen {
			return fmt.Errorf("gofs: %s: pack length %d, want %d", path, got, packLen)
		}
	}
	verts := r.i32s()
	edges := r.i32s()
	if framed {
		if err := r.endFrame(end); err != nil {
			return fmt.Errorf("gofs: %s: header: %w", path, err)
		}
	}
	t := s.template
	for _, v := range verts {
		if int(v) < 0 || int(v) >= t.NumVertices() {
			return fmt.Errorf("gofs: %s: vertex index %d out of range", path, v)
		}
	}
	for _, e := range edges {
		if int(e) < 0 || int(e) >= t.NumEdges() {
			return fmt.Errorf("gofs: %s: edge slot %d out of range", path, e)
		}
	}
	for i := 0; i < packLen; i++ {
		if framed {
			end = r.beginFrame(size)
		}
		if err := readRecord(r, t, instances, deltas, i, verts, edges, deltaRecs); err != nil {
			return fmt.Errorf("gofs: %s: step %d: %w", path, ps+i, err)
		}
		if framed {
			if err := r.endFrame(end); err != nil {
				return fmt.Errorf("gofs: %s: step %d: %w", path, ps+i, err)
			}
		}
	}
	if !framed {
		if err := r.verifyCRC(); err != nil {
			return fmt.Errorf("gofs: %s: %w", path, err)
		}
	}
	return nil
}

// readRecord decodes one bin's record of timestep i of a pack into
// instances[i]: full columns, or with deltaRecs a snapshot or a delta
// patched over instances[i-1], whose change summary it appends to
// deltas[i].
func readRecord(r *reader, t *graph.Template, instances []*graph.Instance, deltas []*graph.Delta, i int, verts, edges []int32, deltaRecs bool) error {
	ins := instances[i]
	if fileTime := r.i64(); r.err == nil && fileTime != ins.Time {
		return fmt.Errorf("time %d, want %d", fileTime, ins.Time)
	}
	if !deltaRecs {
		for c := range ins.VertexCols {
			readColumnValues(r, &ins.VertexCols[c], verts)
		}
		for c := range ins.EdgeCols {
			readColumnValues(r, &ins.EdgeCols[c], edges)
		}
		return r.err
	}
	kind := r.byteVal()
	chV := r.i32s()
	chE := r.i32s()
	if r.err != nil {
		return r.err
	}
	for _, x := range chV {
		if int(x) < 0 || int(x) >= t.NumVertices() {
			return fmt.Errorf("changed vertex index %d out of range", x)
		}
	}
	for _, x := range chE {
		if int(x) < 0 || int(x) >= t.NumEdges() {
			return fmt.Errorf("changed edge slot %d out of range", x)
		}
	}
	switch kind {
	case recSnapshot:
		for c := range ins.VertexCols {
			readColumnValues(r, &ins.VertexCols[c], verts)
		}
		for c := range ins.EdgeCols {
			readColumnValues(r, &ins.EdgeCols[c], edges)
		}
	case recDelta:
		if i == 0 {
			return fmt.Errorf("delta record at pack start")
		}
		// Carry the previous timestep's values forward for this bin, then
		// patch the changed subset.
		prev := instances[i-1]
		for c := range ins.VertexCols {
			copyColumnValues(&prev.VertexCols[c], &ins.VertexCols[c], verts)
			readColumnValues(r, &ins.VertexCols[c], chV)
		}
		for c := range ins.EdgeCols {
			copyColumnValues(&prev.EdgeCols[c], &ins.EdgeCols[c], edges)
			readColumnValues(r, &ins.EdgeCols[c], chE)
		}
	default:
		return fmt.Errorf("unknown record kind %d", kind)
	}
	if r.err != nil {
		return r.err
	}
	if deltas != nil && deltas[i] != nil {
		deltas[i].Verts = append(deltas[i].Verts, chV...)
		deltas[i].Edges = append(deltas[i].Edges, chE...)
	}
	return nil
}

// LoadAll materializes the entire collection in memory (small datasets and
// tests). It reads through a fresh loader so no caller's cache is touched.
func (s *Store) LoadAll() (*graph.Collection, error) {
	m := s.m()
	c := graph.NewCollection(s.template, m.T0, m.Delta)
	l := NewLoader(s)
	for step := 0; step < m.Timesteps; step++ {
		ins, err := l.Load(step)
		if err != nil {
			return nil, err
		}
		if err := c.Append(ins); err != nil {
			return nil, err
		}
	}
	return c, nil
}
