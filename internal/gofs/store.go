package gofs

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"tsgraph/internal/graph"
	"tsgraph/internal/partition"
	"tsgraph/internal/subgraph"
)

// Default packing parameters, matching the experimental setup in §IV-A
// ("temporal packing of 10 and subgraph binning of 5").
const (
	DefaultPack = 10
	DefaultBin  = 5
)

// Dataset file names within a dataset directory.
const (
	templateFile = "template.gofs"
	manifestFile = "manifest.gofs"
	sliceDir     = "slices"
)

// Manifest describes a stored dataset: the partition assignment, the time
// axis, and the packing parameters.
type Manifest struct {
	K         int
	Parts     []int32
	T0        int64
	Delta     int64
	Timesteps int
	Pack      int
	Bin       int
	// BinsPerPartition[p] is the number of slice bins partition p was
	// split into.
	BinsPerPartition []int32
	// SnapshotEvery > 0 marks a delta-encoded dataset: timesteps divisible
	// by it (or by Pack — packs stay self-contained) are stored as full
	// snapshots, the rest as deltas against the previous timestep. 0 is the
	// classic full-instance layout.
	SnapshotEvery int
	// version is the format the dataset's files are in: formatVersionFramed
	// for everything this package writes, 1 or 2 for a legacy dataset,
	// which is readable but cannot be appended to.
	version int
}

// snapshotStep reports whether timestep s of a delta-encoded dataset is
// stored as a full snapshot rather than a delta. Pack starts are always
// snapshots so every slice file can be decoded on its own.
func (m *Manifest) snapshotStep(s int) bool {
	if m.SnapshotEvery <= 0 {
		return true
	}
	return s%m.Pack == 0 || s%m.SnapshotEvery == 0
}

// packStepKinds counts how many timesteps of the pack starting at ps are
// stored as snapshots vs. deltas.
func (m *Manifest) packStepKinds(ps, packLen int) (snapshots, deltas int) {
	for s := ps; s < ps+packLen; s++ {
		if m.snapshotStep(s) {
			snapshots++
		} else {
			deltas++
		}
	}
	return snapshots, deltas
}

// WriteDataset persists a collection, partitioned by the assignment, as a
// GoFS dataset: a template file, a manifest, and one slice file per
// (partition, subgraph bin, temporal pack).
func WriteDataset(dir string, c *graph.Collection, a *partition.Assignment, pack, bin int) error {
	return WriteDatasetOptions(dir, c, a, Options{Pack: pack, Bin: bin})
}

// Options extends WriteDataset with storage options.
type Options struct {
	// Pack is the temporal packing factor (0 = DefaultPack).
	Pack int
	// Bin is the subgraph binning factor (0 = DefaultBin).
	Bin int
	// SnapshotEvery, when > 0, delta-encodes the dataset: full snapshots at
	// that interval (and at every pack start), sparse deltas in between —
	// DeltaGraph-style snapshot chains. Low-churn collections shrink by the
	// churn factor; 0 keeps the full-instance layout.
	SnapshotEvery int
}

// WriteDatasetOptions is WriteDataset with explicit Options.
func WriteDatasetOptions(dir string, c *graph.Collection, a *partition.Assignment, o Options) error {
	pack, bin := o.Pack, o.Bin
	if pack <= 0 {
		pack = DefaultPack
	}
	if bin <= 0 {
		bin = DefaultBin
	}
	t := c.Template
	if err := a.Validate(t); err != nil {
		return err
	}
	parts, err := subgraph.Build(t, a)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(dir, sliceDir), 0o755); err != nil {
		return err
	}
	if err := writeTemplateFile(filepath.Join(dir, templateFile), t); err != nil {
		return err
	}
	bins, binsPer := binLayout(t, parts, bin)
	m := Manifest{
		K: a.K, Parts: a.Parts,
		T0: c.T0, Delta: c.Delta,
		Timesteps: c.NumInstances(),
		Pack:      pack, Bin: bin,
		BinsPerPartition: binsPer,
		SnapshotEvery:    o.SnapshotEvery,
		version:          formatVersionFramed,
	}
	// Per timestep, what changed against its predecessor (nil at the
	// first timestep and for full-format datasets).
	n := c.NumInstances()
	vDirty, eDirty := make([][]bool, n), make([][]bool, n)
	if o.SnapshotEvery > 0 {
		for s := 1; s < n; s++ {
			vDirty[s] = make([]bool, t.NumVertices())
			eDirty[s] = make([]bool, t.NumEdges())
			graph.MarkChanged(c.Instance(s-1), c.Instance(s), vDirty[s], eDirty[s])
		}
	}

	w := newWriter(nil)
	for p := range bins {
		for b := range bins[p] {
			bi := &bins[p][b]
			for ps := 0; ps < n; ps += pack {
				path := slicePath(dir, p, b, ps)
				f, err := os.Create(path)
				if err != nil {
					return err
				}
				w.reset(f)
				w.write(sliceHeader(w, p, b, ps, bi))
				for s := ps; s < min(ps+pack, n); s++ {
					w.write(encodeRecord(w, &m, c.Instance(s), bi, vDirty[s], eDirty[s]))
				}
				err = w.flush()
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					return fmt.Errorf("gofs: writing %s: %w", path, err)
				}
			}
		}
	}
	return writeManifestFile(filepath.Join(dir, manifestFile), &m)
}

// binInfo is one slice bin's members: template vertex indices and edge
// slots.
type binInfo struct {
	verts, edges []int32
}

// binLayout groups each partition's consecutive subgraphs ≤bin at a time.
// A bin's vertex list is the concatenation of its subgraphs' template
// vertex indices, and its edge list is the template slots of all
// out-edges of those vertices. An empty partition still gets one (empty)
// bin.
func binLayout(t *graph.Template, parts []*subgraph.PartitionData, bin int) ([][]binInfo, []int32) {
	bins := make([][]binInfo, len(parts))
	binsPer := make([]int32, len(parts))
	for p, pd := range parts {
		nBins := max((len(pd.Subgraphs)+bin-1)/bin, 1)
		binsPer[p] = int32(nBins)
		bins[p] = make([]binInfo, nBins)
		for b := range bins[p] {
			for s := b * bin; s < min((b+1)*bin, len(pd.Subgraphs)); s++ {
				for _, lv := range pd.Subgraphs[s].Verts {
					g := pd.GlobalIdx[lv]
					bins[p][b].verts = append(bins[p][b].verts, g)
					elo, ehi := t.OutEdges(int(g))
					for e := elo; e < ehi; e++ {
						bins[p][b].edges = append(bins[p][b].edges, int32(e))
					}
				}
			}
		}
	}
	return bins, binsPer
}

// changedIn filters a bin's member indices down to those dirty at one
// timestep (nil dirty — timestep 0 — means nothing to report).
func changedIn(members []int32, dirty []bool) []int32 {
	if dirty == nil {
		return nil
	}
	var out []int32
	for _, i := range members {
		if dirty[i] {
			out = append(out, i)
		}
	}
	return out
}

// sliceHeader returns the first bytes of a slice file: magic, version and
// the framed header section. Valid until the writer's next frame.
func sliceHeader(w *writer, p, b, ps int, bi *binInfo) []byte {
	w.openFrame()
	w.u32(uint32(p))
	w.u32(uint32(b))
	w.u32(uint32(ps))
	w.i32s(bi.verts)
	w.i32s(bi.edges)
	frame := w.closeFrame()
	hdr := binary.LittleEndian.AppendUint32(nil, sliceMagic)
	hdr = binary.LittleEndian.AppendUint32(hdr, formatVersionFramed)
	return append(hdr, frame...)
}

// encodeRecord returns one bin's record of one timestep as a frame, valid
// until the writer's next frame. It is the single source of truth for
// record bytes: the offline writer and the Appender both call it, which is
// what makes "a live-grown pack equals an offline one" a property of the
// format rather than of any one writer. vd and ed mark what changed since
// the previous timestep (nil at the first one).
func encodeRecord(w *writer, m *Manifest, ins *graph.Instance, bi *binInfo, vd, ed []bool) []byte {
	w.openFrame()
	w.i64(ins.Time)
	vIdx, eIdx := bi.verts, bi.edges
	if m.SnapshotEvery > 0 {
		// A delta-encoded record carries the bin's changed-index summary
		// (empty at the collection's first timestep, where "changed" is
		// undefined) so the engine can skip clean subgraphs even across
		// snapshot boundaries; a snapshot then stores full columns, a
		// delta only the changed values.
		chV, chE := changedIn(bi.verts, vd), changedIn(bi.edges, ed)
		if m.snapshotStep(ins.Timestep) {
			w.byteVal(recSnapshot)
		} else {
			w.byteVal(recDelta)
			vIdx, eIdx = chV, chE
		}
		w.i32s(chV)
		w.i32s(chE)
	}
	for c := range ins.VertexCols {
		writeColumnValues(w, &ins.VertexCols[c], vIdx)
	}
	for c := range ins.EdgeCols {
		writeColumnValues(w, &ins.EdgeCols[c], eIdx)
	}
	return w.closeFrame()
}

func slicePath(dir string, p, b, packStart int) string {
	return filepath.Join(dir, sliceDir, fmt.Sprintf("p%d_b%d_t%d.slice", p, b, packStart))
}

// partSlicePath names a legacy (version 1 or 2) tail pack that an older
// Appender re-wrote under a length-suffixed name on every append. Such
// datasets are read-only; no writer creates these names any more.
func partSlicePath(dir string, p, b, packStart, packLen int) string {
	return filepath.Join(dir, sliceDir, fmt.Sprintf("p%d_b%d_t%d.part%d.slice", p, b, packStart, packLen))
}

// slicePathFor resolves the on-disk file for a pack as described by a
// manifest generation. A framed dataset keeps every pack at its plain
// name. A legacy dataset's live-appended tail pack lives at the part name,
// which wins over a stale plain file when it exists.
func slicePathFor(dir string, m *Manifest, p, b, packStart, packLen int) string {
	if m.version < formatVersionFramed && packLen < m.Pack {
		if part := partSlicePath(dir, p, b, packStart, packLen); fileExists(part) {
			return part
		}
	}
	return slicePath(dir, p, b, packStart)
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func writeTemplateFile(path string, t *graph.Template) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := newWriter(f)
	w.u32(templateMagic)
	w.u32(formatVersion)
	w.str(t.Name)
	ids := make([]int64, t.NumVertices())
	for i := range ids {
		ids[i] = int64(t.VertexID(i))
	}
	w.i64s(ids)
	offsets, targets, edgeIDs := t.RawCSR()
	w.i64s(offsets)
	w.i32s(targets)
	eids := make([]int64, len(edgeIDs))
	for i := range eids {
		eids[i] = int64(edgeIDs[i])
	}
	w.i64s(eids)
	writeSchema(w, t.VertexSchema())
	writeSchema(w, t.EdgeSchema())
	if err := w.finish(); err != nil {
		return fmt.Errorf("gofs: writing %s: %w", path, err)
	}
	return f.Close()
}

func readTemplateFile(path string) (*graph.Template, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := newReader(f)
	if m := r.u32(); r.err == nil && m != templateMagic {
		return nil, fmt.Errorf("gofs: %s: bad magic %08x", path, m)
	}
	if v := r.u32(); r.err == nil && v != formatVersion {
		return nil, fmt.Errorf("gofs: %s: unsupported version %d", path, v)
	}
	name := r.str()
	rawIDs := r.i64s()
	offsets := r.i64s()
	targets := r.i32s()
	rawEIDs := r.i64s()
	vs := readSchema(r)
	es := readSchema(r)
	if err := r.verifyCRC(); err != nil {
		return nil, fmt.Errorf("gofs: %s: %w", path, err)
	}
	ids := make([]graph.VertexID, len(rawIDs))
	for i := range ids {
		ids[i] = graph.VertexID(rawIDs[i])
	}
	eids := make([]graph.EdgeID, len(rawEIDs))
	for i := range eids {
		eids[i] = graph.EdgeID(rawEIDs[i])
	}
	return graph.FromCSR(name, ids, offsets, targets, eids, vs, es)
}

func encodeManifest(sink io.Writer, m *Manifest) error {
	w := newWriter(sink)
	w.u32(manifestMagic)
	w.u32(formatVersionFramed)
	w.u32(uint32(m.K))
	w.i32s(m.Parts)
	w.i64(m.T0)
	w.i64(m.Delta)
	w.u32(uint32(m.Timesteps))
	w.u32(uint32(m.Pack))
	w.u32(uint32(m.Bin))
	w.i32s(m.BinsPerPartition)
	w.u32(uint32(m.SnapshotEvery))
	return w.finish()
}

func writeManifestFile(path string, m *Manifest) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := encodeManifest(f, m); err != nil {
		return fmt.Errorf("gofs: writing %s: %w", path, err)
	}
	return f.Close()
}

// writeManifestAtomic publishes a manifest via temp+fsync+rename. This is
// the commit point of a live append: a crash before the rename leaves the
// previous manifest (and its consistent file set) in place; a crash after
// it leaves the new generation fully visible.
func writeManifestAtomic(path string, m *Manifest) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".manifest_*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if err := encodeManifest(tmp, m); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("gofs: writing %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("gofs: writing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("gofs: writing %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("gofs: publishing %s: %w", path, err)
	}
	return nil
}

func readManifestFile(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := newReader(f)
	if m := r.u32(); r.err == nil && m != manifestMagic {
		return nil, fmt.Errorf("gofs: %s: bad magic %08x", path, m)
	}
	v := int(r.u32())
	if r.err == nil && v != formatVersion && v != formatVersionDelta && v != formatVersionFramed {
		return nil, fmt.Errorf("gofs: %s: unsupported version %d", path, v)
	}
	m := &Manifest{version: v}
	m.K = int(r.u32())
	m.Parts = r.i32s()
	m.T0 = r.i64()
	m.Delta = r.i64()
	m.Timesteps = int(r.u32())
	m.Pack = int(r.u32())
	m.Bin = int(r.u32())
	// Legacy manifests carry a gzip flag here.
	gzipped := v != formatVersionFramed && r.boolVal()
	m.BinsPerPartition = r.i32s()
	if v != formatVersion {
		m.SnapshotEvery = int(r.u32())
	}
	if err := r.verifyCRC(); err != nil {
		return nil, fmt.Errorf("gofs: %s: %w", path, err)
	}
	if gzipped {
		return nil, fmt.Errorf("gofs: %s: dataset has gzip-compressed slices, which format version 3 removed because a gzip stream cannot grow in place; rewrite it uncompressed with an older tspart -rewrite", path)
	}
	return m, nil
}
