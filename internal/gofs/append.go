package gofs

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"tsgraph/internal/graph"
	"tsgraph/internal/subgraph"
)

// Appender grows an open dataset one timestep at a time, producing the same
// bytes WriteDataset would have produced for the grown prefix. Each append
// writes one framed record at the end of every bin's tail-pack slice file,
// fsyncs it, and then publishes a manifest whose Timesteps covers it. A
// pack start creates the pack's files with their header. Nothing is
// rewritten or renamed: a reader holding an older manifest decodes fewer
// records of the same files, and those bytes never change.
//
// An Appender is single-writer: callers serialize Append themselves (the
// ingest layer holds one mutex across WAL append + fold + publish). It is
// safe against any number of concurrent readers of the same Store.
type Appender struct {
	store *Store
	bins  [][]binInfo // [partition][bin]
	prev  *graph.Instance
	w     *writer
	// Dirty masks of the step being appended, reused across appends.
	vd, ed []bool
	// The tail pack's open files in partition-major bin order, empty when
	// the tail pack is complete and the next append starts a new one.
	tail []tailFile
}

// tailFile is one bin's slice file of the tail pack.
type tailFile struct {
	f *os.File
	// size is the byte length the published manifest covers; next is the
	// length once the record being appended is published.
	size, next int64
}

// NewAppender opens an append session on a store. It rebuilds the bin
// layout from the manifest's assignment, decodes the head instance, and
// opens a partial tail pack's files, cutting each back to the end of its
// last published record: a record written past the manifest by an
// interrupted append is discarded here, as OpenWAL cuts a torn WAL tail.
// Legacy (version 1 or 2) datasets are refused; tspart -rewrite migrates
// them.
func NewAppender(s *Store) (*Appender, error) {
	m := s.m()
	if m.version != formatVersionFramed {
		return nil, fmt.Errorf("gofs: %s is a format version %d dataset, which cannot be appended to; migrate it with tspart -rewrite", s.dir, m.version)
	}
	t := s.template
	parts, err := subgraph.Build(t, s.Assignment())
	if err != nil {
		return nil, err
	}
	bins, binsPer := binLayout(t, parts, m.Bin)
	for p, n := range binsPer {
		if n != m.BinsPerPartition[p] {
			return nil, fmt.Errorf("gofs: partition %d rebuilds to %d bins, manifest says %d", p, n, m.BinsPerPartition[p])
		}
	}
	a := &Appender{store: s, bins: bins, w: &writer{}}
	if m.SnapshotEvery > 0 {
		a.vd, a.ed = make([]bool, t.NumVertices()), make([]bool, t.NumEdges())
	}
	if m.Timesteps == 0 {
		return a, nil
	}
	ps := ((m.Timesteps - 1) / m.Pack) * m.Pack
	instances, _, _, err := s.ReadPackDeltas(ps, nil)
	if err != nil {
		return nil, fmt.Errorf("gofs: rehydrating tail pack %d: %w", ps, err)
	}
	a.prev = instances[len(instances)-1]
	if m.Timesteps%m.Pack == 0 {
		return a, nil
	}
	for p := range a.bins {
		for b := range a.bins[p] {
			f, err := os.OpenFile(slicePath(s.dir, p, b, ps), os.O_RDWR, 0)
			if err != nil {
				a.Close()
				return nil, err
			}
			a.tail = append(a.tail, tailFile{f: f})
			// The header frame, then one frame per published timestep.
			end, err := framesEnd(f, 1+m.Timesteps-ps)
			if err == nil {
				err = f.Truncate(end)
			}
			if err != nil {
				a.Close()
				return nil, err
			}
			a.tail[len(a.tail)-1].size = end
		}
	}
	return a, nil
}

// framesEnd returns the offset just past the first n frames of a framed
// slice file, failing if the file is shorter.
func framesEnd(f *os.File, n int) (int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	off := int64(8) // magic, version
	var b [4]byte
	for i := 0; i < n; i++ {
		if _, err := f.ReadAt(b[:], off); err != nil {
			return 0, fmt.Errorf("gofs: %s: reading frame %d: %w", f.Name(), i, err)
		}
		off += 4 + int64(binary.LittleEndian.Uint32(b[:])) + 4
	}
	if off > fi.Size() {
		return 0, fmt.Errorf("gofs: %s: %d bytes, its published frames end at %d", f.Name(), fi.Size(), off)
	}
	return off, nil
}

// Head returns the most recently appended (or rehydrated) instance, nil on
// an empty dataset. The caller must treat it as immutable.
func (a *Appender) Head() *graph.Instance { return a.prev }

// Append folds one new timestep into the dataset and publishes it: one
// record per bin is written and fsynced past the published end of the tail
// pack, then the manifest commit makes the timestep visible. The Appender
// takes ownership of ins — callers must not mutate it afterwards.
//
// Determinism: given the same prefix and the same appended instances, the
// produced files are byte-identical regardless of crashes and restarts in
// between, because every input to the encoder (bin layout, snapshot
// predicate, dirty masks) is a pure function of the dataset content.
func (a *Appender) Append(ins *graph.Instance) error {
	s := a.store
	m := s.m()
	T := m.Timesteps
	if ins.Timestep != T {
		return fmt.Errorf("gofs: append timestep %d, want %d", ins.Timestep, T)
	}
	if want := m.T0 + int64(T)*m.Delta; ins.Time != want {
		return fmt.Errorf("gofs: append time %d at timestep %d, want %d", ins.Time, T, want)
	}
	if err := ins.Validate(s.template); err != nil {
		return err
	}
	if T%m.Pack == 0 {
		if err := a.startPack(T); err != nil {
			return err
		}
	}
	var vd, ed []bool
	if a.vd != nil && T > 0 {
		clear(a.vd)
		clear(a.ed)
		graph.MarkChanged(a.prev, ins, a.vd, a.ed)
		vd, ed = a.vd, a.ed
	}
	i := 0
	for p := range a.bins {
		for b := range a.bins[p] {
			tf := &a.tail[i]
			rec := encodeRecord(a.w, m, ins, &a.bins[p][b], vd, ed)
			if err := a.w.err; err != nil {
				return err
			}
			if _, err := tf.f.WriteAt(rec, tf.size); err != nil {
				return err
			}
			tf.next = tf.size + int64(len(rec))
			i++
		}
	}
	for _, tf := range a.tail {
		if err := tf.f.Sync(); err != nil {
			return err
		}
	}

	nm := *m
	nm.Timesteps = T + 1
	if err := s.publish(&nm); err != nil {
		return err
	}
	for i := range a.tail {
		a.tail[i].size = a.tail[i].next
	}
	a.prev = ins
	if nm.Timesteps%m.Pack == 0 {
		// The pack is complete. Its records are fsynced and published, so
		// a Close error cannot lose them and must not fail the append.
		_ = a.closeTail()
	}
	return nil
}

// startPack creates the files of the pack starting at ps, each holding
// only its header, and makes them the tail. A file left by an append that
// never published is overwritten.
func (a *Appender) startPack(ps int) error {
	// Open files here belong to a failed earlier attempt at this step.
	_ = a.closeTail()
	for p := range a.bins {
		for b := range a.bins[p] {
			f, err := os.OpenFile(slicePath(a.store.dir, p, b, ps), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
			if err != nil {
				return err
			}
			a.tail = append(a.tail, tailFile{f: f})
			hdr := sliceHeader(a.w, p, b, ps, &a.bins[p][b])
			if _, err := f.Write(hdr); err != nil {
				return err
			}
			a.tail[len(a.tail)-1].size = int64(len(hdr))
		}
	}
	return nil
}

// closeTail closes the tail pack's files.
func (a *Appender) closeTail() error {
	var first error
	for _, tf := range a.tail {
		if err := tf.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	a.tail = a.tail[:0]
	return first
}

// Close releases the tail pack's open files. The dataset needs no other
// closing.
func (a *Appender) Close() error { return a.closeTail() }

// TrimSuperseded deletes the temp files an interrupted manifest publish
// leaves behind, returning how many files were deleted and how many bytes
// were freed. Slice files are never superseded: each pack grows in place.
func (s *Store) TrimSuperseded() (removed int, freed int64, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), ".manifest_") {
			continue
		}
		info, err := e.Info()
		if err == nil && os.Remove(filepath.Join(s.dir, e.Name())) == nil {
			removed++
			freed += info.Size()
		}
	}
	return removed, freed, nil
}
