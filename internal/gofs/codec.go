// Package gofs is the storage layer of the reproduction, modelled on
// GoFFish's GoFS distributed file system: time-series graph datasets are
// laid out on disk as slice files, each packing a run of consecutive
// timesteps (temporal packing, default 10) for a group of up to `bin`
// subgraphs of one partition (subgraph binning, default 5). Packing gives
// the incremental loader temporal locality — an entire pack is materialized
// when its first timestep is touched, producing the every-10th-timestep
// load spike visible in the paper's Fig 6.
package gofs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"tsgraph/internal/graph"
)

// Magic and version identify the on-disk format.
const (
	sliceMagic    = 0x476F4653 // "GoFS"
	templateMagic = 0x476F4754 // "GoGT"
	manifestMagic = 0x476F464D // "GoFM"
	formatVersion = 1
	// formatVersionDelta marks slice and manifest files of legacy
	// delta-encoded datasets (Options.SnapshotEvery > 0): periodic full
	// snapshots with sparse per-timestep deltas chained between them.
	formatVersionDelta = 2
	// formatVersionFramed is the slice and manifest format every writer
	// emits. A slice file is magic and version, then one frame holding the
	// header (partition, bin, pack start, member lists), then one frame per
	// timestep. A frame is u32 length | payload | u32 CRC-32(payload), and
	// a timestep's payload is the version-1 record (full columns) or, when
	// SnapshotEvery > 0, the version-2 record. The file carries no record
	// count and no whole-file CRC: the manifest's Timesteps says how many
	// records a reader decodes, so a tail pack grows by appending a frame.
	// Versions 1 and 2 stay readable but are never written.
	formatVersionFramed = 3
)

// Per-timestep record kinds inside a version-2 slice file.
const (
	recSnapshot = 0 // full column values for the bin
	recDelta    = 1 // values only at the changed indices, patched over t-1
)

// maxStringLen bounds any single encoded string; guards against corrupt
// length prefixes allocating unbounded memory.
const maxStringLen = 1 << 24

// maxListLen bounds encoded slice lengths for the same reason.
const maxListLen = 1 << 31

// chunkVals is how many fixed-width values move per call. A CRC does not
// depend on how its stream is chunked, so neither do the bytes on disk.
const chunkVals = 4096

// writer wraps a bufio.Writer with a running CRC and sticky error. Between
// openFrame and closeFrame its output goes to a frame buffer instead, which
// the writer keeps and reuses.
type writer struct {
	w       *bufio.Writer
	crc     uint32
	err     error
	rec     []byte // the open frame: length placeholder, then payload
	inFrame bool
	buf     [8 * chunkVals]byte // scratch every encode goes through
}

func newWriter(w io.Writer) *writer {
	return &writer{w: bufio.NewWriterSize(w, 1<<16)}
}

// reset points the writer at a new sink with a fresh CRC, keeping its
// buffers.
func (w *writer) reset(sink io.Writer) {
	w.w.Reset(sink)
	w.crc, w.err = 0, nil
}

func (w *writer) write(p []byte) {
	if w.err != nil {
		return
	}
	if w.inFrame {
		w.rec = append(w.rec, p...)
		return
	}
	_, w.err = w.w.Write(p)
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
}

// openFrame diverts the writer's output into its frame buffer.
func (w *writer) openFrame() {
	w.rec = append(w.rec[:0], 0, 0, 0, 0)
	w.inFrame = true
}

// closeFrame ends the open frame and returns it as u32 length | payload |
// u32 CRC-32(payload). The bytes are valid until the next openFrame.
func (w *writer) closeFrame() []byte {
	w.inFrame = false
	n := len(w.rec) - 4
	if uint64(n) > math.MaxUint32 {
		w.err = fmt.Errorf("gofs: frame of %d bytes exceeds format limit", n)
	}
	binary.LittleEndian.PutUint32(w.rec, uint32(n))
	w.rec = binary.LittleEndian.AppendUint32(w.rec, crc32.ChecksumIEEE(w.rec[4:]))
	return w.rec
}

// run encodes n values of size bytes each a chunk at a time: put fills b
// with values [lo, hi), then b goes out in one write.
func (w *writer) run(n, size int, put func(b []byte, lo, hi int)) {
	for lo := 0; lo < n; lo += chunkVals {
		hi := min(lo+chunkVals, n)
		b := w.buf[:size*(hi-lo)]
		put(b, lo, hi)
		w.write(b)
	}
}

func (w *writer) u32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	w.write(w.buf[:4])
}

func (w *writer) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:8], v)
	w.write(w.buf[:8])
}

func (w *writer) i64(v int64) { w.u64(uint64(v)) }
func (w *writer) byteVal(v byte) {
	w.buf[0] = v
	w.write(w.buf[:1])
}

func (w *writer) str(s string) {
	if len(s) > maxStringLen {
		w.err = fmt.Errorf("gofs: string of %d bytes exceeds format limit", len(s))
		return
	}
	w.u32(uint32(len(s)))
	w.write([]byte(s))
}

func (w *writer) i32s(vs []int32) { writeInts(w, vs, 4) }
func (w *writer) i64s(vs []int64) { writeInts(w, vs, 8) }

func writeInts[T int32 | int64](w *writer, vs []T, size int) {
	w.u64(uint64(len(vs)))
	w.run(len(vs), size, func(b []byte, lo, hi int) {
		for j, v := range vs[lo:hi] {
			if size == 4 {
				binary.LittleEndian.PutUint32(b[4*j:], uint32(v))
			} else {
				binary.LittleEndian.PutUint64(b[8*j:], uint64(v))
			}
		}
	})
}

// flush writes out what is buffered.
func (w *writer) flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// finish writes the trailing CRC (not itself checksummed) and flushes.
func (w *writer) finish() error {
	if w.err != nil {
		return w.err
	}
	binary.LittleEndian.PutUint32(w.buf[:4], w.crc)
	if _, err := w.w.Write(w.buf[:4]); err != nil {
		return err
	}
	return w.w.Flush()
}

// reader decodes from its own read-ahead window with a running CRC and
// sticky error. The CRC folds in consumed bytes only when the window
// refills, so a scalar read is a bounds check and a load.
type reader struct {
	src            io.Reader
	buf            []byte
	from, pos, end int   // buf[from:pos] is read but not yet in crc; buf[pos:end] is unread
	n              int64 // bytes read from src
	crc            uint32
	err            error
}

func newReader(r io.Reader) *reader {
	return &reader{src: r, buf: make([]byte, 1<<16)}
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// next consumes the next n <= len(r.buf) bytes and returns them, valid
// until the following call; nil once any read has failed.
func (r *reader) next(n int) []byte {
	if r.err == nil && r.end-r.pos < n {
		r.crc = crc32.Update(r.crc, crc32.IEEETable, r.buf[r.from:r.pos])
		r.end = copy(r.buf, r.buf[r.pos:r.end])
		r.from, r.pos = 0, 0
		k, err := io.ReadAtLeast(r.src, r.buf[r.end:], n-r.end)
		r.end += k
		r.n += int64(k)
		r.fail(err)
	}
	if r.err != nil {
		return nil
	}
	r.pos += n
	return r.buf[r.pos-n : r.pos]
}

// read fills p, which may be longer than the window.
func (r *reader) read(p []byte) {
	for len(p) > 0 && r.err == nil {
		p = p[copy(p, r.next(min(len(p), len(r.buf)))):]
	}
}

// run decodes n values of size bytes each a chunk at a time, straight out
// of the window: get decodes values [lo, hi) from b. It stops at an error.
func (r *reader) run(n, size int, get func(b []byte, lo, hi int)) {
	for lo := 0; lo < n && r.err == nil; lo += chunkVals {
		hi := min(lo+chunkVals, n)
		if b := r.next(size * (hi - lo)); b != nil {
			get(b, lo, hi)
		}
	}
}

func (r *reader) u32() uint32 {
	if b := r.next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if b := r.next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *reader) i64() int64 { return int64(r.u64()) }

func (r *reader) byteVal() byte {
	if b := r.next(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *reader) boolVal() bool { return r.byteVal() != 0 }

func (r *reader) str() string {
	n := r.u32()
	if r.err != nil {
		return ""
	}
	if n > maxStringLen {
		r.fail(fmt.Errorf("gofs: string length %d exceeds format limit", n))
		return ""
	}
	if int(n) <= len(r.buf) {
		return string(r.next(int(n)))
	}
	buf := make([]byte, n)
	r.read(buf)
	return string(buf)
}

func (r *reader) listLen() int {
	n := r.u64()
	if r.err != nil {
		return 0
	}
	if n > maxListLen {
		r.fail(fmt.Errorf("gofs: list length %d exceeds format limit", n))
		return 0
	}
	return int(n)
}

func (r *reader) i32s() []int32 { return readInts[int32](r, 4) }
func (r *reader) i64s() []int64 { return readInts[int64](r, 8) }

// readInts decodes a list of size-byte integers. It grows the result as
// chunks arrive rather than trusting the length prefix, so a corrupt prefix
// fails at EOF having reserved at most one chunk past the bytes present.
func readInts[T int32 | int64](r *reader, size int) []T {
	n := r.listLen()
	out := make([]T, 0, min(n, chunkVals))
	r.run(n, size, func(b []byte, lo, hi int) {
		for j := range hi - lo {
			if size == 4 {
				out = append(out, T(int32(binary.LittleEndian.Uint32(b[4*j:]))))
			} else {
				out = append(out, T(binary.LittleEndian.Uint64(b[8*j:])))
			}
		}
	})
	if r.err != nil {
		return nil
	}
	return out
}

// offset is the stream position of the next unread byte.
func (r *reader) offset() int64 { return r.n - int64(r.end-r.pos) }

// beginFrame reads a frame's length prefix, checks that the frame fits in
// the first limit bytes of the stream, and restarts the CRC at its
// payload. It returns the offset where the payload must end.
func (r *reader) beginFrame(limit int64) int64 {
	n := int64(r.u32())
	if r.err != nil {
		return 0
	}
	end := r.offset() + n
	if end+4 > limit {
		r.fail(fmt.Errorf("gofs: frame of %d bytes at offset %d overruns the %d-byte file", n, r.offset()-4, limit))
		return 0
	}
	r.crc, r.from = 0, r.pos
	return end
}

// endFrame checks that the open frame's payload ended at end and that its
// CRC matches.
func (r *reader) endFrame(end int64) error {
	if r.err == nil && r.offset() != end {
		r.fail(fmt.Errorf("gofs: frame payload ends at offset %d, its length says %d", r.offset(), end))
	}
	return r.verifyCRC()
}

// verifyCRC reads the trailing checksum and compares it with the running
// CRC of everything read since the start or the last beginFrame.
func (r *reader) verifyCRC() error {
	if r.err != nil {
		return r.err
	}
	want := crc32.Update(r.crc, crc32.IEEETable, r.buf[r.from:r.pos])
	b := r.next(4)
	if b == nil {
		return fmt.Errorf("gofs: reading checksum: %w", r.err)
	}
	got := binary.LittleEndian.Uint32(b)
	if got != want {
		return fmt.Errorf("gofs: checksum mismatch: file %08x, computed %08x", got, want)
	}
	return nil
}

// writeSchema serializes a schema.
func writeSchema(w *writer, s *graph.Schema) {
	w.u32(uint32(s.Len()))
	for i := 0; i < s.Len(); i++ {
		w.str(s.Name(i))
		w.byteVal(byte(s.Type(i)))
	}
}

// readSchema deserializes a schema.
func readSchema(r *reader) *graph.Schema {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n > 1<<16 {
		r.fail(fmt.Errorf("gofs: schema with %d attributes exceeds limit", n))
		return nil
	}
	names := make([]string, n)
	types := make([]graph.AttrType, n)
	for i := 0; i < n; i++ {
		names[i] = r.str()
		types[i] = graph.AttrType(r.byteVal())
	}
	if r.err != nil {
		return nil
	}
	s, err := graph.NewSchema(names, types)
	if err != nil {
		r.fail(err)
		return nil
	}
	return s
}

// writeColumnValues serializes the values of a column at the given indices.
func writeColumnValues(w *writer, c *graph.Column, indices []int32) {
	w.byteVal(byte(c.Type))
	w.u64(uint64(len(indices)))
	switch c.Type {
	case graph.TInt, graph.TFloat:
		w.run(len(indices), 8, func(b []byte, lo, hi int) {
			for j, i := range indices[lo:hi] {
				if c.Type == graph.TInt {
					binary.LittleEndian.PutUint64(b[8*j:], uint64(c.Ints[i]))
				} else {
					binary.LittleEndian.PutUint64(b[8*j:], math.Float64bits(c.Floats[i]))
				}
			}
		})
	case graph.TString:
		for _, i := range indices {
			w.str(c.Strings[i])
		}
	case graph.TStringList:
		for _, i := range indices {
			list := c.StringLists[i]
			w.u32(uint32(len(list)))
			for _, s := range list {
				w.str(s)
			}
		}
	case graph.TBool:
		w.run(len(indices), 1, func(b []byte, lo, hi int) {
			for j, i := range indices[lo:hi] {
				b[j] = 0
				if c.Bools[i] {
					b[j] = 1
				}
			}
		})
	default:
		w.err = fmt.Errorf("gofs: cannot encode column type %v", c.Type)
	}
}

// copyColumnValues carries the previous timestep's values forward into dst
// at the given indices, before a delta record patches the changed subset.
// String and string-list values share their backing storage with prev —
// decoded instances are read-only, so aliasing is safe and keeps the copy
// O(indices) regardless of content size (Instance.Clone deep-copies if a
// caller ever needs to mutate).
func copyColumnValues(prev, dst *graph.Column, indices []int32) {
	switch dst.Type {
	case graph.TInt:
		for _, i := range indices {
			dst.Ints[i] = prev.Ints[i]
		}
	case graph.TFloat:
		for _, i := range indices {
			dst.Floats[i] = prev.Floats[i]
		}
	case graph.TString:
		for _, i := range indices {
			dst.Strings[i] = prev.Strings[i]
		}
	case graph.TStringList:
		for _, i := range indices {
			dst.StringLists[i] = prev.StringLists[i]
		}
	case graph.TBool:
		for _, i := range indices {
			dst.Bools[i] = prev.Bools[i]
		}
	}
}

// readColumnValues deserializes column values into dst at the given indices.
// The on-disk type and count must match.
func readColumnValues(r *reader, dst *graph.Column, indices []int32) {
	typ := graph.AttrType(r.byteVal())
	count := r.u64()
	if r.err != nil {
		return
	}
	if typ != dst.Type {
		r.fail(fmt.Errorf("gofs: column type %v on disk, %v expected", typ, dst.Type))
		return
	}
	if count != uint64(len(indices)) {
		r.fail(fmt.Errorf("gofs: column has %d values, expected %d", count, len(indices)))
		return
	}
	switch dst.Type {
	case graph.TInt, graph.TFloat:
		r.run(len(indices), 8, func(b []byte, lo, hi int) {
			for j, i := range indices[lo:hi] {
				if v := binary.LittleEndian.Uint64(b[8*j:]); dst.Type == graph.TInt {
					dst.Ints[i] = int64(v)
				} else {
					dst.Floats[i] = math.Float64frombits(v)
				}
			}
		})
	case graph.TString:
		for _, i := range indices {
			dst.Strings[i] = r.str()
		}
	case graph.TStringList:
		for _, i := range indices {
			n := r.u32()
			if r.err != nil {
				return
			}
			if n > 1<<20 {
				r.fail(fmt.Errorf("gofs: string list of %d entries exceeds limit", n))
				return
			}
			var list []string
			if n > 0 {
				list = make([]string, n)
				for j := range list {
					list[j] = r.str()
				}
			}
			dst.StringLists[i] = list
		}
	case graph.TBool:
		r.run(len(indices), 1, func(b []byte, lo, hi int) {
			for j, i := range indices[lo:hi] {
				dst.Bools[i] = b[j] != 0
			}
		})
	default:
		r.fail(fmt.Errorf("gofs: cannot decode column type %v", dst.Type))
	}
}
