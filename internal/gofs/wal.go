package gofs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Write-ahead log for live ingestion. Each record is an opaque payload
// framed like the other GoFS files — magic, version, length, trailing
// CRC-32 — but framed per record rather than per file, because a WAL is by
// construction a file whose final record may be torn by a crash: replay
// must recover the longest valid prefix and discard the rest, never fail
// on it.
//
// Record layout (all little-endian):
//
//	u32 magic  "GoWL"
//	u32 version
//	u64 payload length
//	payload bytes
//	u32 CRC-32 (IEEE) over header+payload
const (
	walMagic   = 0x476F574C // "GoWL"
	walVersion = 1
	// walHeaderLen is the fixed frame prefix; walFrameOverhead adds the CRC.
	walHeaderLen     = 16
	walFrameOverhead = walHeaderLen + 4
	// maxWALRecord bounds a single payload so a corrupt length field cannot
	// drive a giant allocation during replay.
	maxWALRecord = 64 << 20

	// WALName is the conventional WAL file name inside a dataset directory.
	WALName = "ingest.wal"
)

// WAL is an append-only record log with group commit: writers Stage records
// (buffered write, no fsync) and then Sync them, and concurrent Syncs
// coalesce into one fsync — the first waiter becomes the group leader,
// syncs the file once, and releases everyone whose record that fsync
// covered. Append is the durable one-shot composition of the two. Safe for
// concurrent use.
type WAL struct {
	path string
	// GroupWindow, when positive, holds a group leader's fsync open this
	// long so concurrent stagers can join the group. Zero still group-
	// commits naturally: stagers arriving while a leader's fsync is in
	// flight are covered together by the next one.
	GroupWindow time.Duration

	mu   sync.Mutex
	cond *sync.Cond
	f    *os.File
	size int64
	recs int
	// staged is the sequence of the last record written into the file;
	// synced is the highest sequence a completed fsync covers. A record is
	// durable once synced >= its sequence.
	staged int64
	synced int64
	// syncing marks a leader's fsync in flight; Reset waits it out so the
	// file handle is never swapped under an fsync.
	syncing bool
	fsyncs  int64
	// err is sticky after a failed write or fsync: the file offset may sit
	// mid-frame, so the log refuses further use until Reset rebuilds it.
	err error
}

// ReplayWAL reads every complete, checksummed record from a WAL file and
// returns the payloads plus the byte offset where the valid prefix ends. A
// missing file replays to nothing. Torn or corrupt trailing bytes are not
// an error — they are the expected shape of a crash — so replay stops at
// the first record that fails to parse and reports the prefix before it.
func ReplayWAL(path string) (payloads [][]byte, validSize int64, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	off := int64(0)
	for {
		payload, next, ok := parseWALRecord(data, off)
		if !ok {
			return payloads, off, nil
		}
		payloads = append(payloads, payload)
		off = next
	}
}

// parseWALRecord parses one record at off; ok=false means the bytes from
// off onward do not form a complete valid record (torn tail, corruption,
// or clean end of log).
func parseWALRecord(data []byte, off int64) (payload []byte, next int64, ok bool) {
	if off+walHeaderLen > int64(len(data)) {
		return nil, 0, false
	}
	h := data[off : off+walHeaderLen]
	if binary.LittleEndian.Uint32(h[0:4]) != walMagic {
		return nil, 0, false
	}
	if binary.LittleEndian.Uint32(h[4:8]) != walVersion {
		return nil, 0, false
	}
	n := binary.LittleEndian.Uint64(h[8:16])
	if n > maxWALRecord {
		return nil, 0, false
	}
	end := off + walHeaderLen + int64(n) + 4
	if end > int64(len(data)) {
		return nil, 0, false
	}
	body := data[off+walHeaderLen : off+walHeaderLen+int64(n)]
	want := binary.LittleEndian.Uint32(data[end-4 : end])
	if crc32.ChecksumIEEE(data[off:end-4]) != want {
		return nil, 0, false
	}
	// Copy out of the mapped file buffer so callers own their payloads.
	payload = append([]byte(nil), body...)
	return payload, end, true
}

// appendWALRecord frames one payload into buf.
func appendWALRecord(buf []byte, payload []byte) []byte {
	start := len(buf)
	var h [walHeaderLen]byte
	binary.LittleEndian.PutUint32(h[0:4], walMagic)
	binary.LittleEndian.PutUint32(h[4:8], walVersion)
	binary.LittleEndian.PutUint64(h[8:16], uint64(len(payload)))
	buf = append(buf, h[:]...)
	buf = append(buf, payload...)
	crc := crc32.ChecksumIEEE(buf[start:])
	var c [4]byte
	binary.LittleEndian.PutUint32(c[:], crc)
	return append(buf, c[:]...)
}

// OpenWAL replays an existing log (tolerating a torn tail, which it
// truncates away) and opens it for appending. The returned payloads are
// the recovered records in append order.
func OpenWAL(path string) (*WAL, [][]byte, error) {
	payloads, validSize, err := ReplayWAL(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if err := f.Truncate(validSize); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("gofs: truncating torn WAL tail: %w", err)
	}
	if _, err := f.Seek(validSize, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	w := &WAL{path: path, f: f, size: validSize, recs: len(payloads)}
	w.cond = sync.NewCond(&w.mu)
	return w, payloads, nil
}

// Stage frames and writes one payload into the log without forcing it to
// disk, returning the record's sequence for a later Sync. Writers are
// serialized internally, so sequence order equals file order. A staged
// record is durable only after a Sync at or beyond its sequence returns.
func (w *WAL) Stage(payload []byte) (seq int64, err error) {
	if int64(len(payload)) > maxWALRecord {
		return 0, fmt.Errorf("gofs: WAL payload %d bytes exceeds limit %d", len(payload), maxWALRecord)
	}
	frame := appendWALRecord(make([]byte, 0, len(payload)+walFrameOverhead), payload)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, fmt.Errorf("gofs: WAL unusable after earlier failure: %w", w.err)
	}
	if _, err := w.f.Write(frame); err != nil {
		w.err = err
		w.cond.Broadcast()
		return 0, err
	}
	w.size += int64(len(frame))
	w.recs++
	w.staged++
	return w.staged, nil
}

// Sync blocks until a completed fsync covers seq. Concurrent callers form a
// commit group: one becomes the leader and fsyncs once for every record
// staged by the time it runs, the rest just wait for that fsync (or a later
// one) to cover their sequence. A Reset supersedes outstanding records, so
// pending Syncs then return nil — the caller declared those records covered
// elsewhere.
func (w *WAL) Sync(seq int64) error {
	w.mu.Lock()
	for {
		if w.err != nil {
			err := w.err
			w.mu.Unlock()
			return fmt.Errorf("gofs: WAL sync: %w", err)
		}
		if w.synced >= seq {
			w.mu.Unlock()
			return nil
		}
		if !w.syncing {
			break
		}
		w.cond.Wait()
	}
	// Leader: sync everything staged so far in one fsync.
	w.syncing = true
	if w.GroupWindow > 0 {
		w.mu.Unlock()
		time.Sleep(w.GroupWindow)
		w.mu.Lock()
	}
	target := w.staged
	f := w.f
	w.mu.Unlock()

	err := f.Sync()

	w.mu.Lock()
	w.syncing = false
	if err != nil {
		if w.err == nil {
			w.err = err
		}
	} else {
		w.fsyncs++
		if target > w.synced {
			w.synced = target
		}
	}
	w.cond.Broadcast()
	stickyErr := w.err
	covered := w.synced >= seq
	w.mu.Unlock()

	if stickyErr != nil && !covered {
		return fmt.Errorf("gofs: WAL sync: %w", stickyErr)
	}
	return nil
}

// Append durably logs one payload: Stage plus Sync. On error the WAL is
// unusable for further appends (the file offset may be mid-frame) until
// Reset rebuilds it — replay will discard any torn record.
func (w *WAL) Append(payload []byte) error {
	seq, err := w.Stage(payload)
	if err != nil {
		return err
	}
	return w.Sync(seq)
}

// Reset atomically replaces the log's contents (temp+fsync+rename, the
// checkpoint machinery's pattern) — used to drop records that are now
// covered by published packs. Pass nil to empty the log. Reset waits out
// any in-flight group fsync, then marks every previously staged record
// synced: outstanding Sync calls return nil, because the caller of Reset
// has declared those records superseded by durable state elsewhere. Reset
// also clears a sticky write/fsync error (the broken bytes are gone).
func (w *WAL) Reset(payloads [][]byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.syncing {
		w.cond.Wait()
	}
	dir := filepath.Dir(w.path)
	tmp, err := os.CreateTemp(dir, ".wal_*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("gofs: resetting WAL: %w", err)
	}
	var buf []byte
	for _, p := range payloads {
		buf = appendWALRecord(buf, p)
	}
	if len(buf) > 0 {
		if _, err := tmp.Write(buf); err != nil {
			return fail(err)
		}
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("gofs: resetting WAL: %w", err)
	}
	if err := os.Rename(tmpName, w.path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("gofs: resetting WAL: %w", err)
	}
	old := w.f
	f, err := os.OpenFile(w.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return err
	}
	old.Close()
	w.f = f
	w.size = int64(len(buf))
	w.recs = len(payloads)
	w.synced = w.staged
	w.err = nil
	w.cond.Broadcast()
	return nil
}

// Size returns the log's current valid byte length.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Records returns how many records the log currently holds.
func (w *WAL) Records() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.recs
}

// Fsyncs returns how many fsyncs the log has performed — with group commit
// under concurrent writers this is less than the records appended, and the
// ratio is the amortization group commit buys.
func (w *WAL) Fsyncs() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fsyncs
}

// Close closes the underlying file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}
