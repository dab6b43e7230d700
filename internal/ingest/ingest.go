package ingest

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"tsgraph/internal/gofs"
	"tsgraph/internal/graph"
)

// Options configures an Ingester.
type Options struct {
	// RetainBytes has no effect: appends grow each pack in place, so no
	// superseded file generations exist to retain.
	RetainBytes int64
	// WALRotateRecords is how many appends may accumulate in the WAL
	// before it is reset (every logged record is already covered by
	// durable packs, so the reset only bounds replay work and file size).
	// 0 means the default of 64.
	WALRotateRecords int
	// GroupCommitWindow, when positive, holds each WAL fsync open this
	// long so concurrent appends can join the commit group and share one
	// fsync. Zero still group-commits opportunistically: appends arriving
	// while an fsync is in flight are covered together by the next one.
	GroupCommitWindow time.Duration
}

// Ingester is the live-append pipeline over an open dataset:
//
//	validate → WAL stage → fold against head → publish packs → WAL sync
//
// The ack point is the WAL group fsync: once Apply returns, a crash
// anywhere — including mid-record-write — replays into byte-identical
// packs, because the fold and the gofs.Appender are both deterministic
// functions of (dataset prefix, mutation sequence), and the Appender cuts
// any record past the published manifest when it reopens. Staging before
// the fold and fsyncing after it is safe because the pack publish is
// itself durable (records and manifest are fsynced): on replay, records
// whose timestep the packs already cover are skipped, and a torn unsynced
// record belongs to an append that was never acked. The manifest publish
// is the visibility point: queries never see a timestep whose bytes are
// not fully on disk.
//
// Deferring the fsync to after the mutex is released is what makes group
// commit work: concurrent Apply calls serialize their stage+fold under
// the lock, then coalesce their fsyncs into one (see gofs.WAL.Sync).
//
// All mutation is serialized under one mutex; reads (Watermark, the
// query path through the Store) are lock-free.
type Ingester struct {
	store *gofs.Store
	met   *Metrics
	opt   Options

	mu         sync.Mutex
	app        *gofs.Appender
	wal        *gofs.WAL
	broken     error // set when WAL and packs may disagree; refuses further appends
	sinceReset int
}

// WALPath returns the conventional WAL location for a dataset directory.
func WALPath(datasetDir string) string {
	return filepath.Join(datasetDir, gofs.WALName)
}

// Open starts an ingest session on a store, replaying any WAL left by a
// crash before returning: recovered mutations for timesteps the packs
// already cover are skipped (they were published before the crash), the
// rest are folded and published, and the WAL is then reset. Temp files a
// crashed publish left behind are swept. When Open returns, packs,
// manifest, and WAL agree and the store's watermark is the recovered head.
func Open(store *gofs.Store, opt Options) (*Ingester, error) {
	if opt.WALRotateRecords <= 0 {
		opt.WALRotateRecords = 64
	}
	met := &Metrics{}
	if _, _, err := store.TrimSuperseded(); err != nil {
		return nil, err
	}
	app, err := gofs.NewAppender(store)
	if err != nil {
		return nil, err
	}
	wal, recovered, err := gofs.OpenWAL(WALPath(store.Dir()))
	if err != nil {
		app.Close()
		return nil, err
	}
	wal.GroupWindow = opt.GroupCommitWindow
	ing := &Ingester{store: store, met: met, opt: opt, app: app, wal: wal}
	if err := ing.replay(recovered); err != nil {
		ing.Close()
		return nil, err
	}
	met.watermark.Store(int64(store.Timesteps()))
	return ing, nil
}

// replay folds the recovered WAL records the packs do not cover yet, then
// resets the WAL.
func (i *Ingester) replay(recovered [][]byte) error {
	for _, payload := range recovered {
		var mut Mutation
		if err := json.Unmarshal(payload, &mut); err != nil {
			return fmt.Errorf("ingest: corrupt WAL payload: %w", err)
		}
		if mut.Timestep == nil {
			return fmt.Errorf("ingest: WAL payload without timestep")
		}
		head := i.store.Timesteps()
		if *mut.Timestep < head {
			continue // already folded and published before the crash
		}
		if *mut.Timestep > head {
			return fmt.Errorf("ingest: WAL replay gap: record for timestep %d, head %d", *mut.Timestep, head)
		}
		ops, err := compile(i.store.Template(), &mut)
		if err == nil {
			_, err = i.foldLocked(ops)
		}
		if err != nil {
			return fmt.Errorf("ingest: WAL replay at timestep %d: %w", *mut.Timestep, err)
		}
	}
	if len(recovered) == 0 {
		return nil
	}
	return i.wal.Reset(nil)
}

// Metrics returns the ingest instrumentation (never nil).
func (i *Ingester) Metrics() *Metrics { return i.met }

// Watermark returns the published watermark: every timestep below it is
// durably on disk and visible to queries.
func (i *Ingester) Watermark() int { return i.store.Timesteps() }

// WALFsyncs returns how many fsync batches the WAL has issued since open;
// with group commit, concurrent appends share batches, so this is below
// the append count under write concurrency.
func (i *Ingester) WALFsyncs() int64 { return i.wal.Fsyncs() }

// SecondsSinceLastAppend reports the watermark lag for anomaly detection.
func (i *Ingester) SecondsSinceLastAppend() float64 {
	return i.met.SecondsSinceLastAppend()
}

// Apply runs one mutation through the full pipeline and returns the new
// watermark. Concurrency-safe; mutations are serialized through the stage
// and fold, then concurrent callers share one WAL fsync (group commit)
// before any of them is acked.
func (i *Ingester) Apply(mut *Mutation) (watermark int, err error) {
	defer func() {
		if err != nil {
			i.met.failures.Add(1)
		}
	}()
	i.mu.Lock()
	wm, seq, err := i.applyLocked(mut)
	i.mu.Unlock()
	if err != nil {
		return 0, err
	}
	// Durability point. The packs for this mutation are already published
	// (durably), but the ack contract is that the WAL record also survives:
	// a reported-successful append must replay even if the publish had been
	// torn. Waiting here, outside the mutex, is what lets concurrent
	// appends coalesce into one fsync.
	if serr := i.wal.Sync(seq); serr != nil {
		// The fsync failed, so the WAL's on-disk state is unknown; refuse
		// further appends rather than risk a replay that disagrees with the
		// packs. This mutation itself is durable via its published packs —
		// a retry after restart is rejected with ErrTimestepGap, not
		// double-applied.
		i.mu.Lock()
		if i.broken == nil {
			i.broken = serr
		}
		i.mu.Unlock()
		return 0, serr
	}
	return wm, nil
}

// applyLocked validates, stages the WAL record, folds, and publishes one
// mutation. Callers hold i.mu and must then Sync the returned sequence
// before acking.
func (i *Ingester) applyLocked(mut *Mutation) (watermark int, seq int64, err error) {
	if i.broken != nil {
		return 0, 0, fmt.Errorf("ingest: halted after earlier failure: %w", i.broken)
	}

	head := i.store.Timesteps()
	if mut.Timestep != nil && *mut.Timestep != head {
		return 0, 0, fmt.Errorf("%w: mutation for timestep %d, next is %d", ErrTimestepGap, *mut.Timestep, head)
	}

	// Validate and compile before anything touches disk: a WAL record is
	// only written for a mutation that is guaranteed to fold on replay.
	ops, err := compile(i.store.Template(), mut)
	if err != nil {
		return 0, 0, err
	}

	ts := head
	mut.Timestep = &ts
	payload, err := json.Marshal(mut)
	if err != nil {
		return 0, 0, err
	}
	seq, err = i.wal.Stage(payload)
	if err != nil {
		return 0, 0, err
	}

	wm, err := i.foldLocked(ops)
	if err != nil {
		// The WAL now holds a staged record the packs will never cover.
		// Drop it so a later replay cannot resurrect a mutation whose
		// append was reported failed; if even that fails, refuse further
		// appends rather than risk divergence.
		if rerr := i.wal.Reset(nil); rerr != nil {
			i.broken = rerr
		}
		return 0, 0, err
	}

	i.sinceReset++
	if i.sinceReset >= i.opt.WALRotateRecords {
		// Every logged record is covered by durable packs; the reset only
		// bounds replay work. Failure is not fatal — the log just grows.
		// A reset also marks this call's own record synced (its packs are
		// published), so the Sync after the lock returns immediately.
		if err := i.wal.Reset(nil); err == nil {
			i.sinceReset = 0
		}
	}
	return wm, seq, nil
}

// foldLocked folds one compiled mutation into a new head instance and
// publishes it. Callers hold i.mu.
func (i *Ingester) foldLocked(ops []patchOp) (int, error) {
	t := i.store.Template()
	m := i.store.Manifest()
	head := m.Timesteps

	var ins *graph.Instance
	if prev := i.app.Head(); prev != nil {
		ins = prev.Clone()
		ins.Timestep = head
		ins.Time = m.T0 + int64(head)*m.Delta
	} else {
		ins = graph.NewInstance(t, head, m.T0)
	}
	apply(ins, ops)
	if err := i.app.Append(ins); err != nil {
		return 0, err
	}
	wm := i.store.Timesteps()
	i.met.watermark.Store(int64(wm))
	i.met.lastAppendNS.Store(time.Now().UnixNano())
	i.met.appends.Add(1)
	return wm, nil
}

// Close closes the WAL and the Appender's open tail-pack files.
func (i *Ingester) Close() error {
	i.mu.Lock()
	defer i.mu.Unlock()
	aerr := i.app.Close()
	if err := i.wal.Close(); err != nil {
		return err
	}
	return aerr
}
