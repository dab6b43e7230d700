package bsp

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tsgraph/internal/metrics"
	"tsgraph/internal/obs"
	"tsgraph/internal/subgraph"
)

// Program is the user logic of one BSP execution (one TI-BSP timestep).
type Program interface {
	// Compute is invoked on every active subgraph in every superstep.
	// Subgraphs of the same partition may run concurrently; the
	// paper's contract (and this engine's) is that a Compute invocation
	// only touches its own subgraph's state. The msgs slice is only valid
	// for the duration of the call: the engine recycles inbox storage
	// across supersteps, so implementations must copy anything they keep.
	Compute(ctx *Context, sg *subgraph.Subgraph, superstep int, msgs []Message)
}

// ComputeFunc adapts a function to the Program interface.
type ComputeFunc func(ctx *Context, sg *subgraph.Subgraph, superstep int, msgs []Message)

// Compute implements Program.
func (f ComputeFunc) Compute(ctx *Context, sg *subgraph.Subgraph, superstep int, msgs []Message) {
	f(ctx, sg, superstep, msgs)
}

// Context is handed to each Compute invocation; it carries the message
// emission and halt-voting primitives. A Context is only valid for the
// duration of the invocation it was created for (the engine reuses one
// Context per subgraph across supersteps).
type Context struct {
	worker    *worker
	sg        *subgraph.Subgraph
	superstep int
	seq       int64
	out       []Message
	halted    bool
	// extra collects out-of-band emissions (temporal messages, merge
	// messages, outputs) consumed by the TI-BSP layer.
	extra map[string][]Extra
}

// Extra is an out-of-band emission recorded by a Compute call for a named
// channel (used by the TI-BSP layer for temporal and merge messaging).
type Extra struct {
	From subgraph.ID
	To   subgraph.ID // meaning depends on the channel
	Data any
}

// Superstep returns the current superstep number (0-based).
func (c *Context) Superstep() int { return c.superstep }

// SendTo sends a payload to another subgraph; it is delivered at the start
// of the next superstep.
func (c *Context) SendTo(dst subgraph.ID, payload any) {
	c.out = append(c.out, Message{From: c.sg.SID, To: dst, Seq: c.seq, Payload: payload})
	c.seq++
}

// SendToAllNeighbors sends a payload to every subgraph that shares a remote
// edge with this one.
func (c *Context) SendToAllNeighbors(payload any) {
	for _, nb := range c.sg.Neighbors {
		c.SendTo(nb, payload)
	}
}

// VoteToHalt marks this subgraph inactive; it will not run in the next
// superstep unless a message arrives for it. The BSP ends when all
// subgraphs are halted and no messages are in flight.
func (c *Context) VoteToHalt() { c.halted = true }

// Emit records an out-of-band payload on a named channel for the layer
// driving the engine (the TI-BSP runner uses channels "next-timestep",
// "next-timestep-targeted", "merge" and "output").
func (c *Context) Emit(channel string, to subgraph.ID, data any) {
	if c.extra == nil {
		c.extra = make(map[string][]Extra)
	}
	c.extra[channel] = append(c.extra[channel], Extra{From: c.sg.SID, To: to, Data: data})
}

// AddCounter accumulates a named per-partition metric counter (e.g. number
// of vertices finalized this timestep).
func (c *Context) AddCounter(name string, delta int64) {
	if c.worker.step == nil {
		return
	}
	c.worker.counterMu.Lock()
	c.worker.step.AddCounter(name, delta)
	c.worker.counterMu.Unlock()
}

// Config parameterizes an Engine.
type Config struct {
	// CoresPerHost bounds concurrent Compute calls within one partition
	// worker. Zero means 2 (the paper's m3.large has 2 cores).
	CoresPerHost int
	// MaxSupersteps aborts a BSP that fails to terminate. Zero means 10^6.
	MaxSupersteps int
	// SuperstepLatency is a modeled per-superstep cluster coordination
	// cost (barrier + bulk message exchange) added to the simulated
	// cluster time. Zero models an infinitely fast interconnect.
	SuperstepLatency time.Duration
	// ProfileLabels stamps each compute-pool goroutine with pprof labels
	// ("timestep", "superstep", "partition") whenever its superstep
	// changes, so CPU profiles taken through the obs endpoint attribute
	// samples to graph work. Off by default: label updates allocate (a
	// label set and context per worker goroutine per superstep), which
	// would break the zero-allocation hot-path budget; CLIs enable it
	// together with the pprof endpoint.
	ProfileLabels bool
	// SerialMeasure forces user Compute calls to execute one at a time so
	// their measured durations are exact. Defaults to automatic: enabled
	// when GOMAXPROCS is 1, where concurrent goroutines would otherwise
	// interleave inside each other's timing windows and corrupt the
	// simulated schedule. The simulated cluster still schedules the
	// measured durations onto CoresPerHost cores per host.
	SerialMeasure *bool
}

func (c Config) cores() int {
	if c.CoresPerHost <= 0 {
		return 2
	}
	return c.CoresPerHost
}

func (c Config) maxSupersteps() int {
	if c.MaxSupersteps <= 0 {
		return 1_000_000
	}
	return c.MaxSupersteps
}

func (c Config) serialMeasure() bool {
	if c.SerialMeasure != nil {
		return *c.SerialMeasure
	}
	return runtime.GOMAXPROCS(0) == 1
}

// msgSlicePool recycles outgoing message buffers across Compute invocations
// and supersteps: a Context checks a slice out at invocation start and the
// worker returns it after the flush phase, so steady-state supersteps do not
// allocate for messaging.
var msgSlicePool = sync.Pool{New: func() any { return new([]Message) }}

// worker is one simulated host: it owns one partition and its subgraphs'
// inboxes, halt flags, and all per-superstep scratch state. The scratch is
// allocated once (in NewEngine / the first Run) and recycled every
// superstep, which is what keeps the hot path allocation-free.
type worker struct {
	pid  int
	pos  int // index into Engine.workers (and stepSim)
	part *subgraph.PartitionData

	// Double-buffered, slice-indexed inboxes. fill receives messages
	// flushed during the current superstep (guarded by inboxMu); read is
	// the snapshot consumed by this superstep's Compute calls (owned by
	// the worker, no lock). At each superstep boundary the two are
	// swapped, so inbox storage is recycled instead of reallocated.
	inboxMu sync.Mutex
	fill    [][]Message
	read    [][]Message

	halted []bool

	// step is the metrics slot for the current timestep. Numeric fields
	// (MsgsSent/MsgsRecv) are updated with atomics; counterMu only guards
	// the named-counter map.
	step      *metrics.PartitionStep
	counterMu sync.Mutex

	// Per-superstep scratch, reused across supersteps.
	superstep int
	ctxs      []Context            // one reusable Context per subgraph
	active    []int                // active subgraph indices
	outs      [][]Message          // per-active outgoing messages
	outPtrs   []*[]Message         // pool tickets backing outs
	extras    []map[string][]Extra // per-active out-of-band emissions
	durs      []time.Duration      // per-active measured compute durations
	avail     []time.Duration      // makespan scheduling scratch (cores)
	routeBuf  [][]Message          // flush grouping scratch, by worker pos
	remoteOut []Message            // flush scratch for non-local messages
	extraAcc  map[string][]Extra   // per-run accumulated extras
	tasks     chan uint64          // feeds the persistent compute pool
	wg        sync.WaitGroup       // per-superstep compute completion

	// Tracing scratch. tracing is latched once per superstep before compute
	// dispatch (read by the pool goroutines); phaseStart is the first
	// compute call's start timestamp, written by the goroutine running the
	// superstep's first task and read by loop after wg.Wait.
	tracing    bool
	phaseStart time.Time
}

// enqueue delivers messages into the worker's fill buffer; idx is the
// destination subgraph index. Returns false when idx is out of range (an
// unknown subgraph — the message is dropped and counted by the caller).
func (w *worker) enqueue(idx int, m Message) bool {
	if idx < 0 || idx >= len(w.fill) {
		return false
	}
	w.fill[idx] = append(w.fill[idx], m)
	return true
}

// snapshot swaps the fill and read buffers at a superstep boundary. The
// caller must have reset every read slot to length zero beforehand.
func (w *worker) snapshot() {
	w.inboxMu.Lock()
	w.fill, w.read = w.read, w.fill
	w.inboxMu.Unlock()
}

// BarrierStats is the per-superstep state exchanged across hosts in a
// distributed execution: outgoing message count, halt consensus, and the
// slowest host's simulated (compute + flush) time.
type BarrierStats struct {
	Sent      int64
	AllHalted bool
	SimMax    time.Duration
}

// Remote connects an engine that owns only a subset of partitions to its
// peers in a distributed run. Implementations (see internal/cluster) route
// cross-host messages and realize the global superstep barrier.
type Remote interface {
	// Send transmits messages addressed to partitions this engine does not
	// own. Called once per superstep, after local compute and flush.
	Send(superstep int, msgs []Message) error
	// Barrier blocks until every peer has finished flushing the superstep
	// (so all messages addressed here have been delivered via Inject) and
	// returns the globally aggregated stats: Sent summed, AllHalted ANDed,
	// SimMax maxed.
	Barrier(superstep int, local BarrierStats) (BarrierStats, error)
}

// Engine executes BSP programs over a fixed set of partitions. An Engine is
// reusable across Runs (the TI-BSP layer runs one BSP per timestep on the
// same engine) but a single Engine must not execute two Runs concurrently.
type Engine struct {
	cfg     Config
	workers []*worker
	byPID   map[int]*worker
	// remote is non-nil in distributed executions that own a partition
	// subset.
	remote Remote
	// remoteMu guards remoteBuf, the per-superstep buffer of cross-host
	// messages.
	remoteMu  sync.Mutex
	remoteBuf []Message
	// staged holds messages received from peers, keyed by the sender's
	// superstep; they become visible in superstep s+1, mirroring the
	// in-process snapshot barrier.
	stagedMu sync.Mutex
	staged   map[int][]Message
	// sgCount is the total number of local subgraphs.
	sgCount int
	// serialMu serializes user Compute calls under SerialMeasure.
	serialMu sync.Mutex

	// Per-run state, allocated once and recycled across Runs.
	stepSim []hostStep // per-worker simulated timing, indexed by pos
	// stepBar releases workers into a superstep after the coordinator has
	// published the stop decision (and routed initial / promoted
	// messages); snapBar guarantees every worker has snapshotted its
	// inbox before any worker flushes new messages; endBar is the BSP
	// synchronization point whose wait is the paper's "sync overhead".
	stepBar *cyclicBarrier // workers + coordinator
	snapBar *cyclicBarrier // workers only
	endBar  *cyclicBarrier // workers + coordinator
	// stopping is published by the coordinator before it arrives at
	// stepBar; the barrier's lock provides the happens-before edge.
	stopping bool
	// serial caches cfg.serialMeasure() for the current Run.
	serial   bool
	stepSent atomic.Int64
	dropped  atomic.Int64
	panicMu  sync.Mutex
	panics   []error
	prog     Program

	// tracer, when set and enabled, receives per-superstep phase spans and
	// per-subgraph compute spans; traceTS labels them with the TI-BSP
	// timestep driving this Run (-1 for raw engine runs). Both are written
	// only between Runs, so workers read them without synchronization.
	tracer  *obs.Tracer
	traceTS int32
	// watchdog, when set, observes superstep progress: the coordinator
	// brackets each superstep and every worker reports its barrier arrival,
	// so a partition whose Compute never returns is named instead of
	// hanging silently. Written only between Runs.
	watchdog *obs.Watchdog
	// initialHalted lists subgraphs that start the next Run already halted:
	// they stay idle until a message arrives for them. Written only between
	// Runs (see SetInitialHalted).
	initialHalted []subgraph.ID
}

// SetWatchdog attaches a stall watchdog; nil (the default) detaches it. The
// hooks cost one predicted nil-check per superstep per worker when
// detached, preserving the zero-allocation hot path. Must not be called
// while a Run is in flight. For distributed runs attach the watchdog to the
// cluster node instead, where parties are ranks rather than partitions.
func (e *Engine) SetWatchdog(wd *obs.Watchdog) { e.watchdog = wd }

// SetTracer attaches an observability tracer; nil (the default) detaches
// it. A disabled tracer costs one predicted branch per instrumentation
// site, preserving the zero-allocation superstep hot path. Must not be
// called while a Run is in flight.
func (e *Engine) SetTracer(t *obs.Tracer) { e.tracer = t }

// SetTraceTimestep labels subsequent Runs' spans with a TI-BSP timestep
// (the core runner calls this before each timestep's Run). Must not be
// called while a Run is in flight.
func (e *Engine) SetTraceTimestep(ts int) { e.traceTS = int32(ts) }

// SetInitialHalted marks subgraphs that begin subsequent Runs in the halted
// state: they skip superstep 0 (and all later supersteps) until a message
// arrives for them, at which point they participate normally. The TI-BSP
// incremental scheduler uses this to keep subgraphs untouched by a
// timestep's delta out of the initial frontier. The engine retains ids
// (without copying) until the next call; nil or empty restores the default
// everyone-active-at-superstep-0 behavior. Unknown IDs are ignored. Must
// not be called while a Run is in flight.
func (e *Engine) SetInitialHalted(ids []subgraph.ID) { e.initialHalted = ids }

// SetConfig replaces the configuration subsequent Runs use. A meshed
// TI-BSP run builds its engine once and applies each job's config here.
// Must not be called while a Run is in flight.
func (e *Engine) SetConfig(cfg Config) { e.cfg = cfg }

// NewEngine builds an engine over partition data from subgraph.Build.
func NewEngine(parts []*subgraph.PartitionData, cfg Config) *Engine {
	return NewEngineRemote(parts, cfg, nil)
}

// NewEngineRemote builds an engine owning only the given partitions of a
// larger distributed execution; messages to other partitions are routed
// through remote, and termination is decided by the global barrier. A nil
// remote yields a standalone engine.
func NewEngineRemote(parts []*subgraph.PartitionData, cfg Config, remote Remote) *Engine {
	e := &Engine{cfg: cfg, remote: remote, byPID: make(map[int]*worker, len(parts)), staged: make(map[int][]Message), traceTS: -1}
	for pos, pd := range parts {
		n := len(pd.Subgraphs)
		w := &worker{
			pid:      pd.PID,
			pos:      pos,
			part:     pd,
			fill:     make([][]Message, n),
			read:     make([][]Message, n),
			halted:   make([]bool, n),
			ctxs:     make([]Context, n),
			active:   make([]int, 0, n),
			outs:     make([][]Message, n),
			outPtrs:  make([]*[]Message, n),
			extras:   make([]map[string][]Extra, n),
			durs:     make([]time.Duration, n),
			routeBuf: make([][]Message, len(parts)),
		}
		for i := range w.ctxs {
			w.ctxs[i].worker = w
			w.ctxs[i].sg = pd.Subgraphs[i]
		}
		e.workers = append(e.workers, w)
		e.byPID[pd.PID] = w
		e.sgCount += n
	}
	nw := len(e.workers)
	e.stepSim = make([]hostStep, nw)
	e.stepBar = newCyclicBarrier(nw + 1)
	e.snapBar = newCyclicBarrier(nw)
	e.endBar = newCyclicBarrier(nw + 1)
	return e
}

// Inject stages messages arriving from peers, tagged with the sender's
// superstep; the engine makes them visible at the start of superstep
// senderSuperstep+1, mirroring the in-process snapshot barrier (a fast peer
// may flush superstep s before this host has even snapshotted s's inbox).
// Safe to call from transport reader goroutines at any time. Messages for
// partitions not owned here are dropped at promotion (and counted in
// Result.MsgsDropped).
func (e *Engine) Inject(senderSuperstep int, msgs []Message) {
	if len(msgs) == 0 {
		return
	}
	e.stagedMu.Lock()
	e.staged[senderSuperstep] = append(e.staged[senderSuperstep], msgs...)
	e.stagedMu.Unlock()
}

// promoteStaged moves peers' superstep-s messages into the local inboxes;
// called after the global barrier for s, before the snapshot of s+1.
func (e *Engine) promoteStaged(superstep int) {
	e.stagedMu.Lock()
	msgs := e.staged[superstep]
	delete(e.staged, superstep)
	e.stagedMu.Unlock()
	e.routeLocal(msgs)
}

// NumPartitions returns the number of partition workers.
func (e *Engine) NumPartitions() int { return len(e.workers) }

// Result summarizes one BSP execution.
type Result struct {
	Supersteps int
	// SimTime is the simulated cluster time of the run: per superstep, the
	// slowest host's compute makespan (its subgraphs' measured durations
	// scheduled onto CoresPerHost cores) plus its flush time, summed over
	// supersteps. See metrics.TimestepRecord.SimWall.
	SimTime time.Duration
	// Extras aggregates the out-of-band emissions of all Compute calls,
	// per channel, in deterministic (From, emission) order.
	Extras map[string][]Extra
	// MsgsDropped counts messages addressed to unknown destinations (a
	// partition this engine does not know, or a subgraph index outside the
	// destination partition) that were silently discarded during routing —
	// a program bug made visible.
	MsgsDropped int64
}

// Run executes prog to completion on one graph instance: supersteps proceed
// until every subgraph has voted to halt and no messages are in flight.
// Initial messages are delivered in superstep 0 (and all subgraphs are
// active in superstep 0 regardless). rec, if non-nil, receives the timing
// decomposition for this timestep.
//
// Run spawns a persistent compute pool — one dispatcher goroutine per
// partition worker plus CoresPerHost compute goroutines per worker — that
// lives for the whole Run; supersteps are coordinated with reusable cyclic
// barriers and recycled scratch buffers, so steady-state supersteps perform
// no heap allocation in the engine.
func (e *Engine) Run(prog Program, initial []Message, rec *metrics.TimestepRecord) (*Result, error) {
	// Reset per-run state, halt flags, and deliver initial messages.
	e.serial = e.cfg.serialMeasure()
	e.dropped.Store(0)
	e.stepSent.Store(0)
	e.panics = e.panics[:0]
	e.stopping = false
	e.prog = prog
	for _, w := range e.workers {
		for i := range w.halted {
			w.halted[i] = false
			// An errored previous Run may have left undelivered messages
			// behind; a fresh Run starts with clean inboxes.
			w.fill[i] = w.fill[i][:0]
			w.read[i] = w.read[i][:0]
		}
		if rec != nil {
			w.step = &rec.Parts[w.pid]
		} else {
			w.step = nil
		}
	}
	for _, sid := range e.initialHalted {
		if w, ok := e.byPID[sid.Partition()]; ok {
			if i := sid.Index(); i >= 0 && i < len(w.halted) {
				w.halted[i] = true
			}
		}
	}
	if e.remote != nil {
		for _, m := range initial {
			if _, ok := e.byPID[m.To.Partition()]; !ok {
				return nil, fmt.Errorf("bsp: initial message to non-local partition %d in distributed run; route temporal messages through the coordinator", m.To.Partition())
			}
		}
	}
	e.routeLocal(initial)

	// Launch the per-run compute pool: a dispatcher goroutine per worker
	// and cores compute goroutines per worker, all living until the run's
	// stop decision.
	cores := e.cfg.cores()
	var pool sync.WaitGroup
	for _, w := range e.workers {
		if len(w.avail) != cores {
			w.avail = make([]time.Duration, cores)
		}
		w.tasks = make(chan uint64, len(w.part.Subgraphs))
		for c := 0; c < cores; c++ {
			pool.Add(1)
			go func(w *worker) {
				defer pool.Done()
				w.computeLoop(e)
			}(w)
		}
		pool.Add(1)
		go func(w *worker) {
			defer pool.Done()
			w.loop(e)
		}(w)
	}
	shutdown := func() {
		e.stopping = true
		e.stepBar.await()
		for _, w := range e.workers {
			close(w.tasks)
		}
		pool.Wait()
		e.prog = nil
	}

	res := &Result{Extras: make(map[string][]Extra)}
	maxSupersteps := e.cfg.maxSupersteps()
	for superstep := 0; ; superstep++ {
		if superstep >= maxSupersteps {
			shutdown()
			return nil, fmt.Errorf("bsp: exceeded %d supersteps without terminating", maxSupersteps)
		}
		// Release workers into the superstep, then wait for every worker
		// to finish computing and flushing it.
		e.watchdog.StepBegin(int(e.traceTS), superstep)
		e.stepBar.await()
		e.endBar.await()

		if len(e.panics) > 0 {
			err := e.panics[0]
			shutdown()
			return nil, err
		}

		// Simulated cluster accounting: the superstep ends when the
		// slowest host finishes computing and flushing; every other host
		// idles at the barrier for the difference.
		var localSimMax time.Duration
		for p := range e.stepSim {
			if t := e.stepSim[p].compute + e.stepSim[p].flush; t > localSimMax {
				localSimMax = t
			}
		}
		localHalted := true
		for _, w := range e.workers {
			for _, h := range w.halted {
				if !h {
					localHalted = false
					break
				}
			}
		}

		stats := BarrierStats{Sent: e.stepSent.Swap(0), AllHalted: localHalted, SimMax: localSimMax}
		if e.remote != nil {
			// Ship cross-host messages, then synchronize the global
			// superstep barrier and adopt the aggregated stats.
			e.remoteMu.Lock()
			out := e.remoteBuf
			e.remoteBuf = nil
			e.remoteMu.Unlock()
			if err := e.remote.Send(superstep, out); err != nil {
				shutdown()
				return nil, fmt.Errorf("bsp: superstep %d send: %w", superstep, err)
			}
			global, err := e.remote.Barrier(superstep, stats)
			if err != nil {
				shutdown()
				return nil, fmt.Errorf("bsp: superstep %d barrier: %w", superstep, err)
			}
			stats = global
			// Every peer has flushed superstep `superstep`; its messages
			// become visible in the next superstep's snapshot.
			e.promoteStaged(superstep)
		}

		clusterStep := stats.SimMax + e.cfg.SuperstepLatency
		res.SimTime += clusterStep
		if tr := e.tracer; tr.Active() {
			// The simulated per-superstep decomposition feeds skew
			// analysis: each worker's barrier share is how long it idled
			// behind the superstep's straggler on the simulated cluster.
			for _, w := range e.workers {
				c := e.stepSim[w.pos].compute
				f := e.stepSim[w.pos].flush
				tr.RecordStepStat(e.traceTS, int32(superstep), int32(w.pid), c, f, clusterStep-c-f)
			}
		}
		if rec != nil {
			rec.SimWall += clusterStep
			for _, w := range e.workers {
				ps := &rec.Parts[w.pid]
				ps.Compute += e.stepSim[w.pos].compute
				ps.Flush += e.stepSim[w.pos].flush
				ps.Barrier += clusterStep - e.stepSim[w.pos].compute - e.stepSim[w.pos].flush
			}
		}
		res.Supersteps = superstep + 1
		if rec != nil {
			rec.Supersteps = res.Supersteps
		}
		e.watchdog.StepEnd(superstep)

		// Termination: nothing sent anywhere and everything halted.
		if stats.Sent == 0 && stats.AllHalted {
			break
		}
	}
	shutdown()

	// Merge each worker's accumulated extras in worker order, then order
	// deterministically across partitions.
	for _, w := range e.workers {
		for ch, list := range w.extraAcc {
			res.Extras[ch] = append(res.Extras[ch], list...)
		}
		w.extraAcc = nil
	}
	for ch := range res.Extras {
		list := res.Extras[ch]
		sortExtras(list)
		res.Extras[ch] = list
	}
	res.MsgsDropped = e.dropped.Load()
	if rec != nil {
		rec.MsgsDropped += res.MsgsDropped
	}
	return res, nil
}

// loop is a worker's per-run dispatcher: it drives every superstep for its
// partition — snapshot, active-set construction, compute dispatch, flush,
// and timing — using only recycled scratch state.
func (w *worker) loop(e *Engine) {
	// The barrier span of superstep s is only closed when superstep s+1's
	// first compute dispatches (or the run stops), so it is recorded one
	// iteration late from these carried timestamps — this costs zero extra
	// clock reads on the hot path.
	var prevFlushDone time.Time
	prevStep := int32(-1)
	for superstep := 0; ; superstep++ {
		// The coordinator publishes the stop decision (and finishes
		// routing initial / promoted messages) before arriving here.
		e.stepBar.await()
		if e.stopping {
			if prevStep >= 0 && e.tracer.Active() {
				e.tracer.RecordSpan(obs.SpanBarrier, int32(w.pid), e.traceTS, prevStep, 0, prevFlushDone, time.Since(prevFlushDone))
			}
			return
		}
		w.superstep = superstep
		w.snapshot()
		e.snapBar.await()
		tracing := e.tracer.Active()
		w.tracing = tracing
		w.phaseStart = time.Time{}

		// Active set: subgraphs with mail or not halted. Halt flags reset to
		// false at Run start (except those pre-halted via SetInitialHalted),
		// so superstep 0 runs everything by default.
		active := w.active[:0]
		for i := range w.part.Subgraphs {
			if len(w.read[i]) > 0 || !w.halted[i] {
				active = append(active, i)
			}
		}
		w.active = active

		w.wg.Add(len(active))
		for ai, sgi := range active {
			w.tasks <- uint64(ai)<<32 | uint64(uint32(sgi))
		}
		w.wg.Wait()
		computeDone := time.Now()
		simCompute := makespan(w.durs[:len(active)], w.avail)

		// Flush phase: route outgoing messages ("partition overhead" in
		// the paper's terminology), then recycle the message buffers and
		// the consumed inbox snapshot.
		var sent int64
		for ai := range active {
			out := w.outs[ai]
			if len(out) > 0 {
				sent += int64(len(out))
				e.flushFrom(w, out)
			}
			if w.outPtrs[ai] != nil {
				*w.outPtrs[ai] = out[:0]
				msgSlicePool.Put(w.outPtrs[ai])
				w.outPtrs[ai] = nil
			}
			w.outs[ai] = nil
		}
		for i := range w.read {
			w.read[i] = w.read[i][:0]
		}
		flushDone := time.Now()

		// Merge extras into the per-run accumulator in active order.
		for ai := range active {
			ex := w.extras[ai]
			if ex == nil {
				continue
			}
			if w.extraAcc == nil {
				w.extraAcc = make(map[string][]Extra)
			}
			for ch, list := range ex {
				w.extraAcc[ch] = append(w.extraAcc[ch], list...)
			}
			w.extras[ai] = nil
		}

		e.stepSim[w.pos] = hostStep{compute: simCompute, flush: flushDone.Sub(computeDone)}
		e.stepSent.Add(sent)
		if w.step != nil {
			atomic.AddInt64(&w.step.MsgsSent, sent)
		}
		if tracing {
			phaseStart := w.phaseStart
			if phaseStart.IsZero() {
				phaseStart = computeDone // no active subgraphs this superstep
			}
			if prevStep >= 0 {
				e.tracer.RecordSpan(obs.SpanBarrier, int32(w.pid), e.traceTS, prevStep, 0, prevFlushDone, phaseStart.Sub(prevFlushDone))
			}
			e.tracer.RecordPhases(int32(w.pid), e.traceTS, int32(superstep), phaseStart, computeDone, flushDone)
			prevFlushDone, prevStep = flushDone, int32(superstep)
		} else {
			prevStep = -1
		}

		// Barrier ("sync overhead" is derived from the simulated schedule
		// by the coordinator; the barrier itself only synchronizes).
		e.watchdog.Arrive(superstep, w.pid)
		e.endBar.await()
	}
}

// computeLoop is one core of the worker's persistent compute pool.
func (w *worker) computeLoop(e *Engine) {
	lastStep := -1
	for packed := range w.tasks {
		// Attribute CPU samples to (timestep, superstep, partition): the
		// worker publishes w.superstep before feeding tasks, so reading it
		// after the channel receive is ordered. Labels are refreshed only
		// when the superstep changes (one allocation per goroutine per
		// superstep, and only when ProfileLabels is opted in).
		if e.cfg.ProfileLabels && w.superstep != lastStep {
			lastStep = w.superstep
			setComputeLabels(int(e.traceTS), lastStep, w.pid)
		}
		w.runCompute(e, int(packed>>32), int(uint32(packed)))
		w.wg.Done()
	}
}

// labelInts caches decimal strings for small non-negative ints so superstep
// label refreshes don't also pay a strconv allocation.
var labelInts = func() (s [1024]string) {
	for i := range s {
		s[i] = strconv.Itoa(i)
	}
	return
}()

func labelInt(n int) string {
	if n >= 0 && n < len(labelInts) {
		return labelInts[n]
	}
	return strconv.Itoa(n)
}

// setComputeLabels stamps the calling goroutine with the pprof labels CPU
// profiles group by.
func setComputeLabels(ts, step, part int) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("timestep", labelInt(ts), "superstep", labelInt(step), "partition", labelInt(part))))
}

// runCompute executes one Compute invocation on subgraph index sgi (the
// ai-th active subgraph of the superstep), reusing the subgraph's Context
// and a pooled outgoing-message buffer.
func (w *worker) runCompute(e *Engine, ai, sgi int) {
	defer func() {
		if r := recover(); r != nil {
			e.panicMu.Lock()
			e.panics = append(e.panics, fmt.Errorf("bsp: Compute panic on subgraph %v superstep %d: %v", w.part.Subgraphs[sgi].SID, w.superstep, r))
			e.panicMu.Unlock()
		}
	}()
	msgs := w.read[sgi]
	sortMessages(msgs)
	outPtr := msgSlicePool.Get().(*[]Message)
	ctx := &w.ctxs[sgi]
	ctx.superstep = w.superstep
	ctx.seq = 0
	ctx.out = (*outPtr)[:0]
	ctx.halted = false
	ctx.extra = nil
	var callStart time.Time
	dur := func() time.Duration {
		if e.serial {
			e.serialMu.Lock()
			defer e.serialMu.Unlock()
		}
		callStart = time.Now()
		e.prog.Compute(ctx, w.part.Subgraphs[sgi], w.superstep, msgs)
		return time.Since(callStart)
	}()
	w.durs[ai] = dur
	if w.tracing {
		if ai == 0 {
			// First dispatched task: its start is the compute phase's start
			// (tasks are fed and consumed in order), so loop never needs an
			// extra clock read for the phase span.
			w.phaseStart = callStart
		}
		e.tracer.RecordSpan(obs.SpanCompute, int32(w.pid), e.traceTS, int32(w.superstep), int64(w.part.Subgraphs[sgi].SID), callStart, dur)
	}
	w.halted[sgi] = ctx.halted
	w.outs[ai] = ctx.out
	w.outPtrs[ai] = outPtr
	w.extras[ai] = ctx.extra
	ctx.out = nil
}

// flushFrom delivers one subgraph's outgoing messages using the sending
// worker's grouping scratch: local messages are bucketed per destination
// worker so each inbox lock is taken once, non-local ones are buffered for
// the superstep's cross-host send. Messages to unknown destinations are
// dropped and counted.
func (e *Engine) flushFrom(w *worker, msgs []Message) {
	for _, m := range msgs {
		dst, ok := e.byPID[m.To.Partition()]
		if !ok {
			if e.remote != nil {
				w.remoteOut = append(w.remoteOut, m)
			} else {
				e.dropped.Add(1)
			}
			continue
		}
		w.routeBuf[dst.pos] = append(w.routeBuf[dst.pos], m)
	}
	for pos, group := range w.routeBuf {
		if len(group) == 0 {
			continue
		}
		dst := e.workers[pos]
		var delivered int64
		dst.inboxMu.Lock()
		for _, m := range group {
			if dst.enqueue(m.To.Index(), m) {
				delivered++
			}
		}
		dst.inboxMu.Unlock()
		if int64(len(group)) > delivered {
			e.dropped.Add(int64(len(group)) - delivered)
		}
		if delivered > 0 && dst.step != nil {
			atomic.AddInt64(&dst.step.MsgsRecv, delivered)
		}
		w.routeBuf[pos] = group[:0]
	}
	if len(w.remoteOut) > 0 {
		e.remoteMu.Lock()
		e.remoteBuf = append(e.remoteBuf, w.remoteOut...)
		e.remoteMu.Unlock()
		w.remoteOut = w.remoteOut[:0]
	}
}

// routeLocal delivers messages to locally owned partitions outside the
// superstep hot path (initial messages, staged promotions). Messages to
// unknown destinations are dropped and counted in MsgsDropped.
func (e *Engine) routeLocal(msgs []Message) {
	for _, m := range msgs {
		w, ok := e.byPID[m.To.Partition()]
		if !ok {
			e.dropped.Add(1)
			continue
		}
		w.inboxMu.Lock()
		delivered := w.enqueue(m.To.Index(), m)
		w.inboxMu.Unlock()
		if !delivered {
			e.dropped.Add(1)
			continue
		}
		if w.step != nil {
			atomic.AddInt64(&w.step.MsgsRecv, 1)
		}
	}
}

// cyclicBarrier is a reusable generation-counted barrier: await blocks
// until n parties have arrived, then all are released and the barrier
// resets for the next phase. Unlike a one-shot channel barrier it is
// allocated once per engine and reused for every superstep.
type cyclicBarrier struct {
	mu    sync.Mutex
	cond  sync.Cond
	n     int
	count int
	gen   uint64
}

func newCyclicBarrier(n int) *cyclicBarrier {
	b := &cyclicBarrier{n: n}
	b.cond.L = &b.mu
	return b
}

// await blocks until all n parties have arrived in this generation.
func (b *cyclicBarrier) await() {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// hostStep is one host's simulated timing for one superstep.
type hostStep struct {
	compute time.Duration
	flush   time.Duration
}

// makespan schedules task durations onto len(avail) identical cores
// greedily in order (the engine's dispatch order) and returns the
// completion time of the last task — the host's simulated compute time for
// the superstep. avail is caller-owned scratch, one slot per core.
func makespan(durs []time.Duration, avail []time.Duration) time.Duration {
	if len(avail) == 0 {
		avail = make([]time.Duration, 1)
	}
	for i := range avail {
		avail[i] = 0
	}
	for _, d := range durs {
		min := 0
		for c := 1; c < len(avail); c++ {
			if avail[c] < avail[min] {
				min = c
			}
		}
		avail[min] += d
	}
	var span time.Duration
	for _, a := range avail {
		if a > span {
			span = a
		}
	}
	return span
}
