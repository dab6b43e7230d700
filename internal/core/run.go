package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"tsgraph/internal/bsp"
	"tsgraph/internal/graph"
	"tsgraph/internal/metrics"
	"tsgraph/internal/obs"
	"tsgraph/internal/subgraph"
)

// defaultTracer receives runner and engine spans for jobs that do not set
// their own Tracer. CLI entry points install it once at startup.
var defaultTracer *obs.Tracer

// SetDefaultTracer installs the process-wide tracer used when Job.Tracer is
// nil. Not safe to call concurrently with running jobs.
func SetDefaultTracer(t *obs.Tracer) { defaultTracer = t }

// InstanceSource supplies graph instances by timestep. The in-memory
// MemorySource and the GoFS lazy loader both satisfy it.
type InstanceSource interface {
	// Timesteps returns the number of instances available.
	Timesteps() int
	// Load returns the instance at a timestep.
	Load(timestep int) (*graph.Instance, error)
}

// MemorySource adapts an in-memory collection to InstanceSource.
type MemorySource struct{ C *graph.Collection }

// Timesteps implements InstanceSource.
func (m MemorySource) Timesteps() int { return m.C.NumInstances() }

// Load implements InstanceSource.
func (m MemorySource) Load(timestep int) (*graph.Instance, error) {
	if timestep < 0 || timestep >= m.C.NumInstances() {
		return nil, fmt.Errorf("core: timestep %d outside [0,%d)", timestep, m.C.NumInstances())
	}
	return m.C.Instance(timestep), nil
}

// Window exposes source timesteps [Lo, Hi) of Src as timesteps [0, Hi-Lo).
// With Lo 0 it pins a view of a growing dataset to its first Hi timesteps:
// published instances are immutable, so a sweep admitted at one watermark
// reads a consistent snapshot even while live ingestion appends behind it —
// the appended timesteps simply don't exist for it.
type Window struct {
	Src    InstanceSource
	Lo, Hi int
}

// Timesteps implements InstanceSource.
func (w Window) Timesteps() int { return w.Hi - w.Lo }

// Load implements InstanceSource.
func (w Window) Load(timestep int) (*graph.Instance, error) {
	return w.Src.Load(w.Lo + timestep)
}

// Delta implements DeltaSource, passing through when Src can report change
// summaries; nil means unknown and is always safe.
func (w Window) Delta(timestep int) *graph.Delta {
	if ds, ok := w.Src.(DeltaSource); ok {
		return ds.Delta(w.Lo + timestep)
	}
	return nil
}

// Job describes a TI-BSP application run.
type Job struct {
	// Template is the time-invariant topology.
	Template *graph.Template
	// Parts is the partitioned, subgraph-annotated view from
	// subgraph.Build.
	Parts []*subgraph.PartitionData
	// Source supplies instances.
	Source InstanceSource
	// Program is the user logic.
	Program Program
	// Merger runs the Merge phase (required for EventuallyDependent).
	Merger Merger
	// Pattern selects the design pattern.
	Pattern Pattern
	// Timesteps bounds the run; 0 means all instances in Source (from
	// StartTimestep on).
	Timesteps int
	// StartTimestep offsets the run window: execution covers source
	// timesteps [StartTimestep, StartTimestep+Timesteps), preserving
	// absolute timestep indices in Compute calls, Outputs, and metrics.
	// It is the entry point for windowed and departure-time queries
	// (internal/serve) that sweep a sub-range of a resident time-series
	// without re-wrapping the source. Incompatible with Resume.
	StartTimestep int
	// WhileMode stops the timestep loop early once all subgraphs
	// VoteToHaltTimestep in a timestep and emit no temporal messages
	// (the paper's While-loop semantics). Only for SequentiallyDependent.
	WhileMode bool
	// Incremental enables delta-driven timestep scheduling: subgraphs whose
	// instance data a timestep's delta does not touch (and whose
	// out-neighbors' it does not touch, and that no cross-subgraph temporal
	// message addresses) seed the timestep from their converged previous
	// state and stay out of the initial frontier. Requires the sequentially
	// dependent pattern, a Source implementing DeltaSource, and a Program
	// implementing IncrementalProgram; incompatible with WhileMode and
	// distributed execution. On full-format datasets (Delta returns nil)
	// every subgraph runs, matching non-incremental behavior exactly.
	Incremental bool
	// Initial messages: delivered at superstep 0 of timestep 0 for
	// sequentially dependent runs, and at superstep 0 of every timestep
	// for independent / eventually dependent runs (the paper's
	// "application input messages").
	Initial []bsp.Message
	// Engine configuration (cores per host, superstep bound). A meshed run
	// applies it to Mesh.Engine, so it is the only engine config there too.
	Config bsp.Config
	// Recorder, if non-nil, receives per-timestep metrics.
	Recorder *metrics.Recorder
	// Tracer, if non-nil, receives hierarchical spans (timestep → load →
	// superstep phases → per-subgraph compute). When nil, the process-wide
	// tracer installed via SetDefaultTracer (if any) is used. A nil or
	// disabled tracer costs one predicted branch per instrumentation site.
	Tracer *obs.Tracer
	// Watchdog, if non-nil, monitors superstep progress on sequentially
	// dependent runs: the engine brackets each superstep and every
	// partition worker reports its barrier arrival, so a Compute call that
	// never returns is named (one structured warning per stalled
	// partition) instead of hanging silently. Parties are partitions; in a
	// distributed run attach the watchdog to the cluster node instead,
	// where parties are ranks.
	Watchdog *obs.Watchdog
	// ForceGCEvery triggers a synchronized runtime.GC() every N timesteps,
	// mirroring the paper's synchronized System.gc() engineering (§IV-D);
	// 0 disables.
	ForceGCEvery int
	// TemporalParallelism is how many instances run concurrently for the
	// Independent and EventuallyDependent patterns (≤1 means sequential,
	// which is what the paper's GoFFish implementation does). Above 1,
	// Source.Load is called concurrently, so the source must be safe for
	// concurrent use (MemorySource and gofs.InstanceCache are).
	TemporalParallelism int
	// HaltCondition, if set, is evaluated on the runner after each
	// sequentially dependent timestep — a Master.Compute-style global
	// check over that timestep's metrics record (counters are collected
	// even when no Recorder is configured). Returning true ends the run.
	// In a distributed run the record covers only this host's partitions.
	HaltCondition func(timestep int, rec *metrics.TimestepRecord) bool

	// Checkpointing (sequentially dependent pattern only). CheckpointDir,
	// when non-empty, persists a checkpoint after each timestep's temporal
	// barrier (see internal/gofs checkpoint files); the Program must then
	// implement Checkpointer. CheckpointEvery thins the cadence to every Nth
	// boundary (<=1 means every timestep). CheckpointRank names this
	// process's files (the cluster rank; 0 standalone). Resume restores the
	// newest usable checkpoint before running; ResumeConsensus, when set, is
	// the cluster-wide agreement hook (cluster.Node.AgreeResume) mapping this
	// rank's local candidate timestep to the one all ranks resume from.
	CheckpointDir   string
	CheckpointEvery int
	CheckpointRank  int
	Resume          bool
	ResumeConsensus func(local int) (int, error)

	// Mesh, when set, runs the job as one rank's share of a distributed
	// run (see Mesh; cluster.NewMesh builds one). The run then executes
	// Mesh.Local on Mesh.Engine, and Parts is not read. Only the
	// SequentiallyDependent pattern runs on a mesh.
	Mesh *Mesh
}

// Mesh seats a sequentially dependent run on one rank of a cluster mesh.
// Every rank runs the same job over its own Mesh: the node carries
// boundary messages and barriers between the ranks' engines, and afterwards
// each rank reads answers for the vertices it owns.
//
// Neither the node's barriers nor the engine's staged frames carry a run
// identity, so the ranks must finish or fail a run together: a run that
// errors on one rank only leaves the mesh unusable.
type Mesh struct {
	// Node is the rank's transport: superstep messages and barriers for
	// the engine, temporal messages and halt votes between timesteps.
	Node interface {
		bsp.Remote
		Coordinator
	}
	// Engine is built over Local with Node as its remote, and Node
	// delivers into it. Each run configures it from Job.Config. One engine
	// serves every run on the mesh: each barrier drains its step's frames
	// completely, and a peer's first frames of the next run are staged by
	// superstep until this rank gets there.
	Engine *bsp.Engine
	// Local are the partitions this rank owns and runs.
	Local []*subgraph.PartitionData
	// Subgraphs is the subgraph count across all ranks (WhileMode
	// consensus).
	Subgraphs int
}

// Coordinator realizes the between-timesteps synchronization of a
// distributed sequentially dependent run.
type Coordinator interface {
	// ExchangeTemporal routes the host's outgoing temporal messages (both
	// locally- and remotely-addressed; implementations deliver local ones
	// back directly), blocks until every host has contributed, and returns
	// the messages addressed to this host plus the global halt-vote and
	// temporal-message totals.
	ExchangeTemporal(timestep int, outgoing []bsp.Message, haltVotes int) (incoming []bsp.Message, totalVotes int, totalMsgs int, err error)
}

// Result carries a completed run's outputs.
type Result struct {
	// TimestepsRun is 1 + the highest timestep executed. For runs starting
	// at timestep 0 (StartTimestep unset) it equals the number of timesteps
	// executed.
	TimestepsRun int
	// Supersteps is the total superstep count across timesteps.
	Supersteps int
	// Outputs are all records emitted via Output, in (timestep, subgraph)
	// order. Merge outputs carry Timestep = -1 and sort last.
	Outputs []Output
	// SimTime is the simulated cluster time of the whole run (see
	// metrics.TimestepRecord.SimWall).
	SimTime time.Duration
	// HaltedEarly reports that WhileMode ended the loop before the
	// timestep bound.
	HaltedEarly bool
	// SubgraphsSkipped totals, over all timesteps, the subgraphs the
	// incremental scheduler kept out of the initial frontier (always zero
	// unless Job.Incremental).
	SubgraphsSkipped int
}

// Run executes a TI-BSP job.
func Run(job *Job) (*Result, error) {
	if job.Mesh != nil {
		meshed := *job
		meshed.Parts = job.Mesh.Local
		job = &meshed
	}
	if job.Template == nil || len(job.Parts) == 0 {
		return nil, fmt.Errorf("core: job needs a template and partitions")
	}
	if job.Program == nil {
		return nil, fmt.Errorf("core: job needs a Program")
	}
	if job.Source == nil {
		return nil, fmt.Errorf("core: job needs an InstanceSource")
	}
	if job.Pattern == EventuallyDependent && job.Merger == nil {
		return nil, fmt.Errorf("core: eventually dependent pattern needs a Merger")
	}
	if job.Source.Timesteps() == 0 {
		return nil, fmt.Errorf("core: source has no instances")
	}
	if job.StartTimestep < 0 || job.StartTimestep >= job.Source.Timesteps() {
		return nil, fmt.Errorf("core: StartTimestep %d outside source's [0,%d)", job.StartTimestep, job.Source.Timesteps())
	}
	if job.Resume && job.StartTimestep != 0 {
		return nil, fmt.Errorf("core: Resume and StartTimestep are incompatible")
	}
	avail := job.Source.Timesteps() - job.StartTimestep
	steps := job.Timesteps
	if steps <= 0 || steps > avail {
		steps = avail
	}
	if job.Mesh != nil && job.Pattern != SequentiallyDependent {
		return nil, fmt.Errorf("core: distributed execution supports the sequentially dependent pattern only")
	}
	if job.CheckpointDir != "" {
		if job.Pattern != SequentiallyDependent {
			return nil, fmt.Errorf("core: checkpointing supports the sequentially dependent pattern only")
		}
		if _, ok := job.Program.(Checkpointer); !ok {
			return nil, fmt.Errorf("core: checkpointing needs a Program implementing Checkpointer")
		}
	}
	if job.Resume && job.CheckpointDir == "" {
		return nil, fmt.Errorf("core: Resume needs a CheckpointDir")
	}
	if job.Incremental {
		if job.Pattern != SequentiallyDependent {
			return nil, fmt.Errorf("core: Incremental supports the sequentially dependent pattern only")
		}
		if job.WhileMode {
			return nil, fmt.Errorf("core: Incremental and WhileMode are incompatible (skipped subgraphs cast no halt votes)")
		}
		if job.Mesh != nil {
			return nil, fmt.Errorf("core: Incremental is not supported in distributed runs")
		}
		if _, ok := job.Source.(DeltaSource); !ok {
			return nil, fmt.Errorf("core: Incremental needs a Source implementing DeltaSource (a delta-encoded GoFS store)")
		}
		if _, ok := job.Program.(IncrementalProgram); !ok {
			return nil, fmt.Errorf("core: Incremental needs a Program implementing IncrementalProgram")
		}
	}
	switch job.Pattern {
	case SequentiallyDependent:
		return runSequential(job, steps)
	case Independent, EventuallyDependent:
		return runTemporallyParallel(job, steps)
	default:
		return nil, fmt.Errorf("core: unknown pattern %d", job.Pattern)
	}
}

// timestepProgram adapts the user Program to the engine for one timestep.
type timestepProgram struct {
	job      *Job
	instance *graph.Instance
	timestep int
}

func (p *timestepProgram) Compute(bctx *bsp.Context, sg *subgraph.Subgraph, superstep int, msgs []bsp.Message) {
	ctx := &Context{
		bspCtx:   bctx,
		template: p.job.Template,
		instance: p.instance,
		timestep: p.timestep,
		sid:      sg.SID,
	}
	p.job.Program.Compute(ctx, sg, p.timestep, superstep, msgs)
}

// tracer resolves the job's tracer: its own, else the process default.
func (job *Job) tracer() *obs.Tracer {
	if job.Tracer != nil {
		return job.Tracer
	}
	return defaultTracer
}

// runSequential implements the sequentially dependent pattern: one BSP per
// instance, in order, threading temporal messages between them.
func runSequential(job *Job, steps int) (*Result, error) {
	var engine *bsp.Engine
	sgCount := subgraph.TotalSubgraphs(job.Parts)
	if job.Mesh != nil {
		engine, sgCount = job.Mesh.Engine, job.Mesh.Subgraphs
		engine.SetConfig(job.Config)
	} else {
		engine = bsp.NewEngine(job.Parts, job.Config)
		if job.Watchdog != nil {
			// A meshed run watches rank arrivals at the cluster node
			// instead: these hooks would double-report with partition
			// parties.
			engine.SetWatchdog(job.Watchdog)
		}
	}
	tracer := job.tracer()
	engine.SetTracer(tracer)
	res := &Result{}
	var inc *incrementalState
	if job.Incremental {
		var err error
		if inc, err = newIncrementalState(job, job.Source.(DeltaSource)); err != nil {
			return nil, err
		}
	}
	pending := append([]bsp.Message(nil), job.Initial...)

	// A private recorder keeps counters flowing to HaltCondition even when
	// the caller did not ask for metrics.
	privateRec := job.Recorder
	if privateRec == nil && job.HaltCondition != nil {
		privateRec = metrics.NewRecorder(len(job.Parts))
	}

	startTS := job.StartTimestep
	end := job.StartTimestep + steps
	if job.Resume {
		var err error
		if startTS, err = resumeFromCheckpoint(job, &pending, res); err != nil {
			return nil, err
		}
	}

	for ts := startTS; ts < end; ts++ {
		var rec *metrics.TimestepRecord
		if privateRec != nil {
			rec = privateRec.BeginTimestep(ts)
		}
		engine.SetTraceTimestep(ts)
		wallStart := time.Now()

		loadStart := time.Now()
		ins, err := job.Source.Load(ts)
		if err != nil {
			return nil, fmt.Errorf("core: loading instance %d: %w", ts, err)
		}
		loadDur := time.Since(loadStart)
		if tracer.Active() {
			tracer.RecordSpan(obs.SpanLoad, -1, int32(ts), -1, 0, loadStart, loadDur)
		}

		if inc != nil {
			// The first executed timestep always runs in full: there is no
			// converged previous state to reuse. Afterwards the delta leading
			// into ts decides who can sit out, and withheld self-addressed
			// temporal messages are dropped from pending.
			var skip []subgraph.ID
			if ts > startTS {
				skip, pending = inc.plan(inc.src.Delta(ts), pending)
			}
			engine.SetInitialHalted(skip)
			if rec != nil {
				rec.SubgraphsSkipped = len(skip)
			}
			res.SubgraphsSkipped += len(skip)
		}

		prog := &timestepProgram{job: job, instance: ins, timestep: ts}
		bres, err := engine.Run(prog, pending, rec)
		if err != nil {
			return nil, fmt.Errorf("core: timestep %d: %w", ts, err)
		}
		res.Supersteps += bres.Supersteps
		// Each simulated host loads only its own slices: charge a 1/K share
		// of the measured (serial) load time to the cluster clock.
		simLoad := loadDur / time.Duration(len(job.Parts))
		res.SimTime += bres.SimTime + simLoad
		if rec != nil {
			rec.SimWall += simLoad
		}

		// EndOfTimestep hook.
		endExtras, err := runEndOfTimestep(job, ins, ts, rec)
		if err != nil {
			return nil, err
		}

		// Collect outputs.
		for _, ex := range bres.Extras[chanOutput] {
			res.Outputs = append(res.Outputs, Output{Timestep: ts, From: ex.From, Data: ex.Data})
		}
		for _, ex := range endExtras.out {
			res.Outputs = append(res.Outputs, Output{Timestep: ts, From: ex.From, Data: ex.Data})
		}

		// Assemble next timestep's initial messages from temporal sends.
		pending = pending[:0]
		var seq int64
		addTemporal := func(list []bsp.Extra) {
			for _, ex := range list {
				pending = append(pending, bsp.Message{From: ex.From, To: ex.To, Seq: seq, Payload: ex.Data})
				seq++
			}
		}
		addTemporal(bres.Extras[chanNext])
		addTemporal(bres.Extras[chanNextTo])
		addTemporal(endExtras.next)
		addTemporal(endExtras.nextTo)

		// Early termination under While semantics.
		halts := len(bres.Extras[chanHaltStep]) + endExtras.haltVotes
		globalPending := len(pending)
		if job.Mesh != nil {
			exchStart := time.Now()
			incoming, votes, msgs, err := job.Mesh.Node.ExchangeTemporal(ts, pending, halts)
			if err != nil {
				return nil, fmt.Errorf("core: timestep %d temporal exchange: %w", ts, err)
			}
			if tracer.Active() {
				tracer.RecordSpan(obs.SpanExchange, -1, int32(ts), -1, 0, exchStart, time.Since(exchStart))
			}
			pending = incoming
			halts = votes
			globalPending = msgs
		}
		res.TimestepsRun = ts + 1

		// Timestep-boundary checkpoint: the temporal barrier just completed,
		// so `pending` is exactly what seeds ts+1 and no superstep state is
		// in flight — the cheapest consistent cut this runtime has.
		if job.CheckpointDir != "" && (job.CheckpointEvery <= 1 || (ts+1)%job.CheckpointEvery == 0) {
			ckptStart := time.Now()
			if err := checkpointTimestep(job, ts, pending, res); err != nil {
				return nil, err
			}
			if rec != nil {
				rec.Checkpoint = time.Since(ckptStart)
			}
		}

		if job.ForceGCEvery > 0 && ts > 0 && ts%job.ForceGCEvery == 0 {
			// The paper's synchronized System.gc(): every host pauses
			// together, so the full pause lands on the cluster clock.
			gcStart := time.Now()
			runtime.GC()
			gcDur := time.Since(gcStart)
			res.SimTime += gcDur
			if rec != nil {
				rec.SimWall += gcDur
			}
		}
		if rec != nil {
			rec.Load = loadDur
			rec.Wall = time.Since(wallStart)
		}
		if tracer.Active() {
			tracer.RecordSpan(obs.SpanTimestep, -1, int32(ts), -1, 0, wallStart, time.Since(wallStart))
		}

		if job.WhileMode && halts >= sgCount && globalPending == 0 {
			res.HaltedEarly = true
			break
		}
		if job.HaltCondition != nil && job.HaltCondition(ts, rec) {
			res.HaltedEarly = true
			break
		}
	}
	return res, nil
}

// endExtrasResult aggregates EndOfTimestep emissions across subgraphs.
type endExtrasResult struct {
	next      []bsp.Extra
	nextTo    []bsp.Extra
	merge     []bsp.Extra
	out       []bsp.Extra
	haltVotes int
}

// runEndOfTimestep invokes the optional EndOfTimestep hook on every
// subgraph, in parallel per partition with bounded cores, and aggregates
// emissions deterministically (partition, subgraph) order.
func runEndOfTimestep(job *Job, ins *graph.Instance, ts int, rec *metrics.TimestepRecord) (*endExtrasResult, error) {
	agg := &endExtrasResult{}
	ender, ok := job.Program.(EndOfTimestepper)
	if !ok {
		return agg, nil
	}
	// One context per subgraph, filled concurrently, merged in order.
	type slot struct {
		ctx *EndContext
	}
	var slots [][]slot
	var wg sync.WaitGroup
	cores := job.Config.CoresPerHost
	if cores <= 0 {
		cores = 2
	}
	var panicErr error
	var panicMu sync.Mutex
	for _, pd := range job.Parts {
		ss := make([]slot, len(pd.Subgraphs))
		slots = append(slots, ss)
		wg.Add(1)
		go func(pd *subgraph.PartitionData, ss []slot) {
			defer wg.Done()
			sem := make(chan struct{}, cores)
			var cwg sync.WaitGroup
			for i := range pd.Subgraphs {
				cwg.Add(1)
				sem <- struct{}{}
				go func(i int) {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if panicErr == nil {
								panicErr = fmt.Errorf("core: EndOfTimestep panic on %v: %v", pd.Subgraphs[i].SID, r)
							}
							panicMu.Unlock()
						}
						<-sem
						cwg.Done()
					}()
					ctx := &EndContext{
						template: job.Template,
						instance: ins,
						timestep: ts,
						sid:      pd.Subgraphs[i].SID,
					}
					if rec != nil {
						pidSlot := &rec.Parts[pd.PID]
						ctx.counters = func(name string, delta int64) {
							panicMu.Lock()
							pidSlot.AddCounter(name, delta)
							panicMu.Unlock()
						}
					}
					ender.EndOfTimestep(ctx, pd.Subgraphs[i], ts)
					ss[i] = slot{ctx: ctx}
				}(i)
			}
			cwg.Wait()
		}(pd, ss)
	}
	wg.Wait()
	if panicErr != nil {
		return nil, panicErr
	}
	for _, ss := range slots {
		for _, s := range ss {
			if s.ctx == nil {
				continue
			}
			agg.next = append(agg.next, s.ctx.next...)
			agg.nextTo = append(agg.nextTo, s.ctx.nextTo...)
			agg.merge = append(agg.merge, s.ctx.merge...)
			agg.out = append(agg.out, s.ctx.out...)
			if s.ctx.haltTS {
				agg.haltVotes++
			}
		}
	}
	return agg, nil
}

// runTemporallyParallel implements the independent and eventually dependent
// patterns. Timesteps execute in isolation — optionally several at a time —
// and, for EventuallyDependent, a Merge BSP runs at the end.
func runTemporallyParallel(job *Job, steps int) (*Result, error) {
	tracer := job.tracer()
	start := job.StartTimestep
	end := start + steps
	par := job.TemporalParallelism
	if par < 1 {
		par = 1
	}
	if par > steps {
		par = steps
	}

	type stepResult struct {
		outputs []Output
		merge   []bsp.Extra
		sups    int
		sim     time.Duration
		err     error
	}
	results := make([]stepResult, steps)

	// Each concurrent slot gets its own engine (its own inboxes and halt
	// flags) over the shared, read-only partition data.
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for ts := start; ts < end; ts++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(ts int) {
			defer func() {
				<-sem
				wg.Done()
			}()
			var rec *metrics.TimestepRecord
			if job.Recorder != nil {
				rec = job.Recorder.BeginTimestep(ts)
			}
			wallStart := time.Now()
			loadStart := time.Now()
			ins, err := job.Source.Load(ts)
			if err != nil {
				results[ts-start].err = fmt.Errorf("core: loading instance %d: %w", ts, err)
				return
			}
			loadDur := time.Since(loadStart)
			if tracer.Active() {
				tracer.RecordSpan(obs.SpanLoad, -1, int32(ts), -1, 0, loadStart, loadDur)
			}
			engine := bsp.NewEngine(job.Parts, job.Config)
			engine.SetTracer(tracer)
			engine.SetTraceTimestep(ts)
			prog := &timestepProgram{job: job, instance: ins, timestep: ts}
			initial := make([]bsp.Message, len(job.Initial))
			copy(initial, job.Initial)
			bres, err := engine.Run(prog, initial, rec)
			if err != nil {
				results[ts-start].err = fmt.Errorf("core: timestep %d: %w", ts, err)
				return
			}
			endExtras, err := runEndOfTimestep(job, ins, ts, rec)
			if err != nil {
				results[ts-start].err = err
				return
			}
			sr := &results[ts-start]
			sr.sups = bres.Supersteps
			sr.sim = bres.SimTime + loadDur/time.Duration(len(job.Parts))
			if rec != nil {
				rec.SimWall += loadDur / time.Duration(len(job.Parts))
			}
			for _, ex := range bres.Extras[chanOutput] {
				sr.outputs = append(sr.outputs, Output{Timestep: ts, From: ex.From, Data: ex.Data})
			}
			for _, ex := range endExtras.out {
				sr.outputs = append(sr.outputs, Output{Timestep: ts, From: ex.From, Data: ex.Data})
			}
			sr.merge = append(sr.merge, bres.Extras[chanMerge]...)
			sr.merge = append(sr.merge, endExtras.merge...)
			if rec != nil {
				rec.Load = loadDur
				rec.Wall = time.Since(wallStart)
			}
			if tracer.Active() {
				tracer.RecordSpan(obs.SpanTimestep, -1, int32(ts), -1, 0, wallStart, time.Since(wallStart))
			}
		}(ts)
	}
	wg.Wait()

	res := &Result{TimestepsRun: end}
	var mergeMsgs []bsp.Message
	var seq int64
	for i := 0; i < steps; i++ {
		if results[i].err != nil {
			return nil, results[i].err
		}
		res.Supersteps += results[i].sups
		res.SimTime += results[i].sim
		res.Outputs = append(res.Outputs, results[i].outputs...)
		for _, ex := range results[i].merge {
			mergeMsgs = append(mergeMsgs, bsp.Message{From: ex.From, To: ex.To, Seq: seq, Payload: ex.Data})
			seq++
		}
	}

	if job.Pattern == EventuallyDependent {
		engine := bsp.NewEngine(job.Parts, job.Config)
		engine.SetTracer(tracer)
		engine.SetTraceTimestep(end) // merge phase traced as one more "timestep"
		var rec *metrics.TimestepRecord
		if job.Recorder != nil {
			rec = job.Recorder.BeginTimestep(end) // merge phase recorded as one more "timestep"
		}
		wallStart := time.Now()
		mprog := bsp.ComputeFunc(func(bctx *bsp.Context, sg *subgraph.Subgraph, superstep int, msgs []bsp.Message) {
			mctx := &MergeContext{bspCtx: bctx, template: job.Template, sid: sg.SID}
			job.Merger.Merge(mctx, sg, superstep, msgs)
		})
		bres, err := engine.Run(mprog, mergeMsgs, rec)
		if err != nil {
			return nil, fmt.Errorf("core: merge phase: %w", err)
		}
		res.Supersteps += bres.Supersteps
		res.SimTime += bres.SimTime
		for _, ex := range bres.Extras[chanOutput] {
			res.Outputs = append(res.Outputs, Output{Timestep: -1, From: ex.From, Data: ex.Data})
		}
		if rec != nil {
			rec.Wall = time.Since(wallStart)
		}
	}
	return res, nil
}
