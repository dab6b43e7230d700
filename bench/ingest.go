package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"tsgraph/internal/gen"
	"tsgraph/internal/gofs"
	"tsgraph/internal/graph"
	"tsgraph/internal/ingest"
	"tsgraph/internal/serve"
)

// ingestCachePacks is tsserve's default -instance-cache; smaller than the
// grown dataset, so readers pay pack reloads after publishes.
const ingestCachePacks = 4

// mutationShare is the share of edges each append re-randomises.
const mutationShare = 0.01

// mutation is one generated append: the edges it touches, their new
// latencies, and the JSON body the writer posts.
type mutation struct {
	Edges  []int
	Values []float64
	Body   []byte
}

// buildMutations pre-renders n appends so the open-loop writer spends its
// time sending, not encoding. Values are formatted to round-trip exactly,
// so the oracle's shadow copy equals what the server folds.
func buildMutations(t *graph.Template, seed int64, n int) ([]mutation, error) {
	rng := rand.New(rand.NewSource(seed))
	srcOf := make([]int32, t.NumEdges())
	for v := 0; v < t.NumVertices(); v++ {
		lo, hi := t.OutEdges(v)
		for e := lo; e < hi; e++ {
			srcOf[e] = int32(v)
		}
	}
	per := int(mutationShare * float64(t.NumEdges()))
	if per < 1 {
		per = 1
	}
	out := make([]mutation, n)
	for i := range out {
		m := mutation{Edges: make([]int, 0, per), Values: make([]float64, 0, per)}
		mut := ingest.Mutation{Edges: make([]ingest.EdgeSet, 0, per)}
		picked := make(map[int]bool, per)
		for len(m.Edges) < per {
			e := rng.Intn(t.NumEdges())
			u, v := int(srcOf[e]), t.Target(e)
			// EdgeSet names an edge by endpoints and resolves to the first
			// edge between them; skip parallel edges so the shadow and the
			// server agree on the slot.
			if picked[e] || t.EdgeBetween(u, v) != e {
				continue
			}
			picked[e] = true
			val := latMin + rng.Float64()*(latMax-latMin)
			m.Edges = append(m.Edges, e)
			m.Values = append(m.Values, val)
			mut.Edges = append(mut.Edges, ingest.EdgeSet{
				Src: int64(t.VertexID(u)), Dst: int64(t.VertexID(v)),
				Attr:  gen.AttrLatency,
				Value: json.RawMessage(strconv.FormatFloat(val, 'g', -1, 64)),
			})
		}
		body, err := json.Marshal(mut)
		if err != nil {
			return nil, err
		}
		m.Body = body
		out[i] = m
	}
	return out, nil
}

// applyShadow extends the in-memory collection the oracle reads with the
// appends the server acknowledged, in order.
func applyShadow(d *dataset, muts []mutation) error {
	li := d.Tmpl.EdgeSchema().Index(gen.AttrLatency)
	for _, m := range muts {
		prev := d.Coll.Instance(d.Coll.NumInstances() - 1)
		ins := prev.Clone()
		ins.Timestep = d.Coll.NumInstances()
		ins.Time = d.Coll.TimeOf(ins.Timestep)
		for k, e := range m.Edges {
			ins.EdgeCols[li].Floats[e] = m.Values[k]
		}
		if err := d.Coll.Append(ins); err != nil {
			return err
		}
	}
	return nil
}

// appendOp is one append as the open-loop writer saw it.
type appendOp struct {
	Index      int
	Sent, Done time.Time
	Status     int
	Err        error
	Watermark  int
}

func (a *appendOp) ok() bool { return a.Err == nil && a.Status == http.StatusOK }

// ingestEnv is ingest-live's set-up: a fresh copy of the road prefix with
// an ingest-enabled server over it.
type ingestEnv struct {
	road *dataset
	rig  *rig
}

func (e ingestEnv) close() { e.rig.close() }

func setupIngest(cfg runConfig, dir string, rec *recorder) (ingestEnv, error) {
	road, err := buildRoad(cfg.Scale, cfg.Seed, cfg.Scale.IngestSeedSteps, filepath.Join(dir, "road"))
	if err != nil {
		return ingestEnv{}, err
	}
	r, err := bootRig(road, rigOptions{CachePacks: ingestCachePacks, Ingest: true, Rec: rec})
	if err != nil {
		return ingestEnv{}, err
	}
	return ingestEnv{road: road, rig: r}, nil
}

// ingestPhase is one stretch of writes beside reads.
type ingestPhase struct {
	Appends []appendOp
	Loop    *openLoop
	Reads   []op
	Elapsed time.Duration
}

// lastWatermark is the newest X-Tsserve-Watermark either client saw.
type lastWatermark struct {
	mu sync.Mutex
	wm int
}

func (l *lastWatermark) see(wm int) {
	l.mu.Lock()
	if wm > l.wm {
		l.wm = wm
	}
	l.mu.Unlock()
}

func (l *lastWatermark) get() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wm
}

// readerQuery is the ingest-live reader's next request: a local trip
// departing eight timesteps behind the newest watermark it has seen, so it
// always reads the packs the writer is rewriting.
func readerQuery(d *dataset, g *queryGen, wm int) serve.Query {
	depart := wm - 8
	if depart < 0 {
		depart = 0
	}
	q := g.next(depart, depart)
	return tdspServeQuery(d, q)
}

// runIngestPhase posts muts on a fixed open-loop schedule while one
// closed-loop reader queries the advancing head; it returns when the last
// append has been answered and the reader has stopped.
func runIngestPhase(e ingestEnv, muts []mutation, rate float64, g *queryGen, wm *lastWatermark, idBase int64) ingestPhase {
	var (
		ph   = ingestPhase{Appends: make([]appendOp, len(muts))}
		stop = make(chan struct{})
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		far := time.Now().Add(time.Hour)
		// Odd op ids mark the reader's queries, even ones the appends.
		ph.Reads = e.rig.closedLoop(1, far, stop, idBase+1, func(int) serve.Query {
			return readerQuery(e.road, g, wm.get())
		}, func(o *op) {
			if o.ok() {
				wm.see(o.Watermark)
			}
		})
	}()

	start := time.Now()
	ph.Loop = newOpenLoop(start, rate)
	for i, m := range muts {
		if d := time.Until(ph.Loop.due(i)); d > 0 {
			time.Sleep(d)
		}
		a := appendOp{Index: i, Sent: time.Now()}
		id := idBase + 2*int64(i+1)
		var body []byte
		a.Status, a.Watermark, body, a.Err = e.rig.post("/ingest", m.Body, id)
		a.Done = time.Now()
		if a.Err == nil && a.Status != http.StatusOK {
			a.Err = fmt.Errorf("append %d: HTTP %d: %s", i, a.Status, bytes.TrimSpace(body))
		}
		e.rig.rec.add("append", "http", id, a.Sent, a.Done)
		ph.Loop.record(i, a.Sent, a.Done)
		if a.ok() {
			wm.see(a.Watermark)
		}
		ph.Appends[i] = a
	}
	ph.Elapsed = time.Since(start)
	close(stop)
	wg.Wait()
	return ph
}

func ackedAppends(appends []appendOp) int {
	n := 0
	for i := range appends {
		if appends[i].ok() {
			n++
		}
	}
	return n
}

// verifyIngest checks, after the run: the reader's sampled answers against
// the oracle over the prefix each answer names; that a re-opened store
// reports every acknowledged timestep; and that watermark-pinned queries
// re-answer identically on a fresh server over the re-opened store.
func verifyIngest(cfg runConfig, e ingestEnv, reads []op, wantSteps int, res *runResult) error {
	pick := rand.New(rand.NewSource(cfg.Seed + 7)).Intn
	checked, errs := verifySample(e.road, reads, 64, pick)
	res.Attempted += checked
	res.fail(errs...)

	res.Attempted++
	st, err := gofs.Open(e.road.Dir)
	if err != nil {
		return err
	}
	if st.Timesteps() != wantSteps {
		res.fail(fmt.Errorf("re-opened store reports %d timesteps, acknowledged %d", st.Timesteps(), wantSteps))
		return nil
	}
	fresh, err := serve.New(serve.Options{
		Template: e.road.Tmpl, Parts: e.road.Parts,
		Source: gofs.NewInstanceCache(st, ingestCachePacks),
		Delta:  e.road.Delta, WeightAttr: gen.AttrLatency, Cores: serveCores,
		MaxBatch: serveBatch, Workers: serveWorkers, QueueCap: serveQueue,
	})
	if err != nil {
		return err
	}
	defer fresh.Close()
	answered := answeredOps(reads)
	for k := 0; k < 32 && len(answered) > 0; k++ {
		o := &reads[answered[pick(len(answered))]]
		pinned := o.Query
		pinned.Watermark = o.Answer.Watermark
		res.Attempted++
		if err := sameAnswer(fresh, pinned, o.Answer); err != nil {
			res.fail(fmt.Errorf("pinned re-answer of op %d: %w", o.ID, err))
		}
	}
	return nil
}

func runIngest(cfg runConfig, w workloadSpec) (*runResult, error) {
	if cfg.Trace {
		return traceIngest(cfg, w)
	}
	res := newRunResult()
	e, setupS, err := repeatSetup(cfg, cfg.Setups, func(dir string) (ingestEnv, error) {
		return setupIngest(cfg, dir, nil)
	})
	if err != nil {
		return nil, err
	}
	defer e.close()

	rate := cfg.Scale.AppendRate
	warmN := int(rate * cfg.warmup().Seconds())
	n := int(rate * cfg.Seconds)
	muts, err := buildMutations(e.road.Tmpl, cfg.Seed+50, warmN+n)
	if err != nil {
		return nil, err
	}
	g := newQueryGen(cfg.Scale, cfg.Seed+60, cfg.Scale.IngestTripRadius)
	wm := &lastWatermark{wm: e.road.Store.Timesteps()}

	warm := runIngestPhase(e, muts[:warmN], rate, g, wm, 0)
	if acked := ackedAppends(warm.Appends); acked != warmN {
		return nil, fmt.Errorf("warm-up: %d of %d appends acknowledged", acked, warmN)
	}
	ph := runIngestPhase(e, muts[warmN:], rate, g, wm, 1<<32)

	acked := ackedAppends(ph.Appends)
	for i := range ph.Appends {
		if !ph.Appends[i].ok() {
			res.fail(fmt.Errorf("append not acknowledged: %v", ph.Appends[i].Err))
		}
	}
	res.Attempted = len(ph.Appends) + len(ph.Reads)
	res.Failed += countFailed(ph.Reads)
	endToEndLatency(res, w, durationsMS(ph.Loop.latency), acked+len(ph.Reads)-countFailed(ph.Reads), ph.Elapsed)
	res.Metrics.set("setup_s", setupS)
	lateP95, _, _ := supportedTail(durationsMS(ph.Loop.lateness), 0.95)
	res.note("%d appends at %.0f/s (open loop, generator late p95 %.3f ms, backlog max %d) beside %d reads (1 closed-loop reader, p50 %.2f ms)",
		len(ph.Appends), rate, lateP95, ph.Loop.backlog, len(ph.Reads), median(latenciesMS(ph.Reads)))

	// Everything below is outside the timed window.
	if err := applyShadow(e.road, muts[:warmN+acked]); err != nil {
		return nil, err
	}
	if err := diskMetric(res, e.road); err != nil {
		return nil, err
	}
	if err := verifyIngest(cfg, e, ph.Reads, cfg.Scale.IngestSeedSteps+warmN+acked, res); err != nil {
		return nil, err
	}
	return res, nil
}

// traceIngest is the traced run of ingest-live: writes beside reads with
// the recorder off, then on, then the write-path probes.
func traceIngest(cfg runConfig, w workloadSpec) (*runResult, error) {
	res := newRunResult()
	rec := newRecorder()
	e, err := setupIngest(cfg, filepath.Join(cfg.WorkDir, "setup0"), rec)
	if err != nil {
		return nil, err
	}
	defer e.close()

	rate := cfg.Scale.AppendRate
	warmN := int(rate * cfg.warmup().Seconds())
	n := int(rate * cfg.tracePhase().Seconds())
	muts, err := buildMutations(e.road.Tmpl, cfg.Seed+50, warmN+2*n)
	if err != nil {
		return nil, err
	}
	g := newQueryGen(cfg.Scale, cfg.Seed+60, cfg.Scale.IngestTripRadius)
	wm := &lastWatermark{wm: e.road.Store.Timesteps()}
	runIngestPhase(e, muts[:warmN], rate, g, wm, 0)

	before := takeRigSnap(e.rig)
	fsyncs0 := e.rig.ing.WALFsyncs()
	untraced := runIngestPhase(e, muts[warmN:warmN+n], rate, g, wm, 1<<32)
	rec.on.Store(true)
	traced := runIngestPhase(e, muts[warmN+n:], rate, g, wm, 2<<32)
	rec.on.Store(false)
	after := takeRigSnap(e.rig)
	res.Spans = rec.spans

	m := res.Metrics
	appends := append(append([]appendOp(nil), untraced.Appends...), traced.Appends...)
	reads := append(append([]op(nil), untraced.Reads...), traced.Reads...)
	acked := ackedAppends(appends)
	for i := range appends {
		if !appends[i].ok() {
			res.fail(fmt.Errorf("append not acknowledged: %v", appends[i].Err))
		}
	}
	res.Attempted = len(appends) + len(reads)
	res.Failed += countFailed(reads)
	ops := acked + len(reads) - countFailed(reads)

	b := analyze(rec.spans, true)
	m.set("trace.explained_share", b.explainedShare())
	m.set("trace.overhead_share", ratio(
		median(durationsMS(traced.Loop.latency))-median(durationsMS(untraced.Loop.latency)),
		median(durationsMS(untraced.Loop.latency))))
	rigLayerMetrics(m, e.rig, before, after, ops, b)
	serveSeamMetrics(m, res, e.rig, rec.spans, untraced.Reads, reads)

	var overhead []float64
	nested := nest(rec.spans)
	for _, s := range nested {
		if s.Name == "ingest-handler" && s.Parent >= 0 && nested[s.Parent].Name == "append" {
			overhead = append(overhead, us(nested[s.Parent].dur()-s.dur()))
		}
	}
	m.set("ingest.http_overhead_us_p50", median(overhead))
	m.set("ingest.appends", float64(acked))
	late := append(append([]time.Duration(nil), untraced.Loop.lateness...), traced.Loop.lateness...)
	lateP95, _, _ := supportedTail(durationsMS(late), 0.95)
	m.set("ingest.gen_late_ms_p95", lateP95)
	m.set("ingest.backlog_max", float64(max(untraced.Loop.backlog, traced.Loop.backlog)))
	m.set("gofs.wal_fsyncs_per_append", ratio(float64(e.rig.ing.WALFsyncs()-fsyncs0), float64(acked)))
	setupLayerMetrics(m, e.road.Times)
	res.note("layer self-time shares of client time: http %.3f, ingest (fold+publish+WAL) %.3f, serve (incl. engine) %.3f, gofs loads %.3f",
		b.layerShare("http"), b.layerShare("ingest"), b.layerShare("serve"), b.layerShare("gofs"))

	if err := applyShadow(e.road, muts[:warmN+acked]); err != nil {
		return nil, err
	}
	if err := probeStorage(cfg, e.road, m); err != nil {
		return nil, err
	}
	// The server's own cache is smaller than the grown dataset; the engine
	// probes want every pack resident.
	warm := gofs.NewInstanceCache(e.road.Store, e.road.Store.Timesteps()/storeOptions.Pack+1)
	if err := probeEngine(cfg, e.road, warm, m); err != nil {
		return nil, err
	}
	if err := probeServe(cfg, e.road, e.rig, probeSteps(e.road, warm), m); err != nil {
		return nil, err
	}
	if err := probeWritePath(cfg, e.road, m); err != nil {
		return nil, err
	}
	return res, verifyIngest(cfg, e, reads, cfg.Scale.IngestSeedSteps+warmN+acked, res)
}
