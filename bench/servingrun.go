package main

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"tsgraph/internal/gen"
	"tsgraph/internal/gofs"
	"tsgraph/internal/obs"
	"tsgraph/internal/serve"
)

// serveCachePacks keeps the whole dataset resident after warm-up on the
// read-only serving workloads.
const serveCachePacks = 8

// serveEnv is the set-up of the read-only serving workloads.
type serveEnv struct {
	road *dataset
	rig  *rig
}

func (e serveEnv) close() { e.rig.close() }

func setupServing(cfg runConfig, dir string, sharded bool, rec *recorder) (serveEnv, error) {
	road, err := buildRoad(cfg.Scale, cfg.Seed, cfg.Scale.Steps, filepath.Join(dir, "road"))
	if err != nil {
		return serveEnv{}, err
	}
	r, err := bootRig(road, rigOptions{CachePacks: serveCachePacks, Sharded: sharded, Rec: rec})
	if err != nil {
		return serveEnv{}, err
	}
	return serveEnv{road: road, rig: r}, nil
}

// hotPool is serve-hot's fixed query pool: 80% local TDSP trips, 20%
// top-N over load in windows of 8. Kind is a function of rank (every fifth
// entry is a top-N), not of the seed: the first few ranks carry a third of
// the traffic, so a seeded mix there would change the workload, not just
// its inputs, from seed to seed.
func hotPool(cfg runConfig, d *dataset) []serve.Query {
	sc := cfg.Scale
	g := newQueryGen(sc, cfg.Seed+20, sc.TripRadius)
	rng := rand.New(rand.NewSource(cfg.Seed + 21))
	const window = 8
	pool := make([]serve.Query, sc.HotPool)
	for i := range pool {
		if i%5 == 4 {
			from := 0
			if sc.Steps > window {
				from = rng.Intn(sc.Steps - window + 1)
			}
			pool[i] = serve.Query{Kind: "topn", Attr: gen.AttrLoad, N: 10, From: from, Count: window}
			continue
		}
		pool[i] = tdspServeQuery(d, g.next(0, sc.Steps/2))
	}
	return pool
}

// streamCount is how many candidate trips a client's uncached stream drew
// and how many startsInsideRank let through.
type streamCount struct{ Candidates, Kept int }

// queryStream returns the per-client generator of a serving workload and a
// function that sums what the uncached stream's filter kept (zero for
// serve-hot, which has no filter); call it only after the clients stopped.
// Each client owns its stream, so the same seed gives each client the same
// queries whatever the interleaving.
func queryStream(cfg runConfig, w workloadSpec, d *dataset, clients int) (func(client int) serve.Query, func() streamCount) {
	sc := cfg.Scale
	if w.Name == "serve-hot" {
		pool := hotPool(cfg, d)
		draws := make([]*zipf, clients)
		for c := range draws {
			draws[c] = newZipf(cfg.Seed+30+int64(c), len(pool), 1.1)
		}
		return func(c int) serve.Query { return pool[draws[c].next()] }, func() streamCount { return streamCount{} }
	}
	streams := make([]*uniqueStream, clients)
	counts := make([]streamCount, clients)
	for c := range streams {
		streams[c] = newUniqueStream(sc, cfg.Seed+40+int64(c), sc.TripRadius, 0, sc.Steps/2)
	}
	next := func(c int) serve.Query {
		for {
			q := streams[c].next()
			// Sources are split by parity between clients, so no two
			// clients can ever send the same trip.
			if q.Src%clients != c {
				continue
			}
			counts[c].Candidates++
			if startsInsideRank(d, q) {
				counts[c].Kept++
				return tdspServeQuery(d, q)
			}
		}
	}
	total := func() streamCount {
		var sum streamCount
		for _, n := range counts {
			sum.Candidates += n.Candidates
			sum.Kept += n.Kept
		}
		return sum
	}
	return next, total
}

// noteKeptShare says how much of the uncached stream the filter passed, so
// a reader of shard-2x1's numbers knows which trips they leave out.
func noteKeptShare(res *runResult, n streamCount) {
	if n.Candidates == 0 {
		return
	}
	res.note("uncached stream: %d of %d candidate trips kept (%.3f); the rest cross ranks in their first superstep and are skipped (startsInsideRank), so mesh traffic per sweep is understated",
		n.Kept, n.Candidates, ratio(float64(n.Kept), float64(n.Candidates)))
}

// startsInsideRank reports whether everything a trip can reach in its
// departure timestep lies strictly inside the partitions one rank of a
// 2-member shard group owns. The uncached stream (serve-uncached and
// shard-2x1 share it) keeps only such trips, because of a defect this
// benchmark found in the sharded path and may not fix here: shard.Rank
// binds a fresh bsp engine to its mesh node per sweep, so the frames the
// source's rank sends in the sweep's very first superstep can reach the
// peer before the peer has bound its own new engine, are injected into the
// previous sweep's engine and are lost; the target is then finalized late,
// with a longer arrival than the oracle's. Every later superstep is behind
// a barrier both ranks have passed, so a trip whose first superstep sends
// nothing across ranks cannot lose frames. The test is conservative: a
// Dijkstra over the whole template bounded by one period of travel.
func startsInsideRank(d *dataset, q tdspQuery) bool {
	const members = 2
	assign := d.Store.Assignment()
	home := int(assign.Parts[q.Src]) % members
	weights := d.Coll.Instance(q.Depart).EdgeFloats(d.Tmpl, gen.AttrLatency)
	dist := map[int32]float64{int32(q.Src): 0}
	h := pq{{v: int32(q.Src), d: 0}}
	for h.Len() > 0 {
		it := heap.Pop(&h).(pqItem)
		if it.d > dist[it.v] {
			continue
		}
		lo, hi := d.Tmpl.OutEdges(int(it.v))
		for e := lo; e < hi; e++ {
			w := d.Tmpl.Target(e)
			if int(assign.Parts[w])%members != home {
				return false
			}
			nd := it.d + weights[e]
			if nd > d.Delta {
				continue
			}
			if old, ok := dist[int32(w)]; !ok || nd < old {
				dist[int32(w)] = nd
				heap.Push(&h, pqItem{v: int32(w), d: nd})
			}
		}
	}
	return true
}

// sameAnswer submits q to a server directly and compares the answer's
// JSON with want's: byte-identical payloads, whatever path computed them.
func sameAnswer(s *serve.Server, q serve.Query, want *serve.Answer) error {
	got, err := s.Submit(context.Background(), q)
	if err != nil {
		return err
	}
	a, err := json.Marshal(got)
	if err != nil {
		return err
	}
	b, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("answers differ: %s vs %s", a, b)
	}
	return nil
}

// verifyServing checks sampled answers against the oracle and, for the
// sharded workload, against a local single-process server.
func verifyServing(cfg runConfig, w workloadSpec, e serveEnv, ops []op, n int, res *runResult) error {
	pick := rand.New(rand.NewSource(cfg.Seed + 7)).Intn
	checked, errs := verifySample(e.road, ops, n, pick)
	res.Attempted += checked
	res.fail(errs...)
	if w.Name != "shard-2x1" {
		return nil
	}
	local, err := serve.New(serve.Options{
		Template: e.road.Tmpl, Parts: e.road.Parts,
		Source: gofs.NewInstanceCache(e.road.Store, serveCachePacks),
		Delta:  e.road.Delta, WeightAttr: gen.AttrLatency, Cores: serveCores,
		MaxBatch: serveBatch, Workers: serveWorkers, QueueCap: serveQueue,
	})
	if err != nil {
		return err
	}
	defer local.Close()
	answered := answeredOps(ops)
	for k := 0; k < n && len(answered) > 0; k++ {
		o := &ops[answered[pick(len(answered))]]
		res.Attempted++
		if err := sameAnswer(local, o.Query, o.Answer); err != nil {
			res.fail(fmt.Errorf("sharded vs local, op %d: %w", o.ID, err))
		}
	}
	return nil
}

func reachedShare(ops []op) float64 {
	var tdsp, reached int
	for i := range ops {
		if ops[i].ok() && ops[i].Answer.TDSP != nil {
			tdsp++
			if ops[i].Answer.TDSP.Reached {
				reached++
			}
		}
	}
	return ratio(float64(reached), float64(tdsp))
}

const serveClients = 2

func runServing(cfg runConfig, w workloadSpec) (*runResult, error) {
	sharded := w.Name == "shard-2x1"
	if cfg.Trace {
		return traceServing(cfg, w, sharded)
	}
	res := newRunResult()
	e, setupS, err := repeatSetup(cfg, cfg.Setups, func(dir string) (serveEnv, error) {
		return setupServing(cfg, dir, sharded, nil)
	})
	if err != nil {
		return nil, err
	}
	defer e.close()
	if sharded && runtime.GOMAXPROCS(0) < 2 {
		res.note("valid: false — GOMAXPROCS %d < 2, two ranks share one core", runtime.GOMAXPROCS(0))
	}
	next, kept := queryStream(cfg, w, e.road, serveClients)

	e.rig.closedLoop(serveClients, time.Now().Add(cfg.warmup()), nil, 0, next, nil)
	m0 := e.rig.srv.Metrics()
	hits0, miss0 := resultLookups(m0)
	ops := e.rig.closedLoop(serveClients, time.Now().Add(cfg.window()), nil, 1<<32, next, nil)
	hits1, miss1 := resultLookups(m0)

	res.Attempted = len(ops)
	res.Failed = countFailed(ops)
	for i := range ops {
		if !ops[i].ok() {
			res.note("FAILED: op %d: status %d err %v", ops[i].ID, ops[i].Status, ops[i].Err)
		}
	}
	endToEndLatency(res, w, latenciesMS(ops), len(ops)-res.Failed, opsElapsed(ops))
	res.Metrics.set("setup_s", setupS)
	if err := diskMetric(res, e.road); err != nil {
		return nil, err
	}
	cs := e.rig.cacheStats()
	res.note("%d closed-loop clients, %d queries; result-cache hit ratio %.3f, instance-cache hit ratio %.4f, reached %.3f",
		serveClients, len(ops), ratio(float64(hits1-hits0), float64(hits1-hits0+miss1-miss0)),
		ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses)), reachedShare(ops))
	noteKeptShare(res, kept())
	return res, verifyServing(cfg, w, e, ops, 64, res)
}

var serveClasses = []serve.Class{serve.ClassTDSP, serve.ClassTopN, serve.ClassMeme}

func resultLookups(m *serve.Metrics) (hits, misses int64) {
	for _, c := range serveClasses {
		hits += m.ResultHits(c)
		misses += m.ResultMisses(c)
	}
	return hits, misses
}

// rigSnap is a reading of every counter a traced phase brackets.
type rigSnap struct {
	Proc        procSnap
	Cache       gofs.CacheStats
	BytesRead   int64
	Hits, Miss  int64
	Joins       int64
	Sweeps      int64
	Batches     int64
	Batched     int64
	Rejected    int64
	Frames      int64
	WireBytes   int64
	SourceNanos int64
}

func takeRigSnap(r *rig) rigSnap {
	s := rigSnap{
		Proc:        takeProcSnap(),
		Cache:       r.cacheStats(),
		BytesRead:   r.road.Store.Telemetry().BytesRead(),
		SourceNanos: r.sourceStats.nanos.Load(),
	}
	m := r.srv.Metrics()
	s.Hits, s.Miss = resultLookups(m)
	for _, c := range serveClasses {
		s.Joins += m.FlightJoins(c)
		s.Sweeps += m.Sweeps(c)
		s.Rejected += m.Rejected(c)
	}
	s.Batches, s.Batched = m.Batches(), m.BatchedQueries()
	for _, rank := range r.ranks {
		if node := rank.Node(); node != nil {
			for _, ws := range node.WireStats() {
				s.Frames += ws.FramesSent
				s.WireBytes += ws.BytesSent
			}
		}
	}
	return s
}

// collected reads one sample out of an obs.Collector by name.
func collected(c obs.Collector, name string) float64 {
	var v float64
	c.CollectObs(func(s obs.Sample) {
		if s.Name == name {
			v += s.Value
		}
	})
	return v
}

// rigLayerMetrics reports the counters two snapshots bracket: storage,
// result cache, scheduler, mesh and whole-process cost per operation.
func rigLayerMetrics(m metricSet, r *rig, before, after rigSnap, ops int, b breakdown) {
	n := float64(ops)
	c0, c1 := before.Cache, after.Cache
	lookups := float64(c1.Hits - c0.Hits + c1.Misses - c0.Misses)
	m.set("gofs.cache_hit_ratio", ratio(float64(c1.Hits-c0.Hits), lookups))
	m.set("gofs.cache_evictions", float64(c1.Evictions-c0.Evictions))
	m.set("gofs.pack_loads", float64(c1.PackLoads-c0.PackLoads))
	m.set("gofs.snapshot_steps", float64(c1.SnapshotSteps-c0.SnapshotSteps))
	m.set("gofs.delta_steps", float64(c1.DeltaSteps-c0.DeltaSteps))
	m.set("gofs.bytes_read_per_op", ratio(float64(after.BytesRead-before.BytesRead), n))
	m.set("gofs.load_wait_ms_per_op", ratio(ms(time.Duration(after.SourceNanos-before.SourceNanos)), n))
	m.set("gofs.load_share", b.layerShare("gofs"))

	hits, miss := float64(after.Hits-before.Hits), float64(after.Miss-before.Miss)
	sweeps := float64(after.Sweeps - before.Sweeps)
	m.set("serve.result_hit_ratio", ratio(hits, hits+miss))
	m.set("serve.flight_joins", float64(after.Joins-before.Joins))
	m.set("serve.sweeps", sweeps)
	m.set("serve.avg_batch", ratio(float64(after.Batched-before.Batched), float64(after.Batches-before.Batches)))
	m.set("serve.rejected", float64(after.Rejected-before.Rejected))

	if r.router != nil {
		m.set("cluster.frames_per_sweep", ratio(float64(after.Frames-before.Frames), sweeps))
		m.set("cluster.bytes_per_sweep", ratio(float64(after.WireBytes-before.WireBytes), sweeps))
		var reconnects int64
		for _, rank := range r.ranks {
			if node := rank.Node(); node != nil {
				reconnects += node.Recovery().Reconnects
			}
		}
		m.set("cluster.reconnects", float64(reconnects))
		m.set("shard.failovers", collected(r.router, "tsshard_failovers_total"))
	}
	procMetrics(m, before.Proc, after.Proc, ops)
}

// serveSeamMetrics reports what the handler seam and the client saw of the
// /query path: handler time, HTTP overhead, and the 1-client round trip.
func serveSeamMetrics(m metricSet, res *runResult, r *rig, spans []span, untraced, all []op) {
	m.set("serve.handler_ms_p50", median(r.querySeam.stats.samplesMS()))
	res.Samples["serve.handler_ms_p50"] = int(r.querySeam.stats.calls.Load())
	var overhead []float64
	nested := nest(spans)
	for _, s := range nested {
		if s.Name == "handler" && s.Parent >= 0 && nested[s.Parent].Name == "query" {
			overhead = append(overhead, us(nested[s.Parent].dur()-s.dur()))
		}
	}
	m.set("serve.http_overhead_us_p50", median(overhead))
	lat := latenciesMS(untraced)
	m.set("serve.query_ms_p50", median(lat))
	tail, _, _ := supportedTail(lat, 0.95)
	m.set("serve.query_ms_tail", tail)
	res.Samples["serve.query_ms_p50"] = len(lat)
	m.set("serve.reached_share", reachedShare(all))
}

// traceServing is the traced run of the read-only serving workloads: one
// client with the recorder off, then on, then the direct-call probes.
func traceServing(cfg runConfig, w workloadSpec, sharded bool) (*runResult, error) {
	res := newRunResult()
	rec := newRecorder()
	e, err := setupServing(cfg, filepath.Join(cfg.WorkDir, "setup0"), sharded, rec)
	if err != nil {
		return nil, err
	}
	defer e.close()
	next, kept := queryStream(cfg, w, e.road, serveClients)
	one := func(int) serve.Query { return next(0) }

	e.rig.closedLoop(serveClients, time.Now().Add(cfg.warmup()), nil, 0, next, nil)
	before := takeRigSnap(e.rig)
	untraced := e.rig.closedLoop(1, time.Now().Add(cfg.tracePhase()), nil, 1<<32, one, nil)
	rec.on.Store(true)
	traced := e.rig.closedLoop(1, time.Now().Add(cfg.tracePhase()), nil, 2<<32, one, nil)
	rec.on.Store(false)
	after := takeRigSnap(e.rig)
	res.Spans = rec.spans

	all := append(append([]op(nil), untraced...), traced...)
	res.Attempted = len(all)
	res.Failed = countFailed(all)
	ops := len(all) - res.Failed

	m := res.Metrics
	b := analyze(rec.spans, true)
	m.set("trace.explained_share", b.explainedShare())
	m.set("trace.overhead_share", ratio(median(latenciesMS(traced))-median(latenciesMS(untraced)), median(latenciesMS(untraced))))
	rigLayerMetrics(m, e.rig, before, after, ops, b)
	serveSeamMetrics(m, res, e.rig, rec.spans, untraced, all)
	setupLayerMetrics(m, e.road.Times)
	if e.rig.sweepSeam != nil {
		m.set("shard.sweep_ms_p50", median(e.rig.sweepSeam.stats.samplesMS()))
	}
	noteKeptShare(res, kept())
	res.note("layer self-time shares of client time: http %.3f, serve (incl. engine when local) %.3f, shard (incl. rank engines) %.3f, gofs %.3f",
		b.layerShare("http"), b.layerShare("serve"), b.layerShare("shard"), b.layerShare("gofs"))

	if err := probeStorage(cfg, e.road, m); err != nil {
		return nil, err
	}
	warm := gofs.NewInstanceCache(e.road.Store, serveCachePacks)
	if err := probeEngine(cfg, e.road, warm, m); err != nil {
		return nil, err
	}
	if err := probeServe(cfg, e.road, e.rig, probeSteps(e.road, warm), m); err != nil {
		return nil, err
	}
	if sharded {
		m.set("shard.overhead_ratio", ratio(m["shard.sweep_ms_p50"].Value, m["algorithms.batch1_ms_p50"].Value))
		if err := probeCluster(m); err != nil {
			return nil, err
		}
	}
	return res, verifyServing(cfg, w, e, all, 32, res)
}
