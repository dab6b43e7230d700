package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"tsgraph/internal/cluster"
	"tsgraph/internal/core"
	"tsgraph/internal/gen"
	"tsgraph/internal/gofs"
	"tsgraph/internal/ingest"
	"tsgraph/internal/obs"
	"tsgraph/internal/obs/live"
	"tsgraph/internal/serve"
	"tsgraph/internal/shard"
)

// tsserve's flag defaults; the serving workloads run the daemon's wiring
// with these, not a tuned configuration.
const (
	serveBatch       = 64
	serveWorkers     = 2
	serveQueue       = 256
	serveCores       = 2
	serveResultCache = 1024
	serveDeadline    = 30 * time.Second
	ingestRetain     = 64 << 20
)

// rigOptions selects which of tsserve's three shapes a rig boots.
type rigOptions struct {
	CachePacks int
	Sharded    bool // router over one replica group of two in-process ranks
	Ingest     bool // POST /ingest beside /query
	// Rec, when non-nil, installs the benchmark's seam wrappers.
	Rec *recorder
}

// rig is one booted serving deployment on loopback HTTP, wired the way
// cmd/tsserve wires it.
type rig struct {
	road   *dataset
	srv    *serve.Server
	http   *http.Server
	url    string
	client *http.Client
	done   chan struct{} // closed when http.Serve returns

	caches []*gofs.InstanceCache // one (local) or one per rank (sharded)
	ing    *ingest.Ingester
	ranks  []*shard.Rank
	router *shard.Router

	rec         *recorder
	querySeam   *handlerSeam
	ingestSeam  *handlerSeam
	sourceStats *seamStats
	sweepSeam   *sweeperSeam
}

func (r *rig) wrapSource(src core.InstanceSource) core.InstanceSource {
	if r.rec == nil {
		return src
	}
	return &sourceSeam{src: src, rec: r.rec, stats: r.sourceStats}
}

func bootRig(road *dataset, opt rigOptions) (_ *rig, err error) {
	r := &rig{road: road, rec: opt.Rec, sourceStats: &seamStats{}, done: make(chan struct{})}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	store := road.Store
	tracer := obs.NewTracer(0)
	tracer.Enable()
	reg := obs.NewRegistry(tracer)
	reg.Register(obs.ReadBuildInfo())

	sopt := serve.Options{
		Template: road.Tmpl, Parts: road.Parts,
		Delta: road.Delta, WeightAttr: gen.AttrLatency,
		Cores: serveCores, MaxBatch: serveBatch,
		QueueCap: serveQueue, Workers: serveWorkers,
		ResultCacheSize: serveResultCache,
		DefaultDeadline: serveDeadline,
		Tracer:          tracer,
		Live: live.NewRecorder(live.Config{
			Classes: serve.ClassNames(), SlowThreshold: time.Second,
			HeadSampleRate: 0.01, RetainCap: 64, SLOErrorBudget: 0.01,
		}),
	}
	if opt.Ingest {
		if r.ing, err = ingest.Open(store, ingest.Options{RetainBytes: ingestRetain}); err != nil {
			return nil, err
		}
		reg.Register(r.ing.Metrics())
	}
	if opt.Sharded {
		if err = r.bootShards(opt.CachePacks, tracer); err != nil {
			return nil, err
		}
		sopt.Source = shard.HeadSource(store)
		sopt.Sweeper = r.router
		if r.rec != nil {
			r.sweepSeam = &sweeperSeam{next: r.router, rec: r.rec}
			sopt.Sweeper = r.sweepSeam
		}
		reg.Register(r.router)
	} else {
		cache := gofs.NewInstanceCache(store, opt.CachePacks)
		r.caches = []*gofs.InstanceCache{cache}
		sopt.Source = r.wrapSource(cache)
		sopt.InstanceStats = cache.Stats
		sopt.ClassSource = func(class string) core.InstanceSource {
			return r.wrapSource(cache.ClassSource(class))
		}
	}
	if r.srv, err = serve.New(sopt); err != nil {
		return nil, err
	}
	reg.Register(r.srv)
	reg.Register(store.Telemetry())

	mux := serve.NewMux(r.srv, reg)
	if r.ing != nil {
		mux.Handle("/ingest", r.ing.Handler())
	}
	var root http.Handler = mux
	if r.rec != nil {
		r.querySeam = &handlerSeam{next: mux, name: "handler", layer: "serve", ownsBelow: true, rec: r.rec}
		r.ingestSeam = &handlerSeam{next: mux, name: "ingest-handler", layer: "ingest", rec: r.rec}
		root = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/ingest" {
				r.ingestSeam.ServeHTTP(w, req)
				return
			}
			r.querySeam.ServeHTTP(w, req)
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.url = "http://" + ln.Addr().String()
	r.http = &http.Server{Handler: root}
	go func() {
		defer close(r.done)
		_ = r.http.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	r.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	return r, nil
}

// bootShards starts one replica group of two ranks on loopback, each with
// its own cache restricted to the partitions it owns, and a router over it.
func (r *rig) bootShards(cachePacks int, tracer *obs.Tracer) error {
	const members = 2
	store := r.road.Store
	layout := shard.Layout{Replicas: 1}
	rpcLns := make([]net.Listener, members)
	meshLns := make([]net.Listener, members)
	for i := 0; i < members; i++ {
		var err error
		if rpcLns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return err
		}
		if meshLns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return err
		}
		layout.Ranks = append(layout.Ranks, rpcLns[i].Addr().String())
		layout.Mesh = append(layout.Mesh, meshLns[i].Addr().String())
	}
	assign := store.Assignment()
	for i := 0; i < members; i++ {
		cache := gofs.NewInstanceCache(store, cachePacks)
		cache.Restrict(shard.LocalParts(layout, i, assign.K))
		r.caches = append(r.caches, cache)
		rank, err := shard.NewRank(shard.RankConfig{
			Layout: layout, Rank: i,
			Template: r.road.Tmpl, Parts: r.road.Parts, Assign: assign,
			Source: r.wrapSource(cache), Delta: r.road.Delta,
			WeightAttr: gen.AttrLatency, Cores: serveCores,
			Resilience: &cluster.Resilience{
				MaxRetries: 4, BackoffBase: 5 * time.Millisecond,
				BackoffCap: 250 * time.Millisecond, RecoveryWindow: 3 * time.Second,
			},
			Listener: rpcLns[i], MeshListener: meshLns[i],
		})
		if err != nil {
			return err
		}
		r.ranks = append(r.ranks, rank)
	}
	// Start blocks until the whole group's mesh is connected.
	var wg sync.WaitGroup
	errs := make([]error, members)
	for i, rank := range r.ranks {
		wg.Add(1)
		go func(i int, rank *shard.Rank) {
			defer wg.Done()
			errs[i] = rank.Start()
		}(i, rank)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	var err error
	r.router, err = shard.NewRouter(shard.RouterConfig{
		Layout: layout, Template: r.road.Tmpl, Assign: assign, Tracer: tracer,
	})
	return err
}

// close drains the server and stops everything the rig started, waiting
// for the HTTP serve loop to return.
func (r *rig) close() {
	if r.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = r.http.Shutdown(ctx)
		cancel()
		<-r.done
	}
	if r.client != nil {
		r.client.CloseIdleConnections()
	}
	if r.srv != nil {
		_ = r.srv.Close()
	}
	if r.router != nil {
		r.router.Close()
	}
	for _, rank := range r.ranks {
		_ = rank.Close()
	}
	if r.ing != nil {
		_ = r.ing.Close()
	}
}

// cacheStats sums the instance-cache counters over the rig's caches.
func (r *rig) cacheStats() gofs.CacheStats {
	var sum gofs.CacheStats
	for _, c := range r.caches {
		st := c.Stats()
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Evictions += st.Evictions
		sum.PackLoads += st.PackLoads
		sum.SnapshotSteps += st.SnapshotSteps
		sum.DeltaSteps += st.DeltaSteps
	}
	return sum
}

// op is one client operation: what was asked, what came back, and when.
type op struct {
	ID        int64
	Query     serve.Query
	Start     time.Time
	Latency   time.Duration
	Status    int
	Err       error
	Answer    *serve.Answer
	Watermark int
}

func (o *op) ok() bool { return o.Err == nil && o.Status == http.StatusOK }

// post sends one JSON body and returns status, watermark header and body.
func (r *rig) post(path string, body []byte, opID int64) (int, int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, r.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if r.rec.enabled() {
		req.Header.Set(opHeader, strconv.FormatInt(opID, 10))
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, 0, nil, err
	}
	wm, _ := strconv.Atoi(resp.Header.Get(serve.WatermarkHeader))
	return resp.StatusCode, wm, out, nil
}

// query runs one /query round trip, timed as the client sees it: request
// encoding to decoded answer.
func (r *rig) query(id int64, q serve.Query) op {
	o := op{ID: id, Query: q, Start: time.Now()}
	body, err := json.Marshal(q)
	if err == nil {
		var raw []byte
		o.Status, o.Watermark, raw, err = r.post("/query", body, id)
		if err == nil && o.Status == http.StatusOK {
			o.Answer = new(serve.Answer)
			err = json.Unmarshal(raw, o.Answer)
		}
	}
	end := time.Now()
	o.Err = err
	o.Latency = end.Sub(o.Start)
	r.rec.add("query", "http", id, o.Start, end)
	return o
}

// closedLoop runs n clients that each send their next query only after
// the previous answer arrived, until the deadline passes or stop closes.
// Operation ids are idBase + a per-client stride, so they are unique
// across phases.
func (r *rig) closedLoop(n int, deadline time.Time, stop <-chan struct{}, idBase int64, next func(client int) serve.Query, seen func(*op)) []op {
	var (
		wg  sync.WaitGroup
		per = make([][]op, n)
	)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int64(0); time.Now().Before(deadline); i++ {
				select {
				case <-stop:
					return
				default:
				}
				o := r.query(idBase+i*int64(n)+int64(c), next(c))
				if seen != nil {
					seen(&o)
				}
				per[c] = append(per[c], o)
			}
		}(c)
	}
	wg.Wait()
	var all []op
	for _, ops := range per {
		all = append(all, ops...)
	}
	return all
}

// tdspServeQuery renders a generated trip as the request a client posts.
func tdspServeQuery(d *dataset, q tdspQuery) serve.Query {
	return serve.Query{
		Kind:   "tdsp",
		Source: int64(d.Tmpl.VertexID(q.Src)),
		Target: int64(d.Tmpl.VertexID(q.Dst)),
		Depart: q.Depart,
	}
}

// uniqueStream yields trips that never repeat within a run, so the result
// cache and single-flight cannot answer any of them.
type uniqueStream struct {
	gen  *queryGen
	seen map[tdspQuery]bool
	lo   int
	hi   int
}

func newUniqueStream(sc scale, seed int64, radius, departLo, departHi int) *uniqueStream {
	return &uniqueStream{gen: newQueryGen(sc, seed, radius), seen: make(map[tdspQuery]bool), lo: departLo, hi: departHi}
}

func (u *uniqueStream) next() tdspQuery {
	for {
		q := u.gen.next(u.lo, u.hi)
		if !u.seen[q] {
			u.seen[q] = true
			return q
		}
	}
}

// latenciesMS extracts the round trips of the answered operations.
func latenciesMS(ops []op) []float64 {
	out := make([]float64, 0, len(ops))
	for i := range ops {
		if ops[i].ok() {
			out = append(out, ms(ops[i].Latency))
		}
	}
	return out
}

// answeredOps lists the indices of the operations that got an answer.
func answeredOps(ops []op) []int {
	var answered []int
	for i := range ops {
		if ops[i].ok() {
			answered = append(answered, i)
		}
	}
	return answered
}

// countFailed counts operations that errored or were refused.
func countFailed(ops []op) int { return len(ops) - len(answeredOps(ops)) }

// opsElapsed returns the wall time from the first start to the last completion.
func opsElapsed(ops []op) time.Duration {
	if len(ops) == 0 {
		return 0
	}
	first, last := ops[0].Start, ops[0].Start.Add(ops[0].Latency)
	for i := range ops {
		if ops[i].Start.Before(first) {
			first = ops[i].Start
		}
		if end := ops[i].Start.Add(ops[i].Latency); end.After(last) {
			last = end
		}
	}
	return last.Sub(first)
}

// verifySample checks up to n answered operations, chosen by the seeded
// rng, against the oracle. It returns how many were checked and the
// mismatches found.
func verifySample(d *dataset, ops []op, n int, pick func(int) int) (checked int, errs []error) {
	answered := answeredOps(ops)
	for k := 0; k < n && len(answered) > 0; k++ {
		j := pick(len(answered))
		o := &ops[answered[j]]
		answered[j] = answered[len(answered)-1]
		answered = answered[:len(answered)-1]
		checked++
		if err := checkAnswer(d.Coll, d.Delta, o.Query, o.Answer); err != nil {
			errs = append(errs, fmt.Errorf("op %d: %w", o.ID, err))
		}
	}
	return checked, errs
}
