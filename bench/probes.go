package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"tsgraph/internal/algorithms"
	"tsgraph/internal/bsp"
	"tsgraph/internal/cluster"
	"tsgraph/internal/core"
	"tsgraph/internal/gen"
	"tsgraph/internal/gofs"
	"tsgraph/internal/ingest"
	"tsgraph/internal/subgraph"
)

// The probes time calls straight into a layer's public functions, for the
// layers that have no seam to wrap (bsp, core, algorithms, cluster, the
// gofs write path, ingest). They run in the traced run, after the traced
// phase, on the workload's own dataset.

const (
	probeQueries   = 32
	probeBatch     = 16
	probeRefSweeps = 16
)

// timeIt returns how long f took, in milliseconds.
func timeIt(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return ms(time.Since(t0)), err
}

// mallocs reads the process's cumulative allocation counters.
func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// probeStorage times the GoFS read path cold: open, then every pack
// decoded once through a store that has no instance cache in front of it.
// The operating system's page cache is warm, so these are decode costs,
// not device reads.
func probeStorage(cfg runConfig, road *dataset, m metricSet) error {
	var opens []float64
	for i := 0; i < 5; i++ {
		d, err := timeIt(func() error {
			_, err := gofs.Open(road.Dir)
			return err
		})
		if err != nil {
			return err
		}
		opens = append(opens, d)
	}
	m.set("gofs.open_ms", median(opens))

	st, err := gofs.Open(road.Dir)
	if err != nil {
		return err
	}
	pack := st.Manifest().Pack
	var decodes []float64
	total := 0.0
	for ps := 0; ps < st.Timesteps(); ps += pack {
		d, err := timeIt(func() error {
			_, _, _, err := st.ReadPackDeltas(ps, nil)
			return err
		})
		if err != nil {
			return err
		}
		decodes = append(decodes, d)
		total += d
	}
	m.set("gofs.pack_decode_ms_p50", median(decodes))
	m.set("gofs.decode_mb_per_s", ratio(float64(st.Telemetry().BytesRead())/1e6, total/1e3))
	return nil
}

// haltAtOnce is the cheapest TI-BSP program: every subgraph votes to halt
// in superstep 0 of every timestep, so a run costs only what core and bsp
// charge per timestep.
type haltAtOnce struct{}

func (haltAtOnce) Compute(ctx *core.Context, _ *subgraph.Subgraph, _, _ int, _ []bsp.Message) {
	ctx.VoteToHalt()
}

// probeSteps is the prefix both the warm source and the oracle's
// collection cover.
func probeSteps(road *dataset, warm core.InstanceSource) int {
	steps := warm.Timesteps()
	if n := road.Coll.NumInstances(); n < steps {
		steps = n
	}
	return steps
}

// probeQuerySet is the fixed, seeded set of unique trips the direct-call
// probes share, so that batch1, the oracle's Dijkstra and Submit are timed
// on the same queries and their differences are overheads, not sampling.
// It passes the uncached stream's filter (startsInsideRank), so the probes
// sample what serve-uncached and shard-2x1 send, and a Submit through the
// sharded rig never takes the path that loses frames.
func probeQuerySet(cfg runConfig, road *dataset, steps int) ([]tdspQuery, *queryGen, int) {
	departHi := cfg.Scale.Steps / 2
	if departHi > steps/2 {
		departHi = steps / 2
	}
	g := newQueryGen(cfg.Scale, cfg.Seed+70, cfg.Scale.TripRadius)
	seen := make(map[tdspQuery]bool)
	queries := make([]tdspQuery, 0, probeQueries)
	for len(queries) < probeQueries {
		if q := g.next(0, departHi); !seen[q] && startsInsideRank(road, q) {
			seen[q] = true
			queries = append(queries, q)
		}
	}
	return queries, g, departHi
}

// probeEngine times core, bsp and algorithms with storage out of the way:
// warm is a source whose instances are already decoded.
func probeEngine(cfg runConfig, road *dataset, warm core.InstanceSource, m metricSet) error {
	engineCfg := bsp.Config{CoresPerHost: serveCores}
	steps := probeSteps(road, warm)
	for ts := 0; ts < steps; ts++ {
		if _, err := warm.Load(ts); err != nil {
			return err
		}
	}

	mem := core.MemorySource{C: road.Coll}
	var empty []float64
	for i := 0; i < 5; i++ {
		d, err := timeIt(func() error {
			_, err := core.Run(&core.Job{
				Template: road.Tmpl, Parts: road.Parts, Source: mem,
				Program: haltAtOnce{}, Pattern: core.SequentiallyDependent, Config: engineCfg,
			})
			return err
		})
		if err != nil {
			return err
		}
		empty = append(empty, d*1e3/float64(mem.Timesteps()))
	}
	m.set("core.empty_timestep_us", median(empty))

	var news []float64
	for i := 0; i < 64; i++ {
		t0 := time.Now()
		_ = bsp.NewEngine(road.Parts, engineCfg)
		news = append(news, us(time.Since(t0)))
	}
	m.set("bsp.engine_new_us_p50", median(news))

	const idleSteps = 64
	idle := bsp.ComputeFunc(func(ctx *bsp.Context, _ *subgraph.Subgraph, superstep int, _ []bsp.Message) {
		if superstep >= idleSteps-1 {
			ctx.VoteToHalt()
		}
	})
	engine := bsp.NewEngine(road.Parts, engineCfg)
	var perStep []float64
	ranSteps := 0
	a0, _ := mallocs()
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		r, err := engine.Run(idle, nil, nil)
		if err != nil {
			return err
		}
		perStep = append(perStep, us(time.Since(t0))/float64(r.Supersteps))
		ranSteps += r.Supersteps
	}
	a1, _ := mallocs()
	m.set("bsp.superstep_us_p50", median(perStep))
	m.set("bsp.allocs_per_superstep", ratio(float64(a1-a0), float64(ranSteps)))

	queries, g, departHi := probeQuerySet(cfg, road, steps)
	var batch1, ref []float64
	var timesteps, supersteps int
	a0, b0 := mallocs()
	for i, q := range queries {
		var res *core.Result
		d, err := timeIt(func() error {
			var err error
			_, res, err = algorithms.RunBatchTDSP(road.Tmpl, road.Parts,
				[]algorithms.BatchQuery{{Source: q.Src, Targets: []int{q.Dst}}},
				q.Depart, warm, road.Delta, gen.AttrLatency, engineCfg, nil, nil)
			return err
		})
		if err != nil {
			return err
		}
		batch1 = append(batch1, d)
		if i < probeRefSweeps {
			timesteps += res.TimestepsRun - q.Depart
			supersteps += res.Supersteps
		}
	}
	a1, b1 := mallocs()
	for _, q := range queries {
		d, _ := timeIt(func() error {
			refTDSP(road.Coll, q.Src, q.Depart, steps, q.Dst, road.Delta)
			return nil
		})
		ref = append(ref, d)
	}
	m.set("algorithms.batch1_ms_p50", median(batch1))
	m.set("algorithms.ref_dijkstra_ms_p50", median(ref))
	m.set("algorithms.useful_work_share", ratio(median(ref), median(batch1)))
	m.set("algorithms.allocs_per_sweep", float64(a1-a0)/probeQueries)
	m.set("algorithms.alloc_bytes_per_sweep", float64(b1-b0)/probeQueries)
	m.set("core.timesteps_run", float64(timesteps))
	m.set("core.supersteps", float64(supersteps))

	var batch16 []float64
	for i := 0; i < 8; i++ {
		depart := 0
		if departHi > 0 {
			depart = i % departHi
		}
		seen := make(map[int]bool)
		var batch []algorithms.BatchQuery
		for len(batch) < probeBatch {
			q := g.next(depart, depart)
			if !seen[q.Src] {
				seen[q.Src] = true
				batch = append(batch, algorithms.BatchQuery{Source: q.Src, Targets: []int{q.Dst}})
			}
		}
		d, err := timeIt(func() error {
			_, _, err := algorithms.RunBatchTDSP(road.Tmpl, road.Parts, batch, depart, warm,
				road.Delta, gen.AttrLatency, engineCfg, nil, nil)
			return err
		})
		if err != nil {
			return err
		}
		batch16 = append(batch16, d)
	}
	m.set("algorithms.batch16_ms_p50", median(batch16))

	var full []float64
	for i := 0; i < 3; i++ {
		d, err := timeIt(func() error {
			_, _, err := algorithms.RunTDSP(road.Tmpl, road.Parts, queries[i].Src, mem,
				road.Delta, gen.AttrLatency, engineCfg, nil)
			return err
		})
		if err != nil {
			return err
		}
		full = append(full, d)
	}
	m.set("algorithms.tdsp_mem_ms", median(full))
	return nil
}

// probeTweets times MEME and HASH over the in-memory small-world
// collection: the algorithms with no storage under them.
func probeTweets(sw *dataset, m metricSet) error {
	mem := core.MemorySource{C: sw.Coll}
	var meme, hash []float64
	for i := 0; i < 3; i++ {
		d, err := timeIt(func() error {
			_, _, err := algorithms.RunMeme(sw.Tmpl, sw.Parts, memeTag, gen.AttrTweets, mem, offlineEngine, nil)
			return err
		})
		if err != nil {
			return err
		}
		meme = append(meme, d)
		d, err = timeIt(func() error {
			_, _, err := algorithms.RunHashtag(sw.Tmpl, sw.Parts, memeTag, gen.AttrTweets, mem, offlineEngine, nil, 1)
			return err
		})
		if err != nil {
			return err
		}
		hash = append(hash, d)
	}
	m.set("algorithms.meme_mem_ms", median(meme))
	m.set("algorithms.hash_mem_ms", median(hash))
	return nil
}

// probeServe times the serving layer around the engine: Submit called
// directly (no HTTP) with unique queries, and the HTTP round trip of a
// query the result cache already holds. steps must be what probeEngine
// saw, so both draw the same query set.
func probeServe(cfg runConfig, road *dataset, r *rig, steps int, m metricSet) error {
	queries, g, departHi := probeQuerySet(cfg, road, steps)
	var submit []float64
	for _, pq := range queries {
		q := tdspServeQuery(road, pq)
		d, err := timeIt(func() error {
			_, err := r.srv.Submit(context.Background(), q)
			return err
		})
		if err != nil {
			return err
		}
		submit = append(submit, d)
	}
	m.set("serve.submit_ms_p50", median(submit))
	if r.router == nil {
		m.set("serve.sched_overhead_us_p50", (median(submit)-m["algorithms.batch1_ms_p50"].Value)*1e3)
	}

	trip := g.next(0, departHi)
	for !startsInsideRank(road, trip) {
		trip = g.next(0, departHi)
	}
	hot := tdspServeQuery(road, trip)
	var hits []float64
	for i := 0; i < 201; i++ {
		o := r.query(0, hot)
		if !o.ok() {
			return fmt.Errorf("hit probe: status %d: %v", o.Status, o.Err)
		}
		if i > 0 { // the first one computes the answer
			hits = append(hits, us(o.Latency))
		}
	}
	m.set("serve.hit_us_p50", median(hits))
	return nil
}

// copyDir copies the regular files of a dataset directory tree.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// fileSizes lists a directory tree's regular files with size and mtime.
func fileSizes(dir string) (map[string][2]int64, error) {
	out := make(map[string][2]int64)
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			out[path] = [2]int64{info.Size(), info.ModTime().UnixNano()}
		}
		return nil
	})
	return out, err
}

// bytesWritten sums the sizes of files that are new or changed between
// two listings: what an append wrote, seen from outside.
func bytesWritten(before, after map[string][2]int64) int64 {
	var n int64
	for path, now := range after {
		if was, ok := before[path]; !ok || was != now {
			n += now[0]
		}
	}
	return n
}

// probeWritePath times the write path's layers one at a time on a scratch
// copy of the dataset, with payloads from the workload's generator:
// WAL.Stage and WAL.Sync alone, Appender.Append alone, then
// Ingester.Apply (validate + WAL + fold + publish) without HTTP.
func probeWritePath(cfg runConfig, road *dataset, m metricSet) error {
	const n = 24
	muts, err := buildMutations(road.Tmpl, cfg.Seed+90, 2*n)
	if err != nil {
		return err
	}
	scratch := filepath.Join(cfg.WorkDir, "write-probe")
	if err := copyDir(road.Dir, scratch); err != nil {
		return err
	}
	if err := os.Remove(ingest.WALPath(scratch)); err != nil && !os.IsNotExist(err) {
		return err
	}

	wal, _, err := gofs.OpenWAL(filepath.Join(cfg.WorkDir, "probe.wal"))
	if err != nil {
		return err
	}
	var stage, sync []float64
	for _, mu := range muts[:n] {
		t0 := time.Now()
		seq, err := wal.Stage(mu.Body)
		if err != nil {
			wal.Close()
			return err
		}
		t1 := time.Now()
		if err := wal.Sync(seq); err != nil {
			wal.Close()
			return err
		}
		stage = append(stage, us(t1.Sub(t0)))
		sync = append(sync, ms(time.Since(t1)))
	}
	if err := wal.Close(); err != nil {
		return err
	}
	m.set("gofs.wal_stage_us_p50", median(stage))
	m.set("gofs.wal_sync_ms_p50", median(sync))

	st, err := gofs.Open(scratch)
	if err != nil {
		return err
	}
	app, err := gofs.NewAppender(st)
	if err != nil {
		return err
	}
	li := road.Tmpl.EdgeSchema().Index(gen.AttrLatency)
	var appendMS, written []float64
	userBytes := 0
	for _, mu := range muts[:n] {
		ins := app.Head().Clone()
		ins.Timestep = st.Timesteps()
		ins.Time = st.Manifest().T0 + int64(ins.Timestep)*st.Manifest().Delta
		for k, e := range mu.Edges {
			ins.EdgeCols[li].Floats[e] = mu.Values[k]
		}
		userBytes += 8 * len(mu.Edges)
		before, err := fileSizes(scratch)
		if err != nil {
			return err
		}
		d, err := timeIt(func() error { return app.Append(ins) })
		if err != nil {
			return err
		}
		after, err := fileSizes(scratch)
		if err != nil {
			return err
		}
		appendMS = append(appendMS, d)
		written = append(written, float64(bytesWritten(before, after)))
	}
	m.set("gofs.append_ms_p50", median(appendMS))
	m.set("gofs.bytes_written_per_append", median(written))
	sum := 0.0
	for _, w := range written {
		sum += w
	}
	m.set("gofs.write_amp", ratio(sum, float64(userBytes)))

	// A fresh store over the same scratch copy: the Ingester builds its own
	// Appender from the manifest the direct appends just published.
	st, err = gofs.Open(scratch)
	if err != nil {
		return err
	}
	ing, err := ingest.Open(st, ingest.Options{RetainBytes: ingestRetain})
	if err != nil {
		return err
	}
	defer ing.Close()
	var apply []float64
	for _, mu := range muts[n:] {
		var mut ingest.Mutation
		if err := json.Unmarshal(mu.Body, &mut); err != nil {
			return err
		}
		d, err := timeIt(func() error {
			_, err := ing.Apply(&mut)
			return err
		})
		if err != nil {
			return err
		}
		apply = append(apply, d)
	}
	m.set("ingest.apply_ms_p50", median(apply))
	return nil
}

// probeCluster times one Barrier round between two mesh Nodes on
// loopback: the per-superstep price a sharded sweep pays.
func probeCluster(m metricSet) error {
	const rounds = 300
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	nodes := make([]*cluster.Node, 2)
	for i := range nodes {
		node, err := cluster.New(cluster.Config{Rank: i, Addrs: addrs, Listener: lns[i], Owner: []int32{0, 1}})
		if err != nil {
			return err
		}
		nodes[i] = node
		defer node.Close()
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, node *cluster.Node) {
			defer wg.Done()
			errs[i] = node.Start()
		}(i, node)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for s := 0; s < rounds; s++ {
			if _, errs[1] = nodes[1].Barrier(s, bsp.BarrierStats{AllHalted: true}); errs[1] != nil {
				return
			}
		}
	}()
	var round []float64
	for s := 0; s < rounds; s++ {
		t0 := time.Now()
		if _, err := nodes[0].Barrier(s, bsp.BarrierStats{AllHalted: true}); err != nil {
			return err
		}
		round = append(round, us(time.Since(t0)))
	}
	wg.Wait()
	if errs[1] != nil {
		return errs[1]
	}
	m.set("cluster.barrier_us_p50", median(round))
	return nil
}
