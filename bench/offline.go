package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"tsgraph/internal/algorithms"
	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/gen"
	"tsgraph/internal/gofs"
	"tsgraph/internal/subgraph"
)

// offlineEnv is offline-batch's set-up: both datasets on disk, no server.
type offlineEnv struct {
	road, sw *dataset
}

func (offlineEnv) close() {}

func (e offlineEnv) times() setupTimes {
	t := e.road.Times
	t.add(e.sw.Times)
	return t
}

func setupOffline(cfg runConfig, dir string) (offlineEnv, error) {
	road, err := buildRoad(cfg.Scale, cfg.Seed, cfg.Scale.Steps, filepath.Join(dir, "road"))
	if err != nil {
		return offlineEnv{}, err
	}
	sw, err := buildSmallWorld(cfg.Scale, cfg.Seed, filepath.Join(dir, "smallworld"))
	if err != nil {
		return offlineEnv{}, err
	}
	return offlineEnv{road: road, sw: sw}, nil
}

var offlineEngine = bsp.Config{CoresPerHost: 2}

// offlineRound is one round's timings and, for the rounds the oracle
// checks, its outputs.
type offlineRound struct {
	Source           int
	TDSP, Meme, Hash time.Duration
	Arrivals         []float64
	ColoredAt        []int32
	Hashtag          *algorithms.HashtagStats
}

func (r offlineRound) total() time.Duration { return r.TDSP + r.Meme + r.Hash }

// job is one offline job as a tsrun user waits for it, minus process
// start: open the dataset, build the subgraphs, create the lazy loader, run
// the algorithm. The OS page cache is warm (the dataset was just written).
// rec may be nil (untraced); the spans are the job and its three phases.
func job(d *dataset, name string, rec *recorder, src *seamStats, id int64,
	run func(st *gofs.Store, parts []*subgraph.PartitionData, loader core.InstanceSource) error) (time.Duration, error) {
	t0 := time.Now()
	st, err := gofs.Open(d.Dir)
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	parts, err := subgraph.Build(st.Template(), st.Assignment())
	if err != nil {
		return 0, err
	}
	var loader core.InstanceSource = gofs.NewLoader(st)
	if rec != nil {
		loader = &sourceSeam{src: loader, rec: rec, stats: src}
	}
	t2 := time.Now()
	if rec != nil {
		rec.inFlight.Store(id)
		defer rec.inFlight.Store(0)
	}
	if err := run(st, parts, loader); err != nil {
		return 0, fmt.Errorf("%s job: %w", name, err)
	}
	end := time.Now()
	rec.add("open", "gofs", id, t0, t1)
	rec.add("build", "subgraph", id, t1, t2)
	rec.add("run-"+name, "engine", id, t2, end)
	rec.add("job-"+name, "driver", id, t0, end)
	return end.Sub(t0), nil
}

// runRound runs the three jobs of one round, each from gofs.Open to its
// result.
func runRound(e offlineEnv, source int, rec *recorder, src *seamStats, id int64) (offlineRound, error) {
	r := offlineRound{Source: source}
	var err error
	r.TDSP, err = job(e.road, "tdsp", rec, src, id, func(st *gofs.Store, parts []*subgraph.PartitionData, loader core.InstanceSource) error {
		var err error
		r.Arrivals, _, err = algorithms.RunTDSP(st.Template(), parts, source, loader, e.road.Delta, gen.AttrLatency, offlineEngine, nil)
		return err
	})
	if err != nil {
		return r, err
	}
	r.Meme, err = job(e.sw, "meme", rec, src, id, func(st *gofs.Store, parts []*subgraph.PartitionData, loader core.InstanceSource) error {
		var err error
		r.ColoredAt, _, err = algorithms.RunMeme(st.Template(), parts, memeTag, gen.AttrTweets, loader, offlineEngine, nil)
		return err
	})
	if err != nil {
		return r, err
	}
	r.Hash, err = job(e.sw, "hash", rec, src, id, func(st *gofs.Store, parts []*subgraph.PartitionData, loader core.InstanceSource) error {
		var err error
		r.Hashtag, _, err = algorithms.RunHashtag(st.Template(), parts, memeTag, gen.AttrTweets, loader, offlineEngine, nil, 1)
		return err
	})
	return r, err
}

// verifiedRounds is how many rounds keep their outputs for the oracle.
const verifiedRounds = 4

// verifyRounds checks the kept rounds against the oracle; three checks
// per round.
func verifyRounds(e offlineEnv, rounds []offlineRound, res *runResult) {
	wantMeme := refMeme(e.sw.Coll, memeTag)
	wantHash := refHashtagCounts(e.sw.Coll, memeTag)
	for i, r := range rounds {
		if r.Arrivals == nil {
			continue
		}
		res.Attempted += 3
		want, _ := refTDSP(e.road.Coll, r.Source, 0, e.road.Coll.NumInstances(), -1, e.road.Delta)
		if err := checkArrivals(r.Arrivals, want); err != nil {
			res.fail(fmt.Errorf("round %d tdsp from %d: %w", i, r.Source, err))
		}
		if err := checkMeme(r.ColoredAt, wantMeme); err != nil {
			res.fail(fmt.Errorf("round %d meme: %w", i, err))
		}
		if err := checkHashtag(r.Hashtag, wantHash); err != nil {
			res.fail(fmt.Errorf("round %d: %w", i, err))
		}
	}
}

func runOffline(cfg runConfig, w workloadSpec) (*runResult, error) {
	res := newRunResult()
	e, setupS, err := repeatSetup(cfg, cfg.Setups, func(dir string) (offlineEnv, error) {
		return setupOffline(cfg, dir)
	})
	if err != nil {
		return nil, err
	}
	sources := rand.New(rand.NewSource(cfg.Seed + 100))
	nextSource := func() int { return sources.Intn(e.road.Tmpl.NumVertices()) }

	// Warm-up: one round, so the page cache holds both datasets and the
	// runtime has grown its heap.
	if _, err := runRound(e, nextSource(), nil, nil, 0); err != nil {
		return nil, err
	}

	if cfg.Trace {
		return traceOffline(cfg, e, res, nextSource)
	}

	var rounds []offlineRound
	start := time.Now()
	for deadline := start.Add(cfg.window()); time.Now().Before(deadline); {
		r, err := runRound(e, nextSource(), nil, nil, 0)
		if err != nil {
			return nil, err
		}
		if len(rounds) >= verifiedRounds {
			r.Arrivals, r.ColoredAt, r.Hashtag = nil, nil, nil
		}
		rounds = append(rounds, r)
	}
	elapsed := time.Since(start)

	lat := make([]float64, len(rounds))
	var tdsp, meme, hash []float64
	for i, r := range rounds {
		lat[i] = ms(r.total())
		tdsp, meme, hash = append(tdsp, ms(r.TDSP)), append(meme, ms(r.Meme)), append(hash, ms(r.Hash))
	}
	res.Attempted = len(rounds)
	endToEndLatency(res, w, lat, len(rounds), elapsed)
	res.Metrics.set("setup_s", setupS)
	if err := diskMetric(res, e.road); err != nil {
		return nil, err
	}
	res.note("job medians over %d rounds: tdsp %.1f ms, meme %.1f ms, hash %.1f ms (page cache warm, process start excluded)",
		len(rounds), median(tdsp), median(meme), median(hash))
	verifyRounds(e, rounds, res)
	return res, nil
}

// traceOffline is the traced run: rounds with the span recorder on for
// half the window, then the direct-call probes.
func traceOffline(cfg runConfig, e offlineEnv, res *runResult, nextSource func() int) (*runResult, error) {
	rec := newRecorder()
	src := &seamStats{}

	var untraced []float64
	for deadline := time.Now().Add(cfg.tracePhase()); time.Now().Before(deadline); {
		r, err := runRound(e, nextSource(), nil, nil, 0)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, ms(r.total()))
	}

	rec.on.Store(true)
	before := takeProcSnap()
	var rounds []offlineRound
	for deadline := time.Now().Add(cfg.tracePhase()); time.Now().Before(deadline) || len(rounds) < 2; {
		r, err := runRound(e, nextSource(), rec, src, int64(len(rounds)+1))
		if err != nil {
			return nil, err
		}
		if len(rounds) >= verifiedRounds {
			r.Arrivals, r.ColoredAt, r.Hashtag = nil, nil, nil
		}
		rounds = append(rounds, r)
	}
	after := takeProcSnap()
	rec.on.Store(false)
	res.Spans = rec.spans

	m := res.Metrics
	var traced, tdsp, meme, hash []float64
	for _, r := range rounds {
		traced = append(traced, ms(r.total()))
		tdsp, meme, hash = append(tdsp, ms(r.TDSP)), append(meme, ms(r.Meme)), append(hash, ms(r.Hash))
	}
	res.Attempted = len(rounds)
	m.set("offline.job_tdsp_ms_p50", median(tdsp))
	m.set("offline.job_meme_ms_p50", median(meme))
	m.set("offline.job_hash_ms_p50", median(hash))
	res.Samples["offline.job_tdsp_ms_p50"] = len(rounds)

	b := analyze(rec.spans, true)
	m.set("trace.explained_share", b.explainedShare())
	m.set("trace.overhead_share", ratio(median(traced)-median(untraced), median(untraced)))
	m.set("gofs.load_share", b.layerShare("gofs"))
	m.set("gofs.load_wait_ms_per_op", ratio(ms(time.Duration(src.nanos.Load())), float64(len(rounds))))
	procMetrics(m, before, after, len(rounds))
	setupLayerMetrics(m, e.times())
	res.note("layer self-time shares of job time: gofs %.3f, subgraph %.3f, engine (algorithms+core+bsp) %.3f, driver %.3f",
		b.layerShare("gofs"), b.layerShare("subgraph"), b.layerShare("engine"), b.layerShare("driver"))

	if err := probeStorage(cfg, e.road, m); err != nil {
		return nil, err
	}
	if err := probeEngine(cfg, e.road, core.MemorySource{C: e.road.Coll}, m); err != nil {
		return nil, err
	}
	if err := probeTweets(e.sw, m); err != nil {
		return nil, err
	}
	verifyRounds(e, rounds, res)
	return res, nil
}
