// Command tsrun executes a time-series graph algorithm over a GoFS dataset,
// loading instances incrementally and printing results plus the run's
// timing decomposition.
//
// Usage:
//
//	tsrun -in data/road -algo tdsp -source 0
//	tsrun -in data/social -algo meme -meme '#meme'
//	tsrun -in data/social -algo hashtag -meme '#meme'
//	tsrun -in data/road -algo sssp -source 0 -timestep 3
//	tsrun -in data/road -algo topn
//
// Distributed mode runs one tsrun process per host over TCP (tdsp and meme;
// the dataset directory must be readable by every process, and partitions
// are assigned to nodes round-robin):
//
//	tsrun -in data/road -algo tdsp -cluster-rank 0 -cluster-addrs host0:7700,host1:7700
//	tsrun -in data/road -algo tdsp -cluster-rank 1 -cluster-addrs host0:7700,host1:7700
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math"
	"os"
	"strings"
	"time"

	"tsgraph"
	"tsgraph/internal/algorithms"
	"tsgraph/internal/bsp"
	"tsgraph/internal/chaos"
	"tsgraph/internal/cluster"
	"tsgraph/internal/core"
	"tsgraph/internal/obs"
	"tsgraph/internal/obs/diag"
	"tsgraph/internal/obs/live"
	"tsgraph/internal/serve"
	"tsgraph/internal/subgraph"
)

// flagValues carries the parsed flags whose combinations can conflict.
type flagValues struct {
	algo, caddrs, ckptDir, mergedOut string
	crank, ckptEvery, cores          int
	resume, watchdog, resilient      bool
}

// validateFlags rejects incoherent flag combinations up front and all at
// once, so one failed invocation reports every problem instead of the
// first (some of these used to surface minutes into a run, or never).
func validateFlags(v flagValues) (errs []string) {
	seqDep := v.algo == "tdsp" || v.algo == "meme"
	if v.cores < 1 {
		errs = append(errs, fmt.Sprintf("-cores must be >= 1, got %d", v.cores))
	}
	if v.resume && v.ckptDir == "" {
		errs = append(errs, "-resume needs -checkpoint")
	}
	if v.ckptDir != "" {
		if !seqDep {
			errs = append(errs, fmt.Sprintf("-checkpoint supports the sequentially dependent algorithms (tdsp, meme), not %q", v.algo))
		}
		if v.ckptEvery < 1 {
			errs = append(errs, fmt.Sprintf("-checkpoint-every must be >= 1, got %d", v.ckptEvery))
		}
	}
	if v.crank >= 0 {
		addrs := strings.Split(v.caddrs, ",")
		switch {
		case v.caddrs == "":
			errs = append(errs, "-cluster-rank needs -cluster-addrs")
		case v.crank >= len(addrs):
			errs = append(errs, fmt.Sprintf("-cluster-rank %d outside the %d-node -cluster-addrs list", v.crank, len(addrs)))
		}
		if !seqDep {
			errs = append(errs, fmt.Sprintf("distributed mode supports tdsp and meme, not %q", v.algo))
		}
	} else {
		if v.caddrs != "" {
			errs = append(errs, "-cluster-addrs needs -cluster-rank")
		}
		if v.mergedOut != "" {
			errs = append(errs, "-merged-trace needs a distributed run (-cluster-rank)")
		}
		if v.watchdog {
			errs = append(errs, "-watchdog needs a distributed run (-cluster-rank)")
		}
		if v.resilient {
			errs = append(errs, "-resilient needs a distributed run (-cluster-rank)")
		}
	}
	return errs
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsrun: ")

	var (
		in        = flag.String("in", "", "GoFS dataset directory (required)")
		algo      = flag.String("algo", "tdsp", "algorithm: tdsp | meme | hashtag | sssp | bfs | topn")
		source    = flag.Int64("source", 0, "source vertex id (tdsp/sssp/bfs)")
		meme      = flag.String("meme", "#meme", "hashtag to track/aggregate")
		timestep  = flag.Int("timestep", 0, "instance for single-instance algorithms")
		cores     = flag.Int("cores", 2, "simulated cores per host")
		verbose   = flag.Bool("v", false, "print every output record")
		crank     = flag.Int("cluster-rank", -1, "this process's rank in a distributed run (-1 = single process)")
		caddrs    = flag.String("cluster-addrs", "", "comma-separated rank-ordered node addresses for a distributed run")
		obsAddr   = flag.String("obs", "", "serve the observability endpoint (/metrics, /debug/trace, /debug/pprof) on this address, e.g. :9188")
		traceOut  = flag.String("trace", "", "write a Chrome trace_event JSON file (load in Perfetto) at exit")
		mergedOut = flag.String("merged-trace", "", "distributed mode: gather every rank's trace shard at rank 0 and write the clock-aligned merged Chrome trace there (pass on every rank)")
		watchdog  = flag.Bool("watchdog", false, "distributed mode: warn when a rank fails to reach a superstep barrier in time")
		chaosSpec = flag.String("chaos", "", "deterministic fault injection spec, e.g. 'seed=42,wire.send=0.01,gofs.load=at:3' (sites: wire.send, wire.recv, barrier.eos, gofs.load; arm each with a probability or at:N)")
		resilient = flag.Bool("resilient", false, "distributed mode: resilient transport — retry failed sends with backoff, re-dial lost peers, replay unacked frames. Pass on every rank or none (the handshake differs); pair with -chaos wire faults to survive them")
		ckptDir   = flag.String("checkpoint", "", "tdsp/meme: persist program state into this directory after each timestep boundary")
		ckptEvery = flag.Int("checkpoint-every", 1, "with -checkpoint: write only every Nth boundary")
		resume    = flag.Bool("resume", false, "restore the newest usable checkpoint from -checkpoint before running (distributed ranks agree on the minimum)")
		logLevel  = flag.String("log-level", "info", "structured log level: debug | info | warn | error")
		logFormat = flag.String("log-format", "text", "structured log format: text | json")
		bundleDir = flag.String("bundle-dir", "", "directory for diagnostic bundles; arms runtime anomaly detectors, SIGQUIT capture, and /debug/bundle on -obs (empty disables)")
		version   = flag.Bool("version", false, "print build identity and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("tsrun", obs.ReadBuildInfo())
		return
	}
	logger, err := live.InitLogging(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		log.Fatal(err)
	}
	var logRing *diag.LogRing
	if *bundleDir != "" {
		logRing = diag.NewLogRing(512)
		slog.SetDefault(slog.New(logRing.Tee(logger.Handler())))
	}
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	if errs := validateFlags(flagValues{
		algo: *algo, caddrs: *caddrs, ckptDir: *ckptDir, mergedOut: *mergedOut,
		crank: *crank, ckptEvery: *ckptEvery, cores: *cores,
		resume: *resume, watchdog: *watchdog, resilient: *resilient,
	}); len(errs) > 0 {
		for _, e := range errs {
			log.Print(e)
		}
		os.Exit(2)
	}
	inj, err := chaos.Parse(*chaosSpec)
	if err != nil {
		log.Fatal(err)
	}

	// Observability: one tracer + registry for the process. The tracer is
	// created (and enabled) whenever any export path wants it — including
	// the cross-rank merge, which needs every rank recording.
	var tracer *obs.Tracer
	if *obsAddr != "" || *traceOut != "" || *mergedOut != "" {
		tracer = obs.NewTracer(0)
		tracer.Enable()
		core.SetDefaultTracer(tracer)
	}
	reg := obs.NewRegistry(tracer)
	reg.Register(obs.ReadBuildInfo())
	sampler := diag.NewRuntimeSampler()
	reg.Register(sampler)

	// Diagnostics: a bundler armed on SIGQUIT, runtime anomaly detectors,
	// and (distributed mode) a detector over watchdog stall warnings that
	// runDistributed appends before starting the monitor.
	var bundler *diag.Bundler
	var monitor *diag.Monitor
	if *bundleDir != "" {
		bundler = &diag.Bundler{Dir: *bundleDir, Tool: "tsrun", Registry: reg, LogRing: logRing}
		if *obsAddr != "" || *traceOut != "" || *mergedOut != "" {
			bundler.Sections = []diag.Section{
				{Name: "trace.json", Write: func(w io.Writer) error { return obs.WriteChromeTrace(w, tracer) }},
			}
		}
		defer diag.ArmSIGQUIT(bundler)()
		monitor = &diag.Monitor{
			Detectors: []*diag.Detector{
				{Name: "goroutines", Signal: sampler.Goroutines, Factor: 3, Min: 200, Consecutive: 2},
				{Name: "heap_bytes", Signal: sampler.HeapBytes, Factor: 2.5, Min: 256 << 20, Consecutive: 2},
			},
			OnTrip: func(evs []diag.Evidence) {
				for _, ev := range evs {
					slog.Warn("diag: anomaly detector tripped", "evidence", ev.String())
				}
				if path, err := bundler.Capture(diag.Trigger{Cause: "detector", Evidence: evs}); err != nil {
					slog.Warn("diag: bundle capture skipped", "err", err)
				} else {
					slog.Info("diag: bundle captured", "bundle", path)
				}
			},
		}
		reg.Register(monitor)
		defer monitor.Close()
	}
	if *obsAddr != "" {
		srv, addr, err := obs.Serve(*obsAddr, reg, diag.Endpoints(bundler)...)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("observability endpoint on http://%s/\n", addr)
		// Shut the listener down on exit or SIGTERM so in-flight scrapes
		// complete instead of hitting a reset connection.
		defer serve.ShutdownOnSignal(srv, 2*time.Second)()
	}
	defer func() {
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				log.Fatal(err)
			}
			if err := obs.WriteChromeTrace(f, tracer); err != nil {
				log.Fatal(err)
			}
			f.Close()
			fmt.Printf("wrote Chrome trace to %s (tracer %s)\n", *traceOut, tracer.Summary())
		}
	}()

	store, err := tsgraph.OpenDataset(*in)
	if err != nil {
		log.Fatal(err)
	}
	tmpl := store.Template()
	assign := store.Assignment()
	parts, err := tsgraph.BuildSubgraphs(tmpl, assign)
	if err != nil {
		log.Fatal(err)
	}
	if *crank >= 0 {
		dopts := distOptions{
			tracer: tracer, mergedOut: *mergedOut,
			watchdog:      *watchdog,
			profileLabels: *obsAddr != "",
			chaos:         inj,
			resilient:     *resilient,
			ckptDir:       *ckptDir, ckptEvery: *ckptEvery, resume: *resume,
			diag: monitor,
		}
		runDistributed(store, *crank, strings.Split(*caddrs, ","), *algo, *source, *meme, *cores, reg, dopts)
		return
	}
	if monitor != nil {
		monitor.Start()
	}

	loader := tsgraph.NewLoader(store)
	loader.Chaos = inj
	// Label compute goroutines for pprof only when a live profile consumer
	// exists (the labels allocate, so they are opt-in).
	cfg := tsgraph.EngineConfig{CoresPerHost: *cores, ProfileLabels: *obsAddr != ""}
	rec := tsgraph.NewRecorder(assign.K)
	reg.ObserveRecorder(rec)
	manifest := store.Manifest()
	fmt.Printf("dataset %s: %d vertices, %d instances, %d partitions\n",
		tmpl.Name, tmpl.NumVertices(), store.Timesteps(), assign.K)

	srcIdx := tmpl.VertexIndex(tsgraph.VertexID(*source))
	wallStart := time.Now()
	var res *tsgraph.Result

	switch *algo {
	case "tdsp":
		if srcIdx < 0 {
			log.Fatalf("source vertex %d not in template", *source)
		}
		var arrivals []float64
		var r *tsgraph.Result
		if *ckptDir != "" {
			// The wrapper owns its Job, so the checkpointed variant builds
			// the Job here to reach the checkpoint fields.
			prog := algorithms.NewTDSP(parts, srcIdx, float64(manifest.Delta), tsgraph.AttrLatency)
			r, err = core.Run(&core.Job{
				Template: tmpl, Parts: parts, Source: loader, Program: prog,
				Pattern: core.SequentiallyDependent, Config: cfg, Recorder: rec,
				CheckpointDir: *ckptDir, CheckpointEvery: *ckptEvery, Resume: *resume,
			})
			if err != nil {
				log.Fatal(err)
			}
			arrivals = prog.Arrivals(parts, tmpl)
		} else if arrivals, r, err = tsgraph.TDSP(tmpl, parts, srcIdx, loader,
			float64(manifest.Delta), tsgraph.AttrLatency, cfg, rec); err != nil {
			log.Fatal(err)
		}
		res = r
		reached := 0
		for v, a := range arrivals {
			if !math.IsInf(a, 1) {
				reached++
				if *verbose {
					fmt.Printf("tdsp %d = %.1f\n", tmpl.VertexID(v), a)
				}
			}
		}
		fmt.Printf("tdsp: reached %d of %d vertices in %d timesteps\n",
			reached, tmpl.NumVertices(), r.TimestepsRun)
	case "meme":
		var coloredAt []int32
		var r *tsgraph.Result
		if *ckptDir != "" {
			prog := algorithms.NewMeme(parts, *meme, tsgraph.AttrTweets)
			r, err = core.Run(&core.Job{
				Template: tmpl, Parts: parts, Source: loader, Program: prog,
				Pattern: core.SequentiallyDependent, Config: cfg, Recorder: rec,
				CheckpointDir: *ckptDir, CheckpointEvery: *ckptEvery, Resume: *resume,
			})
			if err != nil {
				log.Fatal(err)
			}
			coloredAt = prog.ColoredAt(parts, tmpl)
		} else if coloredAt, r, err = tsgraph.TrackMeme(tmpl, parts, *meme, tsgraph.AttrTweets, loader, cfg, rec); err != nil {
			log.Fatal(err)
		}
		res = r
		colored := 0
		for v, at := range coloredAt {
			if at >= 0 {
				colored++
				if *verbose {
					fmt.Printf("colored %d @ t%d\n", tmpl.VertexID(v), at)
				}
			}
		}
		fmt.Printf("meme %s: colored %d of %d vertices\n", *meme, colored, tmpl.NumVertices())
	case "hashtag":
		stats, r, err := tsgraph.AggregateHashtag(tmpl, parts, *meme, tsgraph.AttrTweets, loader, cfg, rec, 1)
		if err != nil {
			log.Fatal(err)
		}
		res = r
		fmt.Printf("hashtag %s: total %d, peak at t%d, max rate %+d/step\n",
			stats.Hashtag, stats.Total, stats.PeakTimestep, stats.MaxRate)
		if *verbose {
			for t, c := range stats.Counts {
				fmt.Printf("  t%-3d %d\n", t, c)
			}
		}
	case "sssp", "bfs":
		if srcIdx < 0 {
			log.Fatalf("source vertex %d not in template", *source)
		}
		attr := tsgraph.AttrLatency
		if *algo == "bfs" {
			attr = ""
		}
		dist, r, err := tsgraph.SSSP(tmpl, parts, srcIdx, loader, *timestep, attr, cfg)
		if err != nil {
			log.Fatal(err)
		}
		res = r
		reached := 0
		for _, d := range dist {
			if !math.IsInf(d, 1) {
				reached++
			}
		}
		fmt.Printf("%s from %d at t%d: reached %d vertices in %d supersteps\n",
			*algo, *source, *timestep, reached, r.Supersteps)
	case "topn":
		top, r, err := tsgraph.TopN(tmpl, parts, tsgraph.AttrLoad, 5, loader, cfg, rec, 4)
		if err != nil {
			log.Fatal(err)
		}
		res = r
		fmt.Printf("topn: per-timestep top-5 vertices by %q\n", tsgraph.AttrLoad)
		if *verbose {
			for ts, list := range top {
				fmt.Printf("  t%-3d", ts)
				for _, vv := range list {
					fmt.Printf(" %d(%.1f)", vv.Vertex, vv.Value)
				}
				fmt.Println()
			}
		}
	default:
		log.Fatalf("unknown -algo %q", *algo)
	}

	fmt.Printf("wall %v | simulated cluster %v | %d supersteps\n",
		time.Since(wallStart).Round(time.Millisecond),
		res.SimTime.Round(time.Millisecond), res.Supersteps)
	if rec.NumTimesteps() > 0 {
		fmt.Printf("per-partition utilization (compute / partition-overhead / sync):\n")
		for _, u := range rec.Utilizations() {
			fmt.Printf("  partition %d: %5.1f%% / %5.1f%% / %5.1f%%\n",
				u.Partition, u.ComputeFrac()*100, u.FlushFrac()*100, u.BarrierFrac()*100)
		}
		fmt.Printf("messages: %d sent, %d dropped\n", rec.TotalMessages(), rec.TotalMsgsDropped())
		if skew := rec.ComputeSkew(); skew > 0 {
			fmt.Printf("compute skew: %.2fx max/median partition\n", skew)
		}
	}
	if tracer != nil {
		fmt.Println(tracer.Skew())
	}
}

// distOptions carries the observability knobs into a distributed run.
type distOptions struct {
	tracer        *obs.Tracer
	mergedOut     string
	watchdog      bool
	profileLabels bool
	chaos         *chaos.Injector
	resilient     bool
	ckptDir       string
	ckptEvery     int
	resume        bool
	diag          *diag.Monitor
}

// runDistributed executes tdsp or meme as one node of a TCP mesh.
func runDistributed(store *tsgraph.Store, rank int, addrs []string, algo string, source int64, meme string, cores int, reg *obs.Registry, opts distOptions) {
	tmpl := store.Template()
	assign := store.Assignment()
	parts, err := subgraph.Build(tmpl, assign)
	if err != nil {
		log.Fatal(err)
	}
	var wd *obs.Watchdog
	if opts.watchdog {
		// Stall threshold: obs.WatchdogConfig's defaults, 4x the trailing
		// median superstep, floored at 250ms.
		wd = obs.NewWatchdog(obs.WatchdogConfig{
			Parties: len(addrs),
			Tracer:  opts.tracer,
			Describe: func(party int) string {
				var owned []int
				for p := 0; p < assign.K; p++ {
					if cluster.OwnerOf(p, len(addrs)) == party {
						owned = append(owned, p)
					}
				}
				return fmt.Sprintf("rank %d (partitions %v)", party, owned)
			},
		})
		defer wd.Close()
		reg.Register(wd)
	}
	if opts.diag != nil {
		if wd != nil {
			// Any stall warning since the last evaluation round is an anomaly
			// worth a bundle: capture the mesh's state while the straggler is
			// still straggling.
			opts.diag.Detectors = append(opts.diag.Detectors, &diag.Detector{
				Name:      "watchdog_stalls",
				Signal:    func() float64 { return float64(len(wd.Warnings())) },
				Delta:     true,
				Threshold: 0.5,
			})
		}
		opts.diag.Start()
	}
	var resil *cluster.Resilience
	if opts.resilient {
		resil = &cluster.Resilience{} // all defaults; see cluster.Resilience
	}
	cfg := bsp.Config{CoresPerHost: cores, ProfileLabels: opts.profileLabels}
	node, mesh, err := cluster.NewMesh(cluster.Config{
		Rank: rank, Addrs: addrs,
		Tracer: opts.tracer, Watchdog: wd,
		Resilience: resil, Chaos: opts.chaos,
	}, parts)
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()
	reg.Register(node)
	// Serve this rank's shard (spans + rank-0 clock alignment) for HTTP
	// pull-based merging alongside the wire gather.
	reg.SetShardSource(node.Shard)
	local := mesh.Local

	fmt.Printf("rank %d/%d: owning partitions %v; connecting mesh...\n", rank, len(addrs), node.LocalPartitions())
	if err := node.Start(); err != nil {
		log.Fatal(err)
	}

	rec := tsgraph.NewRecorder(assign.K)
	reg.ObserveRecorder(rec)
	loader := tsgraph.NewLoader(store)
	loader.Chaos = opts.chaos
	job := &core.Job{
		Template:        tmpl,
		Source:          loader,
		Config:          cfg,
		Recorder:        rec,
		Mesh:            mesh,
		CheckpointDir:   opts.ckptDir,
		CheckpointEvery: opts.ckptEvery,
		CheckpointRank:  rank,
		Resume:          opts.resume,
	}
	if opts.resume {
		// A killed mesh leaves ranks with different newest checkpoints; all
		// must restart from the same timestep, so resume from the minimum.
		job.ResumeConsensus = node.AgreeResume
	}
	srcIdx := tmpl.VertexIndex(tsgraph.VertexID(source))
	var report func()
	var sweep func(*core.Job) (*core.Result, error)
	switch algo {
	case "tdsp":
		prog := algorithms.NewTDSP(local, srcIdx, float64(store.Manifest().Delta), tsgraph.AttrLatency)
		sweep = prog.Sweep
		report = func() {
			arr := prog.Arrivals(local, tmpl)
			reached := 0
			for _, pd := range local {
				for _, g := range pd.GlobalIdx {
					if !math.IsInf(arr[g], 1) {
						reached++
					}
				}
			}
			fmt.Printf("rank %d: tdsp finalized %d local vertices\n", rank, reached)
		}
	case "meme":
		prog := algorithms.NewMeme(local, meme, tsgraph.AttrTweets)
		job.Program = prog
		sweep = algorithms.Sweep
		report = func() {
			at := prog.ColoredAt(local, tmpl)
			colored := 0
			for _, pd := range local {
				for _, g := range pd.GlobalIdx {
					if at[g] >= 0 {
						colored++
					}
				}
			}
			fmt.Printf("rank %d: meme colored %d local vertices\n", rank, colored)
		}
	default:
		log.Fatalf("distributed mode supports tdsp and meme, not %q", algo)
	}

	start := time.Now()
	res, err := sweep(job)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rank %d: %d timesteps, %d supersteps, wall %v, %d msgs dropped\n",
		rank, res.TimestepsRun, res.Supersteps, time.Since(start).Round(time.Millisecond),
		rec.TotalMsgsDropped())
	for _, ws := range node.WireStats() {
		if ws.Peer == rank {
			continue
		}
		fmt.Printf("rank %d <-> %d: sent %d frames / %d B (flush %v), recv %d frames / %d B\n",
			rank, ws.Peer, ws.FramesSent, ws.BytesSent, ws.FlushTime.Round(time.Microsecond),
			ws.FramesRecv, ws.BytesRecv)
	}
	if opts.mergedOut != "" {
		shards, err := node.GatherTraces(0)
		if err != nil {
			log.Fatal(err)
		}
		if rank == 0 {
			merged := obs.MergeTraces(shards)
			if err := merged.Validate(); err != nil {
				log.Fatalf("merged trace failed validation: %v", err)
			}
			f, err := os.Create(opts.mergedOut)
			if err != nil {
				log.Fatal(err)
			}
			if err := merged.WriteChromeTrace(f); err != nil {
				log.Fatal(err)
			}
			f.Close()
			reg.Register(obs.ShardCollector{Shards: shards})
			fmt.Printf("rank 0: wrote merged Chrome trace (%d ranks, %d spans) to %s\n",
				len(merged.Ranks), len(merged.Spans), opts.mergedOut)
			fmt.Println(merged.ClusterSkew())
			for r, off := range node.ClockOffsets() {
				if r != rank {
					fmt.Printf("rank 0: clock offset to rank %d: %v\n", r, off)
				}
			}
		}
	}
	// Peers may still be reading this rank's final frames; exiting now would
	// reset those connections mid-exchange. Announce completion and wait for
	// everyone (bounded, so a dead peer cannot hold a finished run hostage).
	node.Quiesce(5 * time.Second)
	report()
}
