// Command tsserve is the online query-serving daemon: it loads a GoFS
// time-series graph dataset once, keeps the template and partitions
// resident with hot instance packs behind a bounded LRU, and answers
// HTTP/JSON queries (TDSP point-to-point, windowed top-N, meme
// reachability). Compatible concurrent queries are coalesced into
// micro-batches — many TDSP sources become one multi-source sweep — and
// results are cached by canonical query key.
//
// Usage:
//
//	tsserve -in data/road -addr :8090
//	curl -s localhost:8090/query -d '{"kind":"tdsp","source":0,"target":63}'
//	curl -s localhost:8090/stats
//	curl -s localhost:8090/metrics
//
// SIGTERM (or SIGINT) drains: admission stops, queued queries finish,
// open connections complete, then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"tsgraph"
	"tsgraph/internal/chaos"
	"tsgraph/internal/core"
	"tsgraph/internal/gofs"
	"tsgraph/internal/graph"
	"tsgraph/internal/ingest"
	"tsgraph/internal/obs"
	"tsgraph/internal/obs/diag"
	"tsgraph/internal/obs/live"
	"tsgraph/internal/serve"
	"tsgraph/internal/shard"
)

// delaySource is the chaos wrapper for serving experiments: when the
// gofs.load site fires, the instance load stalls for the configured delay
// instead of failing, manufacturing a deterministically slow query whose
// trace can then be pulled from /debug/flight.
type delaySource struct {
	src   core.InstanceSource
	inj   *chaos.Injector
	delay time.Duration
}

func (d *delaySource) Timesteps() int { return d.src.Timesteps() }

func (d *delaySource) Load(ts int) (*graph.Instance, error) {
	if d.inj.ShouldFail(chaos.SiteGoFSLoad) {
		time.Sleep(d.delay)
	}
	return d.src.Load(ts)
}

func main() {
	log.SetFlags(0)

	var (
		in          = flag.String("in", "", "GoFS dataset directory (required)")
		addr        = flag.String("addr", ":8090", "HTTP listen address")
		cores       = flag.Int("cores", 2, "BSP engine cores per sweep")
		batch       = flag.Int("batch", 64, "max compatible queries coalesced into one sweep (1 disables batching)")
		linger      = flag.Duration("batch-linger", 0, "hold a short batch open this long for more queries to join")
		queueCap    = flag.Int("queue", 256, "per-class admission queue bound")
		workers     = flag.Int("workers", 2, "concurrent sweep executors per query class")
		icachePacks = flag.Int("instance-cache", 4, "decoded instance packs kept resident (LRU)")
		icacheMB    = flag.Int("instance-cache-mb", 0, "bound the instance cache by decoded size instead of pack count (MiB; 0 = use -instance-cache)")
		rcacheSize  = flag.Int("result-cache", 1024, "answers kept in the keyed result cache (0 disables)")
		deadline    = flag.Duration("deadline", 30*time.Second, "default per-query deadline")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "bound on the SIGTERM drain")
		verbose     = flag.Bool("v", false, "log every query rejection")

		logLevel      = flag.String("log-level", "info", "structured log level: debug | info | warn | error (debug logs every request)")
		logFormat     = flag.String("log-format", "text", "structured log format: text | json")
		traceSlow     = flag.Duration("trace-slow", time.Second, "retain the lifecycle trace of any query at least this slow")
		ingestOn      = flag.Bool("ingest", false, "accept live mutations on POST /ingest (delta-encoded datasets only); replays the WAL before serving")
		ingestLag     = flag.Duration("ingest-lag", 0, "with -ingest and -bundle-dir: trip the watermark-lag anomaly detector when no append published for this long (0 disables)")
		routerOn      = flag.Bool("router", false, "run as sharded-serving router: scatter queries over the -ranks replica groups, merge partials")
		rankN         = flag.Int("rank", -1, "run as sharded-serving rank N of -ranks (serves shard RPCs; HTTP is observability only)")
		ranksCSV      = flag.String("ranks", "", "comma-separated shard RPC addresses, rank-ordered (same list on the router and every rank)")
		meshCSV       = flag.String("mesh", "", "comma-separated cluster mesh addresses, rank-ordered (needed for replica groups of 2+ members)")
		replicas      = flag.Int("replicas", 1, "replica groups the -ranks split into (each group holds a full dataset copy)")
		shardTimeout  = flag.Duration("shard-timeout", 15*time.Second, "router: per-rank sweep RPC bound")
		shardCooldown = flag.Duration("shard-cooldown", 5*time.Second, "router: replica-group quarantine after a failed sweep")
		meshRecovery  = flag.Duration("mesh-recovery", 3*time.Second, "rank: how long a lost group-mesh connection may stay down before sweeps fail over")

		chaosSpec = flag.String("chaos", "", "chaos spec armed on instance loads, e.g. 'gofs.load=at:3' (site: gofs.load)")
		chaosWait = flag.Duration("chaos-delay", 100*time.Millisecond, "with -chaos: stall a faulted instance load this long instead of failing it")

		bundleDir    = flag.String("bundle-dir", "", "directory for diagnostic bundles; arms the anomaly detectors, SIGQUIT capture, and /debug/bundle (empty disables)")
		bundleRetain = flag.Int("bundle-retain", 8, "diagnostic bundles kept on disk (oldest deleted first)")
		version      = flag.Bool("version", false, "print build identity and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("tsserve", obs.ReadBuildInfo())
		return
	}
	logger, err := live.InitLogging(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		log.Fatal(err)
	}
	var logRing *diag.LogRing
	if *bundleDir != "" {
		// Tee every record (including debug detail the stderr handler drops)
		// into a ring the bundles archive as logs.jsonl.
		logRing = diag.NewLogRing(512)
		slog.SetDefault(slog.New(logRing.Tee(logger.Handler())))
	}
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}

	store, err := tsgraph.OpenDataset(*in)
	if err != nil {
		log.Fatal(err)
	}
	var layout shard.Layout
	if *routerOn || *rankN >= 0 {
		if *routerOn && *rankN >= 0 {
			log.Fatal("tsserve: -router and -rank are mutually exclusive")
		}
		if *ingestOn {
			log.Fatal("tsserve: -ingest is incompatible with sharded serving (router and ranks are read-only)")
		}
		if *routerOn && *chaosSpec != "" {
			log.Fatal("tsserve: -chaos applies to ranks, not the router (it never loads instances)")
		}
		layout = shard.Layout{Ranks: splitAddrs(*ranksCSV), Mesh: splitAddrs(*meshCSV), Replicas: *replicas}
		if err := layout.Validate(); err != nil {
			log.Fatal(err)
		}
	}
	if *rankN >= 0 {
		runShardRank(store, layout, *rankN, *addr, *cores, *icachePacks, *icacheMB, *meshRecovery)
		return
	}
	// Ingest opens before anything serves: WAL replay completes here, so
	// the first query already sees the recovered head.
	var ing *ingest.Ingester
	if *ingestOn {
		ing, err = ingest.Open(store, ingest.Options{})
		if err != nil {
			log.Fatal(err)
		}
		defer ing.Close()
	}
	tmpl := store.Template()
	assign := store.Assignment()
	parts, err := tsgraph.BuildSubgraphs(tmpl, assign)
	if err != nil {
		log.Fatal(err)
	}
	// The router never loads instance data — sweeps execute on the ranks —
	// so it skips the cache entirely and serves the store's watermark.
	var cache *gofs.InstanceCache
	var source core.InstanceSource
	if *routerOn {
		source = shard.HeadSource(store)
	} else if *icacheMB > 0 {
		cache = gofs.NewInstanceCacheBytes(store, int64(*icacheMB)<<20)
		source = cache
	} else {
		cache = gofs.NewInstanceCache(store, *icachePacks)
		source = cache
	}
	manifest := store.Manifest()

	// The chaos wrapper sits above the cache so an injected stall delays
	// the sweep even when the pack is resident. The per-class wrapper keeps
	// the same injector (faults count process-wide) while attributing pack
	// cache hits/misses to the query class whose sweep issued the load.
	var inj *chaos.Injector
	if *chaosSpec != "" {
		inj, err = chaos.Parse(*chaosSpec)
		if err != nil {
			log.Fatal(err)
		}
		source = &delaySource{src: cache, inj: inj, delay: *chaosWait}
		fmt.Printf("tsserve: chaos armed: %s (delay %v)\n", *chaosSpec, *chaosWait)
	}
	classSource := func(class string) core.InstanceSource {
		var src core.InstanceSource = cache.ClassSource(class)
		if inj != nil {
			src = &delaySource{src: src, inj: inj, delay: *chaosWait}
		}
		return src
	}

	weightAttr := ""
	if tmpl.EdgeSchema().Index(tsgraph.AttrLatency) >= 0 {
		weightAttr = tsgraph.AttrLatency
	}
	tweetsAttr := ""
	if i := tmpl.VertexSchema().Index(tsgraph.AttrTweets); i >= 0 && tmpl.VertexSchema().Type(i) == graph.TStringList {
		tweetsAttr = tsgraph.AttrTweets
	}

	tracer := obs.NewTracer(0)
	tracer.Enable()
	reg := obs.NewRegistry(tracer)
	reg.Register(obs.ReadBuildInfo())

	// Head-sample 1% of ordinary queries as a healthy baseline; the
	// flight-recorder cap (64), the SLO target (-trace-slow) and its error
	// budget (1%) are live.Config's defaults.
	recorder := live.NewRecorder(live.Config{
		Classes:        serve.ClassNames(),
		SlowThreshold:  *traceSlow,
		HeadSampleRate: 0.01,
	})

	opt := serve.Options{
		Template: tmpl, Parts: parts, Source: source,
		Delta:      float64(manifest.Delta),
		WeightAttr: weightAttr, TweetsAttr: tweetsAttr,
		Cores:    *cores,
		MaxBatch: *batch, BatchLinger: *linger,
		QueueCap: *queueCap, Workers: *workers,
		ResultCacheSize: *rcacheSize,
		DefaultDeadline: *deadline,
		Tracer:          tracer,
		Live:            recorder,
	}
	if cache != nil {
		opt.InstanceStats = cache.Stats
		opt.ClassSource = classSource
	}
	var router *shard.Router
	if *routerOn {
		router, err = shard.NewRouter(shard.RouterConfig{
			Layout: layout, Template: tmpl, Assign: assign,
			Tracer: tracer, Timeout: *shardTimeout, DownCooldown: *shardCooldown,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer router.Close()
		opt.Sweeper = router
	}
	srv, err := serve.New(opt)
	if err != nil {
		log.Fatal(err)
	}
	reg.Register(srv)
	reg.Register(store.Telemetry())
	if router != nil {
		reg.Register(router)
	}
	if ing != nil {
		reg.Register(ing.Metrics())
	}
	sampler := diag.NewRuntimeSampler()
	reg.Register(sampler)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	cacheBound := fmt.Sprintf("%d packs resident", *icachePacks)
	if *icacheMB > 0 {
		cacheBound = fmt.Sprintf("%d MiB resident", *icacheMB)
	}
	if *routerOn {
		cacheBound = "router, no instances resident"
	}
	fmt.Printf("tsserve: dataset %s: %d vertices, %d instances, %d partitions (pack=%d, %s)\n",
		tmpl.Name, tmpl.NumVertices(), store.Timesteps(), assign.K, manifest.Pack, cacheBound)
	if ing != nil {
		fmt.Printf("tsserve: ingest enabled: watermark %d, WAL %s\n",
			ing.Watermark(), ingest.WALPath(*in))
	}
	if router != nil {
		fmt.Printf("tsserve: router over %d ranks in %d replica groups (timeout %v, cooldown %v)\n",
			layout.NumRanks(), layout.NumGroups(), *shardTimeout, *shardCooldown)
	}
	fmt.Printf("tsserve: listening on %s\n", ln.Addr())

	var bundler *diag.Bundler
	var extras []obs.Endpoint
	if *bundleDir != "" {
		bundler = &diag.Bundler{
			Dir: *bundleDir, Tool: "tsserve",
			MaxBundles: *bundleRetain,
			Registry:   reg,
			LogRing:    logRing,
		}
		extras = diag.Endpoints(bundler)
	}
	mux := serve.NewMux(srv, reg, extras...)
	if ing != nil {
		mux.Handle("/ingest", ing.Handler())
	}
	if bundler != nil {
		bundler.Sections = []diag.Section{
			diag.HandlerSection("flight.json", mux, "/debug/flight"),
			diag.HandlerSection("stats.json", mux, "/stats"),
			{Name: "trace.json", Write: func(w io.Writer) error { return obs.WriteChromeTrace(w, tracer) }},
		}

		// Detectors read the signals the serving layer already maintains; a
		// trip snapshots the process while the anomaly is still hot.
		detectors := []*diag.Detector{
			{Name: "slo_burn", Signal: recorder.SLO().BurnRate, Threshold: 1},
			{Name: "queue_wait", Signal: func() float64 { return srv.MaxQueueWait().Seconds() },
				Factor: 4, Min: 0.05, Consecutive: 2},
		}
		if cache != nil {
			var prevHits, prevLookups uint64
			hitRate := func() float64 {
				st := cache.Stats()
				lookups := st.Hits + st.Misses
				dh, dl := st.Hits-prevHits, lookups-prevLookups
				prevHits, prevLookups = st.Hits, lookups
				if dl == 0 {
					return 1 // idle window burns nothing
				}
				return float64(dh) / float64(dl)
			}
			detectors = append(detectors,
				&diag.Detector{Name: "cache_hit_rate", Signal: hitRate, Below: true, Factor: 2, Min: 0.5, Consecutive: 2})
		}
		detectors = append(detectors,
			&diag.Detector{Name: "goroutines", Signal: sampler.Goroutines, Factor: 3, Min: 200, Consecutive: 2},
			&diag.Detector{Name: "heap_bytes", Signal: sampler.HeapBytes, Factor: 2.5, Min: 256 << 20, Consecutive: 2})
		monitor := &diag.Monitor{
			Detectors: detectors,
			OnTrip: func(evs []diag.Evidence) {
				for _, ev := range evs {
					slog.Warn("diag: anomaly detector tripped", "evidence", ev.String())
				}
				path, err := bundler.Capture(diag.Trigger{Cause: "detector", Evidence: evs})
				if err != nil {
					slog.Warn("diag: bundle capture skipped", "err", err)
					return
				}
				slog.Info("diag: bundle captured", "bundle", path)
			},
		}
		if ing != nil && *ingestLag > 0 {
			// A stream that stops feeding is an upstream anomaly worth a
			// bundle: the watermark-lag signal is seconds since the last
			// published append.
			monitor.Detectors = append(monitor.Detectors, &diag.Detector{
				Name: "watermark_lag", Signal: ing.SecondsSinceLastAppend,
				Threshold: (*ingestLag).Seconds(), Consecutive: 2,
			})
		}
		reg.Register(monitor)
		monitor.Start()
		defer monitor.Close()
		defer diag.ArmSIGQUIT(bundler)()
		fmt.Printf("tsserve: diagnostics armed: bundles in %s\n", *bundleDir)
	}

	httpSrv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := serve.SignalContext(context.Background())
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		log.Fatal(err)
	}
	stop() // a second signal kills the process the default way

	fmt.Println("tsserve: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if err := serve.ShutdownHTTP(httpSrv, *drainWait); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
	}
	if *verbose {
		m := srv.Metrics()
		for _, c := range []serve.Class{serve.ClassTDSP, serve.ClassTopN, serve.ClassMeme} {
			fmt.Printf("tsserve: %s: %d answered, %d rejected, %d sweeps\n",
				c, m.Answered(c), m.Rejected(c), m.Sweeps(c))
		}
	}
	if cache != nil {
		st := cache.Stats()
		fmt.Printf("tsserve: instance cache: %d hits, %d misses, %d evictions, %v decoding\n",
			st.Hits, st.Misses, st.Evictions, st.DecodeTime.Round(time.Millisecond))
	}
	total, dropped, evicted, retained := recorder.Counters()
	fmt.Printf("tsserve: flight recorder: %d queries, %d traces retained, %d dropped, %d evicted; tracer %s\n",
		total, retained, dropped, evicted, tracer.Summary())
	fmt.Println("tsserve: drained, exiting")
}
