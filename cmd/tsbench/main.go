// Command tsbench regenerates the paper's evaluation: every table and
// figure of §IV plus the ablations listed in DESIGN.md §5, printed as text
// tables. Results are in simulated cluster time (K hosts × cores/host; see
// the experiments package doc) since the harness runs on a single machine.
//
// Usage:
//
//	tsbench                      # full suite at the default (medium) scale
//	tsbench -exp scalability     # just Fig 5a
//	tsbench -scale small -exp all
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"tsgraph/internal/bsp"
	"tsgraph/internal/cluster"
	"tsgraph/internal/core"
	"tsgraph/internal/experiments"
	"tsgraph/internal/obs"
	"tsgraph/internal/obs/diag"
	"tsgraph/internal/obs/live"
	"tsgraph/internal/serve"
)

// benchSchema versions the -json output layout. Bump it whenever the
// top-level shape changes so tooling that reads it can dispatch on it.
const benchSchema = 3

// gitSHA best-effort identifies the built revision: the module's VCS stamp
// when built from a checkout, else the CI-provided SHA, else "unknown".
func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		return sha
	}
	return "unknown"
}

var allExps = []string{
	"datasets", "edgecut", "scalability", "baseline", "timesteps",
	"progress", "utilization", "distributed",
	"ablation-partition", "ablation-temporal", "ablation-packing",
	"elastic", "chaos", "incremental",
}

// parseExps resolves a comma-separated -exp value to the set of
// experiments to run. Every name must be "all" or one of allExps, so a
// typo or a retired experiment fails the run instead of being dropped.
func parseExps(spec string) (map[string]bool, error) {
	wanted := map[string]bool{}
	var unknown []string
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		switch {
		case name == "all":
			for _, n := range allExps {
				wanted[n] = true
			}
		case slices.Contains(allExps, name):
			wanted[name] = true
		default:
			unknown = append(unknown, fmt.Sprintf("%q", name))
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown -exp %s; options: all %s",
			strings.Join(unknown, ", "), strings.Join(allExps, " "))
	}
	return wanted, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsbench: ")

	var (
		exp       = flag.String("exp", "all", "comma-separated experiments: all | "+strings.Join(allExps, " | "))
		scale     = flag.String("scale", "medium", "dataset scale: small | medium | large")
		cores     = flag.Int("cores", 2, "simulated cores per host")
		seed      = flag.Int64("seed", 1, "partitioner seed")
		gcEvery   = flag.Int("gc", 20, "synchronized GC period for the timestep series (paper: 20)")
		repeats   = flag.Int("repeats", 3, "repetitions per scalability cell (min is kept)")
		workdir   = flag.String("workdir", "", "scratch directory for GoFS datasets (default: temp)")
		jsonOut   = flag.String("json", "", "also write all results as JSON to this file (durations in nanoseconds)")
		obsAddr   = flag.String("obs", "", "serve the observability endpoint (/metrics, /debug/trace, /debug/pprof) on this address, e.g. :9188")
		traceOut  = flag.String("trace", "", "write a Chrome trace_event JSON file (load in Perfetto) at exit")
		mergedOut = flag.String("merged-trace", "", "write the distributed smoke's clock-aligned cross-rank Chrome trace to this file")
		nodesN    = flag.Int("nodes", 2, "loopback mesh size for the distributed smoke experiment")
		logLevel  = flag.String("log-level", "info", "structured log level: debug | info | warn | error")
		bundleDir = flag.String("bundle-dir", "", "directory for diagnostic bundles; arms SIGQUIT capture and /debug/bundle on -obs (empty disables)")
		logFormat = flag.String("log-format", "text", "structured log format: text | json")
		version   = flag.Bool("version", false, "print build identity and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("tsbench", obs.ReadBuildInfo())
		return
	}
	wanted, err := parseExps(*exp)
	if err != nil {
		log.Fatal(err)
	}
	logger, err := live.InitLogging(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		log.Fatal(err)
	}

	// Observability: one tracer + registry for the whole suite; the registry
	// follows whichever experiment's recorder is current via OnRecorder.
	var tracer *obs.Tracer
	if *obsAddr != "" || *traceOut != "" {
		tracer = obs.NewTracer(0)
		tracer.Enable()
		core.SetDefaultTracer(tracer)
	}
	reg := obs.NewRegistry(tracer)
	reg.Register(obs.ReadBuildInfo())
	reg.Register(diag.NewRuntimeSampler())
	experiments.OnRecorder = reg.ObserveRecorder
	var bundler *diag.Bundler
	if *bundleDir != "" {
		ring := diag.NewLogRing(512)
		slog.SetDefault(slog.New(ring.Tee(logger.Handler())))
		bundler = &diag.Bundler{Dir: *bundleDir, Tool: "tsbench", Registry: reg, LogRing: ring}
		if tracer != nil {
			bundler.Sections = []diag.Section{
				{Name: "trace.json", Write: func(w io.Writer) error { return obs.WriteChromeTrace(w, tracer) }},
			}
		}
		defer diag.ArmSIGQUIT(bundler)()
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
		if *traceOut == "" {
			return
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := obs.WriteChromeTrace(f, tracer); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("wrote Chrome trace to %s (%d spans)\n", *traceOut, tracer.SpansRecorded())
	}()

	sc, err := experiments.ScaleByName(*scale)
	if err != nil {
		log.Fatal(err)
	}
	dir := *workdir
	if dir == "" {
		d, err := os.MkdirTemp("", "tsbench")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(d)
		dir = d
	}
	// Label compute goroutines for pprof only when a live profile consumer
	// exists (the labels allocate, so they are opt-in).
	cfg := bsp.Config{CoresPerHost: *cores, ProfileLabels: *obsAddr != ""}
	ks := []int{3, 6, 9}

	fmt.Printf("tsbench: scale=%s (road %dx%d, small-world n=%d, %d timesteps), %d cores/host\n\n",
		sc.Name, sc.RoadRows, sc.RoadCols, sc.SWN, sc.Timesteps, *cores)

	start := time.Now()
	road, sw, err := experiments.BuildDatasets(sc)
	if err != nil {
		log.Fatal(err)
	}
	datasets := []*experiments.Dataset{road, sw}
	fmt.Printf("datasets generated in %v\n\n", time.Since(start).Round(time.Millisecond))

	report := map[string]any{}

	if wanted["datasets"] {
		rows := experiments.DatasetTable(road, sw)
		report["datasets"] = rows
		experiments.RenderDatasetTable(os.Stdout, rows)
		fmt.Println()
	}
	if wanted["edgecut"] {
		rows, err := experiments.EdgeCutTable(datasets, ks, *seed)
		if err != nil {
			log.Fatal(err)
		}
		report["edgecut"] = rows
		experiments.RenderEdgeCutTable(os.Stdout, rows, ks)
		fmt.Println()
	}
	if wanted["scalability"] {
		cells, err := experiments.Scalability(datasets, ks, cfg, *seed, *repeats)
		if err != nil {
			log.Fatal(err)
		}
		report["scalability"] = cells
		experiments.RenderScalability(os.Stdout, cells, ks)
		fmt.Println()
	}
	if wanted["baseline"] {
		rows, err := experiments.Baseline(datasets, 6, cfg, *seed)
		if err != nil {
			log.Fatal(err)
		}
		report["baseline"] = rows
		experiments.RenderBaseline(os.Stdout, rows)
		fmt.Println()
	}
	if wanted["timesteps"] {
		series, err := experiments.RunTimestepSeries(road, experiments.AlgoTDSP, ks, dir, 10, 5, *gcEvery, cfg, *seed)
		if err != nil {
			log.Fatal(err)
		}
		report["timesteps-tdsp-road"] = series
		experiments.RenderTimestepSeries(os.Stdout, series)
		fmt.Println()
		series, err = experiments.RunTimestepSeries(sw, experiments.AlgoMeme, ks, dir, 10, 5, *gcEvery, cfg, *seed)
		if err != nil {
			log.Fatal(err)
		}
		report["timesteps-meme-smallworld"] = series
		experiments.RenderTimestepSeries(os.Stdout, series)
		fmt.Println()
	}
	if wanted["progress"] {
		ps, _, err := experiments.RunProgress(road, experiments.AlgoTDSP, 6, cfg, *seed)
		if err != nil {
			log.Fatal(err)
		}
		report["progress-tdsp-road"] = ps
		experiments.RenderProgress(os.Stdout, ps)
		fmt.Println()
		ps, _, err = experiments.RunProgress(sw, experiments.AlgoMeme, 6, cfg, *seed)
		if err != nil {
			log.Fatal(err)
		}
		report["progress-meme-smallworld"] = ps
		experiments.RenderProgress(os.Stdout, ps)
		fmt.Println()
	}
	if wanted["utilization"] {
		ur, err := experiments.RunUtilization(road, experiments.AlgoTDSP, 6, cfg, *seed)
		if err != nil {
			log.Fatal(err)
		}
		report["utilization-tdsp-road"] = ur
		experiments.RenderUtilization(os.Stdout, ur)
		fmt.Println()
		ur, err = experiments.RunUtilization(sw, experiments.AlgoMeme, 6, cfg, *seed)
		if err != nil {
			log.Fatal(err)
		}
		report["utilization-meme-smallworld"] = ur
		experiments.RenderUtilization(os.Stdout, ur)
		fmt.Println()
	}
	if wanted["distributed"] {
		res, err := experiments.DistributedSmoke(road, *nodesN, 6, cfg, *seed,
			experiments.DistributedSmokeOptions{
				OnNode: func(n *cluster.Node) { reg.Register(n) },
				Trace:  *mergedOut != "",
			})
		if err != nil {
			log.Fatal(err)
		}
		report["distributed"] = res.Rows
		experiments.RenderDistributedSmoke(os.Stdout, res.Rows)
		if *mergedOut != "" {
			if err := res.Merged.Validate(); err != nil {
				log.Fatalf("merged trace failed validation: %v", err)
			}
			f, err := os.Create(*mergedOut)
			if err != nil {
				log.Fatal(err)
			}
			if err := res.Merged.WriteChromeTrace(f); err != nil {
				log.Fatal(err)
			}
			f.Close()
			reg.Register(obs.ShardCollector{Shards: res.Shards})
			fmt.Printf("wrote merged Chrome trace (%d ranks, %d spans) to %s\n",
				len(res.Merged.Ranks), len(res.Merged.Spans), *mergedOut)
			fmt.Println(res.Skew.String())
		}
		fmt.Println()
	}
	if wanted["ablation-partition"] {
		rows, err := experiments.PartitionerAblation(road, 6, cfg, *seed)
		if err != nil {
			log.Fatal(err)
		}
		report["ablation-partition"] = rows
		experiments.RenderPartitionerAblation(os.Stdout, rows)
		fmt.Println()
	}
	if wanted["ablation-temporal"] {
		rows, err := experiments.TemporalParallelismAblation(sw, 6, []int{1, 2, 4, 8}, cfg, *seed)
		if err != nil {
			log.Fatal(err)
		}
		report["ablation-temporal"] = rows
		experiments.RenderTemporalParallelism(os.Stdout, rows)
		fmt.Println()
	}
	if wanted["elastic"] {
		var rows []*experiments.ElasticHeadroomRow
		for _, spec := range []struct {
			ds   *experiments.Dataset
			algo string
		}{{road, experiments.AlgoTDSP}, {sw, experiments.AlgoMeme}} {
			r, err := experiments.ElasticHeadroom(spec.ds, spec.algo, 6, cfg, *seed)
			if err != nil {
				log.Fatal(err)
			}
			rows = append(rows, r)
		}
		report["elastic"] = rows
		experiments.RenderElasticHeadroom(os.Stdout, rows)
		fmt.Println()
	}
	if wanted["chaos"] {
		rows, err := experiments.ChaosTable(road, *nodesN, 6, cfg, *seed,
			[]float64{0, 0.005, 0.02, 0.05})
		if err != nil {
			log.Fatal(err)
		}
		report["chaos"] = rows
		experiments.RenderChaosTable(os.Stdout, *nodesN, rows)
		fmt.Println()
	}
	if wanted["ablation-packing"] {
		rows, err := experiments.PackingAblation(road, 6, []int{1, 5, 10, 25}, dir, cfg, *seed)
		if err != nil {
			log.Fatal(err)
		}
		report["ablation-packing"] = rows
		experiments.RenderPackingAblation(os.Stdout, rows)
		fmt.Println()
	}
	if wanted["incremental"] {
		res, err := experiments.IncrementalAblation(road,
			[]float64{0.01, 0.1, 0.5, 1}, 8, dir, 10, 5, 10, cfg, *seed)
		if err != nil {
			log.Fatal(err)
		}
		report["incremental"] = res
		experiments.RenderIncremental(os.Stdout, res)
		fmt.Println()
	}
	if *jsonOut != "" {
		// Versioned envelope so tooling can diff runs across
		// commits: the schema number gates parsing, the git SHA / GOMAXPROCS /
		// timestamp identify the run, and experiment payloads live under
		// "results" keyed by experiment name.
		envelope := map[string]any{
			"schema":     benchSchema,
			"git_sha":    gitSHA(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"timestamp":  time.Now().UTC().Format(time.RFC3339),
			"scale":      sc,
			"cores":      *cores,
			"seed":       *seed,
			"results":    report,
		}
		data, err := json.MarshalIndent(envelope, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote JSON results to %s\n", *jsonOut)
	}
	fmt.Printf("total %v\n", time.Since(start).Round(time.Millisecond))
}
