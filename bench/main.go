// Command bench is the repository's benchmark: five named workloads over
// the TI-BSP stack, five end-to-end metrics with regression bounds, and a
// separate traced run that yields the per-layer metrics. It measures every
// layer from outside — by timing calls into public functions and wrapping
// the seams the program already has — and checks every answer it times.
// See README.md in this directory and BENCHMARK.json at the repository
// root.
//
//	go run -C bench . -list
//	go run -C bench . -workload serve-uncached -seed 1 -seconds 12 -trace 0
//	go run -C bench . -compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// stamp records where and how a result was taken.
type stamp struct {
	Workload       string  `json:"workload"`
	Seed           int64   `json:"seed"`
	Trace          bool    `json:"trace"`
	WindowSeconds  float64 `json:"window_seconds"`
	WarmupSeconds  float64 `json:"warmup_seconds"`
	Setups         int     `json:"setups"`
	NProc          int     `json:"nproc"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	GoVersion      string  `json:"go_version"`
	GitSHA         string  `json:"git_sha"`
	Scale          scale   `json:"scale"`
	Time           string  `json:"time"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// gitSHA is `git rev-parse HEAD` of the tree the benchmark runs in. It
// asks git only when the working directory (the repository root under
// run.sh, bench/ under `go run -C bench`) is inside a checkout whose .git
// is at most one level up, so a tree that is not a git repository (the
// driver's) says so instead of reporting some enclosing repository.
func gitSHA() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, ".git")); err != nil {
			continue
		}
		out, err := exec.Command("git", "-C", dir, "rev-parse", "HEAD").Output()
		if err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "not-a-git-checkout"
}

// record is one run as appended to a -results file: what -compare reads.
type record struct {
	Stamp     stamp          `json:"stamp"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Metrics   metricSet      `json:"metrics"`
	Samples   map[string]int `json:"samples"`
	Notes     []string       `json:"notes"`
}

// contractLine is the last line of standard output, in the shape the
// driver reads.
type contractLine struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all five, in order)")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", runSeconds, "measured window in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		list     = flag.Bool("list", false, "print workloads and metrics, then exit")
		emit     = flag.Bool("benchmark-json", false, "print BENCHMARK.json as declared in spec.go, then exit")
		compare  = flag.Bool("compare", false, "compare two -results files given as arguments: A.jsonl B.jsonl")
		results  = flag.String("results", "", "append each run's stamped record to this JSON-lines file")
		out      = flag.String("out", "", "directory for the Chrome trace and scratch datasets (default: a temp dir, removed at exit)")
	)
	flag.Parse()
	switch {
	case *list:
		printList(os.Stdout)
		return
	case *emit:
		if err := writeBenchmarkJSON(os.Stdout); err != nil {
			fatal(err)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	outDir, cleanup, err := outputDir(*out)
	if err != nil {
		fatal(err)
	}
	ok := true
	for _, name := range names {
		cfg := runConfig{
			Workload: name, Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
			Scale: defaultScale, OutDir: outDir, Setups: setupRepeats, Log: os.Stdout,
		}
		good, err := runOne(cfg, *results)
		if err != nil {
			cleanup()
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		ok = ok && good
	}
	cleanup()
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// outputDir resolves -out; without it everything goes to a temp dir that
// is removed when the run ends.
func outputDir(flagValue string) (string, func(), error) {
	if flagValue != "" {
		return flagValue, func() {}, os.MkdirAll(flagValue, 0o755)
	}
	dir, err := os.MkdirTemp("", "tsbench-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// runOne runs one workload once, prints its report and the contract line,
// and reports whether every answer was right.
func runOne(cfg runConfig, resultsPath string) (bool, error) {
	work, err := os.MkdirTemp(cfg.OutDir, "work-"+cfg.Workload+"-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(work)
	cfg.WorkDir = work

	started := time.Now()
	res, err := runWorkload(cfg)
	if err != nil {
		return false, err
	}
	correct := res.Failed == 0
	if cfg.Trace {
		if share := res.Metrics["trace.explained_share"].Value; share < 0.90 {
			correct = false
			res.note("FAILED: trace.explained_share %.3f < 0.90: the seams no longer line up with the client's view", share)
		}
		path := filepath.Join(cfg.OutDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.Workload, cfg.Seed))
		if err := writeChromeTrace(path, res.Spans); err != nil {
			return false, err
		}
		cfg.logf("trace: %d spans written to %s", len(res.Spans), path)
	}

	st := stamp{
		Workload: cfg.Workload, Seed: cfg.Seed, Trace: cfg.Trace,
		WindowSeconds: cfg.Seconds, WarmupSeconds: cfg.warmup().Seconds(), Setups: cfg.Setups,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitSHA: gitSHA(), Scale: cfg.Scale,
		Time: started.UTC().Format(time.RFC3339), ElapsedSeconds: time.Since(started).Seconds(),
	}
	cfg.logf("== %s seed=%d trace=%v window=%.1fs warm-up=%.1fs nproc=%d GOMAXPROCS=%d %s git=%s",
		st.Workload, st.Seed, st.Trace, st.WindowSeconds, st.WarmupSeconds, st.NProc, st.GOMAXPROCS, st.GoVersion, st.GitSHA)
	for _, n := range res.Notes {
		cfg.logf("   %s", n)
	}
	for _, name := range res.Metrics.sortedNames() {
		v := res.Metrics[name]
		if n, ok := res.Samples[name]; ok {
			cfg.logf("   %-34s %14.6g %-6s (n=%d)", name, v.Value, v.Unit, n)
		} else {
			cfg.logf("   %-34s %14.6g %s", name, v.Value, v.Unit)
		}
	}
	if resultsPath != "" {
		rec := record{Stamp: st, Correct: correct, Attempted: res.Attempted, Failed: res.Failed,
			Metrics: res.Metrics, Samples: res.Samples, Notes: res.Notes}
		if err := appendRecord(resultsPath, rec); err != nil {
			return false, err
		}
	}
	line, err := json.Marshal(contractLine{Correct: correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return correct, nil
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
