// Command tsgen generates a synthetic time-series graph dataset and writes
// it as a GoFS dataset directory: a template, a partition assignment and
// slice files with temporal packing and subgraph binning.
//
// Usage:
//
//	tsgen -out data/road -graph road -rows 120 -cols 120 -steps 50 -data road -parts 6
//	tsgen -out data/social -graph smallworld -n 30000 -steps 50 -data tweets -hit 0.02 -parts 6
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"tsgraph"
	"tsgraph/internal/obs"
	"tsgraph/internal/obs/diag"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsgen: ")

	var (
		out       = flag.String("out", "", "output dataset directory (required)")
		graphKind = flag.String("graph", "road", "template kind: road | smallworld")
		edgeList  = flag.String("edgelist", "", "read the template from a SNAP edge-list file instead of generating (e.g. roadNet-CA.txt)")
		undirect  = flag.Bool("undirected", true, "treat the edge list as undirected (SNAP road networks)")
		rows      = flag.Int("rows", 120, "road lattice rows")
		cols      = flag.Int("cols", 120, "road lattice cols")
		removeFr  = flag.Float64("remove", 0.15, "road edge removal fraction")
		n         = flag.Int("n", 30000, "small-world vertex count")
		m         = flag.Int("m", 2, "small-world attachment degree")
		steps     = flag.Int("steps", 50, "number of instances (timesteps)")
		delta     = flag.Int64("delta", 60, "period δ between instances")
		data      = flag.String("data", "road", "instance generator: road (latencies) | tweets (SIR memes) | both")
		latMin    = flag.Float64("latmin", 1, "minimum edge latency")
		latMax    = flag.Float64("latmax", 20, "maximum edge latency")
		churn     = flag.Float64("churn", 1, "per-timestep fraction of edge latencies re-randomized; 1 = fully uncorrelated (the paper's behavior), values in (0,1) give delta-friendly temporal correlation")
		meme      = flag.String("meme", "#meme", "meme hashtag for the tweet generator")
		hit       = flag.Float64("hit", 0.30, "SIR hit probability")
		seeds     = flag.Int("memeseeds", 5, "initially infected vertices per meme")
		parts     = flag.Int("parts", 6, "number of partitions (hosts)")
		pack      = flag.Int("pack", 10, "GoFS temporal packing")
		bin       = flag.Int("bin", 5, "GoFS subgraph binning")
		snapEvery = flag.Int("snapshot-every", 0, "delta-encode slices with a full snapshot every N timesteps; 0 = full records")
		seed      = flag.Int64("seed", 42, "random seed")
		bundleDir = flag.String("bundle-dir", "", "directory for SIGQUIT-triggered diagnostic bundles (empty disables)")
		version   = flag.Bool("version", false, "print build identity and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("tsgen", obs.ReadBuildInfo())
		return
	}
	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *bundleDir != "" {
		// Batch tool: no detectors or debug server, but kill -QUIT on a
		// stuck generation still yields a full profile bundle.
		defer diag.ArmSIGQUIT(&diag.Bundler{Dir: *bundleDir, Tool: "tsgen"})()
	}

	var tmpl *tsgraph.Template
	if *edgeList != "" {
		f, err := os.Open(*edgeList)
		if err != nil {
			log.Fatal(err)
		}
		vs, err := tsgraph.NewSchema([]string{tsgraph.AttrTweets, tsgraph.AttrLoad},
			[]tsgraph.AttrType{tsgraph.TStringList, tsgraph.TFloat})
		if err != nil {
			log.Fatal(err)
		}
		es, err := tsgraph.NewSchema([]string{tsgraph.AttrLatency}, []tsgraph.AttrType{tsgraph.TFloat})
		if err != nil {
			log.Fatal(err)
		}
		tmpl, err = tsgraph.ReadEdgeList(f, tsgraph.EdgeListOptions{
			Undirected: *undirect, Name: *edgeList,
			VertexSchema: vs, EdgeSchema: es,
		})
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	} else {
		switch *graphKind {
		case "road":
			tmpl = tsgraph.RoadNetwork(tsgraph.RoadConfig{
				Rows: *rows, Cols: *cols, RemoveFrac: *removeFr,
				ShortcutFrac: 0.01, Seed: *seed, Name: "ROAD",
			})
		case "smallworld":
			tmpl = tsgraph.SmallWorld(tsgraph.SmallWorldConfig{
				N: *n, M: *m, Seed: *seed, Name: "SMALLWORLD",
			})
		default:
			log.Fatalf("unknown -graph %q (road|smallworld)", *graphKind)
		}
	}
	stats := tsgraph.ComputeStats(tmpl, 4)
	fmt.Printf("template %s: %d vertices, %d edges, diameter >= %d\n",
		stats.Name, stats.Vertices, stats.Edges, stats.DiameterLB)

	var coll *tsgraph.Collection
	switch *data {
	case "road":
		c, err := tsgraph.RandomLatencies(tmpl, tsgraph.LatencyConfig{
			Timesteps: *steps, T0: 0, Delta: *delta,
			Min: *latMin, Max: *latMax, Seed: *seed + 1, Churn: *churn,
		})
		if err != nil {
			log.Fatal(err)
		}
		coll = c
	case "tweets", "both":
		sir, err := tsgraph.SIRTweets(tmpl, tsgraph.SIRConfig{
			Timesteps: *steps, T0: 0, Delta: *delta,
			Memes: []string{*meme}, SeedsPerMeme: *seeds,
			HitProb: *hit, BackgroundTags: 20, Seed: *seed + 2,
		})
		if err != nil {
			log.Fatal(err)
		}
		coll = sir.Collection
		if *data == "both" {
			lat, err := tsgraph.RandomLatencies(tmpl, tsgraph.LatencyConfig{
				Timesteps: *steps, T0: 0, Delta: *delta,
				Min: *latMin, Max: *latMax, Seed: *seed + 1, Churn: *churn,
			})
			if err != nil {
				log.Fatal(err)
			}
			// Merge: copy latency columns into the tweet collection's
			// instances (they share the template and time axis).
			li := tmpl.EdgeSchema().Index(tsgraph.AttrLatency)
			for s := 0; s < *steps; s++ {
				coll.Instance(s).EdgeCols[li] = lat.Instance(s).EdgeCols[li]
			}
		}
	default:
		log.Fatalf("unknown -data %q (road|tweets|both)", *data)
	}

	// Fill vertex loads whenever the template carries the attribute, so
	// ranking workloads (tsrun -algo topn) have data to chew on.
	if tmpl.VertexSchema().Index(tsgraph.AttrLoad) >= 0 {
		if err := tsgraph.RandomLoads(coll, *seed+3, 0, 100); err != nil {
			log.Fatal(err)
		}
	}

	assign, err := tsgraph.PartitionMultilevel(tmpl, *parts, *seed)
	if err != nil {
		log.Fatal(err)
	}
	cut, total := assign.EdgeCut(tmpl)
	fmt.Printf("partitioned into %d parts: %.3f%% edge cut, imbalance %.3f\n",
		*parts, 100*float64(cut)/float64(total), assign.Imbalance())

	if err := tsgraph.WriteDatasetOptions(*out, coll, assign, tsgraph.StoreOptions{
		Pack: *pack, Bin: *bin, SnapshotEvery: *snapEvery,
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d instances to %s (pack=%d bin=%d snapshot-every=%d)\n",
		*steps, *out, *pack, *bin, *snapEvery)
}
