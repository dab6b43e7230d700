// Command tspart analyzes the partitioning of a GoFS dataset: it reports
// the stored assignment's balance and edge cut, and optionally re-partitions
// the template with each strategy at several host counts, reproducing the
// paper's §IV-B edge-cut table for any dataset.
//
// Usage:
//
//	tspart -in data/road
//	tspart -in data/road -sweep 3,6,9
//	tspart -in data/road -rewrite data/road-delta -snapshot-every 10
//
// The -rewrite mode converts a dataset to new storage options (temporal
// packing, binning, delta encoding) while keeping the stored partition
// assignment. It is also the migration for datasets in the legacy slice
// formats (versions 1 and 2), which this build reads but cannot append to:
// the rewrite is always in the current format.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"tsgraph"
	"tsgraph/internal/obs"
	"tsgraph/internal/obs/diag"
	"tsgraph/internal/partition"
	"tsgraph/internal/subgraph"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tspart: ")

	var (
		in        = flag.String("in", "", "GoFS dataset directory (required)")
		sweep     = flag.String("sweep", "", "comma-separated partition counts to re-partition with every strategy")
		seed      = flag.Int64("seed", 42, "partitioner seed")
		rewrite   = flag.String("rewrite", "", "write the dataset to this directory with new storage options, keeping the stored assignment")
		snapEvery = flag.Int("snapshot-every", 0, "rewrite: delta-encode with a full snapshot every N timesteps; 0 = full format")
		rwPack    = flag.Int("pack", 0, "rewrite: temporal packing (0 = keep stored)")
		rwBin     = flag.Int("bin", 0, "rewrite: subgraph binning (0 = keep stored)")
		bundleDir = flag.String("bundle-dir", "", "directory for SIGQUIT-triggered diagnostic bundles (empty disables)")
		version   = flag.Bool("version", false, "print build identity and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("tspart", obs.ReadBuildInfo())
		return
	}
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *bundleDir != "" {
		// Batch tool: no detectors or debug server, but kill -QUIT on a
		// stuck sweep or rewrite still yields a full profile bundle.
		defer diag.ArmSIGQUIT(&diag.Bundler{Dir: *bundleDir, Tool: "tspart"})()
	}

	store, err := tsgraph.OpenDataset(*in)
	if err != nil {
		log.Fatal(err)
	}
	tmpl := store.Template()
	assign := store.Assignment()

	stats := tsgraph.ComputeStats(tmpl, 4)
	fmt.Printf("template %s: %d vertices, %d edges, diameter >= %d, avg degree %.2f\n",
		stats.Name, stats.Vertices, stats.Edges, stats.DiameterLB, stats.AvgDegree)

	cut, total := assign.EdgeCut(tmpl)
	fmt.Printf("stored assignment: %d parts, %.3f%% edge cut, imbalance %.3f\n",
		assign.K, 100*float64(cut)/float64(total), assign.Imbalance())

	if *rewrite != "" {
		m := store.Manifest()
		opts := tsgraph.StoreOptions{
			Pack: m.Pack, Bin: m.Bin, SnapshotEvery: *snapEvery,
		}
		if *rwPack > 0 {
			opts.Pack = *rwPack
		}
		if *rwBin > 0 {
			opts.Bin = *rwBin
		}
		n, err := rewriteDataset(store, *rewrite, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("rewrote %d instances to %s (pack=%d bin=%d snapshot-every=%d)\n",
			n, *rewrite, opts.Pack, opts.Bin, opts.SnapshotEvery)
		return
	}
	parts, err := subgraph.Build(tmpl, assign)
	if err != nil {
		log.Fatal(err)
	}
	for _, pd := range parts {
		fmt.Printf("  partition %d: %d vertices, %d subgraphs, %d remote edges\n",
			pd.PID, pd.NumVertices(), len(pd.Subgraphs), len(pd.Remote))
	}

	if *sweep == "" {
		return
	}
	var ks []int
	for _, f := range strings.Split(*sweep, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || k < 1 {
			log.Fatalf("bad -sweep entry %q", f)
		}
		ks = append(ks, k)
	}
	strategies := []partition.Partitioner{
		partition.Hash{},
		partition.BFSGrow{},
		partition.Multilevel{Seed: *seed},
	}
	fmt.Printf("\n%-12s", "strategy")
	for _, k := range ks {
		fmt.Printf(" %12s", fmt.Sprintf("k=%d cut%%", k))
	}
	fmt.Println()
	for _, s := range strategies {
		fmt.Printf("%-12s", s.Name())
		for _, k := range ks {
			a, err := s.Partition(tmpl, k)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %11.3f%%", a.CutFraction(tmpl)*100)
		}
		fmt.Println()
	}
}

// rewriteDataset writes every instance of store to dir in the current
// format with opts, keeping the stored partition assignment, and returns
// how many instances it wrote.
func rewriteDataset(store *tsgraph.Store, dir string, opts tsgraph.StoreOptions) (int, error) {
	coll, err := store.LoadAll()
	if err != nil {
		return 0, err
	}
	return coll.NumInstances(), tsgraph.WriteDatasetOptions(dir, coll, store.Assignment(), opts)
}
