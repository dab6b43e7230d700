package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"tsgraph"
	"tsgraph/internal/cluster"
	"tsgraph/internal/gofs"
	"tsgraph/internal/graph"
	"tsgraph/internal/obs"
	"tsgraph/internal/serve"
	"tsgraph/internal/shard"
)

// splitAddrs parses a comma-separated address list flag.
func splitAddrs(csv string) []string {
	if csv == "" {
		return nil
	}
	parts := strings.Split(csv, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// datasetAttrs picks the conventional weight and tweets attributes when
// the dataset carries them.
func datasetAttrs(tmpl *graph.Template) (weightAttr, tweetsAttr string) {
	if tmpl.EdgeSchema().Index(tsgraph.AttrLatency) >= 0 {
		weightAttr = tsgraph.AttrLatency
	}
	if i := tmpl.VertexSchema().Index(tsgraph.AttrTweets); i >= 0 && tmpl.VertexSchema().Type(i) == graph.TStringList {
		tweetsAttr = tsgraph.AttrTweets
	}
	return weightAttr, tweetsAttr
}

// runShardRank runs tsserve as serving rank N of a sharded deployment: it
// loads only the instance data of its owned partitions, joins its replica
// group's cluster mesh, and answers the router's sweep RPCs. The HTTP
// listener carries only observability (/metrics, /healthz, /debug/*) —
// queries go to the router.
func runShardRank(store *gofs.Store, layout shard.Layout, rankN int, addr string,
	cores, icachePacks, icacheMB int, recovery time.Duration) {
	tmpl := store.Template()
	assign := store.Assignment()
	parts, err := tsgraph.BuildSubgraphs(tmpl, assign)
	if err != nil {
		log.Fatal(err)
	}
	local := shard.LocalParts(layout, rankN, assign.K)
	if local == nil {
		log.Fatalf("tsserve: rank %d not in layout of %d ranks", rankN, layout.NumRanks())
	}
	var cache *gofs.InstanceCache
	cacheBound := fmt.Sprintf("%d packs resident", icachePacks)
	if icacheMB > 0 {
		cache = gofs.NewInstanceCacheBytes(store, int64(icacheMB)<<20)
		cacheBound = fmt.Sprintf("%d MiB resident", icacheMB)
	} else {
		cache = gofs.NewInstanceCache(store, icachePacks)
	}
	cache.Restrict(local)

	rpcLn, err := net.Listen("tcp", layout.Ranks[rankN])
	if err != nil {
		log.Fatal(err)
	}
	group, member, members := layout.GroupOf(rankN)
	var meshLn net.Listener
	if len(members) > 1 {
		if meshLn, err = net.Listen("tcp", layout.Mesh[rankN]); err != nil {
			log.Fatal(err)
		}
	}
	tracer := obs.NewTracer(0)
	tracer.Enable()
	weightAttr, tweetsAttr := datasetAttrs(tmpl)
	rank, err := shard.NewRank(shard.RankConfig{
		Layout: layout, Rank: rankN,
		Template: tmpl, Parts: parts, Assign: assign,
		Source: cache, Delta: float64(store.Manifest().Delta),
		WeightAttr: weightAttr, TweetsAttr: tweetsAttr, Cores: cores,
		Tracer: tracer,
		// Serving tuning: a dead group peer must fail sweeps within a
		// couple of seconds so the router fails over to a replica, not
		// the batch-job default of patient 30s recovery.
		Resilience: &cluster.Resilience{
			MaxRetries: 4, BackoffBase: 5 * time.Millisecond,
			BackoffCap: 250 * time.Millisecond, RecoveryWindow: recovery,
		},
		Listener: rpcLn, MeshListener: meshLn,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tsserve: rank %d: group %d member %d/%d, partitions %v of %d (%s)\n",
		rankN, group, member, len(members), local, assign.K, cacheBound)
	if len(members) > 1 {
		fmt.Printf("tsserve: rank %d: joining group mesh on %s...\n", rankN, layout.Mesh[rankN])
	}
	// Start blocks until the whole group's mesh is connected.
	if err := rank.Start(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tsserve: rank %d: shard RPC on %s\n", rankN, rank.Addr())

	reg := obs.NewRegistry(tracer)
	reg.Register(obs.ReadBuildInfo())
	reg.Register(store.Telemetry())
	if n := rank.Node(); n != nil {
		reg.Register(n)
	}
	mux := http.NewServeMux()
	mux.Handle("/", obs.NewHandler(reg))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tsserve: listening on %s\n", ln.Addr())
	go func() { _ = http.Serve(ln, mux) }()

	ctx, stop := serve.SignalContext(context.Background())
	defer stop()
	<-ctx.Done()
	stop()
	fmt.Println("tsserve: draining...")
	rank.Close()
	st := cache.Stats()
	fmt.Printf("tsserve: instance cache: %d hits, %d misses, %d evictions, %v decoding\n",
		st.Hits, st.Misses, st.Evictions, st.DecodeTime.Round(time.Millisecond))
	fmt.Println("tsserve: drained, exiting")
}
