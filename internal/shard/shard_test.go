package shard

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"tsgraph/internal/cluster"
	"tsgraph/internal/core"
	"tsgraph/internal/gen"
	"tsgraph/internal/graph"
	"tsgraph/internal/partition"
	"tsgraph/internal/serve"
	"tsgraph/internal/subgraph"
)

const (
	fixSteps = 8
	fixDelta = 60
	fixMeme  = "#storm"
	fixParts = 4
)

// fixture builds a small road network with latencies, loads, and SIR
// tweets over fixParts partitions, so every query class has data and
// groups of 2 members own 2 partitions each.
func fixture(tb testing.TB) (*graph.Template, []*subgraph.PartitionData, *partition.Assignment, core.MemorySource) {
	return fixtureSized(tb, 8, 8)
}

func fixtureSized(tb testing.TB, rows, cols int) (*graph.Template, []*subgraph.PartitionData, *partition.Assignment, core.MemorySource) {
	tb.Helper()
	g := gen.RoadNetwork(gen.RoadConfig{Rows: rows, Cols: cols, RemoveFrac: 0.1, Seed: 7})
	sir, err := gen.SIRTweets(g, gen.SIRConfig{
		Timesteps: fixSteps, T0: 0, Delta: fixDelta,
		Memes: []string{fixMeme}, SeedsPerMeme: 2, HitProb: 0.35, Seed: 9,
	})
	if err != nil {
		tb.Fatal(err)
	}
	c := sir.Collection
	lat, err := gen.RandomLatencies(g, gen.LatencyConfig{
		Timesteps: fixSteps, T0: 0, Delta: fixDelta, Min: 1, Max: 50, Seed: 10,
	})
	if err != nil {
		tb.Fatal(err)
	}
	li := g.EdgeSchema().Index(gen.AttrLatency)
	for s := 0; s < fixSteps; s++ {
		c.Instance(s).EdgeCols[li] = lat.Instance(s).EdgeCols[li]
	}
	if err := gen.RandomLoads(c, 11, 0, 100); err != nil {
		tb.Fatal(err)
	}
	a, err := (partition.Multilevel{Seed: 11}).Partition(g, fixParts)
	if err != nil {
		tb.Fatal(err)
	}
	parts, err := subgraph.Build(g, a)
	if err != nil {
		tb.Fatal(err)
	}
	return g, parts, a, core.MemorySource{C: c}
}

func TestLayoutAssignmentRoundTrip(t *testing.T) {
	for _, tc := range []struct{ ranks, replicas int }{
		{1, 1}, {2, 1}, {2, 2}, {3, 2}, {4, 2}, {5, 3}, {4, 0},
	} {
		addrs := make([]string, tc.ranks)
		for i := range addrs {
			addrs[i] = "h"
		}
		l := Layout{Ranks: addrs, Mesh: addrs, Replicas: tc.replicas}
		groups := l.Groups()
		if len(groups) != l.NumGroups() {
			t.Fatalf("%+v: %d groups, want %d", tc, len(groups), l.NumGroups())
		}
		seen := make(map[int]bool)
		for gi, g := range groups {
			for mi, rank := range g {
				if seen[rank] {
					t.Fatalf("%+v: rank %d in two groups", tc, rank)
				}
				seen[rank] = true
				// GroupOf inverts Groups.
				gg, mm, members := l.GroupOf(rank)
				if gg != gi || mm != mi || len(members) != len(g) {
					t.Fatalf("%+v: GroupOf(%d) = (%d,%d,%d members), want (%d,%d,%d)",
						tc, rank, gg, mm, len(members), gi, mi, len(g))
				}
			}
		}
		if len(seen) != tc.ranks {
			t.Fatalf("%+v: groups cover %d of %d ranks", tc, len(seen), tc.ranks)
		}
		// Every partition is owned by exactly one member per group, and
		// LocalParts partitions the partition set within each group.
		const numParts = 7
		for _, g := range groups {
			owned := make(map[int]bool)
			for _, rank := range g {
				for _, p := range LocalParts(l, rank, numParts) {
					if owned[p] {
						t.Fatalf("%+v: partition %d owned twice in group", tc, p)
					}
					owned[p] = true
				}
			}
			if len(owned) != numParts {
				t.Fatalf("%+v: group owns %d of %d partitions", tc, len(owned), numParts)
			}
		}
	}
}

// bootShard starts ranks in-process on loopback listeners and returns the
// layout plus the live ranks, rank-indexed.
func bootShard(tb testing.TB, g *graph.Template, parts []*subgraph.PartitionData, a *partition.Assignment, src core.InstanceSource, numRanks, replicas int) (Layout, []*Rank) {
	tb.Helper()
	return bootShardRPC(tb, g, parts, a, src, numRanks, replicas, func(_ int, ln net.Listener) net.Listener { return ln })
}

// bootShardRPC is bootShard with each rank's RPC listener passed through
// wrap, so a test can put a slow link between the router and one rank.
func bootShardRPC(tb testing.TB, g *graph.Template, parts []*subgraph.PartitionData, a *partition.Assignment, src core.InstanceSource, numRanks, replicas int, wrap func(rank int, ln net.Listener) net.Listener) (Layout, []*Rank) {
	tb.Helper()
	l := Layout{Replicas: replicas}
	rpcLns := make([]net.Listener, numRanks)
	meshLns := make([]net.Listener, numRanks)
	for i := 0; i < numRanks; i++ {
		var err error
		if rpcLns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			tb.Fatal(err)
		}
		if meshLns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			tb.Fatal(err)
		}
		l.Ranks = append(l.Ranks, rpcLns[i].Addr().String())
		l.Mesh = append(l.Mesh, meshLns[i].Addr().String())
	}
	ranks := make([]*Rank, numRanks)
	for i := 0; i < numRanks; i++ {
		r, err := NewRank(RankConfig{
			Layout: l, Rank: i,
			Template: g, Parts: parts, Assign: a, Source: src,
			Delta: fixDelta, WeightAttr: gen.AttrLatency, TweetsAttr: gen.AttrTweets,
			Cores:      2,
			Resilience: &cluster.Resilience{BackoffBase: 2 * time.Millisecond, BackoffCap: 50 * time.Millisecond, RecoveryWindow: 2 * time.Second},
			Listener:   wrap(i, rpcLns[i]), MeshListener: meshLns[i],
		})
		if err != nil {
			tb.Fatal(err)
		}
		ranks[i] = r
		tb.Cleanup(func() { r.Close() })
	}
	// Mesh members block in Start until their whole group is up.
	var wg sync.WaitGroup
	errs := make([]error, numRanks)
	for i, r := range ranks {
		wg.Add(1)
		go func(i int, r *Rank) {
			defer wg.Done()
			errs[i] = r.Start()
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			tb.Fatalf("rank %d start: %v", i, err)
		}
	}
	return l, ranks
}

func shardServer(tb testing.TB, g *graph.Template, parts []*subgraph.PartitionData, a *partition.Assignment, src core.InstanceSource, l Layout) (*serve.Server, *Router) {
	tb.Helper()
	router, err := NewRouter(RouterConfig{
		Layout: l, Template: g, Assign: a,
		Timeout: 10 * time.Second, DownCooldown: 200 * time.Millisecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(router.Close)
	srv, err := serve.New(serve.Options{
		Template: g, Parts: parts, Source: src,
		Delta: fixDelta, WeightAttr: gen.AttrLatency, TweetsAttr: gen.AttrTweets,
		Sweeper: router,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = srv.Close() })
	return srv, router
}

func oracleQueries() []serve.Query {
	v0, v63 := int64(0), int64(63)
	return []serve.Query{
		{Kind: "tdsp", Source: 0, Target: 63, Depart: 0},
		{Kind: "tdsp", Source: 63, Target: 0, Depart: 2},
		{Kind: "tdsp", Source: 9, Target: 54, Depart: 1},
		{Kind: "topn", Attr: gen.AttrLoad, N: 5, From: 1, Count: 3},
		{Kind: "topn", Attr: gen.AttrLoad, N: 3},
		{Kind: "meme", Tag: fixMeme},
		{Kind: "meme", Tag: fixMeme, Vertex: &v0},
		{Kind: "meme", Tag: fixMeme, Vertex: &v63},
		{Kind: "meme", Tag: "#nosuch", Vertex: &v0},
	}
}

// answerBytes runs one query and returns its canonical JSON, the exact
// bytes the HTTP layer writes.
func answerBytes(tb testing.TB, srv *serve.Server, q serve.Query) []byte {
	tb.Helper()
	ans, err := srv.Submit(context.Background(), q)
	if err != nil {
		tb.Fatalf("query %+v: %v", q, err)
	}
	b, err := json.Marshal(ans)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestShardedByteIdentical is the core acceptance check: every query class
// answered through a 3-rank, 2-replica shard (one 2-member mesh group and
// one single-member group) is byte-identical to the single-process server.
func TestShardedByteIdentical(t *testing.T) {
	g, parts, a, src := fixture(t)
	l, _ := bootShard(t, g, parts, a, src, 3, 2)
	sharded, _ := shardServer(t, g, parts, a, src, l)
	local, err := serve.New(serve.Options{
		Template: g, Parts: parts, Source: src,
		Delta: fixDelta, WeightAttr: gen.AttrLatency, TweetsAttr: gen.AttrTweets,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	// Submit everything twice: the round-robin cursor lands each sweep on
	// a different replica group, so both the mesh group and the
	// single-member group must produce the oracle answer.
	for round := 0; round < 2; round++ {
		for _, q := range oracleQueries() {
			want := answerBytes(t, local, q)
			got := answerBytes(t, sharded, q)
			if string(got) != string(want) {
				t.Fatalf("round %d query %+v:\nsharded %s\nlocal   %s", round, q, got, want)
			}
		}
	}
}

// lateListener delays every read on the connections it accepts: a slow link
// between the router and one rank.
type lateListener struct {
	net.Listener
	delay time.Duration
}

func (l lateListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return lateConn{c, l.delay}, nil
}

type lateConn struct {
	net.Conn
	delay time.Duration
}

func (c lateConn) Read(p []byte) (int, error) {
	time.Sleep(c.delay)
	return c.Conn.Read(p)
}

// TestShardedSweepsBackToBack is the regression for engines bound per
// sweep: 240 consecutive uncached TDSP and meme sweeps through one 2-member
// mesh group must each be byte-identical to the single-process server, even
// when one rank hears of every sweep a little after its peer has started
// it. With a fresh engine bound per sweep the early peer's first-superstep
// frames landed in the late rank's previous engine and were lost.
func TestShardedSweepsBackToBack(t *testing.T) {
	g, parts, a, src := fixtureSized(t, 24, 24)
	l, _ := bootShardRPC(t, g, parts, a, src, 2, 1, func(rank int, ln net.Listener) net.Listener {
		if rank == 1 {
			return lateListener{ln, 2 * time.Millisecond}
		}
		return ln
	})
	sharded, _ := shardServer(t, g, parts, a, src, l)
	local, err := serve.New(serve.Options{
		Template: g, Parts: parts, Source: src,
		Delta: fixDelta, WeightAttr: gen.AttrLatency, TweetsAttr: gen.AttrTweets,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	n := int64(g.NumVertices())
	for i := int64(0); i < 240; i++ {
		// Every query is distinct, so the result cache answers none.
		q := serve.Query{Kind: "tdsp", Source: i * 53 % n, Target: (i*101 + n/2) % n, Depart: int(i % 3)}
		if i%4 == 3 {
			v := i * 37 % n
			q = serve.Query{Kind: "meme", Tag: fixMeme, Vertex: &v}
		}
		want := answerBytes(t, local, q)
		if got := answerBytes(t, sharded, q); string(got) != string(want) {
			t.Fatalf("sweep %d query %+v:\nsharded %s\nlocal   %s", i, q, got, want)
		}
	}
}

// TestRouterFailover kills every member of one replica group and checks
// that queries keep getting byte-identical answers from the replica, with
// the failover visible in the router's counters.
func TestRouterFailover(t *testing.T) {
	g, parts, a, src := fixture(t)
	l, ranks := bootShard(t, g, parts, a, src, 4, 2)
	sharded, router := shardServer(t, g, parts, a, src, l)
	local, err := serve.New(serve.Options{
		Template: g, Parts: parts, Source: src,
		Delta: fixDelta, WeightAttr: gen.AttrLatency, TweetsAttr: gen.AttrTweets,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	queries := oracleQueries()
	want := make([][]byte, len(queries))
	for i, q := range queries {
		want[i] = answerBytes(t, local, q)
		if got := answerBytes(t, sharded, q); string(got) != string(want[i]) {
			t.Fatalf("pre-kill query %+v: %s != %s", q, got, want[i])
		}
	}

	// Group 0 is ranks {0,1}; killing both forces every sweep onto group 1.
	ranks[0].Close()
	ranks[1].Close()
	for round := 0; round < 2; round++ {
		for i, q := range queries {
			if got := answerBytes(t, sharded, q); string(got) != string(want[i]) {
				t.Fatalf("post-kill query %+v: %s != %s", q, got, want[i])
			}
		}
	}
	if router.failovers.Load() == 0 {
		t.Fatal("no failovers recorded after killing a replica group")
	}
}

// TestRouterAllDownRejects checks the 429 path: with every replica group
// dead the router rejects (retryable) instead of erroring.
func TestRouterAllDownRejects(t *testing.T) {
	g, parts, a, src := fixture(t)
	l, ranks := bootShard(t, g, parts, a, src, 1, 1)
	sharded, _ := shardServer(t, g, parts, a, src, l)
	if got := answerBytes(t, sharded, serve.Query{Kind: "tdsp", Source: 0, Target: 63}); len(got) == 0 {
		t.Fatal("empty answer while rank alive")
	}
	ranks[0].Close()
	_, err := sharded.Submit(context.Background(), serve.Query{Kind: "tdsp", Source: 0, Target: 63, Depart: 1})
	var rej *serve.RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("want RejectError with all groups down, got %v", err)
	}
	if rej.RetryAfter <= 0 {
		t.Fatalf("reject without Retry-After: %+v", rej)
	}
}
