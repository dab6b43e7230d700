package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tsgraph/internal/algorithms"
	"tsgraph/internal/cluster"
	"tsgraph/internal/graph"
	"tsgraph/internal/obs"
	"tsgraph/internal/partition"
	"tsgraph/internal/serve"
)

// RouterConfig configures the stateless scatter/gather router.
type RouterConfig struct {
	// Layout is the shared deployment topology.
	Layout Layout
	// Template and Assign let the router resolve vertex ownership for
	// merging; it never loads instance data.
	Template *graph.Template
	Assign   *partition.Assignment
	// Tracer, when enabled, records one SpanShard per member per sweep
	// (Part = executing rank, TS = query class, SID = sweep serial) so
	// flight-recorder traces stitch the rank-side work into the query.
	Tracer *obs.Tracer
	// Timeout bounds each member RPC (default 15s).
	Timeout time.Duration
	// DownCooldown quarantines a group after a failed scatter; retries go
	// to the replicas until it expires (default 5s).
	DownCooldown time.Duration
}

type group struct {
	id        int
	ranks     []int
	members   []*memberClient
	mu        sync.Mutex // serializes sweeps into the group
	downUntil atomic.Int64
}

func (g *group) down(now time.Time) bool { return now.UnixNano() < g.downUntil.Load() }

// Router scatters each admitted sweep to every member of one replica
// group and merges the partials. It implements serve.Sweeper, so the
// whole serving tier above the sweep seam — admission, batching, result
// cache, watermark pinning, HTTP — is the unmodified single-process code.
type Router struct {
	cfg      RouterConfig
	timeout  time.Duration
	cooldown time.Duration
	groups   []*group

	rr  atomic.Int64 // round-robin group cursor
	seq atomic.Int64 // sweep serial

	sweeps    [4]atomic.Int64 // by request kind
	failovers atomic.Int64
	rpcs      []atomic.Int64 // by global rank
	rpcErrs   []atomic.Int64
	rankNS    []atomic.Int64
}

// NewRouter builds a router over the layout. Connections to ranks are
// dialed lazily on the first sweep, so boot order is free.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if err := cfg.Layout.Validate(); err != nil {
		return nil, err
	}
	if cfg.Template == nil || cfg.Assign == nil {
		return nil, errors.New("shard: router needs template and assignment")
	}
	r := &Router{
		cfg:      cfg,
		timeout:  cfg.Timeout,
		cooldown: cfg.DownCooldown,
		rpcs:     make([]atomic.Int64, cfg.Layout.NumRanks()),
		rpcErrs:  make([]atomic.Int64, cfg.Layout.NumRanks()),
		rankNS:   make([]atomic.Int64, cfg.Layout.NumRanks()),
	}
	if r.timeout <= 0 {
		r.timeout = 15 * time.Second
	}
	if r.cooldown <= 0 {
		r.cooldown = 5 * time.Second
	}
	for gi, ranks := range cfg.Layout.Groups() {
		g := &group{id: gi, ranks: ranks}
		for _, rank := range ranks {
			g.members = append(g.members, &memberClient{rank: rank, addr: cfg.Layout.Ranks[rank]})
		}
		r.groups = append(r.groups, g)
	}
	return r, nil
}

// Close drops every rank connection.
func (r *Router) Close() {
	for _, g := range r.groups {
		for _, m := range g.members {
			m.close()
		}
	}
}

// scatter picks a live replica group round-robin, sends the request to
// every member, and gathers their partials. Any member failure quarantines
// the group and fails the sweep over to the next replica; sweeps are
// read-only, so re-execution on a replica is safe and byte-identical.
// With every group down or failed the sweep is rejected (HTTP 429 with
// Retry-After) rather than erroring, because replicas recovering within
// the cooldown make a retry meaningful.
func (r *Router) scatter(req *Request) ([]*Response, *group, error) {
	req.ID = r.seq.Add(1)
	if req.Kind >= 1 && req.Kind < len(r.sweeps) {
		r.sweeps[req.Kind].Add(1)
	}
	n := len(r.groups)
	start := int(r.rr.Add(1)-1) % n
	var lastErr error
	for i := 0; i < n; i++ {
		g := r.groups[(start+i)%n]
		if g.down(time.Now()) {
			continue
		}
		resps, err := r.scatterGroup(g, req)
		if err == nil {
			return resps, g, nil
		}
		lastErr = err
		g.downUntil.Store(time.Now().Add(r.cooldown).UnixNano())
		r.failovers.Add(1)
	}
	reason := "all replica groups down"
	if lastErr != nil {
		reason = fmt.Sprintf("all replica groups failed: %v", lastErr)
	}
	return nil, nil, &serve.RejectError{Reason: reason, RetryAfter: r.cooldown}
}

func (r *Router) scatterGroup(g *group, req *Request) ([]*Response, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	sweepStart := time.Now()
	resps := make([]*Response, len(g.members))
	errs := make([]error, len(g.members))
	var wg sync.WaitGroup
	for i, m := range g.members {
		wg.Add(1)
		go func(i int, m *memberClient) {
			defer wg.Done()
			r.rpcs[m.rank].Add(1)
			resp, err := m.call(req, r.timeout)
			if err == nil && resp.Err != "" {
				err = fmt.Errorf("shard: rank %d: %s", m.rank, resp.Err)
			}
			if err != nil {
				r.rpcErrs[m.rank].Add(1)
				errs[i] = err
				return
			}
			resps[i] = resp
		}(i, m)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	tr := r.cfg.Tracer
	for i, resp := range resps {
		r.rankNS[g.ranks[i]].Add(resp.SweepNS)
		if tr.Active() {
			tr.RecordSpan(obs.SpanShard, int32(g.ranks[i]), int32(req.Kind), -1,
				req.ID, sweepStart, time.Duration(resp.SweepNS))
		}
	}
	return resps, nil
}

// SweepTDSP implements serve.Sweeper: every member runs the identical
// multi-source sweep over the group mesh; each (source, target) answer is
// reported exactly once, by the target's partition owner.
func (r *Router) SweepTDSP(_ context.Context, watermark, depart int, queries []algorithms.BatchQuery) (serve.TDSPLookup, error) {
	resps, _, err := r.scatter(&Request{Kind: reqTDSP, WM: watermark, Depart: depart, Queries: queries})
	if err != nil {
		return nil, err
	}
	type key struct{ si, v int }
	m := make(map[key]Arrival)
	for _, resp := range resps {
		for _, a := range resp.Arrivals {
			m[key{int(a.SI), int(a.Target)}] = a
		}
	}
	return func(si, vertex int) (float64, int, bool) {
		a, ok := m[key{si, vertex}]
		if !ok || !a.Reached {
			return 0, -1, false
		}
		return a.Arr, int(a.At), true
	}, nil
}

// SweepTopN implements serve.Sweeper: members rank their owned partitions
// locally; the merge re-applies the algorithm's exact comparator (value
// descending, vertex ascending) and truncation, so the merged list is the
// list a single process would have produced.
func (r *Router) SweepTopN(_ context.Context, watermark int, attr string, n, from, count int) ([][]serve.RankEntry, error) {
	resps, _, err := r.scatter(&Request{Kind: reqTopN, WM: watermark, Attr: attr, N: n, From: from, Count: count})
	if err != nil {
		return nil, err
	}
	out := make([][]serve.RankEntry, count)
	for ts := range out {
		var merged []serve.RankEntry
		for _, resp := range resps {
			if ts < len(resp.Steps) {
				merged = append(merged, resp.Steps[ts]...)
			}
		}
		sort.Slice(merged, func(i, j int) bool {
			if merged[i].Value != merged[j].Value {
				return merged[i].Value > merged[j].Value
			}
			return merged[i].Vertex < merged[j].Vertex
		})
		if len(merged) > n {
			merged = merged[:n]
		}
		out[ts] = merged
	}
	return out, nil
}

// SweepMeme implements serve.Sweeper: the colored count is the sum of the
// members' disjoint owned counts, and each probe is read from its
// partition owner.
func (r *Router) SweepMeme(_ context.Context, watermark int, tag string, probes []int) (*serve.MemeSpread, error) {
	wire := make([]int32, len(probes))
	for i, v := range probes {
		wire[i] = int32(v)
	}
	resps, g, err := r.scatter(&Request{Kind: reqMeme, WM: watermark, Tag: tag, Probes: wire})
	if err != nil {
		return nil, err
	}
	sp := &serve.MemeSpread{ProbeAt: make([]int, len(probes))}
	for _, resp := range resps {
		sp.Colored += resp.Colored
	}
	for i, v := range probes {
		owner := cluster.OwnerOf(int(r.cfg.Assign.Parts[v]), len(g.members))
		sp.ProbeAt[i] = int(resps[owner].ProbeAt[i])
	}
	return sp, nil
}

// CollectObs exports the router's scatter/gather counters.
func (r *Router) CollectObs(emit func(obs.Sample)) {
	kinds := [4]string{"", "tdsp", "topn", "meme"}
	for k := 1; k < len(r.sweeps); k++ {
		emit(obs.Sample{
			Name: "tsshard_sweeps_total", Kind: "counter",
			Help:   "Sweeps scattered by the shard router, by query class.",
			Labels: []obs.Label{{Key: "class", Value: kinds[k]}},
			Value:  float64(r.sweeps[k].Load()),
		})
	}
	emit(obs.Sample{
		Name: "tsshard_failovers_total", Kind: "counter",
		Help:  "Sweeps retried on a replica group after a member failure.",
		Value: float64(r.failovers.Load()),
	})
	now := time.Now()
	downGroups := 0
	for _, g := range r.groups {
		if g.down(now) {
			downGroups++
		}
	}
	emit(obs.Sample{
		Name: "tsshard_groups_down", Kind: "gauge",
		Help:  "Replica groups currently quarantined after a failure.",
		Value: float64(downGroups),
	})
	for rank := range r.rpcs {
		labels := []obs.Label{{Key: "rank", Value: fmt.Sprint(rank)}}
		emit(obs.Sample{
			Name: "tsshard_rpcs_total", Kind: "counter",
			Help:   "Sweep RPCs sent to each rank.",
			Labels: labels,
			Value:  float64(r.rpcs[rank].Load()),
		})
		emit(obs.Sample{
			Name: "tsshard_rpc_errors_total", Kind: "counter",
			Help:   "Sweep RPCs that failed per rank (dial, timeout, or remote error).",
			Labels: labels,
			Value:  float64(r.rpcErrs[rank].Load()),
		})
		emit(obs.Sample{
			Name: "tsshard_rank_sweep_seconds_total", Kind: "counter",
			Help:   "Rank-reported sweep seconds, as gathered by the router.",
			Labels: labels,
			Value:  float64(r.rankNS[rank].Load()) / 1e9,
		})
	}
}
