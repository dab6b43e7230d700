package shard

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tsgraph/internal/algorithms"
	"tsgraph/internal/bsp"
	"tsgraph/internal/cluster"
	"tsgraph/internal/core"
	"tsgraph/internal/graph"
	"tsgraph/internal/obs"
	"tsgraph/internal/partition"
	"tsgraph/internal/serve"
	"tsgraph/internal/subgraph"
)

// RankConfig configures one serving rank.
type RankConfig struct {
	// Layout is the shared deployment topology; Rank is this process's
	// index into it.
	Layout Layout
	Rank   int

	// Template and Parts describe the FULL dataset: programs are built
	// over every partition so source/target resolution and per-source
	// bookkeeping agree across the group. Only instance data is sharded.
	Template *graph.Template
	Parts    []*subgraph.PartitionData
	// Assign maps template vertex -> partition.
	Assign *partition.Assignment

	// Source loads instances for the owned partitions; restrict it with
	// gofs.InstanceCache.Restrict(LocalParts(...)) so non-owned columns
	// are never decoded.
	Source core.InstanceSource

	// Delta, WeightAttr, TweetsAttr mirror the serve.Options of the
	// single-process server.
	Delta      float64
	WeightAttr string
	TweetsAttr string
	// Cores bounds concurrent Compute calls per sweep.
	Cores int

	// Tracer, when enabled, traces the rank's BSP execution.
	Tracer *obs.Tracer
	// Resilience tunes the group mesh's retry/reconnect/replay (nil keeps
	// the fail-fast transport; serving groups should set one).
	Resilience *cluster.Resilience

	// Listener accepts the router's RPC connections (required).
	Listener net.Listener
	// MeshListener is this rank's cluster mesh listener; required when
	// the rank's group has more than one member.
	MeshListener net.Listener
}

// LocalParts returns the partition numbers a rank owns under a layout: the
// member-local slice of cluster.OwnerOf over the rank's group.
func LocalParts(l Layout, rank, numParts int) []int {
	_, member, members := l.GroupOf(rank)
	if members == nil {
		return nil
	}
	var owned []int
	for p := 0; p < numParts; p++ {
		if cluster.OwnerOf(p, len(members)) == member {
			owned = append(owned, p)
		}
	}
	return owned
}

// Rank is one serving rank: it answers the router's scattered sweeps over
// the partitions it owns, joining its replica group's cluster mesh for
// cross-partition TDSP and meme sweeps.
type Rank struct {
	cfg    RankConfig
	group  int
	member int
	ranks  []int // global ranks of my group, member-ordered
	local  []*subgraph.PartitionData
	bspCfg bsp.Config
	// node and mesh are nil for single-member groups. The mesh's engine is
	// built and bound to the node once, before the node starts: binding per
	// sweep would let a faster peer's first-superstep frames land in the
	// previous sweep's engine.
	node *cluster.Node
	mesh *core.Mesh

	ln      net.Listener
	sweepMu sync.Mutex
	connMu  sync.Mutex
	conns   map[net.Conn]bool
	wg      sync.WaitGroup
	closed  atomic.Bool
}

// NewRank validates the topology and builds the rank. Start connects the
// mesh and begins serving.
func NewRank(cfg RankConfig) (*Rank, error) {
	if err := cfg.Layout.Validate(); err != nil {
		return nil, err
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.Layout.NumRanks() {
		return nil, fmt.Errorf("shard: rank %d outside layout of %d", cfg.Rank, cfg.Layout.NumRanks())
	}
	if cfg.Template == nil || len(cfg.Parts) == 0 || cfg.Assign == nil || cfg.Source == nil {
		return nil, fmt.Errorf("shard: rank needs template, parts, assignment, and source")
	}
	if cfg.Listener == nil {
		return nil, fmt.Errorf("shard: rank needs an RPC listener")
	}
	group, member, ranks := cfg.Layout.GroupOf(cfg.Rank)
	r := &Rank{
		cfg:    cfg,
		group:  group,
		member: member,
		ranks:  ranks,
		bspCfg: bsp.Config{CoresPerHost: cfg.Cores},
		ln:     cfg.Listener,
		conns:  make(map[net.Conn]bool),
	}
	if len(ranks) == 1 {
		r.local = cfg.Parts
		return r, nil
	}
	if cfg.MeshListener == nil {
		return nil, fmt.Errorf("shard: rank %d needs a mesh listener (group of %d)", cfg.Rank, len(ranks))
	}
	addrs := make([]string, len(ranks))
	for i, gr := range ranks {
		addrs[i] = cfg.Layout.Mesh[gr]
	}
	node, mesh, err := cluster.NewMesh(cluster.Config{
		Rank:       member,
		Addrs:      addrs,
		Listener:   cfg.MeshListener,
		Tracer:     cfg.Tracer,
		Resilience: cfg.Resilience,
	}, cfg.Parts)
	if err != nil {
		return nil, err
	}
	r.node, r.mesh, r.local = node, mesh, mesh.Local
	return r, nil
}

// Node returns the rank's mesh node for metrics registration (nil when the
// group has a single member).
func (r *Rank) Node() *cluster.Node { return r.node }

// Addr returns the RPC listen address.
func (r *Rank) Addr() net.Addr { return r.ln.Addr() }

// LocalParts returns the partition numbers this rank owns.
func (r *Rank) LocalParts() []int {
	owned := make([]int, len(r.local))
	for i, pd := range r.local {
		owned[i] = pd.PID
	}
	return owned
}

// Start connects the group mesh (blocking until every member is up, when
// the group has one) and then serves RPCs in the background.
func (r *Rank) Start() error {
	if r.node != nil {
		if err := r.node.Start(); err != nil {
			return err
		}
	}
	r.wg.Add(1)
	go r.acceptLoop()
	return nil
}

// Close stops serving: the listener and every open connection close, the
// mesh node shuts down, and in-flight handlers are waited out.
func (r *Rank) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	r.ln.Close()
	r.connMu.Lock()
	for c := range r.conns {
		c.Close()
	}
	r.connMu.Unlock()
	if r.node != nil {
		r.node.Close()
	}
	r.wg.Wait()
	return nil
}

func (r *Rank) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return
		}
		r.connMu.Lock()
		if r.closed.Load() {
			r.connMu.Unlock()
			conn.Close()
			return
		}
		r.conns[conn] = true
		r.connMu.Unlock()
		r.wg.Add(1)
		go r.serveConn(conn)
	}
}

func (r *Rank) serveConn(conn net.Conn) {
	defer r.wg.Done()
	defer func() {
		r.connMu.Lock()
		delete(r.conns, conn)
		r.connMu.Unlock()
		conn.Close()
	}()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var req Request
		if err := dec.Decode(&req); err != nil {
			return
		}
		resp := r.handle(&req)
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// handle executes one sweep. Sweeps are serialized per rank: the engine
// and the mesh node carry per-sweep state, and the router never pipelines
// requests into one group anyway.
func (r *Rank) handle(req *Request) *Response {
	resp := &Response{ID: req.ID, Rank: r.cfg.Rank}
	r.sweepMu.Lock()
	defer r.sweepMu.Unlock()
	start := time.Now()
	var err error
	switch req.Kind {
	case reqTDSP:
		err = r.tdsp(req, resp)
	case reqTopN:
		err = r.topn(req, resp)
	case reqMeme:
		err = r.meme(req, resp)
	default:
		err = fmt.Errorf("shard: unknown request kind %d", req.Kind)
	}
	resp.SweepNS = time.Since(start).Nanoseconds()
	if err != nil {
		resp.Err = err.Error()
	}
	return resp
}

// ownsVertex reports whether this rank is authoritative for a template
// vertex (its partition's instance data lives here).
func (r *Rank) ownsVertex(v int) bool {
	return cluster.OwnerOf(int(r.cfg.Assign.Parts[v]), len(r.ranks)) == r.member
}

// job is the part of a cross-partition sweep every query class shares: the
// full partition set (see RankConfig.Parts) over the instances below the
// batch's pinned watermark.
func (r *Rank) job(watermark int) *core.Job {
	return &core.Job{
		Template: r.cfg.Template,
		Parts:    r.cfg.Parts,
		Source:   core.Window{Src: r.cfg.Source, Hi: watermark},
		Config:   r.bspCfg,
		Tracer:   r.cfg.Tracer,
		Mesh:     r.mesh,
	}
}

func (r *Rank) tdsp(req *Request, resp *Response) error {
	prog, err := algorithms.NewBatchTDSP(r.cfg.Parts, req.Queries, req.Depart, r.cfg.Delta, r.cfg.WeightAttr)
	if err != nil {
		return err
	}
	if _, err := prog.Sweep(r.job(req.WM)); err != nil {
		return err
	}
	for si, q := range req.Queries {
		for _, tgt := range q.Targets {
			if !r.ownsVertex(tgt) {
				continue
			}
			arr, at, ok := prog.Arrival(si, tgt)
			resp.Arrivals = append(resp.Arrivals, Arrival{
				SI: int32(si), Target: int32(tgt), Arr: arr, At: int32(at), Reached: ok,
			})
		}
	}
	prog.Release()
	return nil
}

func (r *Rank) topn(req *Request, resp *Response) error {
	par := r.cfg.Cores
	if par < 1 {
		par = 1
	}
	if par > 4 {
		par = 4
	}
	if req.Count < par {
		par = req.Count
	}
	steps, _, err := algorithms.RunTopNRange(
		r.cfg.Template, r.local, req.Attr, req.N,
		core.Window{Src: r.cfg.Source, Hi: req.WM},
		req.From, req.Count, r.bspCfg, nil, par)
	if err != nil {
		return err
	}
	resp.Steps = make([][]serve.RankEntry, len(steps))
	for i, vv := range steps {
		resp.Steps[i] = make([]serve.RankEntry, len(vv))
		for j, e := range vv {
			resp.Steps[i][j] = serve.RankEntry{Vertex: int64(e.Vertex), Value: e.Value}
		}
	}
	return nil
}

func (r *Rank) meme(req *Request, resp *Response) error {
	prog := algorithms.NewMeme(r.cfg.Parts, req.Tag, r.cfg.TweetsAttr)
	job := r.job(req.WM)
	job.Program = prog
	if _, err := algorithms.Sweep(job); err != nil {
		return err
	}
	coloredAt := prog.ColoredAt(r.local, r.cfg.Template)
	// ColoredAt is template-indexed with -1 for both uncolored and
	// non-owned vertices, so counting >= 0 entries counts exactly the
	// owned colored vertices; the group total is the plain sum.
	for _, at := range coloredAt {
		if at >= 0 {
			resp.Colored++
		}
	}
	resp.ProbeAt = make([]int32, len(req.Probes))
	for i, v := range req.Probes {
		if r.ownsVertex(int(v)) {
			resp.ProbeAt[i] = coloredAt[v]
		} else {
			resp.ProbeAt[i] = probeNotOwned
		}
	}
	return nil
}
