// Package cluster runs TI-BSP jobs across multiple processes connected by
// TCP, one node per host, turning the single-process simulation into a
// genuinely distributed execution: every node owns a subset of partitions,
// cross-host BSP messages travel as gob-framed TCP traffic, supersteps
// synchronize through an all-to-all barrier protocol, and temporal messages
// are exchanged between timesteps.
//
// A Node implements both bsp.Remote (superstep messaging and barrier) and
// core.Coordinator (temporal exchange). NewMesh builds a rank's node and an
// engine over the partitions the rank owns (OwnerOf), bound to each other;
// setting the returned core.Mesh on a job is all a host needs, and the job's
// Config configures that engine:
//
//	node, mesh, err := cluster.NewMesh(cluster.Config{Rank: r, Addrs: addrs}, parts)
//	if err != nil {
//	    return err
//	}
//	defer node.Close()
//	if err := node.Start(); err != nil { // connect the mesh
//	    return err
//	}
//	res, err := algorithms.Sweep(&core.Job{Template: t, Source: src, Program: prog, Config: cfg, Mesh: mesh})
//
// The barrier protocol is coordinator-free: each node sends an
// end-of-superstep frame carrying its local stats to every peer over the
// same ordered connection as its data frames, so when a node has collected
// all peers' EOS frames it knows every message addressed to it has arrived,
// and every node computes identical global aggregates.
package cluster

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tsgraph/internal/bsp"
	"tsgraph/internal/chaos"
	"tsgraph/internal/core"
	"tsgraph/internal/obs"
	"tsgraph/internal/subgraph"
)

func init() {
	// Base payload types usable over the wire without further registration;
	// algorithm payloads register themselves (see algorithms.init).
	gob.Register(int(0))
	gob.Register(int32(0))
	gob.Register(int64(0))
	gob.Register(float64(0))
	gob.Register("")
	gob.Register(true)
	gob.Register([]int32(nil))
	gob.Register([]float64(nil))
	gob.Register([]string(nil))
}

// Frame kinds.
const (
	kindData     = 1  // superstep messages
	kindEOS      = 2  // end of superstep + local barrier stats
	kindTemporal = 3  // between-timesteps temporal messages
	kindTEOS     = 4  // end of temporal exchange + votes/message totals
	kindPing     = 5  // clock-offset probe (T1 = origin send time)
	kindPong     = 6  // probe reply (T1 echoed, T2 = responder clock)
	kindShard    = 7  // end-of-run trace shard shipped to the gather rank
	kindResume   = 8  // resume-consensus proposal (latest usable checkpoint)
	kindNack     = 9  // inbound-loss notice: re-dial us and replay your ring
	kindBye      = 10 // end-of-run drain barrier announcement (see Quiesce)
)

// frame is the wire unit. Exactly one payload group is meaningful per kind.
// Every frame carries its trace context — the sender's rank, the TI-BSP
// timestep, and a per-node logical send sequence — so a receiver's wire
// spans resolve back to the sender's (obs.PackWireID pairs Rank and Seq).
type frame struct {
	Kind  uint8
	Step  int // superstep (data/eos) or timestep (temporal/teos)
	Msgs  []bsp.Message
	Stats bsp.BarrierStats
	Votes int
	Count int

	// Trace context, stamped on data/temporal frames.
	Rank int32 // sender rank
	TS   int32 // TI-BSP timestep the sender is executing
	Seq  int64 // sender-wide logical send sequence (0 = unstamped)

	// Clock probe payload (ping/pong).
	T1, T2 int64 // unix nanos: origin send time; responder clock

	// Trace shard payload (kindShard).
	Shard *obs.TraceShard
}

// Config describes one node of the mesh.
type Config struct {
	// Rank is this node's index in Addrs.
	Rank int
	// Addrs lists every node's listen address, rank-ordered.
	Addrs []string
	// Listener optionally supplies the pre-bound listener for
	// Addrs[Rank] (tests use ephemeral ports).
	Listener net.Listener
	// Owner maps template partition -> owning rank. NewMesh fills it from
	// OwnerOf.
	Owner []int32
	// DialTimeout bounds the connection phase (default 10s).
	DialTimeout time.Duration
	// Tracer, when non-nil and enabled, records a wire span per data and
	// temporal frame on both sides of every connection (SpanWireSend on the
	// sender, SpanWireRecv on the receiver, linked by the frame's packed
	// wire id) so merged traces resolve cross-rank message flow.
	Tracer *obs.Tracer
	// Watchdog, when non-nil, is fed rank arrivals at every superstep
	// barrier: StepBegin when this node enters the barrier, Arrive per
	// rank's EOS frame, StepEnd when the barrier releases. Its Parties
	// must equal len(Addrs).
	Watchdog *obs.Watchdog
	// Resilience, when non-nil, enables retry/reconnect/replay on the wire
	// (see the Resilience type). Nil keeps the legacy fail-fast transport.
	Resilience *Resilience
	// Chaos, when non-nil, arms the transport failpoints (wire.send,
	// wire.recv, barrier.eos): a firing site severs the affected connection
	// so recovery — or, without Resilience, failure — takes the same path a
	// real network fault would.
	Chaos *chaos.Injector
}

// Node is one host of a distributed run. It implements bsp.Remote and
// core.Coordinator.
type Node struct {
	cfg Config
	ln  net.Listener

	// peers[r] is the outgoing connection to rank r (nil for self).
	peers []*peerConn

	mu     sync.Mutex
	cond   *sync.Cond
	engine *bsp.Engine
	// eos[s] collects peers' barrier stats for superstep s.
	eos map[int][]bsp.BarrierStats
	// temporalIn[t] collects incoming temporal messages for timestep t.
	temporalIn map[int][]bsp.Message
	// teos[t] collects peers' (votes, msgs) for timestep t.
	teos map[int][][2]int
	// resumeIn collects peers' resume-consensus proposals (see AgreeResume).
	resumeIn map[int]int
	byes     map[int]bool
	err      error

	closed  bool
	readers sync.WaitGroup

	// Inbound wire counters, indexed by peer rank (see wire.go).
	recvFrames  []atomic.Int64
	recvReaders []atomic.Pointer[countingReader]

	// sendSeq is the node-wide logical send sequence stamped on outgoing
	// data/temporal frames (wire id = obs.PackWireID(Rank, Seq)).
	sendSeq atomic.Int64
	// curTS is the timestep this node is currently executing, for stamping
	// frames and labeling watchdog warnings.
	curTS atomic.Int32
	// offsetNanos[r] is the best estimate of rank r's clock minus ours
	// (NTP-style midpoint); offsetRTT[r] is the RTT of the sample that
	// produced it — lower RTT bounds the estimate's error tighter, so only
	// lower-RTT samples replace it. Guarded by offMu (not atomics: the pair
	// must update together).
	offMu       sync.Mutex
	offsetNanos []int64
	offsetRTT   []int64
	// shards[r] holds rank r's trace shard once its kindShard frame lands
	// (gather-rank side of GatherTraces); cond is broadcast on arrival.
	shards map[int]*obs.TraceShard

	// res is cfg.Resilience with defaults applied (nil = fail-fast).
	res *Resilience
	// maxSeq[r] is the receive high-water mark of rank r's send sequence:
	// a buffered frame at or below it is a replayed duplicate and dropped.
	maxSeq []atomic.Int64
	// recvGen[r] counts inbound connections accepted from rank r, so a
	// stale read loop's death is not mistaken for the current link failing.
	recvGen []atomic.Int64
	// downSince[r] is when rank r's inbound connection died (unix nanos; 0 =
	// healthy). Set on reader exit, cleared when a replacement lands.
	downSince []atomic.Int64

	retriesTotal    atomic.Int64
	reconnectsTotal atomic.Int64
	dupFrames       atomic.Int64
	recoveries      atomic.Int64
	recoveryNanos   atomic.Int64
	nacksSent       atomic.Int64
	nacksRecv       atomic.Int64
	replayedFrames  atomic.Int64
}

type peerConn struct {
	mu   sync.Mutex
	conn net.Conn
	enc  *gob.Encoder

	// ring is the bounded resend buffer (resilience only): the most recent
	// buffered frames in wire order, replayed after a reconnect. start/count
	// describe the live window; a full ring evicts its oldest frame.
	ring  []frame
	start int
	count int

	// gen counts successful reconnects of this link; reMu serializes them.
	gen  atomic.Int64
	reMu sync.Mutex

	framesSent atomic.Int64
	bytesSent  atomic.Int64
	flushNanos atomic.Int64
}

// send encodes one frame under the connection lock. When seq is non-nil,
// buffered kinds are stamped with a fresh send sequence *inside* the lock,
// so sequence order equals wire order — the invariant receiver-side dedup
// relies on. When buffer is set, the frame enters the resend ring before the
// encode: a frame whose flush fails is still replayable after reconnect.
func (p *peerConn) send(f *frame, seq *atomic.Int64, buffer bool) error {
	start := time.Now()
	p.mu.Lock()
	if seq != nil && f.Seq == 0 && bufferedKind(f.Kind) {
		f.Seq = seq.Add(1)
	}
	if buffer && bufferedKind(f.Kind) {
		p.push(f)
	}
	err := p.enc.Encode(f)
	p.mu.Unlock()
	p.flushNanos.Add(time.Since(start).Nanoseconds())
	// Count only frames that actually made it onto the wire: a failed
	// encode (peer gone mid-flush) must not inflate framesSent, or a retry
	// after reconnect would double-count the frame.
	if err == nil {
		p.framesSent.Add(1)
	}
	return err
}

// push appends a copy of f to the resend ring, evicting the oldest frame
// when full. Caller holds p.mu. The copy is shallow: message slices are
// freshly built per send (see Node.Send) and never reused, so sharing them
// with the ring is safe.
func (p *peerConn) push(f *frame) {
	if len(p.ring) == 0 {
		return
	}
	idx := (p.start + p.count) % len(p.ring)
	p.ring[idx] = *f
	if p.count == len(p.ring) {
		p.start = (p.start + 1) % len(p.ring)
	} else {
		p.count++
	}
}

// sever closes the link's current connection (chaos injection), forcing the
// next send or read on it down the organic failure path.
func (p *peerConn) sever() {
	p.mu.Lock()
	if p.conn != nil {
		p.conn.Close()
	}
	p.mu.Unlock()
}

// New creates a node and binds its listener (unless one was supplied).
func New(cfg Config) (*Node, error) {
	if cfg.Rank < 0 || cfg.Rank >= len(cfg.Addrs) {
		return nil, fmt.Errorf("cluster: rank %d outside %d addrs", cfg.Rank, len(cfg.Addrs))
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	n := &Node{
		cfg:         cfg,
		eos:         map[int][]bsp.BarrierStats{},
		temporalIn:  map[int][]bsp.Message{},
		teos:        map[int][][2]int{},
		resumeIn:    map[int]int{},
		peers:       make([]*peerConn, len(cfg.Addrs)),
		recvFrames:  make([]atomic.Int64, len(cfg.Addrs)),
		recvReaders: make([]atomic.Pointer[countingReader], len(cfg.Addrs)),
		offsetNanos: make([]int64, len(cfg.Addrs)),
		offsetRTT:   make([]int64, len(cfg.Addrs)),
		shards:      map[int]*obs.TraceShard{},
		res:         cfg.Resilience.withDefaults(cfg.Rank),
		maxSeq:      make([]atomic.Int64, len(cfg.Addrs)),
		recvGen:     make([]atomic.Int64, len(cfg.Addrs)),
		downSince:   make([]atomic.Int64, len(cfg.Addrs)),
	}
	n.cond = sync.NewCond(&n.mu)
	if cfg.Listener != nil {
		n.ln = cfg.Listener
	} else {
		ln, err := net.Listen("tcp", cfg.Addrs[cfg.Rank])
		if err != nil {
			return nil, fmt.Errorf("cluster: rank %d listen: %w", cfg.Rank, err)
		}
		n.ln = ln
	}
	return n, nil
}

// Rank returns this node's rank.
func (n *Node) Rank() int { return n.cfg.Rank }

// NumNodes returns the mesh size.
func (n *Node) NumNodes() int { return len(n.cfg.Addrs) }

// LocalPartitions returns the partition ids Owner assigns to this rank.
func (n *Node) LocalPartitions() []int {
	var out []int
	for p, r := range n.cfg.Owner {
		if int(r) == n.cfg.Rank {
			out = append(out, p)
		}
	}
	return out
}

// OwnerOf returns the rank that owns partition part in a mesh of ranks
// nodes. Partitions go round-robin, so every process derives the same
// assignment from the mesh size alone.
func OwnerOf(part, ranks int) int {
	if ranks <= 1 {
		return 0
	}
	return part % ranks
}

// NewMesh builds rank cfg.Rank's node and an engine over the partitions of
// parts (the full set) that the rank owns under OwnerOf, with the engine
// bound to the node; cfg.Owner is replaced by that assignment. The caller
// starts the node, runs jobs with the returned Mesh, and closes the node;
// each job's Config configures the engine for that run.
func NewMesh(cfg Config, parts []*subgraph.PartitionData) (*Node, *core.Mesh, error) {
	cfg.Owner = make([]int32, len(parts))
	for p := range cfg.Owner {
		cfg.Owner[p] = int32(OwnerOf(p, len(cfg.Addrs)))
	}
	var local []*subgraph.PartitionData
	for _, pd := range parts {
		if OwnerOf(pd.PID, len(cfg.Addrs)) == cfg.Rank {
			local = append(local, pd)
		}
	}
	n, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	engine := bsp.NewEngineRemote(local, bsp.Config{}, n)
	n.bind(engine)
	return n, &core.Mesh{Node: n, Engine: engine, Local: local, Subgraphs: subgraph.TotalSubgraphs(parts)}, nil
}

// bind attaches the engine that receives injected messages. NewMesh calls
// it before the node can start: an unbound node drops data frames.
func (n *Node) bind(e *bsp.Engine) {
	n.mu.Lock()
	n.engine = e
	n.mu.Unlock()
}

// Start connects the full mesh: accepts one inbound connection from every
// peer and dials every peer (with retries until DialTimeout). It returns
// once all 2·(N−1) connections are up.
func (n *Node) Start() error {
	total := len(n.cfg.Addrs)
	if total == 1 {
		return nil // degenerate single-node mesh
	}

	// Accept inbound connections concurrently with dialing out. Without
	// resilience the loop ends once the mesh is complete (total-1 peers);
	// with it the loop stays up for the life of the node so a peer that lost
	// its outgoing connection can re-dial and hand us a replacement.
	acceptErr := make(chan error, 1)
	go func() {
		for accepted := 0; ; {
			conn, err := n.ln.Accept()
			if err != nil {
				if accepted < total-1 {
					acceptErr <- fmt.Errorf("cluster: rank %d accept: %w", n.cfg.Rank, err)
				}
				return
			}
			// Handshake: the dialer announces its rank.
			var rank int
			cr := &countingReader{r: conn}
			dec := gob.NewDecoder(cr)
			if err := dec.Decode(&rank); err != nil {
				if accepted < total-1 {
					acceptErr <- fmt.Errorf("cluster: rank %d handshake: %w", n.cfg.Rank, err)
					return
				}
				conn.Close()
				continue
			}
			var gen int64
			if rank >= 0 && rank < len(n.recvReaders) {
				// Carry the byte count across reconnects so per-peer traffic
				// totals survive a replacement connection.
				if old := n.recvReaders[rank].Load(); old != nil {
					cr.n.Add(old.n.Load())
				}
				n.recvReaders[rank].Store(cr)
				gen = n.recvGen[rank].Add(1)
				n.peerReturned(rank)
				if n.res != nil {
					// Ack half of the resilient handshake: report our receive
					// high-water mark for this rank so its reconnect replays
					// only the frames we actually lack.
					_ = gob.NewEncoder(conn).Encode(n.maxSeq[rank].Load())
				}
			}
			n.readers.Add(1)
			go n.readLoop(rank, dec, conn, gen)
			if accepted++; accepted == total-1 {
				acceptErr <- nil
				if n.res == nil {
					return
				}
			}
		}
	}()

	// Dial every peer, retrying while their listeners come up.
	deadline := time.Now().Add(n.cfg.DialTimeout)
	for r, addr := range n.cfg.Addrs {
		if r == n.cfg.Rank {
			continue
		}
		var conn net.Conn
		var err error
		for {
			conn, err = net.DialTimeout("tcp", addr, time.Second)
			if err == nil || time.Now().After(deadline) {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if err != nil {
			return fmt.Errorf("cluster: rank %d dial rank %d (%s): %w", n.cfg.Rank, r, addr, err)
		}
		pc := &peerConn{conn: conn}
		if n.res != nil {
			pc.ring = make([]frame, n.res.ResendBuffer)
		}
		pc.enc = gob.NewEncoder(&countingWriter{w: conn, n: &pc.bytesSent})
		if err := pc.enc.Encode(n.cfg.Rank); err != nil {
			return fmt.Errorf("cluster: rank %d handshake to %d: %w", n.cfg.Rank, r, err)
		}
		if n.res != nil {
			// Resilient handshakes are two-way (see the accept loop): the
			// acceptor acks with its receive high-water mark — zero on a fresh
			// mesh. Reading it here keeps the initial dial on the same wire
			// protocol as reconnect, so Resilience must be enabled (or not)
			// uniformly across the mesh.
			var ack int64
			if err := gob.NewDecoder(conn).Decode(&ack); err != nil {
				return fmt.Errorf("cluster: rank %d handshake ack from %d: %w", n.cfg.Rank, r, err)
			}
		}
		// Published under mu: a peer's clock probe can arrive on the accept
		// side (and want to reply on this connection) before the dial loop
		// finishes.
		n.mu.Lock()
		n.peers[r] = pc
		n.mu.Unlock()
	}
	if err := <-acceptErr; err != nil {
		return err
	}
	// Seed the per-peer clock-offset estimates with a few probe rounds now
	// that both directions of every pair are up (the pong travels on the
	// responder's own outgoing connection). Later rounds piggyback on the
	// temporal exchange, refreshing the estimate once per timestep.
	n.probeOffsets(3)
	return nil
}

// probeOffsets fires `rounds` ping frames at every peer. Replies are
// absorbed asynchronously by readLoop; a short spacing between rounds lets
// queued frames drain so at least one sample sees a quiet wire.
func (n *Node) probeOffsets(rounds int) {
	for i := 0; i < rounds; i++ {
		for r, pc := range n.peers {
			if pc == nil || r == n.cfg.Rank {
				continue
			}
			_ = pc.send(&frame{Kind: kindPing, Rank: int32(n.cfg.Rank), T1: time.Now().UnixNano()}, nil, false)
		}
		if i < rounds-1 {
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// absorbPong folds one probe reply into the peer's offset estimate:
// offset = T2 − (T1+T3)/2, the NTP midpoint, with the sample kept only if
// its RTT is at most the best seen (tighter RTT → tighter error bound).
func (n *Node) absorbPong(rank int, t1, t2 int64) {
	t3 := time.Now().UnixNano()
	rtt := t3 - t1
	if rtt < 0 || rank < 0 || rank >= len(n.offsetNanos) {
		return
	}
	off := t2 - (t1+t3)/2
	n.offMu.Lock()
	if n.offsetRTT[rank] == 0 || rtt <= n.offsetRTT[rank] {
		n.offsetRTT[rank] = rtt
		n.offsetNanos[rank] = off
	}
	n.offMu.Unlock()
}

// ClockOffsets returns the current per-rank clock-offset estimates:
// offsets[r] ≈ rank r's clock − this node's clock (self entry is 0).
func (n *Node) ClockOffsets() []time.Duration {
	out := make([]time.Duration, len(n.cfg.Addrs))
	n.offMu.Lock()
	for r, nanos := range n.offsetNanos {
		out[r] = time.Duration(nanos)
	}
	n.offMu.Unlock()
	return out
}

// OffsetToRank0 returns this node's clock minus rank 0's clock — the
// alignment term a trace merge subtracts to map local timestamps onto rank
// 0's timeline. Zero on rank 0 itself.
func (n *Node) OffsetToRank0() time.Duration {
	if n.cfg.Rank == 0 {
		return 0
	}
	n.offMu.Lock()
	off := n.offsetNanos[0]
	n.offMu.Unlock()
	return -time.Duration(off)
}

// Shard snapshots this node's trace shard: its tracer's spans and stats
// stamped with its rank and rank-0 clock alignment. Serves both the wire
// gather (GatherTraces) and the /debug/trace.shard pull endpoint.
func (n *Node) Shard() obs.TraceShard {
	return n.cfg.Tracer.Shard(n.cfg.Rank, n.OffsetToRank0())
}

// GatherTraces collects every rank's trace shard at the gather rank (rank
// 0): non-zero ranks ship their shard over the mesh and return (nil, nil);
// rank 0 blocks until all N−1 peer shards arrive (bounded by timeout,
// default 10s) and returns the full rank-ordered set, ready for
// obs.MergeTraces. Call after the last timestep, before Close.
func (n *Node) GatherTraces(timeout time.Duration) ([]obs.TraceShard, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	own := n.Shard()
	if n.cfg.Rank != 0 {
		if len(n.cfg.Addrs) == 1 {
			return nil, nil
		}
		if err := n.transmit(0, &frame{Kind: kindShard, Rank: int32(n.cfg.Rank), Shard: &own}); err != nil {
			return nil, fmt.Errorf("cluster: rank %d shipping trace shard: %w", n.cfg.Rank, err)
		}
		return nil, nil
	}
	// The wait is purely event-driven: each arriving shard broadcasts the
	// condition (readLoop's kindShard case), and the deadline timer flips
	// timedOut under the same lock and broadcasts once. No polling — a late
	// shard wakes the waiter the moment its frame lands.
	want := len(n.cfg.Addrs) - 1
	timedOut := false
	deadline := time.AfterFunc(timeout, func() {
		n.mu.Lock()
		timedOut = true
		n.cond.Broadcast()
		n.mu.Unlock()
	})
	defer deadline.Stop()
	n.mu.Lock()
	for len(n.shards) < want && n.err == nil && !timedOut {
		n.cond.Wait()
	}
	got := len(n.shards)
	out := make([]obs.TraceShard, 0, got+1)
	out = append(out, own)
	for r := 1; r < len(n.cfg.Addrs); r++ {
		if sh := n.shards[r]; sh != nil {
			out = append(out, *sh)
		}
	}
	err := n.err
	n.mu.Unlock()
	if got < want {
		if err != nil {
			return out, fmt.Errorf("cluster: trace gather got %d/%d shards: %w", got, want, err)
		}
		return out, fmt.Errorf("cluster: trace gather timed out with %d/%d shards after %v", got, want, timeout)
	}
	return out, nil
}

// readLoop consumes frames from one peer until the connection closes. gen
// identifies which inbound connection from the rank this loop serves, so a
// superseded loop's exit is not mistaken for the live link failing.
func (n *Node) readLoop(rank int, dec *gob.Decoder, conn net.Conn, gen int64) {
	defer n.readers.Done()
	for {
		var f frame
		if err := dec.Decode(&f); err == nil {
			if rank >= 0 && rank < len(n.recvFrames) {
				n.recvFrames[rank].Add(1)
			}
		} else {
			if rank >= 0 && rank < len(n.recvGen) && n.recvGen[rank].Load() != gen {
				return // a replacement connection already took over
			}
			n.readerExit(rank, err)
			return
		}
		if n.cfg.Chaos.ShouldFail(chaos.SiteWireRecv) {
			// Injected receive fault: sever the link mid-stream. The frame in
			// hand decoded cleanly and is still processed; the next Decode
			// fails and the sender must reconnect.
			conn.Close()
		}
		if n.res != nil && f.Seq != 0 && rank >= 0 && rank < len(n.maxSeq) {
			if !advanceSeq(&n.maxSeq[rank], f.Seq) {
				n.dupFrames.Add(1)
				continue // replayed duplicate: already processed
			}
		}
		switch f.Kind {
		case kindData:
			n.recordWireRecv(&f)
			n.mu.Lock()
			e := n.engine
			n.mu.Unlock()
			if e != nil {
				e.Inject(f.Step, f.Msgs)
			}
		case kindEOS:
			n.cfg.Watchdog.Arrive(f.Step, rank)
			n.mu.Lock()
			n.eos[f.Step] = append(n.eos[f.Step], f.Stats)
			n.cond.Broadcast()
			n.mu.Unlock()
		case kindTemporal:
			n.recordWireRecv(&f)
			n.mu.Lock()
			n.temporalIn[f.Step] = append(n.temporalIn[f.Step], f.Msgs...)
			n.mu.Unlock()
		case kindTEOS:
			n.mu.Lock()
			n.teos[f.Step] = append(n.teos[f.Step], [2]int{f.Votes, f.Count})
			n.cond.Broadcast()
			n.mu.Unlock()
		case kindPing:
			// Reply on our own outgoing connection to the origin — every
			// pair of ranks has both directions, so the probe's round trip
			// is origin→here on their conn, here→origin on ours. The probe
			// can outrun this node's dial loop, so read the peer under mu
			// (nil until dialed: the origin's next round will land).
			if r := int(f.Rank); r >= 0 && r < len(n.peers) {
				n.mu.Lock()
				pc := n.peers[r]
				n.mu.Unlock()
				if pc != nil {
					_ = pc.send(&frame{Kind: kindPong, Rank: int32(n.cfg.Rank), T1: f.T1, T2: time.Now().UnixNano()}, nil, false)
				}
			}
		case kindPong:
			n.absorbPong(int(f.Rank), f.T1, f.T2)
		case kindShard:
			n.mu.Lock()
			if f.Shard != nil {
				n.shards[int(f.Rank)] = f.Shard
			}
			n.cond.Broadcast()
			n.mu.Unlock()
		case kindResume:
			n.mu.Lock()
			n.resumeIn[int(f.Rank)] = f.Step
			n.cond.Broadcast()
			n.mu.Unlock()
		case kindNack:
			// The peer lost its inbound connection from us: frames we wrote
			// may be sitting in dead kernel buffers with nothing left to send
			// that would surface the failure. Re-dial and replay the ring
			// unconditionally; the peer's sequence dedup absorbs whatever did
			// arrive.
			n.nacksRecv.Add(1)
			go n.replayToPeer(int(f.Rank))
		case kindBye:
			n.mu.Lock()
			if n.byes == nil {
				n.byes = map[int]bool{}
			}
			n.byes[int(f.Rank)] = true
			n.cond.Broadcast()
			n.mu.Unlock()
		}
	}
}

// recordWireRecv logs the receive side of a stamped data/temporal frame.
// The span's id packs the *sender's* (rank, seq), matching the sender's
// SpanWireSend, and Part holds the sender rank so merged traces can label
// the edge.
func (n *Node) recordWireRecv(f *frame) {
	t := n.cfg.Tracer
	if !t.Active() || f.Seq == 0 {
		return
	}
	t.RecordSpan(obs.SpanWireRecv, f.Rank, f.TS, int32(f.Step),
		obs.PackWireID(int(f.Rank), f.Seq), time.Now(), 0)
}

// ownerOf returns the owning rank of a partition, or -1.
func (n *Node) ownerOf(pid int) int {
	if pid < 0 || pid >= len(n.cfg.Owner) {
		return -1
	}
	return int(n.cfg.Owner[pid])
}

// Send implements bsp.Remote: ship superstep messages to their owners.
func (n *Node) Send(superstep int, msgs []bsp.Message) error {
	if len(msgs) == 0 {
		return nil
	}
	byRank := map[int][]bsp.Message{}
	for _, m := range msgs {
		r := n.ownerOf(m.To.Partition())
		if r < 0 || r == n.cfg.Rank {
			continue // unowned: drop, mirroring the engine's local policy
		}
		byRank[r] = append(byRank[r], m)
	}
	for r, group := range byRank {
		if err := n.sendTraced(r, &frame{Kind: kindData, Step: superstep, Msgs: group}); err != nil {
			return err
		}
	}
	return nil
}

// sendTraced stamps a data/temporal frame with trace context (sender rank,
// current timestep), records the send span, and ships it through transmit.
// The send sequence is stamped inside the connection lock (see
// peerConn.send) so it is read back off the frame after the send.
func (n *Node) sendTraced(r int, f *frame) error {
	f.Rank = int32(n.cfg.Rank)
	f.TS = n.curTS.Load()
	t := n.cfg.Tracer
	if !t.Active() {
		return n.transmit(r, f)
	}
	start := time.Now()
	err := n.transmit(r, f)
	// Part is the destination rank; the id packs our (rank, seq) so the
	// receiver's SpanWireRecv — which packs the same pair from the frame —
	// resolves to this span in a merged trace.
	t.RecordSpan(obs.SpanWireSend, int32(r), f.TS, int32(f.Step),
		obs.PackWireID(n.cfg.Rank, f.Seq), start, time.Since(start))
	return err
}

// Barrier implements bsp.Remote: all-to-all end-of-superstep exchange.
func (n *Node) Barrier(superstep int, local bsp.BarrierStats) (bsp.BarrierStats, error) {
	wd := n.cfg.Watchdog
	wd.StepBegin(int(n.curTS.Load()), superstep)
	wd.Arrive(superstep, n.cfg.Rank)
	for r, pc := range n.peers {
		if pc == nil || r == n.cfg.Rank {
			continue
		}
		if err := n.transmit(r, &frame{Kind: kindEOS, Step: superstep, Stats: local, Rank: int32(n.cfg.Rank), TS: n.curTS.Load()}); err != nil {
			return bsp.BarrierStats{}, err
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	want := len(n.cfg.Addrs) - 1
	for len(n.eos[superstep]) < want && n.err == nil {
		n.cond.Wait()
	}
	// A peer closing its connection after sending everything we need (its
	// run completed) must not fail an exchange whose frames all arrived.
	if len(n.eos[superstep]) < want {
		return bsp.BarrierStats{}, n.err
	}
	global := local
	for _, s := range n.eos[superstep] {
		global.Sent += s.Sent
		global.AllHalted = global.AllHalted && s.AllHalted
		if s.SimMax > global.SimMax {
			global.SimMax = s.SimMax
		}
	}
	delete(n.eos, superstep)
	wd.StepEnd(superstep)
	return global, nil
}

// ExchangeTemporal implements core.Coordinator: between-timesteps routing
// of temporal messages plus global vote/message consensus.
func (n *Node) ExchangeTemporal(timestep int, outgoing []bsp.Message, haltVotes int) ([]bsp.Message, int, int, error) {
	// The exchange runs between timestep t and t+1: from here on, frames
	// (and watchdog warnings) belong to the next timestep. Refresh the
	// clock-offset estimates once per timestep while the wire is otherwise
	// quiet.
	n.curTS.Store(int32(timestep + 1))
	if len(n.cfg.Addrs) > 1 {
		n.probeOffsets(1)
	}
	var local []bsp.Message
	byRank := map[int][]bsp.Message{}
	for _, m := range outgoing {
		r := n.ownerOf(m.To.Partition())
		switch {
		case r == n.cfg.Rank:
			local = append(local, m)
		case r >= 0:
			byRank[r] = append(byRank[r], m)
		}
	}
	for r, pc := range n.peers {
		if pc == nil || r == n.cfg.Rank {
			continue
		}
		if group := byRank[r]; len(group) > 0 {
			if err := n.sendTraced(r, &frame{Kind: kindTemporal, Step: timestep, Msgs: group}); err != nil {
				return nil, 0, 0, err
			}
		}
		// The TEOS frame follows the temporal frames on the same ordered
		// connection, so its arrival implies theirs.
		if err := n.transmit(r, &frame{Kind: kindTEOS, Step: timestep, Votes: haltVotes, Count: len(outgoing), Rank: int32(n.cfg.Rank), TS: n.curTS.Load()}); err != nil {
			return nil, 0, 0, err
		}
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	want := len(n.cfg.Addrs) - 1
	for len(n.teos[timestep]) < want && n.err == nil {
		n.cond.Wait()
	}
	if len(n.teos[timestep]) < want {
		return nil, 0, 0, n.err
	}
	totalVotes, totalMsgs := haltVotes, len(outgoing)
	for _, vc := range n.teos[timestep] {
		totalVotes += vc[0]
		totalMsgs += vc[1]
	}
	incoming := append(local, n.temporalIn[timestep]...)
	delete(n.teos, timestep)
	delete(n.temporalIn, timestep)
	return incoming, totalVotes, totalMsgs, nil
}

// AgreeResume agrees a cluster-wide resume point: every rank proposes the
// latest timestep its own usable checkpoint covers (-1 for none) and all
// ranks return the minimum. The minimum is the newest state *every* rank
// still holds — ranks can be at most one timestep apart at a kill, and each
// retains its previous checkpoint (gofs keeps two), so the faster ranks can
// always step back to it. Call after Start, before core.Run.
func (n *Node) AgreeResume(local int) (int, error) {
	if len(n.cfg.Addrs) == 1 {
		return local, nil
	}
	for r, pc := range n.peers {
		if pc == nil || r == n.cfg.Rank {
			continue
		}
		if err := n.transmit(r, &frame{Kind: kindResume, Step: local, Rank: int32(n.cfg.Rank)}); err != nil {
			return 0, fmt.Errorf("cluster: rank %d resume proposal to %d: %w", n.cfg.Rank, r, err)
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	want := len(n.cfg.Addrs) - 1
	for len(n.resumeIn) < want && n.err == nil {
		n.cond.Wait()
	}
	if len(n.resumeIn) < want {
		return 0, n.err
	}
	agreed := local
	for _, ts := range n.resumeIn {
		if ts < agreed {
			agreed = ts
		}
	}
	return agreed, nil
}

// Quiesce announces that this rank's run is complete and waits — up to
// timeout — until every peer has announced the same. A process that exits
// while a peer is still mid-exchange resets connections carrying its final
// frames (close of a socket with unread inbound data discards buffered
// outbound data at the peer), so multi-process drivers call this before
// tearing down. Best-effort by design: it reports false on timeout or mesh
// error instead of failing a run that already finished.
func (n *Node) Quiesce(timeout time.Duration) bool {
	if len(n.cfg.Addrs) == 1 {
		return true
	}
	for r, pc := range n.peers {
		if pc == nil || r == n.cfg.Rank {
			continue
		}
		_ = n.transmit(r, &frame{Kind: kindBye, Rank: int32(n.cfg.Rank)})
	}
	timedOut := false
	timer := time.AfterFunc(timeout, func() {
		n.mu.Lock()
		timedOut = true
		n.cond.Broadcast()
		n.mu.Unlock()
	})
	defer timer.Stop()
	n.mu.Lock()
	defer n.mu.Unlock()
	want := len(n.cfg.Addrs) - 1
	for len(n.byes) < want && n.err == nil && !n.closed && !timedOut {
		n.cond.Wait()
	}
	return len(n.byes) >= want
}

// Close tears the mesh down.
func (n *Node) Close() error {
	n.mu.Lock()
	n.closed = true
	n.cond.Broadcast()
	n.mu.Unlock()
	var first error
	if n.ln != nil {
		if err := n.ln.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, pc := range n.peers {
		if pc == nil {
			continue
		}
		if err := pc.conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
