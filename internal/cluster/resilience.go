package cluster

import (
	"encoding/gob"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"tsgraph/internal/chaos"
)

// Resilience configures the transport's fault tolerance. When a Config
// carries a non-nil Resilience, frame sends that fail are retried with
// exponential backoff: the sender re-dials the peer, replays the tail of its
// traffic from a bounded per-peer resend buffer, and the receiver discards
// the replayed frames it already processed (every buffered frame carries a
// logical send sequence; a frame at or below the peer's high-water mark is a
// duplicate). A nil Resilience is the legacy fail-fast transport: the first
// wire error is fatal to the run. Resilience changes the handshake (the
// acceptor acks with its receive high-water mark), so all ranks of a mesh
// must enable it together or not at all.
type Resilience struct {
	// MaxRetries bounds the reconnect attempts per failed send. <=0 means 8.
	MaxRetries int
	// BackoffBase is the first retry delay; successive delays double up to
	// BackoffCap, each randomized by equal jitter (see Backoff). <=0 means
	// 10ms base, 2s cap.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// ResendBuffer is the per-peer resend ring depth in frames. A peer that
	// reconnects after falling further behind than this cannot be caught up.
	// <=0 means 512.
	ResendBuffer int
	// RecoveryWindow bounds how long a lost inbound connection may stay down
	// before the run fails: within the window the rank is reported as
	// recovering (its re-dial is expected); past it the loss is fatal. <=0
	// means 30s.
	RecoveryWindow time.Duration
	// JitterSeed seeds the backoff jitter stream. 0 means derive from the
	// node's rank, so simultaneously failing ranks never share a schedule.
	JitterSeed int64
}

// withDefaults returns a copy with zero fields filled in.
func (r *Resilience) withDefaults(rank int) *Resilience {
	if r == nil {
		return nil
	}
	out := *r
	if out.MaxRetries <= 0 {
		out.MaxRetries = 8
	}
	if out.BackoffBase <= 0 {
		out.BackoffBase = 10 * time.Millisecond
	}
	if out.BackoffCap <= 0 {
		out.BackoffCap = 2 * time.Second
	}
	if out.ResendBuffer <= 0 {
		out.ResendBuffer = 512
	}
	if out.RecoveryWindow <= 0 {
		out.RecoveryWindow = 30 * time.Second
	}
	if out.JitterSeed == 0 {
		out.JitterSeed = int64(rank + 1)
	}
	return &out
}

// Backoff produces a retry delay schedule: exponential doubling from Base,
// capped at Cap, with equal jitter — delay n is uniform in [d/2, d] where
// d = min(Cap, Base·2ⁿ) — so ranks that fail together do not re-dial in
// lockstep. Reset restarts the schedule after a success.
type Backoff struct {
	Base, Cap time.Duration

	rng     *rand.Rand
	attempt int
}

// NewBackoff creates a schedule with a seeded jitter stream (deterministic
// for tests; production seeds by rank).
func NewBackoff(base, cap time.Duration, seed int64) *Backoff {
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if cap < base {
		cap = base
	}
	return &Backoff{Base: base, Cap: cap, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next delay in the schedule.
func (b *Backoff) Next() time.Duration {
	d := b.Base
	for i := 0; i < b.attempt && d < b.Cap; i++ {
		d *= 2
	}
	if d > b.Cap {
		d = b.Cap
	}
	b.attempt++
	half := d / 2
	return half + time.Duration(b.rng.Int63n(int64(half)+1))
}

// Reset restarts the schedule, as after a successful send: the next failure
// backs off from Base again rather than from where the last incident left
// off.
func (b *Backoff) Reset() { b.attempt = 0 }

// Attempt returns how many delays have been handed out since the last Reset.
func (b *Backoff) Attempt() int { return b.attempt }

// bufferedKind reports whether a frame kind rides the resend buffer. Clock
// probes are the exception: they are periodic and self-correcting, so a lost
// ping or pong costs one sample, not correctness.
func bufferedKind(k uint8) bool { return k != kindPing && k != kindPong }

// chaosSite maps a frame kind to its injection site: barrier traffic (EOS
// and TEOS consensus frames) has its own site so chaos specs can target the
// synchronization protocol separately from bulk data.
func chaosSite(k uint8) string {
	if k == kindEOS || k == kindTEOS {
		return chaos.SiteBarrierEOS
	}
	return chaos.SiteWireSend
}

// transmit ships one frame to rank r. It is the single choke point for all
// reliable frame traffic: it arms the wire.send/barrier.eos failpoints, and
// — when resilience is enabled — retries a failed send by reconnecting with
// backoff and replaying the resend buffer. With resilience disabled it is a
// plain send whose first error is the caller's to surface (fail-fast).
func (n *Node) transmit(r int, f *frame) error {
	pc := n.peers[r]
	if pc == nil {
		return fmt.Errorf("cluster: rank %d has no connection to rank %d", n.cfg.Rank, r)
	}
	if n.cfg.Chaos.ShouldFail(chaosSite(f.Kind)) {
		// An injected send fault severs the link rather than fabricating an
		// error, so the send below fails the way a real network fault does
		// and recovery exercises the genuine reconnect machinery.
		pc.sever()
	}
	var seq *atomic.Int64
	if n.res != nil || n.cfg.Tracer.Active() {
		seq = &n.sendSeq
	}
	err := pc.send(f, seq, n.res != nil)
	if err == nil || n.res == nil {
		return err
	}

	// The frame is already in the resend ring (send buffers before it
	// encodes), so a successful reconnect's replay delivers it — along with
	// every other frame the dead connection may have swallowed.
	bo := NewBackoff(n.res.BackoffBase, n.res.BackoffCap, n.res.JitterSeed+int64(r))
	gen := pc.gen.Load()
	for attempt := 0; attempt < n.res.MaxRetries; attempt++ {
		if n.isClosed() {
			return err
		}
		n.retriesTotal.Add(1)
		time.Sleep(bo.Next())
		if e := n.reconnect(r, pc, gen); e != nil {
			err = e
			gen = pc.gen.Load()
			continue
		}
		return nil
	}
	return fmt.Errorf("cluster: rank %d -> %d: %d reconnect attempts exhausted: %w", n.cfg.Rank, r, n.res.MaxRetries, err)
}

// reconnect re-establishes the outgoing connection to rank r and replays
// the unacknowledged tail of the resend ring on it. failedGen is the
// connection generation the caller observed when its send failed: if another
// sender already reconnected (generation moved on), the link is healthy and
// the caller's frame went out with that replay — nothing to do.
//
// The handshake ack is what makes recovery converge under sustained faults:
// the acceptor reports its receive high-water mark, every ring frame at or
// below it is dropped (the receiver provably processed it — frames arrive in
// seq order, so its received set is always a prefix of ours), and the replay
// carries only the missing tail. Without the ack each replay resends the
// whole ring, and at a high per-frame fault rate a long replay almost never
// survives intact, however often it is retried.
func (n *Node) reconnect(r int, pc *peerConn, failedGen int64) error {
	pc.reMu.Lock()
	defer pc.reMu.Unlock()
	if pc.gen.Load() != failedGen {
		return nil
	}
	conn, err := net.DialTimeout("tcp", n.cfg.Addrs[r], 2*time.Second)
	if err != nil {
		return err
	}
	enc := gob.NewEncoder(&countingWriter{w: conn, n: &pc.bytesSent})
	if err := enc.Encode(n.cfg.Rank); err != nil {
		conn.Close()
		return err
	}
	var peerMax int64
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if err := gob.NewDecoder(conn).Decode(&peerMax); err != nil {
		conn.Close()
		return err
	}
	conn.SetReadDeadline(time.Time{})
	pc.mu.Lock()
	old := pc.conn
	pc.conn, pc.enc = conn, enc
	for pc.count > 0 && pc.ring[pc.start].Seq <= peerMax {
		pc.start = (pc.start + 1) % len(pc.ring)
		pc.count--
	}
	var replayErr error
	for i := 0; i < pc.count; i++ {
		if err := enc.Encode(&pc.ring[(pc.start+i)%len(pc.ring)]); err != nil {
			replayErr = err
			break
		}
		pc.framesSent.Add(1)
		n.replayedFrames.Add(1)
	}
	pc.mu.Unlock()
	if old != nil {
		old.Close()
	}
	if replayErr != nil {
		return replayErr
	}
	pc.gen.Add(1)
	n.reconnectsTotal.Add(1)
	return nil
}

// readerExit handles a read loop's termination. Without resilience the first
// inbound failure is fatal (legacy fail-fast). With it, the peer is expected
// to re-dial: the rank is marked recovering — the watchdog reports it as
// such instead of stalled — and only if no replacement connection lands
// within RecoveryWindow does the loss become fatal.
func (n *Node) readerExit(rank int, err error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	if n.res == nil {
		if n.err == nil {
			n.err = fmt.Errorf("cluster: rank %d reading from %d: %w", n.cfg.Rank, rank, err)
		}
		n.cond.Broadcast()
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	if rank < 0 || rank >= len(n.downSince) {
		return
	}
	if !n.downSince[rank].CompareAndSwap(0, time.Now().UnixNano()) {
		return // an earlier exit already opened the recovery window
	}
	n.cfg.Watchdog.SetRecovering(rank, true)
	// A write into a connection that died on our end can "succeed" into a
	// dead kernel buffer; if the sender has nothing further to say to us it
	// would never notice. Tell it over our own outgoing link (the directions
	// are independent connections) to re-dial and replay. Best-effort: the
	// recovery window above is the backstop when the peer is truly gone.
	go func() {
		n.nacksSent.Add(1)
		_ = n.transmit(rank, &frame{Kind: kindNack, Rank: int32(n.cfg.Rank)})
	}()
	window := n.res.RecoveryWindow
	time.AfterFunc(window, func() {
		since := n.downSince[rank].Load()
		if since == 0 || time.Since(time.Unix(0, since)) < window {
			return // recovered (or a newer incident owns the window)
		}
		n.mu.Lock()
		if !n.closed && n.err == nil {
			n.err = fmt.Errorf("cluster: rank %d lost connection from rank %d and it did not recover within %v", n.cfg.Rank, rank, window)
		}
		n.cond.Broadcast()
		n.mu.Unlock()
	})
}

// replayToPeer handles an inbound kindNack: rank r lost the connection this
// node sends on, so frames may be lost in transit with no failed write to
// betray them. Re-dial and replay the resend ring, retrying with backoff;
// the receiver's dedup drops everything it already had. A concurrent
// transmit-driven reconnect advances the generation and makes this a no-op.
func (n *Node) replayToPeer(r int) {
	if n.res == nil || r < 0 || r >= len(n.peers) || r == n.cfg.Rank {
		return
	}
	pc := n.peers[r]
	if pc == nil {
		return
	}
	bo := NewBackoff(n.res.BackoffBase, n.res.BackoffCap, n.res.JitterSeed+int64(r)+1)
	gen := pc.gen.Load()
	for attempt := 0; attempt < n.res.MaxRetries; attempt++ {
		if n.isClosed() {
			return
		}
		if err := n.reconnect(r, pc, gen); err == nil {
			return
		}
		gen = pc.gen.Load()
		time.Sleep(bo.Next())
	}
}

// peerReturned clears a rank's recovery state when a replacement inbound
// connection lands, crediting the outage duration to the recovery metrics.
func (n *Node) peerReturned(rank int) {
	if since := n.downSince[rank].Swap(0); since != 0 {
		n.recoveryNanos.Add(time.Now().UnixNano() - since)
		n.recoveries.Add(1)
		n.cfg.Watchdog.SetRecovering(rank, false)
	}
}

// advanceSeq advances a rank's receive high-water mark to seq, reporting
// false when seq is at or below it — a replayed duplicate to discard.
func advanceSeq(max *atomic.Int64, seq int64) bool {
	for {
		cur := max.Load()
		if seq <= cur {
			return false
		}
		if max.CompareAndSwap(cur, seq) {
			return true
		}
	}
}

func (n *Node) isClosed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

// RecoveryCounters is the transport's fault-handling counter snapshot:
// send retries, successful reconnects, inbound duplicate frames discarded
// by the replay dedup, resend-ring replays, nack traffic (a nack tells a
// sender its frames may sit in dead kernel buffers), completed recovery
// incidents, and the total time spent with a peer down.
type RecoveryCounters struct {
	Retries        int64
	Reconnects     int64
	DupFrames      int64
	ReplayedFrames int64
	NacksSent      int64
	NacksRecv      int64
	Recoveries     int64
	DownTime       time.Duration
}

// Recovery snapshots every fault-handling counter.
func (n *Node) Recovery() RecoveryCounters {
	return RecoveryCounters{
		Retries:        n.retriesTotal.Load(),
		Reconnects:     n.reconnectsTotal.Load(),
		DupFrames:      n.dupFrames.Load(),
		ReplayedFrames: n.replayedFrames.Load(),
		NacksSent:      n.nacksSent.Load(),
		NacksRecv:      n.nacksRecv.Load(),
		Recoveries:     n.recoveries.Load(),
		DownTime:       time.Duration(n.recoveryNanos.Load()),
	}
}
