package cluster

import (
	"io"
	"strconv"
	"sync/atomic"
	"time"

	"tsgraph/internal/obs"
)

// PeerWireStats snapshots one peer link's wire counters: traffic this node
// sent to the peer (with the cumulative flush latency — time spent encoding
// and writing frames, including send-lock contention) and traffic received
// from it. Flush latency is the distributed analogue of the engine's
// simulated flush phase: it is where cross-host "partition overhead"
// actually materializes.
type PeerWireStats struct {
	Peer       int
	FramesSent int64
	BytesSent  int64
	FlushTime  time.Duration
	FramesRecv int64
	BytesRecv  int64
}

// countingWriter counts bytes written through it (the outgoing side of a
// peer connection, counted under the peerConn send lock).
type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// countingReader counts bytes read through it (the incoming side; wrapped
// before the gob decoder so handshake and frame bytes are both counted).
type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// WireStats returns a per-rank snapshot of the node's wire counters. Entry
// r covers the link to/from rank r; the self entry is zero.
func (n *Node) WireStats() []PeerWireStats {
	out := make([]PeerWireStats, len(n.cfg.Addrs))
	for r := range out {
		out[r].Peer = r
		if pc := n.peers[r]; pc != nil {
			out[r].FramesSent = pc.framesSent.Load()
			out[r].BytesSent = pc.bytesSent.Load()
			out[r].FlushTime = time.Duration(pc.flushNanos.Load())
		}
		out[r].FramesRecv = n.recvFrames[r].Load()
		if cr := n.recvReaders[r].Load(); cr != nil {
			out[r].BytesRecv = cr.n.Load()
		}
	}
	return out
}

// CollectObs implements obs.Collector, exporting the per-peer wire counters
// and the transport's recovery counters for /metrics scrapes. The self rank
// is skipped (no link to count). Samples carry both a rank (this node) and
// peer label so several in-process nodes can share one registry, as the
// loopback smoke experiment does.
func (n *Node) CollectObs(emit func(obs.Sample)) {
	rank := strconv.Itoa(n.cfg.Rank)
	for _, ws := range n.WireStats() {
		if ws.Peer == n.cfg.Rank {
			continue
		}
		labels := []obs.Label{{Key: "rank", Value: rank}, {Key: "peer", Value: strconv.Itoa(ws.Peer)}}
		emit(obs.Sample{Name: "tsgraph_wire_frames_sent_total", Help: "Frames sent to each peer rank.", Kind: "counter", Labels: labels, Value: float64(ws.FramesSent)})
		emit(obs.Sample{Name: "tsgraph_wire_bytes_sent_total", Help: "Bytes sent to each peer rank (gob-encoded frames).", Kind: "counter", Labels: labels, Value: float64(ws.BytesSent)})
		emit(obs.Sample{Name: "tsgraph_wire_bytes_recv_total", Help: "Bytes received from each peer rank.", Kind: "counter", Labels: labels, Value: float64(ws.BytesRecv)})
	}
	// When a shard rank dies under load, these counters are how the
	// failover shows up on /metrics (reconnects, resend-ring replays, nack
	// traffic).
	rankOnly := []obs.Label{{Key: "rank", Value: rank}}
	rc := n.Recovery()
	emit(obs.Sample{Name: "tscluster_retries_total", Help: "Cluster transport sends retried after a wire failure.", Kind: "counter", Labels: rankOnly, Value: float64(rc.Retries)})
	emit(obs.Sample{Name: "tscluster_reconnects_total", Help: "Cluster peer connections re-established after a failure.", Kind: "counter", Labels: rankOnly, Value: float64(rc.Reconnects)})
	emit(obs.Sample{Name: "tscluster_replayed_frames_total", Help: "Frames replayed from the resend ring during reconnects.", Kind: "counter", Labels: rankOnly, Value: float64(rc.ReplayedFrames)})
	emit(obs.Sample{Name: "tscluster_nacks_sent_total", Help: "Inbound-loss notices sent asking a peer to re-dial and replay.", Kind: "counter", Labels: rankOnly, Value: float64(rc.NacksSent)})
	emit(obs.Sample{Name: "tscluster_nacks_received_total", Help: "Inbound-loss notices received from peers that lost our frames.", Kind: "counter", Labels: rankOnly, Value: float64(rc.NacksRecv)})
	emit(obs.Sample{Name: "tscluster_dup_frames_total", Help: "Replayed duplicate frames discarded by receive-side dedup.", Kind: "counter", Labels: rankOnly, Value: float64(rc.DupFrames)})
	emit(obs.Sample{Name: "tscluster_recoveries_total", Help: "Inbound peer connections that went down and came back.", Kind: "counter", Labels: rankOnly, Value: float64(rc.Recoveries)})
	emit(obs.Sample{Name: "tscluster_down_seconds_total", Help: "Cumulative time inbound peer connections spent down before recovering.", Kind: "counter", Labels: rankOnly, Value: rc.DownTime.Seconds()})
}
