// Package algorithms implements the paper's three time-series graph
// algorithms on the TI-BSP abstraction — Time-Dependent Shortest Path
// (Alg 2), Meme Tracking (Alg 1) and Hashtag Aggregation (§III-A) — plus
// single-instance subgraph-centric SSSP/BFS used as a baseline and
// building block, and the independent-pattern TopN.
package algorithms

import (
	"encoding/gob"
	"math"
	"sort"

	"tsgraph/internal/subgraph"
)

// skipEdge is the weight an edge-weight function returns for an edge that
// does not exist in the current instance (the paper's isExists attribute);
// traversals skip such edges entirely.
var skipEdge = math.Inf(1)

// Inf labels an unreached vertex.
var Inf = math.Inf(1)

// LabelBatch carries tentative labels for vertices of the destination
// subgraph's partition, identified by partition-local index. It is the
// boundary-update payload of SSSP-style traversals.
type LabelBatch struct {
	Vertices []int32
	Labels   []float64
}

// VertexSet carries partition-local vertex indices of the destination
// subgraph's partition (meme notifications, colored sets).
type VertexSet struct {
	Vertices []int32
}

// StepCount is one timestep's statistic from one subgraph (hashtag
// aggregation merge messages).
type StepCount struct {
	Timestep int32
	Count    int64
}

// CountVector is a per-timestep count array exchanged during Merge.
type CountVector struct {
	Counts []int64
}

// registerPayload makes a payload type transportable over the gob-framed
// TCP transport.
func registerPayload(v any) { gob.Register(v) }

func init() {
	registerPayload(LabelBatch{})
	registerPayload(VertexSet{})
	registerPayload(StepCount{})
	registerPayload(CountVector{})
	// Output records ride inside timestep-boundary checkpoints (gob-encoded
	// core.Output.Data), so result types register too.
	registerPayload(TDSPResult{})
	registerPayload(MemeResult{})
}

// maxPID returns 1 + the largest partition id in parts, so per-partition
// state arrays stay PID-indexed even when a host owns only a subset of the
// partitions (distributed runs).
func maxPID(parts []*subgraph.PartitionData) int {
	m := 0
	for _, pd := range parts {
		if pd.PID+1 > m {
			m = pd.PID + 1
		}
	}
	return m
}

// masterSubgraph picks the paper's aggregation target: the largest subgraph
// in the first partition (ties broken by lowest index), mimicking
// Master.Compute in vertex-centric frameworks.
func masterSubgraph(parts []*subgraph.PartitionData) subgraph.ID {
	best := subgraph.MakeID(0, 0)
	bestSize := -1
	if len(parts) == 0 {
		return best
	}
	for i, sg := range parts[0].Subgraphs {
		if sg.NumVertices() > bestSize {
			bestSize = sg.NumVertices()
			best = subgraph.MakeID(0, i)
		}
	}
	return best
}

// pqItem is one entry of the in-subgraph Dijkstra heap.
type pqItem struct {
	v int32 // partition-local vertex index
	d float64
}

// pq is the binary min-heap of in-subgraph Dijkstra. init, push and pop
// sift exactly as container/heap does (strict <, the same swaps), so items
// pop in the same order, without boxing each one in an interface.
type pq []pqItem

func (h pq) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h *pq) push(it pqItem) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

func (h *pq) pop() pqItem {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	*h = old[:n]
	return old[n]
}

func (h pq) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].d < h[i].d) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h pq) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].d < h[j1].d {
			j = j2 // right child
		}
		if !(h[j].d < h[i].d) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// remoteKey identifies a remote target vertex by (partition, local index).
type remoteKey struct {
	part  int32
	local int32
}

// remoteCand is the best candidate label found for a remote vertex plus its
// subgraph, accumulated during one local Dijkstra.
type remoteCand struct {
	label float64
	sgIdx int32
}

// modifiedSSSP runs Dijkstra inside one subgraph from the given roots,
// settling only labels ≤ horizon (the paper's ModifiedSSSP). labels is the
// partition-local label array shared by the partition's subgraphs (each
// touches only its own vertices); final vertices are never relaxed.
// It returns the best candidate label per remote neighbor vertex (nil when
// there is none). If reached is non-nil, every local vertex whose label
// goes from ∞ to finite is appended to it.
//
// weight(e) returns the travel time of partition-local edge slot e.
func modifiedSSSP(
	sg *subgraph.Subgraph,
	labels []float64,
	final []bool,
	roots []int32,
	horizon float64,
	weight func(localEdge int) float64,
	reached *[]int32,
) map[remoteKey]remoteCand {
	pd := sg.Part
	h := make(pq, 0, len(roots))
	for _, r := range roots {
		h = append(h, pqItem{v: r, d: labels[r]})
	}
	h.init()
	var remote map[remoteKey]remoteCand
	for len(h) > 0 {
		it := h.pop()
		if it.d > labels[it.v] {
			continue // stale entry
		}
		lo, hi := pd.OutEdges(int(it.v))
		for e := lo; e < hi; e++ {
			w := weight(e)
			if math.IsInf(w, 1) {
				continue // edge absent in this instance (isExists=false)
			}
			nd := it.d + w
			if nd > horizon {
				continue
			}
			if isRemote, ri := pd.IsRemote(e); isRemote {
				re := &pd.Remote[ri]
				key := remoteKey{part: re.TargetPartition, local: re.TargetLocal}
				if remote == nil {
					remote = make(map[remoteKey]remoteCand)
				}
				if cur, ok := remote[key]; !ok || nd < cur.label {
					remote[key] = remoteCand{label: nd, sgIdx: re.TargetSubgraph}
				}
				continue
			}
			tgt := pd.Targets[e]
			if final != nil && final[tgt] {
				continue // finalized TDSP values are immutable
			}
			if nd < labels[tgt] {
				if reached != nil && labels[tgt] == Inf {
					*reached = append(*reached, tgt)
				}
				labels[tgt] = nd
				h.push(pqItem{v: tgt, d: nd})
			}
		}
	}
	return remote
}

// forEachBatch groups the remote candidates of one local Dijkstra into one
// LabelBatch per destination subgraph and hands them to fn in deterministic
// order (sorted destinations, sorted vertices within each batch).
func forEachBatch(remote map[remoteKey]remoteCand, fn func(dst subgraph.ID, b LabelBatch)) {
	type cand struct {
		dst   subgraph.ID
		lv    int32
		label float64
	}
	cands := make([]cand, 0, len(remote))
	for key, c := range remote {
		cands = append(cands, cand{subgraph.MakeID(int(key.part), int(c.sgIdx)), key.local, c.label})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dst != cands[j].dst {
			return cands[i].dst < cands[j].dst
		}
		return cands[i].lv < cands[j].lv
	})
	for lo := 0; lo < len(cands); {
		hi := lo
		for hi < len(cands) && cands[hi].dst == cands[lo].dst {
			hi++
		}
		b := LabelBatch{Vertices: make([]int32, hi-lo), Labels: make([]float64, hi-lo)}
		for i, c := range cands[lo:hi] {
			b.Vertices[i], b.Labels[i] = c.lv, c.label
		}
		fn(cands[lo].dst, b)
		lo = hi
	}
}
