package main

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"tsgraph/internal/algorithms"
	"tsgraph/internal/gen"
	"tsgraph/internal/graph"
	"tsgraph/internal/serve"
)

// Global, single-threaded reference implementations of the timed
// algorithms, ported from internal/algorithms/reference_test.go (test
// files are not importable). Every answer the benchmark times is checked
// against these outside the timed windows; refTDSP also serves as the
// useful-work baseline (plain time-expanded Dijkstra, no engine).

type pqItem struct {
	v int32
	d float64
}

type pq []pqItem

func (h pq) Len() int           { return len(h) }
func (h pq) Less(i, j int) bool { return h[i].d < h[j].d }
func (h pq) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *pq) Push(x any)        { *h = append(*h, x.(pqItem)) }
func (h *pq) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// refTDSP is the global discrete-time TDSP leaving src at timestep depart
// over the collection prefix [0, steps): per timestep, Dijkstra from the
// finalized set (seeded at ts·δ by the idling edges) capped at the horizon
// (ts+1)·δ, finalizing newly reached vertices. It returns arrival times
// (+Inf when unreached) and the timestep each vertex finalized in. With
// target >= 0 it stops once the target is finalized, like a served query.
func refTDSP(c *graph.Collection, src, depart, steps, target int, delta float64) ([]float64, []int) {
	g := c.Template
	n := g.NumVertices()
	final := make([]float64, n)
	finalAt := make([]int, n)
	isFinal := make([]bool, n)
	dist := make([]float64, n)
	for i := range final {
		final[i] = math.Inf(1)
		finalAt[i] = -1
	}
	for ts := depart; ts < steps; ts++ {
		horizon := float64(ts+1) * delta
		weights := c.Instance(ts).EdgeFloats(g, gen.AttrLatency)
		var h pq
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		seed := float64(ts) * delta
		if ts == depart {
			dist[src] = seed
			h = append(h, pqItem{v: int32(src), d: seed})
		}
		for v := 0; v < n; v++ {
			if isFinal[v] {
				dist[v] = seed
				h = append(h, pqItem{v: int32(v), d: seed})
			}
		}
		heap.Init(&h)
		for h.Len() > 0 {
			it := heap.Pop(&h).(pqItem)
			if it.d > dist[it.v] {
				continue
			}
			lo, hi := g.OutEdges(int(it.v))
			for e := lo; e < hi; e++ {
				nd := it.d + weights[e]
				if nd > horizon {
					continue
				}
				v := g.Target(e)
				if isFinal[v] {
					continue
				}
				if nd < dist[v] {
					dist[v] = nd
					heap.Push(&h, pqItem{v: int32(v), d: nd})
				}
			}
		}
		for v := 0; v < n; v++ {
			if !isFinal[v] && !math.IsInf(dist[v], 1) {
				isFinal[v] = true
				final[v] = dist[v]
				finalAt[v] = ts
			}
		}
		if target >= 0 && isFinal[target] {
			break
		}
	}
	return final, finalAt
}

// refMeme is the global temporal meme BFS: first-colored timestep per
// vertex, -1 if never.
func refMeme(c *graph.Collection, meme string) []int32 {
	g := c.Template
	n := g.NumVertices()
	coloredAt := make([]int32, n)
	colored := make([]bool, n)
	for i := range coloredAt {
		coloredAt[i] = -1
	}
	for ts := 0; ts < c.NumInstances(); ts++ {
		lists := c.Instance(ts).VertexStringLists(g, gen.AttrTweets)
		carrier := func(v int) bool {
			for _, tag := range lists[v] {
				if tag == meme {
					return true
				}
			}
			return false
		}
		var queue []int32
		for v := 0; v < n; v++ {
			if ts == 0 && carrier(v) {
				colored[v] = true
				coloredAt[v] = 0
			}
			if colored[v] {
				queue = append(queue, int32(v))
			}
		}
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			lo, hi := g.OutEdges(int(u))
			for e := lo; e < hi; e++ {
				w := g.Target(e)
				if colored[w] || !carrier(w) {
					continue
				}
				colored[w] = true
				coloredAt[w] = int32(ts)
				queue = append(queue, int32(w))
			}
		}
	}
	return coloredAt
}

// refHashtagCounts counts a hashtag per timestep over all vertices.
func refHashtagCounts(c *graph.Collection, hashtag string) []int64 {
	g := c.Template
	out := make([]int64, c.NumInstances())
	for ts := range out {
		for _, tags := range c.Instance(ts).VertexStringLists(g, gen.AttrTweets) {
			for _, tag := range tags {
				if tag == hashtag {
					out[ts]++
				}
			}
		}
	}
	return out
}

// refTopN ranks one timestep's vertices by the load attribute under the
// engine's comparator: value descending, vertex id ascending.
func refTopN(c *graph.Collection, ts, n int) []serve.RankEntry {
	g := c.Template
	vals := c.Instance(ts).VertexFloats(g, gen.AttrLoad)
	all := make([]serve.RankEntry, len(vals))
	for v, x := range vals {
		all[v] = serve.RankEntry{Vertex: int64(g.VertexID(v)), Value: x}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Value != all[j].Value {
			return all[i].Value > all[j].Value
		}
		return all[i].Vertex < all[j].Vertex
	})
	if len(all) > n {
		all = all[:n]
	}
	return all
}

const arrivalTol = 1e-9

// checkArrivals compares a full TDSP arrival array with the oracle's.
func checkArrivals(got, want []float64) error {
	for v := range want {
		if math.IsInf(want[v], 1) != math.IsInf(got[v], 1) {
			return fmt.Errorf("vertex %d: reached mismatch: got %v, oracle %v", v, got[v], want[v])
		}
		if !math.IsInf(want[v], 1) && math.Abs(got[v]-want[v]) > arrivalTol {
			return fmt.Errorf("vertex %d: arrival %v, oracle %v", v, got[v], want[v])
		}
	}
	return nil
}

// checkMeme compares a coloring with the oracle's.
func checkMeme(got, want []int32) error {
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("vertex %d: colored at %d, oracle %d", v, got[v], want[v])
		}
	}
	return nil
}

// checkHashtag compares merged hashtag statistics with the oracle counts.
func checkHashtag(got *algorithms.HashtagStats, want []int64) error {
	if len(got.Counts) != len(want) {
		return fmt.Errorf("hashtag: %d per-timestep counts, oracle %d", len(got.Counts), len(want))
	}
	for ts := range want {
		if got.Counts[ts] != want[ts] {
			return fmt.Errorf("hashtag timestep %d: count %d, oracle %d", ts, got.Counts[ts], want[ts])
		}
	}
	return nil
}

// checkAnswer verifies one served answer against the in-memory collection
// over the prefix the answer says it was computed on.
func checkAnswer(c *graph.Collection, delta float64, q serve.Query, a *serve.Answer) error {
	if a == nil {
		return fmt.Errorf("no answer")
	}
	g := c.Template
	switch q.Kind {
	case "tdsp":
		if a.TDSP == nil {
			return fmt.Errorf("tdsp query answered without tdsp payload")
		}
		src, dst := g.VertexIndex(graph.VertexID(q.Source)), g.VertexIndex(graph.VertexID(q.Target))
		arr, at := refTDSP(c, src, q.Depart, a.Watermark, dst, delta)
		reached := !math.IsInf(arr[dst], 1)
		if a.TDSP.Reached != reached {
			return fmt.Errorf("tdsp %d->%d@%d: reached %v, oracle %v", q.Source, q.Target, q.Depart, a.TDSP.Reached, reached)
		}
		if reached && (math.Abs(a.TDSP.Arrival-arr[dst]) > arrivalTol || a.TDSP.Timestep != at[dst]) {
			return fmt.Errorf("tdsp %d->%d@%d: arrival %v at %d, oracle %v at %d",
				q.Source, q.Target, q.Depart, a.TDSP.Arrival, a.TDSP.Timestep, arr[dst], at[dst])
		}
	case "topn":
		if a.TopN == nil {
			return fmt.Errorf("topn query answered without topn payload")
		}
		for i, step := range a.TopN.Steps {
			want := refTopN(c, q.From+i, q.N)
			if len(step) != len(want) {
				return fmt.Errorf("topn timestep %d: %d entries, oracle %d", q.From+i, len(step), len(want))
			}
			for j := range want {
				if step[j] != want[j] {
					return fmt.Errorf("topn timestep %d rank %d: %+v, oracle %+v", q.From+i, j, step[j], want[j])
				}
			}
		}
	default:
		return fmt.Errorf("oracle has no check for kind %q", q.Kind)
	}
	return nil
}
