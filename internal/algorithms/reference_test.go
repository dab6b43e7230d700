package algorithms

import "tsgraph/internal/graph"

// Reference (global, non-distributed) implementations of the paper's
// algorithms, used to validate the distributed TI-BSP versions.

// refDijkstra is plain Dijkstra over the template with per-edge-slot
// weights (nil = unweighted).
func refDijkstra(g *graph.Template, src int, weights []float64) []float64 {
	dist := make([]float64, g.NumVertices())
	for i := range dist {
		dist[i] = Inf
	}
	if src < 0 || src >= g.NumVertices() {
		return dist
	}
	dist[src] = 0
	h := pq{{v: int32(src), d: 0}}
	for len(h) > 0 {
		it := h.pop()
		if it.d > dist[it.v] {
			continue
		}
		lo, hi := g.OutEdges(int(it.v))
		for e := lo; e < hi; e++ {
			w := 1.0
			if weights != nil {
				w = weights[e]
			}
			nd := it.d + w
			v := g.Target(e)
			if nd < dist[v] {
				dist[v] = nd
				h.push(pqItem{v: int32(v), d: nd})
			}
		}
	}
	return dist
}

// refTDSP is the global discrete-time TDSP leaving src at timestep depart:
// per timestep, Dijkstra from the finalized set (seeded at ts·δ by the
// idling edges) capped at the horizon (ts+1)·δ, finalizing newly reached
// vertices. It returns arrival times (Inf when unreached) and the timestep
// each vertex finalized in (-1 when unreached).
func refTDSP(c *graph.Collection, src, depart int, attr string, delta float64) ([]float64, []int) {
	g := c.Template
	n := g.NumVertices()
	final := make([]float64, n)
	finalAt := make([]int, n)
	isFinal := make([]bool, n)
	for i := range final {
		final[i] = Inf
		finalAt[i] = -1
	}
	dist := make([]float64, n)
	for ts := depart; ts < c.NumInstances(); ts++ {
		horizon := float64(ts+1) * delta
		weights := c.Instance(ts).EdgeFloats(g, attr)
		var h pq
		for i := range dist {
			dist[i] = Inf
		}
		seed := float64(ts) * delta
		if ts == depart && src >= 0 && src < n {
			dist[src] = seed
			h = append(h, pqItem{v: int32(src), d: seed})
		}
		for v := 0; v < n; v++ {
			if isFinal[v] {
				dist[v] = seed
				h = append(h, pqItem{v: int32(v), d: seed})
			}
		}
		h.init()
		for len(h) > 0 {
			it := h.pop()
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
					h.push(pqItem{v: int32(v), d: nd})
				}
			}
		}
		for v := 0; v < n; v++ {
			if !isFinal[v] && dist[v] != Inf {
				isFinal[v] = true
				final[v] = dist[v]
				finalAt[v] = ts
			}
		}
	}
	return final, finalAt
}

// refMeme is the global temporal meme BFS: first-colored timestep per
// vertex, -1 if never.
func refMeme(c *graph.Collection, meme, attr string) []int32 {
	g := c.Template
	n := g.NumVertices()
	coloredAt := make([]int32, n)
	colored := make([]bool, n)
	for i := range coloredAt {
		coloredAt[i] = -1
	}
	carrier := func(ts, v int) bool {
		for _, tag := range c.Instance(ts).VertexStringLists(g, attr)[v] {
			if tag == meme {
				return true
			}
		}
		return false
	}
	for ts := 0; ts < c.NumInstances(); ts++ {
		var queue []int32
		if ts == 0 {
			for v := 0; v < n; v++ {
				if carrier(ts, v) {
					colored[v] = true
					coloredAt[v] = 0
					queue = append(queue, int32(v))
				}
			}
		} else {
			for v := 0; v < n; v++ {
				if colored[v] {
					queue = append(queue, int32(v))
				}
			}
		}
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			lo, hi := g.OutEdges(int(u))
			for e := lo; e < hi; e++ {
				w := g.Target(e)
				if colored[w] || !carrier(ts, w) {
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
func refHashtagCounts(c *graph.Collection, hashtag, attr string) []int64 {
	g := c.Template
	out := make([]int64, c.NumInstances())
	for ts := 0; ts < c.NumInstances(); ts++ {
		lists := c.Instance(ts).VertexStringLists(g, attr)
		for _, tags := range lists {
			for _, tag := range tags {
				if tag == hashtag {
					out[ts]++
				}
			}
		}
	}
	return out
}
