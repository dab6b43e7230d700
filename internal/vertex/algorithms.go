package vertex

import (
	"math"
	"sync"

	"tsgraph/internal/graph"
	"tsgraph/internal/partition"
)

// Inf is the label of an unreached vertex.
var Inf = math.Inf(1)

// ssspProgram implements vertex-centric single-source shortest path. With
// nil weights every edge costs 1 and the run degenerates to BFS, matching
// the paper's Giraph baseline ("running SSSP on an unweighted graph
// degenerates to a BFS traversal").
type ssspProgram struct {
	src     int
	weights []float64 // template edge slot -> weight; nil = unweighted

	mu   sync.Mutex
	dist []float64
}

func (p *ssspProgram) Compute(ctx *Context, u int, superstep int, msgs []float64) {
	t := ctx.Template()
	relax := func(d float64) {
		lo, hi := t.OutEdges(u)
		for e := lo; e < hi; e++ {
			w := 1.0
			if p.weights != nil {
				w = p.weights[e]
			}
			ctx.SendTo(t.Target(e), d+w)
		}
	}
	if superstep == 0 {
		if u == p.src {
			p.setDist(u, 0)
			relax(0)
		}
		ctx.VoteToHalt()
		return
	}
	best := Inf
	for _, m := range msgs {
		if m < best {
			best = m
		}
	}
	if best < p.getDist(u) {
		p.setDist(u, best)
		relax(best)
	}
	ctx.VoteToHalt()
}

// Distinct vertices own distinct dist slots, but the race detector cannot
// see that, and halted re-activation means two supersteps may touch the
// same slot; a mutex keeps the baseline simple and safely slower — which is
// faithful to the comparison (Giraph pays synchronization costs per vertex
// too).
func (p *ssspProgram) getDist(u int) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dist[u]
}

func (p *ssspProgram) setDist(u int, d float64) {
	p.mu.Lock()
	p.dist[u] = d
	p.mu.Unlock()
}

// SSSP runs vertex-centric single-source shortest path from src over the
// given edge weights (template edge-slot indexed; nil = unweighted/BFS).
// Returns per-vertex distances (Inf when unreachable).
func SSSP(t *graph.Template, a *partition.Assignment, cfg Config, src int, weights []float64) ([]float64, *Result, error) {
	if cfg.Combiner == nil {
		cfg.Combiner = math.Min
	}
	e, err := NewEngine(t, a, cfg)
	if err != nil {
		return nil, nil, err
	}
	prog := &ssspProgram{src: src, weights: weights, dist: make([]float64, t.NumVertices())}
	for i := range prog.dist {
		prog.dist[i] = Inf
	}
	res, err := e.Run(prog, nil)
	if err != nil {
		return nil, nil, err
	}
	return prog.dist, res, nil
}

// BFS runs vertex-centric breadth-first search from src and returns hop
// counts (Inf when unreachable).
func BFS(t *graph.Template, a *partition.Assignment, cfg Config, src int) ([]float64, *Result, error) {
	return SSSP(t, a, cfg, src, nil)
}
