package algorithms

import (
	"fmt"

	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/graph"
	"tsgraph/internal/subgraph"
)

// SSSPProgram is the subgraph-centric single-source shortest path of the
// GoFFish model: each superstep runs Dijkstra inside every active subgraph
// and exchanges boundary labels with neighboring subgraphs. On a single
// instance it is the paper's "GoFFish SSSP" baseline (Fig 5b); with nil
// weights it degenerates to BFS. Over subgraph.Singletons it is Pregel SSSP
// with a min combiner, Fig 5b's vertex-centric row.
type SSSPProgram struct {
	// Source is the template vertex index of the source.
	Source int
	// WeightAttr names the float edge attribute holding travel times;
	// empty means unweighted (BFS).
	WeightAttr string
	// ExistsAttr optionally names a bool edge attribute (the paper's
	// isExists); edges with a false value in the current instance are
	// skipped, capturing slow topology change.
	ExistsAttr string

	// labels[p][lv] is the tentative distance of partition p's local
	// vertex lv. Written only by the owning subgraph's Compute.
	labels [][]float64
}

// NewSSSP builds an SSSP program over partitioned data.
func NewSSSP(parts []*subgraph.PartitionData, source int, weightAttr string) *SSSPProgram {
	p := &SSSPProgram{Source: source, WeightAttr: weightAttr}
	p.labels = make([][]float64, maxPID(parts))
	for _, pd := range parts {
		p.labels[pd.PID] = make([]float64, pd.NumVertices())
	}
	return p
}

// weightFn builds the local-edge weight function for the current instance,
// honoring the optional isExists attribute.
func (p *SSSPProgram) weightFn(ctx *core.Context, sg *subgraph.Subgraph) func(int) float64 {
	if p.WeightAttr != "" {
		return edgeWeightFn(ctx, sg, p.WeightAttr, p.ExistsAttr)
	}
	eg := sg.Part.EdgeGlobal
	exists := existsFn(ctx, p.ExistsAttr)
	return func(e int) float64 {
		if !exists(int(eg[e])) {
			return skipEdge
		}
		return 1
	}
}

// existsFn resolves the optional isExists bool edge column of the current
// instance into a predicate over template edge slots.
func existsFn(ctx *core.Context, attr string) func(int) bool {
	if attr == "" {
		return func(int) bool { return true }
	}
	t := ctx.Template()
	i := t.EdgeSchema().Index(attr)
	if i < 0 || t.EdgeSchema().Type(i) != graph.TBool {
		panic(fmt.Sprintf("algorithms: template lacks bool edge attribute %q", attr))
	}
	col := ctx.Instance().EdgeCols[i].Bools
	return func(slot int) bool { return col[slot] }
}

// Compute implements core.Program.
func (p *SSSPProgram) Compute(ctx *core.Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
	pd := sg.Part
	labels := p.labels[pd.PID]
	var roots []int32

	if superstep == 0 {
		for _, lv := range sg.Verts {
			labels[lv] = Inf
		}
		if p.Source >= 0 {
			// The source is in this subgraph iff we own its partition-local
			// slot.
			for _, lv := range sg.Verts {
				if int(pd.GlobalIdx[lv]) == p.Source {
					labels[lv] = 0
					roots = append(roots, lv)
					break
				}
			}
		}
	} else {
		for _, m := range msgs {
			b := m.Payload.(LabelBatch)
			for i, lv := range b.Vertices {
				if b.Labels[i] < labels[lv] {
					labels[lv] = b.Labels[i]
					roots = append(roots, lv)
				}
			}
		}
	}

	if len(roots) > 0 {
		remote := modifiedSSSP(sg, labels, nil, roots, Inf, p.weightFn(ctx, sg), nil)
		forEachBatch(remote, func(dst subgraph.ID, b LabelBatch) { ctx.SendTo(dst, b) })
	}
	ctx.VoteToHalt()
}

// Distances gathers the final labels into a template-indexed array.
func (p *SSSPProgram) Distances(parts []*subgraph.PartitionData, t *graph.Template) []float64 {
	out := make([]float64, t.NumVertices())
	for i := range out {
		out[i] = Inf
	}
	for _, pd := range parts {
		for lv, g := range pd.GlobalIdx {
			out[g] = p.labels[pd.PID][lv]
		}
	}
	return out
}

// RunSSSP runs subgraph-centric SSSP on one instance of a collection and
// returns template-indexed distances plus the TI-BSP result.
func RunSSSP(
	t *graph.Template,
	parts []*subgraph.PartitionData,
	src int,
	source core.InstanceSource,
	timestep int,
	weightAttr string,
	cfg bsp.Config,
) ([]float64, *core.Result, error) {
	prog := NewSSSP(parts, src, weightAttr)
	res, err := core.Run(&core.Job{
		Template:  t,
		Parts:     parts,
		Source:    core.Window{Src: source, Lo: timestep, Hi: timestep + 1},
		Program:   prog,
		Pattern:   core.SequentiallyDependent,
		Timesteps: 1,
		Config:    cfg,
	})
	if err != nil {
		return nil, nil, err
	}
	return prog.Distances(parts, t), res, nil
}
