package core

import (
	"fmt"

	"tsgraph/internal/bsp"
	"tsgraph/internal/graph"
	"tsgraph/internal/subgraph"
)

// DeltaSource is an InstanceSource that can report what changed between
// consecutive timesteps — a gofs.InstanceCache over a delta-encoded store.
// Delta(t) is valid after Load(t) while t's pack stays resident; nil means
// unknown (full-format stores, the first timestep) and forces a full
// recompute of that timestep.
type DeltaSource interface {
	InstanceSource
	Delta(timestep int) *graph.Delta
}

// IncrementalProgram marks a Program as safe for incremental timestep
// scheduling (Job.Incremental). The marker asserts two properties the
// runner cannot check itself:
//
//  1. Superstep-0 reseeding is idempotent on clean subgraphs: if a
//     subgraph's instance data did not change and it would receive exactly
//     the self-addressed temporal messages it emitted last timestep, its
//     superstep-0 work rebuilds state it already retains, and the messages
//     it would send are no-ops at every receiver whose instance data also
//     did not change.
//  2. Self-addressed temporal messages (From == To) are re-derivable from
//     the subgraph's retained state, so withholding them from a skipped
//     subgraph loses nothing.
//
// Cross-subgraph temporal messages (From != To) are never withheld: their
// payload may be unreconstructible by the receiver, so they always pull
// the receiver into the initial frontier.
type IncrementalProgram interface {
	Program
	// IncrementalSafe is a marker method; implementations are empty.
	IncrementalSafe()
}

// incrementalState holds the per-run lookup tables of the incremental
// scheduler: ownership of every template vertex and edge slot by a dense
// subgraph index, and the out-neighbor relation between subgraphs.
type incrementalState struct {
	src       DeltaSource
	ids       []subgraph.ID       // dense index -> subgraph ID
	idx       map[subgraph.ID]int // subgraph ID -> dense index
	vertOwner []int32             // template vertex -> dense owner
	edgeOwner []int32             // template edge slot -> dense owner (its source vertex's subgraph)
	nbrs      [][]int32           // dense index -> out-neighbor dense indices
	dirty     []bool              // scratch: subgraph saw instance changes at this timestep
	wake      []bool              // scratch: subgraph got a cross-subgraph temporal message
	skipFlag  []bool              // scratch: subgraph is skipped this timestep
	skip      []subgraph.ID       // scratch: skip list handed to the engine
}

func newIncrementalState(job *Job, src DeltaSource) (*incrementalState, error) {
	s := &incrementalState{
		src:       src,
		idx:       make(map[subgraph.ID]int),
		vertOwner: make([]int32, job.Template.NumVertices()),
		edgeOwner: make([]int32, job.Template.NumEdges()),
	}
	for _, pd := range job.Parts {
		for _, sg := range pd.Subgraphs {
			s.idx[sg.SID] = len(s.ids)
			s.ids = append(s.ids, sg.SID)
		}
	}
	n := len(s.ids)
	s.nbrs = make([][]int32, n)
	s.dirty = make([]bool, n)
	s.wake = make([]bool, n)
	s.skipFlag = make([]bool, n)
	for _, pd := range job.Parts {
		for lv := 0; lv < pd.NumVertices(); lv++ {
			owner := int32(s.idx[subgraph.MakeID(pd.PID, int(pd.SubgraphOf[lv]))])
			s.vertOwner[pd.GlobalIdx[lv]] = owner
			lo, hi := pd.OutEdges(lv)
			for e := lo; e < hi; e++ {
				// An edge belongs to its source vertex's subgraph: only the
				// source side ever reads the slot's attribute values.
				s.edgeOwner[pd.EdgeGlobal[e]] = owner
			}
		}
		for _, sg := range pd.Subgraphs {
			d := s.idx[sg.SID]
			for _, nid := range sg.Neighbors {
				nd, ok := s.idx[nid]
				if !ok {
					return nil, fmt.Errorf("core: incremental scheduling needs all subgraphs local, %v is not", nid)
				}
				s.nbrs[d] = append(s.nbrs[d], int32(nd))
			}
		}
	}
	return s, nil
}

// plan decides which subgraphs stay out of timestep ts's initial frontier
// and filters the pending temporal messages accordingly. A subgraph is
// skipped iff its own instance data is clean, every out-neighbor's is clean
// (its superstep-0 messages could otherwise matter to a dirty receiver),
// and no cross-subgraph temporal message addresses it. Self-addressed
// temporal messages to skipped subgraphs are withheld — by the
// IncrementalProgram contract they only rebuild state the subgraph kept.
//
// The returned skip slice is scratch, valid until the next plan call; the
// returned messages reuse pending's backing array.
func (s *incrementalState) plan(delta *graph.Delta, pending []bsp.Message) ([]subgraph.ID, []bsp.Message) {
	if delta == nil {
		return nil, pending
	}
	for i := range s.dirty {
		s.dirty[i] = false
		s.wake[i] = false
		s.skipFlag[i] = false
	}
	for _, v := range delta.Verts {
		s.dirty[s.vertOwner[v]] = true
	}
	for _, e := range delta.Edges {
		s.dirty[s.edgeOwner[e]] = true
	}
	for i := range pending {
		if m := &pending[i]; m.From != m.To {
			if d, ok := s.idx[m.To]; ok {
				s.wake[d] = true
			}
		}
	}
	skip := s.skip[:0]
	for d := range s.dirty {
		if s.dirty[d] || s.wake[d] {
			continue
		}
		clean := true
		for _, nd := range s.nbrs[d] {
			if s.dirty[nd] {
				clean = false
				break
			}
		}
		if clean {
			s.skipFlag[d] = true
			skip = append(skip, s.ids[d])
		}
	}
	s.skip = skip
	if len(skip) == 0 {
		return nil, pending
	}
	kept := pending[:0]
	for _, m := range pending {
		if m.From == m.To {
			if d, ok := s.idx[m.To]; ok && s.skipFlag[d] {
				continue
			}
		}
		kept = append(kept, m)
	}
	return skip, kept
}
