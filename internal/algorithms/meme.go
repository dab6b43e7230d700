package algorithms

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/graph"
	"tsgraph/internal/metrics"
	"tsgraph/internal/subgraph"
)

// CounterColored is the per-partition metric meme tracking accumulates: the
// number of vertices colored (first seen carrying the meme) per timestep
// (the paper's Fig 7c).
const CounterColored = "colored"

// MemeResult records the first timestep at which a vertex carried the meme
// and was reachable from the spreading frontier — the PrintHorizon output of
// Alg 1.
type MemeResult struct {
	Vertex   graph.VertexID
	Timestep int
}

// MemeProgram implements Algorithm 1: temporal BFS of a meme µ over space
// and time. At timestep 0 the roots are all vertices whose tweets contain
// µ; MemeBFS colors contiguous runs of meme-carrying vertices, crossing to
// neighbor subgraphs over remote edges; the colored set C* accumulates
// across timesteps via the temporal edge and seeds the next instance.
type MemeProgram struct {
	// Meme is the hashtag µ to track.
	Meme string
	// TweetsAttr names the string-list vertex attribute holding tweets.
	TweetsAttr string

	// colored[p][lv] marks vertices in C* (accumulated) or C_t (this
	// timestep). Written only by the owning subgraph's Compute.
	colored [][]bool
	// coloredAt[p][lv] is the timestep the vertex was first colored.
	coloredAt [][]int32
}

// NewMeme builds a meme tracking program.
func NewMeme(parts []*subgraph.PartitionData, meme, tweetsAttr string) *MemeProgram {
	p := &MemeProgram{Meme: meme, TweetsAttr: tweetsAttr}
	n := maxPID(parts)
	p.colored = make([][]bool, n)
	p.coloredAt = make([][]int32, n)
	for _, pd := range parts {
		p.colored[pd.PID] = make([]bool, pd.NumVertices())
		p.coloredAt[pd.PID] = make([]int32, pd.NumVertices())
		for j := range p.coloredAt[pd.PID] {
			p.coloredAt[pd.PID][j] = -1
		}
	}
	return p
}

// IncrementalSafe marks MemeProgram for core.Job.Incremental scheduling.
// Both contract clauses of core.IncrementalProgram hold: (1) superstep-0
// reseeding is idempotent — reset-and-recolor from the temporal C* set
// rebuilds exactly the colored/coloredAt state a clean subgraph already
// holds, and the remote notifications it re-sends only re-offer vertices
// that were offered last timestep, which a clean receiver already resolved
// (colored, or not a carrier) — and (2) the only self-addressed temporal
// message is the subgraph's own C* set, re-derivable from its retained
// colored array (EndOfTimestep re-emits it every timestep from that array).
func (p *MemeProgram) IncrementalSafe() {}

// hasMeme reports whether vertex lv carries µ in the current instance.
func (p *MemeProgram) hasMeme(tweets [][]string, pd *subgraph.PartitionData, lv int32) bool {
	for _, tag := range tweets[pd.GlobalIdx[lv]] {
		if tag == p.Meme {
			return true
		}
	}
	return false
}

// Compute implements core.Program (Alg 1, lines 1–15).
func (p *MemeProgram) Compute(ctx *core.Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
	pd := sg.Part
	colored := p.colored[pd.PID]
	tweets := ctx.Instance().VertexStringLists(ctx.Template(), p.TweetsAttr)
	if tweets == nil {
		panic(fmt.Sprintf("algorithms: template lacks string-list vertex attribute %q", p.TweetsAttr))
	}
	var roots []int32

	switch {
	case superstep == 0 && timestep == 0:
		// Line 4: roots are this instance's meme carriers.
		for _, lv := range sg.Verts {
			colored[lv] = false
		}
		for _, lv := range sg.Verts {
			if p.hasMeme(tweets, pd, lv) {
				roots = append(roots, lv)
			}
		}
	case superstep == 0:
		// Line 6: C* arrives over the temporal edge and seeds the BFS.
		for _, lv := range sg.Verts {
			colored[lv] = false
		}
		for _, m := range msgs {
			set := m.Payload.(VertexSet)
			for _, lv := range set.Vertices {
				colored[lv] = true
				roots = append(roots, lv)
			}
		}
	default:
		// Line 8: remote notifications; traverse only carriers.
		for _, m := range msgs {
			set := m.Payload.(VertexSet)
			for _, lv := range set.Vertices {
				if !colored[lv] && p.hasMeme(tweets, pd, lv) {
					roots = append(roots, lv)
				}
			}
		}
	}

	if len(roots) > 0 {
		remote := p.memeBFS(sg, tweets, roots, timestep)
		p.sendNotifications(ctx, remote)
	}
	ctx.VoteToHalt()
}

// memeBFS (Alg 1 line 10) colors contiguous meme-carrying vertices from the
// roots and returns the remote vertices touched from colored frontier
// vertices, grouped by destination subgraph.
func (p *MemeProgram) memeBFS(sg *subgraph.Subgraph, tweets [][]string, roots []int32, timestep int) map[subgraph.ID]map[int32]struct{} {
	pd := sg.Part
	colored := p.colored[pd.PID]
	coloredAt := p.coloredAt[pd.PID]
	remote := make(map[subgraph.ID]map[int32]struct{})
	queue := make([]int32, 0, len(roots))
	for _, r := range roots {
		// Roots from temporal seeding are pre-colored; fresh roots (meme
		// carriers) get colored now.
		if !colored[r] {
			colored[r] = true
			if coloredAt[r] < 0 {
				coloredAt[r] = int32(timestep)
			}
		}
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		lo, hi := pd.OutEdges(int(u))
		for e := lo; e < hi; e++ {
			if isRemote, ri := pd.IsRemote(e); isRemote {
				re := &pd.Remote[ri]
				dst := subgraph.MakeID(int(re.TargetPartition), int(re.TargetSubgraph))
				if remote[dst] == nil {
					remote[dst] = make(map[int32]struct{})
				}
				remote[dst][re.TargetLocal] = struct{}{}
				continue
			}
			w := pd.Targets[e]
			if colored[w] || !p.hasMeme(tweets, pd, w) {
				continue
			}
			colored[w] = true
			if coloredAt[w] < 0 {
				coloredAt[w] = int32(timestep)
			}
			queue = append(queue, w)
		}
	}
	return remote
}

// sendNotifications emits one VertexSet per destination subgraph (Alg 1
// lines 11–13), deterministically ordered.
func (p *MemeProgram) sendNotifications(ctx *core.Context, remote map[subgraph.ID]map[int32]struct{}) {
	dsts := make([]subgraph.ID, 0, len(remote))
	for dst := range remote {
		dsts = append(dsts, dst)
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	for _, dst := range dsts {
		set := remote[dst]
		verts := make([]int32, 0, len(set))
		for lv := range set {
			verts = append(verts, lv)
		}
		sort.Slice(verts, func(i, j int) bool { return verts[i] < verts[j] })
		ctx.SendTo(dst, VertexSet{Vertices: verts})
	}
}

// EndOfTimestep implements Alg 1 lines 16–21: print the newly colored
// horizon C_t, fold it into C*, and pass C* along the temporal edge.
func (p *MemeProgram) EndOfTimestep(ctx *core.EndContext, sg *subgraph.Subgraph, timestep int) {
	pd := sg.Part
	colored := p.colored[pd.PID]
	coloredAt := p.coloredAt[pd.PID]

	var newCount int64
	var all []int32
	for _, lv := range sg.Verts {
		if !colored[lv] {
			continue
		}
		all = append(all, lv)
		if coloredAt[lv] == int32(timestep) {
			newCount++
			ctx.Output(MemeResult{
				Vertex:   ctx.Template().VertexID(int(pd.GlobalIdx[lv])),
				Timestep: timestep,
			})
		}
	}
	ctx.AddCounter(CounterColored, newCount)
	if len(all) > 0 {
		ctx.SendToNextTimestep(VertexSet{Vertices: all})
	}
}

// memeCheckpoint is the gob payload of a meme-tracking checkpoint: C* and
// the first-colored timesteps, the only state that crosses timesteps.
type memeCheckpoint struct {
	Colored   [][]bool
	ColoredAt [][]int32
}

// CheckpointState implements core.Checkpointer.
func (p *MemeProgram) CheckpointState() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(memeCheckpoint{Colored: p.colored, ColoredAt: p.coloredAt}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RestoreCheckpoint implements core.Checkpointer.
func (p *MemeProgram) RestoreCheckpoint(data []byte) error {
	var st memeCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("algorithms: meme restore: %w", err)
	}
	if len(st.Colored) != len(p.colored) || len(st.ColoredAt) != len(p.coloredAt) {
		return fmt.Errorf("algorithms: meme restore: checkpoint has %d partitions, program has %d", len(st.Colored), len(p.colored))
	}
	p.colored, p.coloredAt = st.Colored, st.ColoredAt
	return nil
}

// ColoredAt gathers first-colored timesteps into a template-indexed array
// (-1 = never colored).
func (p *MemeProgram) ColoredAt(parts []*subgraph.PartitionData, t *graph.Template) []int32 {
	out := make([]int32, t.NumVertices())
	for i := range out {
		out[i] = -1
	}
	for _, pd := range parts {
		for lv, g := range pd.GlobalIdx {
			out[g] = p.coloredAt[pd.PID][lv]
		}
	}
	return out
}

// RunMeme tracks a meme over every instance of a source and returns the
// template-indexed first-colored timesteps plus the run result.
func RunMeme(
	t *graph.Template,
	parts []*subgraph.PartitionData,
	meme string,
	tweetsAttr string,
	source core.InstanceSource,
	cfg bsp.Config,
	rec *metrics.Recorder,
) ([]int32, *core.Result, error) {
	prog := NewMeme(parts, meme, tweetsAttr)
	res, err := Sweep(&core.Job{Template: t, Parts: parts, Source: source, Program: prog, Config: cfg, Recorder: rec})
	if err != nil {
		return nil, nil, err
	}
	return prog.ColoredAt(parts, t), res, nil
}
