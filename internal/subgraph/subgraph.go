// Package subgraph derives the unit of computation of the GoFFish model
// from a partitioned template: within each partition, a subgraph is a
// maximal set of vertices weakly connected through local edges (edges whose
// endpoints are both in the partition). Edges that leave their subgraph are
// "remote" edges; subgraphs communicate across them during BSP supersteps.
// Singletons builds the vertex-centric special case, one vertex per
// subgraph.
package subgraph

import (
	"fmt"
	"slices"

	"tsgraph/internal/graph"
	"tsgraph/internal/partition"
)

// ID identifies a subgraph globally as (partition, index-within-partition).
type ID int64

// MakeID packs a partition number and a subgraph index into an ID.
func MakeID(part, idx int) ID { return ID(int64(part)<<32 | int64(uint32(idx))) }

// Partition returns the partition component of the ID.
func (id ID) Partition() int { return int(id >> 32) }

// Index returns the within-partition index component of the ID.
func (id ID) Index() int { return int(int32(id)) }

// String renders the ID as "p/i".
func (id ID) String() string { return fmt.Sprintf("%d/%d", id.Partition(), id.Index()) }

// RemoteEdge describes an edge from a vertex in this partition to a vertex
// in another subgraph (under Build, always one owned by another partition).
type RemoteEdge struct {
	// TargetGlobal is the template vertex index of the remote endpoint.
	TargetGlobal int32
	// TargetPartition owns the remote endpoint.
	TargetPartition int32
	// TargetLocal is the endpoint's local index within its partition.
	TargetLocal int32
	// TargetSubgraph is the endpoint's subgraph index within its partition.
	TargetSubgraph int32
}

// PartitionData is a partition's local view: its vertices re-indexed
// densely, a local CSR over all their out-edges, the remote edge table, and
// the discovered subgraphs.
type PartitionData struct {
	// PID is the partition number in [0, K).
	PID int
	// GlobalIdx maps local vertex index -> template vertex index.
	GlobalIdx []int32

	// Local CSR. Targets[e] >= 0 is a local vertex index in the same
	// subgraph; Targets[e] < 0 encodes remote edge -(Targets[e]+1) in Remote.
	Offsets    []int64
	Targets    []int32
	EdgeGlobal []int32 // local edge slot -> template edge slot
	Remote     []RemoteEdge

	// SubgraphOf maps local vertex index -> subgraph index in Subgraphs.
	SubgraphOf []int32
	Subgraphs  []*Subgraph
}

// NumVertices returns the number of vertices owned by the partition.
func (p *PartitionData) NumVertices() int { return len(p.GlobalIdx) }

// OutEdges returns the half-open local edge-slot range of local vertex v.
func (p *PartitionData) OutEdges(v int) (lo, hi int) {
	return int(p.Offsets[v]), int(p.Offsets[v+1])
}

// IsRemote reports whether local edge slot e leaves its subgraph; if so, the
// second return is the index into Remote.
func (p *PartitionData) IsRemote(e int) (bool, int) {
	t := p.Targets[e]
	if t < 0 {
		return true, int(-t - 1)
	}
	return false, 0
}

// Subgraph is one weakly connected component of a partition's local-edge
// graph (or, from Singletons, one vertex): the unit on which user Compute
// methods run.
type Subgraph struct {
	// SID is the subgraph's global identity.
	SID ID
	// Part is the owning partition's local view.
	Part *PartitionData
	// Verts lists the partition-local vertex indices in this subgraph, in
	// ascending order.
	Verts []int32
	// Neighbors lists the distinct subgraph IDs reachable over one remote
	// edge, in ascending order.
	Neighbors []ID
}

// NumVertices returns the number of vertices in the subgraph.
func (s *Subgraph) NumVertices() int { return len(s.Verts) }

// Build derives all partitions' local views and subgraphs from a template
// and an assignment. A partition's subgraphs are the weakly connected
// components of its local-edge graph, so an edge is remote exactly when it
// leaves its partition. Every remote edge is resolved to its target
// subgraph: in the distributed setting that is a boundary-exchange round;
// here all partitions are materialized together so it is a direct lookup.
func Build(t *graph.Template, a *partition.Assignment) ([]*PartitionData, error) {
	return build(t, a, true)
}

// Singletons is Build with one vertex per subgraph, the vertex-centric
// (Pregel) special case of the subgraph-centric model: every edge except a
// self-loop is remote, including edges inside one partition.
func Singletons(t *graph.Template, a *partition.Assignment) ([]*PartitionData, error) {
	return build(t, a, false)
}

// build is the construction Build and Singletons share. With wcc, vertices
// joined by an edge inside their partition share a subgraph; without it,
// every vertex is its own subgraph. Either way an edge is remote exactly
// when it leaves its subgraph.
func build(t *graph.Template, a *partition.Assignment, wcc bool) ([]*PartitionData, error) {
	if err := a.Validate(t); err != nil {
		return nil, err
	}
	n := t.NumVertices()
	k := a.K

	// Subgraph representatives. union keeps the smaller root, so each
	// subgraph's representative is its smallest vertex.
	uf := newUF(n)
	if wcc {
		for v := 0; v < n; v++ {
			lo, hi := t.OutEdges(v)
			for e := lo; e < hi; e++ {
				if w := t.Target(e); a.Parts[w] == a.Parts[v] {
					uf.union(v, w)
				}
			}
		}
	}

	// Dense local indices per partition, in global order.
	localIdx := make([]int32, n)
	counts := make([]int32, k)
	for v := 0; v < n; v++ {
		p := a.Parts[v]
		localIdx[v] = counts[p]
		counts[p]++
	}
	parts := make([]*PartitionData, k)
	for p := 0; p < k; p++ {
		parts[p] = &PartitionData{
			PID:        p,
			GlobalIdx:  make([]int32, 0, counts[p]),
			SubgraphOf: make([]int32, 0, counts[p]),
		}
	}

	// Deterministic subgraph numbering: by smallest local vertex index,
	// which is the representative, met before the rest of its subgraph.
	// sub[v] is template vertex v's subgraph index within its partition.
	sub := make([]int32, n)
	for v := 0; v < n; v++ {
		pd := parts[a.Parts[v]]
		if r := uf.find(v); r != v {
			sub[v] = sub[r]
		} else {
			sub[v] = int32(len(pd.Subgraphs))
			pd.Subgraphs = append(pd.Subgraphs, &Subgraph{SID: MakeID(pd.PID, len(pd.Subgraphs)), Part: pd})
		}
		sg := pd.Subgraphs[sub[v]]
		sg.Verts = append(sg.Verts, localIdx[v])
		pd.GlobalIdx = append(pd.GlobalIdx, int32(v))
		pd.SubgraphOf = append(pd.SubgraphOf, sub[v])
	}

	// Local CSR per partition, with remote edges resolved on the spot.
	for _, pd := range parts {
		nv := pd.NumVertices()
		pd.Offsets = make([]int64, nv+1)
		for lv, g := range pd.GlobalIdx {
			lo, hi := t.OutEdges(int(g))
			pd.Offsets[lv+1] = pd.Offsets[lv] + int64(hi-lo)
		}
		total := pd.Offsets[nv]
		pd.Targets = make([]int32, total)
		pd.EdgeGlobal = make([]int32, total)
		cursor := 0
		for _, g := range pd.GlobalIdx {
			lo, hi := t.OutEdges(int(g))
			for e := lo; e < hi; e++ {
				w := t.Target(e)
				pd.EdgeGlobal[cursor] = int32(e)
				if a.Parts[w] == a.Parts[g] && sub[w] == sub[g] {
					pd.Targets[cursor] = localIdx[w]
				} else {
					pd.Targets[cursor] = int32(-(len(pd.Remote) + 1))
					pd.Remote = append(pd.Remote, RemoteEdge{
						TargetGlobal:    int32(w),
						TargetPartition: a.Parts[w],
						TargetLocal:     localIdx[w],
						TargetSubgraph:  sub[w],
					})
				}
				cursor++
			}
		}
	}

	// Neighbor lists: the distinct targets of each subgraph's remote edges,
	// in ascending order. Subgraph p/i is dense index first[p]+i, and
	// seen[j] is the dense index of the last subgraph that listed j.
	first := make([]int, k+1)
	for p, pd := range parts {
		first[p+1] = first[p] + len(pd.Subgraphs)
	}
	seen := make([]int, first[k])
	for i := range seen {
		seen[i] = -1
	}
	for p, pd := range parts {
		for si, sg := range pd.Subgraphs {
			self := first[p] + si
			for _, lv := range sg.Verts {
				lo, hi := pd.OutEdges(int(lv))
				for e := lo; e < hi; e++ {
					if remote, ri := pd.IsRemote(e); remote {
						re := &pd.Remote[ri]
						if j := first[re.TargetPartition] + int(re.TargetSubgraph); seen[j] != self {
							seen[j] = self
							sg.Neighbors = append(sg.Neighbors, MakeID(int(re.TargetPartition), int(re.TargetSubgraph)))
						}
					}
				}
			}
			slices.Sort(sg.Neighbors)
		}
	}
	return parts, nil
}

// Validate checks structural invariants across all partitions: disjoint
// covering vertex sets, consistent CSR, remote edges resolved to another
// subgraph, and that no local edge crosses subgraphs within a partition.
func Validate(t *graph.Template, parts []*PartitionData) error {
	seen := make([]bool, t.NumVertices())
	for _, pd := range parts {
		for lv, g := range pd.GlobalIdx {
			if seen[g] {
				return fmt.Errorf("subgraph: template vertex %d owned twice", g)
			}
			seen[g] = true
			if pd.SubgraphOf[lv] < 0 || int(pd.SubgraphOf[lv]) >= len(pd.Subgraphs) {
				return fmt.Errorf("subgraph: partition %d vertex %d has bad subgraph %d", pd.PID, lv, pd.SubgraphOf[lv])
			}
		}
		for lv := 0; lv < pd.NumVertices(); lv++ {
			lo, hi := pd.OutEdges(lv)
			g := int(pd.GlobalIdx[lv])
			glo, ghi := t.OutEdges(g)
			if hi-lo != ghi-glo {
				return fmt.Errorf("subgraph: partition %d vertex %d degree %d, template degree %d", pd.PID, lv, hi-lo, ghi-glo)
			}
			for e := lo; e < hi; e++ {
				if remote, ri := pd.IsRemote(e); remote {
					re := pd.Remote[ri]
					if re.TargetSubgraph < 0 {
						return fmt.Errorf("subgraph: partition %d remote edge %d unresolved", pd.PID, ri)
					}
					if int(re.TargetPartition) == pd.PID && re.TargetSubgraph == pd.SubgraphOf[lv] {
						return fmt.Errorf("subgraph: partition %d remote edge %d targets its own subgraph", pd.PID, ri)
					}
				} else {
					// Local edge must stay within one subgraph.
					if pd.SubgraphOf[lv] != pd.SubgraphOf[pd.Targets[e]] {
						return fmt.Errorf("subgraph: partition %d local edge %d->%d crosses subgraphs", pd.PID, lv, pd.Targets[e])
					}
				}
			}
		}
		// Subgraph vertex lists partition the local vertex set.
		count := 0
		for _, sg := range pd.Subgraphs {
			count += len(sg.Verts)
			for i := 1; i < len(sg.Verts); i++ {
				if sg.Verts[i] <= sg.Verts[i-1] {
					return fmt.Errorf("subgraph: %v vertex list not sorted", sg.SID)
				}
			}
		}
		if count != pd.NumVertices() {
			return fmt.Errorf("subgraph: partition %d subgraphs cover %d of %d vertices", pd.PID, count, pd.NumVertices())
		}
	}
	for g, ok := range seen {
		if !ok {
			return fmt.Errorf("subgraph: template vertex %d unowned", g)
		}
	}
	return nil
}

// TotalSubgraphs counts subgraphs across all partitions.
func TotalSubgraphs(parts []*PartitionData) int {
	total := 0
	for _, pd := range parts {
		total += len(pd.Subgraphs)
	}
	return total
}

type uf struct {
	parent []int32
}

func newUF(n int) *uf {
	u := &uf{parent: make([]int32, n)}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

func (u *uf) find(x int) int {
	for int(u.parent[x]) != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = int(u.parent[x])
	}
	return x
}

func (u *uf) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		if ra < rb {
			u.parent[rb] = int32(ra)
		} else {
			u.parent[ra] = int32(rb)
		}
	}
}
