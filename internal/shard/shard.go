// Package shard runs the tsserve query engine across N ranks of the
// cluster mesh. Each rank loads only the instance data of the partitions
// it owns; a stateless router accepts the unchanged HTTP/JSON query API,
// scatters every admitted sweep to the partition owners of one replica
// group over a gob wire protocol, and merges the per-rank partials into
// answers byte-identical to a single-process tsserve.
//
// Topology: the layout splits the N ranks into Replicas contiguous groups.
// Every group holds a full copy of the dataset; within a group of M
// members, partition p is owned by member p % M. TDSP and meme sweeps that
// cross partitions run as distributed micro-batches over the group's
// private cluster mesh (internal/cluster); top-N is embarrassingly
// parallel per partition and never touches the mesh. The router pins one
// watermark per query batch and fans it out, so every member bounds its
// sweep at the same snapshot.
//
// Failure model: groups are static. When any member of a group fails an
// RPC, the router quarantines the whole group and retries the sweep on the
// next replica group — sweeps are read-only, so re-execution is always
// safe and the replica's answer is byte-identical. A permanently dead rank
// therefore downs its group for good (the surviving members' mesh cannot
// re-form); the replication factor is what buys availability.
package shard

import (
	"errors"
	"fmt"

	"tsgraph/internal/core"
	"tsgraph/internal/gofs"
	"tsgraph/internal/graph"
)

// Layout describes the rank topology of one sharded serving deployment.
// All processes — every rank and the router — must be started with the
// same layout; assignment of partitions to ranks is a pure function of it.
type Layout struct {
	// Ranks lists every rank's shard RPC address, rank-ordered.
	Ranks []string
	// Mesh lists every rank's cluster mesh listen address, rank-ordered.
	// May be empty when every group has a single member (no mesh needed).
	Mesh []string
	// Replicas is the number of replica groups the ranks split into.
	// 0 or 1 means one group holding the only copy.
	Replicas int
}

// NumRanks returns the number of ranks in the layout.
func (l Layout) NumRanks() int { return len(l.Ranks) }

// NumGroups returns the number of replica groups, clamped to [1, NumRanks].
func (l Layout) NumGroups() int {
	g := l.Replicas
	if g < 1 {
		g = 1
	}
	if n := len(l.Ranks); g > n {
		g = n
	}
	return g
}

// Groups splits the ranks into NumGroups contiguous groups. The first
// NumRanks%NumGroups groups get the extra member, so group sizes differ by
// at most one (3 ranks, 2 replicas -> {0,1} and {2}).
func (l Layout) Groups() [][]int {
	n, g := l.NumRanks(), l.NumGroups()
	base, extra := n/g, n%g
	groups := make([][]int, g)
	next := 0
	for i := range groups {
		size := base
		if i < extra {
			size++
		}
		groups[i] = make([]int, size)
		for j := range groups[i] {
			groups[i][j] = next
			next++
		}
	}
	return groups
}

// GroupOf locates a rank within the layout: its replica group index, its
// member index within that group, and the global ranks of all members.
func (l Layout) GroupOf(rank int) (group, member int, members []int) {
	for gi, g := range l.Groups() {
		for mi, r := range g {
			if r == rank {
				return gi, mi, g
			}
		}
	}
	return -1, -1, nil
}

// Validate rejects layouts the processes could not agree on.
func (l Layout) Validate() error {
	if len(l.Ranks) == 0 {
		return errors.New("shard: layout needs at least one rank")
	}
	if len(l.Mesh) != 0 && len(l.Mesh) != len(l.Ranks) {
		return fmt.Errorf("shard: %d mesh addrs for %d ranks", len(l.Mesh), len(l.Ranks))
	}
	if len(l.Mesh) == 0 {
		for _, g := range l.Groups() {
			if len(g) > 1 {
				return fmt.Errorf("shard: group of %d members needs mesh addresses", len(g))
			}
		}
	}
	return nil
}

// HeadSource adapts a store to core.InstanceSource for the router process.
// The router only ever reads the watermark — sweeps execute on the ranks —
// so instance loads are a bug, not a fallback.
func HeadSource(s *gofs.Store) core.InstanceSource { return headSource{s} }

type headSource struct{ s *gofs.Store }

func (h headSource) Timesteps() int { return h.s.Timesteps() }

func (h headSource) Load(timestep int) (*graph.Instance, error) {
	return nil, fmt.Errorf("shard: router must not load instances (timestep %d)", timestep)
}
