package experiments

import (
	"fmt"
	"net"
	"sync"

	"tsgraph/internal/cluster"
	"tsgraph/internal/core"
	"tsgraph/internal/subgraph"
)

// loopbackGroup is an n-rank cluster mesh inside one process: one
// cluster.NewMesh per rank over loopback TCP, each owning its OwnerOf share
// of the partitions.
type loopbackGroup struct {
	nodes  []*cluster.Node
	meshes []*core.Mesh
}

// startLoopback listens on n ephemeral loopback ports, builds every rank
// with cluster.NewMesh and connects the ranks concurrently. configure, when
// non-nil, fills each rank's Config beyond Rank, Addrs and Listener. The
// caller closes the group.
func startLoopback(n int, parts []*subgraph.PartitionData, configure func(rank int, c *cluster.Config)) (*loopbackGroup, error) {
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, err
		}
		listeners[i], addrs[i] = ln, ln.Addr().String()
	}
	g := &loopbackGroup{}
	for i := range listeners {
		c := cluster.Config{Rank: i, Addrs: addrs, Listener: listeners[i]}
		if configure != nil {
			configure(i, &c)
		}
		node, mesh, err := cluster.NewMesh(c, parts)
		if err != nil {
			g.close()
			for _, l := range listeners[i:] {
				l.Close()
			}
			return nil, err
		}
		g.nodes = append(g.nodes, node)
		g.meshes = append(g.meshes, mesh)
	}
	if err := g.each(func(r int) error { return g.nodes[r].Start() }); err != nil {
		g.close()
		return nil, fmt.Errorf("start: %w", err)
	}
	return g, nil
}

// each calls fn for every rank concurrently and returns the lowest rank's
// error.
func (g *loopbackGroup) each(fn func(rank int) error) error {
	errs := make([]error, len(g.nodes))
	var wg sync.WaitGroup
	for r := range g.nodes {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(r)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

func (g *loopbackGroup) close() {
	for _, n := range g.nodes {
		n.Close()
	}
}
