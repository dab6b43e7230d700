package cluster

import (
	"encoding/gob"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/subgraph"
)

// slowDyingProgram keeps every subgraph active so the run spans many
// supersteps, giving the test a window to kill a peer.
type slowDyingProgram struct{ limit int }

func (p *slowDyingProgram) Compute(ctx *core.Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
	time.Sleep(time.Millisecond)
	if superstep < p.limit {
		return // stay active
	}
	ctx.VoteToHalt()
}

// TestPeerDeathSurfacesError kills one node mid-run; the surviving node
// must fail with a transport error rather than hang at the barrier.
func TestPeerDeathSurfacesError(t *testing.T) {
	const k = 2
	f := newDistFixture(t, k)
	nodes, meshes := mesh(t, k, f.parts, nil)

	// Node 1 dies shortly after the run starts.
	go func() {
		time.Sleep(30 * time.Millisecond)
		nodes[1].Close()
	}()
	var errs []error
	done := make(chan struct{})
	go func() {
		errs = eachRank(k, func(r int) error {
			_, err := core.Run(&core.Job{
				Template: f.tmpl,
				Source:   core.MemorySource{C: f.coll},
				Program:  &slowDyingProgram{limit: 500},
				Pattern:  core.SequentiallyDependent,
				Config:   bsp.Config{MaxSupersteps: 1000},
				Mesh:     meshes[r],
			})
			return err
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("surviving node hung after peer death")
	}
	if errs[0] == nil && errs[1] == nil {
		t.Fatal("expected at least one node to report the peer death")
	}
}

// TestMeshedJobConfigBoundsSupersteps checks that a meshed run's engine
// takes its config from the job: a superstep bound below what the program
// needs must stop every rank with the bound's error.
func TestMeshedJobConfigBoundsSupersteps(t *testing.T) {
	const k = 2
	f := newDistFixture(t, k)
	_, meshes := mesh(t, k, f.parts, nil)
	errs := eachRank(k, func(r int) error {
		_, err := core.Run(&core.Job{
			Template: f.tmpl,
			Source:   core.MemorySource{C: f.coll},
			Program:  &slowDyingProgram{limit: 5},
			Pattern:  core.SequentiallyDependent,
			Config:   bsp.Config{MaxSupersteps: 2},
			Mesh:     meshes[r],
		})
		return err
	})
	for r, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "exceeded 2 supersteps") {
			t.Errorf("rank %d: err = %v, want the 2-superstep bound", r, err)
		}
	}
}

// errNode is a mesh node whose every Send fails.
type errNode struct{}

func (errNode) Send(int, []bsp.Message) error { return errors.New("link down") }
func (errNode) Barrier(_ int, l bsp.BarrierStats) (bsp.BarrierStats, error) {
	l.Sent++ // force cross-host traffic so Send gets called
	return l, nil
}

func (errNode) ExchangeTemporal(ts int, out []bsp.Message, votes int) ([]bsp.Message, int, int, error) {
	return out, votes, len(out), nil
}

func TestEngineSurfacesSendError(t *testing.T) {
	f := newDistFixture(t, 2)
	local := f.parts[0:1]
	job := core.Job{
		Template: f.tmpl,
		Source:   core.MemorySource{C: f.coll},
		Program:  &pingAcross{}, Pattern: core.SequentiallyDependent,
		Mesh: &core.Mesh{
			Node:   errNode{},
			Engine: bsp.NewEngineRemote(local, bsp.Config{}, errNode{}),
			Local:  local,
		},
	}
	if _, err := core.Run(&job); err == nil {
		t.Fatal("Send failure not surfaced")
	}
}

// pingAcross sends one message to the other partition's subgraph so the
// engine must use Remote.Send.
type pingAcross struct{}

func (pingAcross) Compute(ctx *core.Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
	if superstep == 0 {
		ctx.SendTo(subgraph.MakeID(1, 0), "x")
	}
	ctx.VoteToHalt()
}

// TestWireCountersNoDoubleCountOnDisconnect kills a peer mid-flush and
// checks the per-peer framesSent counter advances only for frames that
// actually made it onto the wire: failed encodes — and retries of the same
// frame after the failure — must not inflate it. The far end drains and
// sends nothing, so only the test's own frames move the counter (on a live
// mesh, pongs answering the peer's clock probes would too).
func TestWireCountersNoDoubleCountOnDisconnect(t *testing.T) {
	conn, far := net.Pipe()
	defer far.Close()
	go io.Copy(io.Discard, far)
	p := &peerConn{conn: conn, enc: gob.NewEncoder(conn)}

	f := &frame{Kind: kindPing, Rank: 0, T1: 1}
	var succeeded int64
	for i := 0; i < 3; i++ {
		if err := p.send(f, nil, false); err != nil {
			t.Fatalf("send %d on live peer: %v", i, err)
		}
		succeeded++
	}

	// Sever the transport under the encoder — the sender-side view of a
	// peer dying mid-flush.
	p.conn.Close()
	if err := p.send(f, nil, false); err == nil {
		t.Fatal("send succeeded on a severed connection")
	}
	if got := p.framesSent.Load(); got != succeeded {
		t.Fatalf("framesSent advanced by %d, want %d (one per successful flush, none for the failure)", got, succeeded)
	}

	// Retrying the lost frame against the dead connection must not count.
	for i := 0; i < 5; i++ {
		if err := p.send(f, nil, false); err == nil {
			succeeded++
		}
	}
	if got := p.framesSent.Load(); got != succeeded {
		t.Fatalf("retries double-counted: framesSent advanced by %d, want %d", got, succeeded)
	}
}
