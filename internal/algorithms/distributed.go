package algorithms

import (
	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/subgraph"
)

// Mesh seats a sweep on one rank of a cluster mesh (the serving tier's
// sharded groups). Every rank of the group calls Sweep with the SAME program
// inputs (queries, meme tag) built over ALL partitions — source and target
// resolution and per-source bookkeeping must agree across ranks — and its
// OWN Mesh; the mesh exchanges boundary messages, and afterwards each rank
// reads answers for the vertices it owns.
//
// Neither the node's barriers nor the engine's staged frames carry a sweep
// identity, so the group must finish or fail a sweep together: a sweep that
// errors on one rank only leaves the group unusable (ROADMAP item 1c).
type Mesh struct {
	// Remote and Coordinator are the rank's cluster.Node.
	Remote      bsp.Remote
	Coordinator core.Coordinator
	// Engine is built over Local with bsp.NewEngineRemote and bound to the
	// node before the mesh starts. One engine serves every sweep of the
	// rank: each barrier drains its step's frames completely, and a peer's
	// first frames of the next sweep are staged by superstep until this
	// rank gets there.
	Engine *bsp.Engine
	// Local are the partitions this rank owns and runs.
	Local []*subgraph.PartitionData
}

// Sweep runs a sequentially dependent job in this process over job.Parts,
// or with a Mesh as this rank's share of it: job.Parts is then the full
// partition set the program was built over, and the rank runs Mesh.Local.
//
// A meshed sweep must carry no HaltCondition: a rank's timestep record
// covers only its own partitions, so ranks would disagree about when to
// stop and deadlock the barrier protocol. It sets no WhileMode either, so
// it always runs its whole window — a sharded TDSP batch sweeps
// [depart, watermark) even after every target is final (targets retire
// only on the rank that owns them, and answers are finalized before that,
// so they are unchanged; the cost is the extra timesteps).
func Sweep(job *core.Job, m *Mesh) (*core.Result, error) {
	job.Pattern = core.SequentiallyDependent
	if m == nil {
		return core.Run(job)
	}
	job.GlobalSubgraphs = subgraph.TotalSubgraphs(job.Parts)
	job.Parts = m.Local
	job.Remote, job.Coordinator = m.Remote, m.Coordinator
	return core.RunWithEngine(job, m.Engine)
}
