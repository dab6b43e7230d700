package algorithms

import "tsgraph/internal/core"

// Sweep runs a sequentially dependent job in this process over job.Parts,
// or, with job.Mesh set, as this rank's share of a distributed sweep (see
// core.Mesh). Every rank of a mesh calls Sweep with the SAME program inputs
// (queries, meme tag); the program may be built over all partitions or over
// the rank's own.
//
// A meshed sweep must carry no HaltCondition: a rank's timestep record
// covers only its own partitions, so ranks would disagree about when to
// stop and deadlock the barrier protocol. It sets no WhileMode either, so
// it always runs its whole window — a sharded TDSP batch sweeps
// [depart, watermark) even after every target is final (targets retire
// only on the rank that owns them, and answers are finalized before that,
// so they are unchanged; the cost is the extra timesteps).
func Sweep(job *core.Job) (*core.Result, error) {
	job.Pattern = core.SequentiallyDependent
	return core.Run(job)
}
