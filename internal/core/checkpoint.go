package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"tsgraph/internal/bsp"
	"tsgraph/internal/gofs"
)

// Checkpointer is implemented by Programs whose state outlives a timestep.
// The TI-BSP runner checkpoints at the timestep boundary — after the
// temporal barrier, when no superstep is in flight and the only live state
// is the pending temporal messages plus whatever the program accumulates
// across timesteps (TDSP's finalized arrivals, meme tracking's colored-at
// table). CheckpointState serializes that cross-timestep state;
// RestoreCheckpoint reinstates it before a resumed run's first timestep.
// Per-timestep state (labels rebuilt at superstep 0) needs no persistence.
type Checkpointer interface {
	CheckpointState() ([]byte, error)
	RestoreCheckpoint(data []byte) error
}

// resumeState is the runner's checkpoint payload: everything needed to
// restart the timestep loop at Timestep+1 and still produce the same final
// Result as an uninterrupted run.
type resumeState struct {
	// Timestep is the last completed timestep this checkpoint covers.
	Timestep int
	// Pending are the temporal messages addressed to Timestep+1 (already
	// exchanged: in a distributed run these are the post-routing incoming
	// messages, so a resumed rank needs no peer traffic to restart).
	Pending []bsp.Message
	// Prog is the program's Checkpointer payload.
	Prog []byte
	// Result accumulators as of the boundary.
	Supersteps   int
	SimTimeNanos int64
	TimestepsRun int
	Outputs      []Output
}

// checkpointTimestep persists one timestep boundary. Called after the
// temporal exchange, so pending holds exactly what timestep ts+1 will be
// seeded with.
func checkpointTimestep(job *Job, ts int, pending []bsp.Message, res *Result) error {
	cp := job.Program.(Checkpointer) // validated in Run
	progState, err := cp.CheckpointState()
	if err != nil {
		return fmt.Errorf("core: timestep %d program checkpoint: %w", ts, err)
	}
	st := resumeState{
		Timestep:     ts,
		Pending:      append([]bsp.Message(nil), pending...),
		Prog:         progState,
		Supersteps:   res.Supersteps,
		SimTimeNanos: int64(res.SimTime),
		TimestepsRun: res.TimestepsRun,
		Outputs:      res.Outputs,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return fmt.Errorf("core: timestep %d checkpoint encode: %w", ts, err)
	}
	if err := gofs.WriteCheckpoint(job.CheckpointDir, job.CheckpointRank, ts, buf.Bytes()); err != nil {
		return fmt.Errorf("core: timestep %d: %w", ts, err)
	}
	return nil
}

// resumeFromCheckpoint finds the run's resume point and reinstates it,
// returning the timestep the loop should start at (0 when no usable
// checkpoint exists — a fresh start). The local candidate is the newest
// checkpoint that loads cleanly (corrupt files fall back to the previous
// one); with a ResumeConsensus — the distributed case — every rank proposes
// its candidate and all adopt the minimum, then load *that* timestep's file,
// which the retention window guarantees each rank still holds.
func resumeFromCheckpoint(job *Job, pending *[]bsp.Message, res *Result) (int, error) {
	local, payload, err := gofs.LatestCheckpoint(job.CheckpointDir, job.CheckpointRank)
	if err != nil {
		return 0, fmt.Errorf("core: resume: %w", err)
	}
	agreed := local
	if job.ResumeConsensus != nil {
		agreed, err = job.ResumeConsensus(local)
		if err != nil {
			return 0, fmt.Errorf("core: resume consensus: %w", err)
		}
		if agreed > local {
			return 0, fmt.Errorf("core: resume consensus agreed on timestep %d but this rank only has %d", agreed, local)
		}
	}
	if agreed < 0 {
		return 0, nil // some rank (or this one) has nothing: fresh start
	}
	if agreed != local {
		if payload, err = gofs.ReadCheckpoint(job.CheckpointDir, job.CheckpointRank, agreed); err != nil {
			return 0, fmt.Errorf("core: resume at agreed timestep %d: %w", agreed, err)
		}
	}
	var st resumeState
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); err != nil {
		return 0, fmt.Errorf("core: resume decode (timestep %d): %w", agreed, err)
	}
	if st.Timestep != agreed {
		return 0, fmt.Errorf("core: resume payload covers timestep %d, expected %d", st.Timestep, agreed)
	}
	if err := job.Program.(Checkpointer).RestoreCheckpoint(st.Prog); err != nil {
		return 0, fmt.Errorf("core: resume program restore (timestep %d): %w", agreed, err)
	}
	*pending = append((*pending)[:0], st.Pending...)
	res.Supersteps = st.Supersteps
	res.SimTime = time.Duration(st.SimTimeNanos)
	res.TimestepsRun = st.TimestepsRun
	res.Outputs = st.Outputs
	return agreed + 1, nil
}
