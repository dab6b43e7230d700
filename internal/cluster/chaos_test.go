package cluster

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"tsgraph/internal/algorithms"
	"tsgraph/internal/chaos"
	"tsgraph/internal/core"
	"tsgraph/internal/gen"
	"tsgraph/internal/gofs"
	"tsgraph/internal/graph"
	"tsgraph/internal/partition"
	"tsgraph/internal/subgraph"
)

// chaosSeed returns the fault-injection seed: CHAOS_SEED when set (the
// nightly chaos CI job sweeps random seeds through it), 42 otherwise.
func chaosSeed(tb testing.TB) int64 {
	tb.Helper()
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		s, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			tb.Fatalf("bad CHAOS_SEED %q: %v", v, err)
		}
		tb.Logf("CHAOS_SEED=%d", s)
		return s
	}
	return 42
}

// testResilience is a retry config tuned for loopback tests: fast backoff,
// a recovery window generous enough for loaded CI machines.
func testResilience() *Resilience {
	return &Resilience{
		BackoffBase:    2 * time.Millisecond,
		BackoffCap:     50 * time.Millisecond,
		RecoveryWindow: 20 * time.Second,
	}
}

// tdspReference computes the single-process arrivals the distributed chaos
// runs must reproduce.
func tdspReference(tb testing.TB, f *distFixture) []float64 {
	tb.Helper()
	refProg := algorithms.NewTDSP(f.parts, 0, 20, gen.AttrLatency)
	if _, err := core.Run(&core.Job{
		Template: f.tmpl, Parts: f.parts,
		Source:  core.MemorySource{C: f.coll},
		Program: refProg, Pattern: core.SequentiallyDependent,
	}); err != nil {
		tb.Fatal(err)
	}
	return refProg.Arrivals(f.parts, f.tmpl)
}

func requireSameArrivals(tb testing.TB, want, got []float64) {
	tb.Helper()
	for v := range want {
		if math.IsInf(want[v], 1) != math.IsInf(got[v], 1) ||
			(!math.IsInf(want[v], 1) && math.Abs(want[v]-got[v]) > 1e-9) {
			tb.Fatalf("vertex %d: chaos run arrival %v, reference %v", v, got[v], want[v])
		}
	}
}

// TestChaosSendFaultReconnectsAndMatches severs rank 1's outgoing link on
// its Nth frame send — deterministically, independent of seed — and
// requires the run to retry, reconnect, replay, and still produce the
// single-process TDSP answer.
func TestChaosSendFaultReconnectsAndMatches(t *testing.T) {
	const k = 3
	f := newDistFixture(t, k)
	want := tdspReference(t, f)

	seed := chaosSeed(t)
	nodes, meshes := mesh(t, k, f.parts, func(rank int, cfg *Config) {
		cfg.Resilience = testResilience()
		if rank == 1 {
			cfg.Chaos = chaos.New(seed).SetAt(chaos.SiteWireSend, 5)
		}
	})
	got := runDistributedTDSP(t, f, meshes)
	requireSameArrivals(t, want, got)

	rc := nodes[1].Recovery()
	retries, reconnects := rc.Retries, rc.Reconnects
	if retries < 1 || reconnects < 1 {
		t.Fatalf("rank 1 retries=%d reconnects=%d, want >=1 each after injected send fault", retries, reconnects)
	}
}

// TestChaosRecvFaultReconnectsAndMatches severs an inbound connection at
// rank 2 mid-stream (the wire.recv site closes the socket after a decode);
// the affected sender must notice on its next send, reconnect, and the
// receiver's sequence dedup must discard the replayed duplicates.
func TestChaosRecvFaultReconnectsAndMatches(t *testing.T) {
	const k = 3
	f := newDistFixture(t, k)
	want := tdspReference(t, f)

	seed := chaosSeed(t)
	nodes, meshes := mesh(t, k, f.parts, func(rank int, cfg *Config) {
		cfg.Resilience = testResilience()
		if rank == 2 {
			cfg.Chaos = chaos.New(seed).SetAt(chaos.SiteWireRecv, 10)
		}
	})
	got := runDistributedTDSP(t, f, meshes)
	requireSameArrivals(t, want, got)

	var reconnects int64
	for _, n := range nodes {
		reconnects += n.Recovery().Reconnects
	}
	if reconnects < 1 {
		t.Fatalf("no rank reconnected after injected receive fault")
	}
}

// TestChaosBarrierFaultReconnectsAndMatches targets the synchronization
// protocol: rank 0's second EOS/TEOS barrier frame send is severed. Barrier
// consensus must survive the reconnect-and-replay without double-counting
// (the receiver drops replayed frames by sequence).
func TestChaosBarrierFaultReconnectsAndMatches(t *testing.T) {
	const k = 3
	f := newDistFixture(t, k)
	want := tdspReference(t, f)

	seed := chaosSeed(t)
	nodes, meshes := mesh(t, k, f.parts, func(rank int, cfg *Config) {
		cfg.Resilience = testResilience()
		if rank == 0 {
			cfg.Chaos = chaos.New(seed).SetAt(chaos.SiteBarrierEOS, 2)
		}
	})
	got := runDistributedTDSP(t, f, meshes)
	requireSameArrivals(t, want, got)

	rc := nodes[0].Recovery()
	retries, reconnects := rc.Retries, rc.Reconnects
	if retries < 1 || reconnects < 1 {
		t.Fatalf("rank 0 retries=%d reconnects=%d, want >=1 each after injected barrier fault", retries, reconnects)
	}
}

// TestChaosRandomFaultsStillCorrect is the seed-swept soak: every rank runs
// with probabilistic send and receive faults drawn from CHAOS_SEED. The
// answer must match the fault-free reference regardless of which frames the
// seed happens to hit; whenever a send fault fired, the transport must show
// retry work.
func TestChaosRandomFaultsStillCorrect(t *testing.T) {
	const k = 3
	f := newDistFixture(t, k)
	want := tdspReference(t, f)

	seed := chaosSeed(t)
	injectors := make([]*chaos.Injector, k)
	nodes, meshes := mesh(t, k, f.parts, func(rank int, cfg *Config) {
		cfg.Resilience = testResilience()
		injectors[rank] = chaos.New(seed+int64(rank)).
			SetProb(chaos.SiteWireSend, 0.05).
			SetProb(chaos.SiteWireRecv, 0.01).
			SetProb(chaos.SiteBarrierEOS, 0.01)
		cfg.Chaos = injectors[rank]
	})
	got := runDistributedTDSP(t, f, meshes)
	requireSameArrivals(t, want, got)

	for r, inj := range injectors {
		stats := inj.Stats()
		retries := nodes[r].Recovery().Retries
		if fired := stats[chaos.SiteWireSend][1]; fired > 0 && retries == 0 {
			t.Errorf("rank %d: %d send faults fired but no retries recorded", r, fired)
		}
		t.Logf("rank %d: chaos %v, retries %d", r, stats, retries)
	}
}

// chaosKillFixture is the kill/resume dataset: a GoFS-backed time series so
// the gofs.load failpoint and the checkpoint files share a real store.
type chaosKillFixture struct {
	tmpl  *graph.Template
	parts []*subgraph.PartitionData
	dir   string // GoFS dataset
}

func newChaosKillFixture(tb testing.TB, k int) *chaosKillFixture {
	tb.Helper()
	tmpl := gen.RoadNetwork(gen.RoadConfig{Rows: 12, Cols: 12, RemoveFrac: 0.1, Seed: 9})
	coll, err := gen.RandomLatencies(tmpl, gen.LatencyConfig{
		Timesteps: 12, T0: 0, Delta: 20, Min: 1, Max: 30, Seed: 10,
	})
	if err != nil {
		tb.Fatal(err)
	}
	a, err := (partition.Multilevel{Seed: 11}).Partition(tmpl, k)
	if err != nil {
		tb.Fatal(err)
	}
	parts, err := subgraph.Build(tmpl, a)
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	if err := gofs.WriteDataset(dir, coll, a, 4, 0); err != nil {
		tb.Fatal(err)
	}
	return &chaosKillFixture{tmpl: tmpl, parts: parts, dir: dir}
}

// openLoader opens one rank's view of the GoFS dataset.
func (f *chaosKillFixture) openLoader(tb testing.TB) *gofs.Loader {
	tb.Helper()
	store, err := gofs.Open(f.dir)
	if err != nil {
		tb.Fatal(err)
	}
	return gofs.NewLoader(store)
}

// killRunResult is one rank's outcome from a kill-fixture run.
type killRunResult struct {
	err    error
	res    *core.Result
	loader *gofs.Loader
}

// runTDSPRanks runs distributed TDSP over the kill fixture, one goroutine
// per rank, with per-rank job mutation (checkpoint config, chaos'd loader)
// and an optional per-rank post-run hook (the "kill": closing the failed
// node so peers observe its death). Returns per-rank outcomes and the
// merged arrivals of the ranks that finished.
func runTDSPRanks(
	tb testing.TB,
	f *chaosKillFixture,
	meshes []*core.Mesh,
	mutate func(rank int, job *core.Job, loader *gofs.Loader),
	after func(rank int, err error),
) ([]killRunResult, []float64) {
	tb.Helper()
	merged := make([]float64, f.tmpl.NumVertices())
	for i := range merged {
		merged[i] = algorithms.Inf
	}
	outs := make([]killRunResult, len(meshes))
	var mu sync.Mutex
	eachRank(len(meshes), func(r int) error {
		local := meshes[r].Local
		loader := f.openLoader(tb)
		prog := algorithms.NewTDSP(local, 0, 20, gen.AttrLatency)
		job := &core.Job{
			Template: f.tmpl,
			Source:   loader,
			Mesh:     meshes[r],
		}
		if mutate != nil {
			mutate(r, job, loader)
		}
		res, err := prog.Sweep(job)
		outs[r] = killRunResult{err: err, res: res, loader: loader}
		if after != nil {
			after(r, err)
		}
		if err != nil {
			return err
		}
		arr := prog.Arrivals(local, f.tmpl)
		mu.Lock()
		for _, pd := range local {
			for _, g := range pd.GlobalIdx {
				merged[g] = arr[g]
			}
		}
		mu.Unlock()
		return nil
	})
	return outs, merged
}

func gobBytes(tb testing.TB, v any) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestChaosKillResumeByteIdentical is the fault-tolerance acceptance path:
// a 4-rank run checkpoints at every timestep boundary until an injected
// gofs.load fault kills rank 2 partway through (its node closes, so peers
// die too — a process kill in miniature). A fresh mesh then resumes from
// the checkpoints: ranks agree the cluster-wide resume point over the wire
// and replay only the remaining timesteps. The resumed run's arrival table
// must be byte-identical to an uninterrupted run's.
func TestChaosKillResumeByteIdentical(t *testing.T) {
	const k = 4
	f := newChaosKillFixture(t, k)

	// Uninterrupted reference over the identical GoFS dataset.
	_, refMeshes := mesh(t, k, f.parts, nil)
	refOuts, refArrivals := runTDSPRanks(t, f, refMeshes, nil, nil)
	for r, out := range refOuts {
		if out.err != nil {
			t.Fatalf("reference rank %d: %v", r, out.err)
		}
	}
	want := gobBytes(t, refArrivals)

	// Interrupted run: checkpoint every timestep; rank 2's second pack
	// materialization (timestep 4, pack size 4) raises an injected fault.
	ckdir := t.TempDir()
	seed := chaosSeed(t)
	killNodes, killMeshes := mesh(t, k, f.parts, nil)
	killOuts, _ := runTDSPRanks(t, f, killMeshes,
		func(rank int, job *core.Job, loader *gofs.Loader) {
			job.CheckpointDir = ckdir
			job.CheckpointRank = rank
			if rank == 2 {
				loader.Chaos = chaos.New(seed).SetAt(chaos.SiteGoFSLoad, 2)
			}
		},
		func(rank int, err error) {
			if rank == 2 {
				// The injected fault aborted this rank's run; close its node so
				// the mesh observes the death instead of waiting on barriers.
				// But not immediately: rank 2 reached timestep 4, so every peer
				// *will* finish timestep 3 (rank 2's temporal frames for the
				// t3 barrier are already on the wire) — yet a peer may still be
				// draining that exchange, and an instant Close RSTs delivered-
				// but-unread frames, aborting the peer before it writes its t3
				// checkpoint. Wait for the peers' boundary checkpoints to land
				// on disk, then sever.
				deadline := time.Now().Add(10 * time.Second)
				for r := 0; r < k; r++ {
					if r == 2 {
						continue
					}
					for time.Now().Before(deadline) {
						if ts, _, err := gofs.LatestCheckpoint(ckdir, r); err == nil && ts >= 3 {
							break
						}
						time.Sleep(time.Millisecond)
					}
				}
				killNodes[2].Close()
			}
		})
	if killOuts[2].err == nil || !chaos.IsInjected(killOuts[2].err) {
		t.Fatalf("rank 2 error = %v, want injected gofs.load fault", killOuts[2].err)
	}
	for r, out := range killOuts {
		if r != 2 && out.err == nil {
			t.Fatalf("rank %d finished despite rank 2 dying mid-run", r)
		}
	}
	// Every rank checkpointed through timestep 3 and none past it (timestep
	// 4's boundary is unreachable without rank 2).
	for r := 0; r < k; r++ {
		ts, _, err := gofs.LatestCheckpoint(ckdir, r)
		if err != nil {
			t.Fatalf("rank %d latest checkpoint: %v", r, err)
		}
		if ts != 3 {
			t.Fatalf("rank %d latest checkpoint covers timestep %d, want 3", r, ts)
		}
	}

	// Resume on a fresh mesh: consensus picks the common resume point and
	// the remaining 8 timesteps replay.
	resumeNodes, resumeMeshes := mesh(t, k, f.parts, nil)
	resumeOuts, resumeArrivals := runTDSPRanks(t, f, resumeMeshes,
		func(rank int, job *core.Job, loader *gofs.Loader) {
			job.CheckpointDir = ckdir
			job.CheckpointRank = rank
			job.Resume = true
			job.ResumeConsensus = resumeNodes[rank].AgreeResume
		}, nil)
	for r, out := range resumeOuts {
		if out.err != nil {
			t.Fatalf("resumed rank %d: %v", r, out.err)
		}
		if out.res.TimestepsRun != 12 {
			t.Fatalf("resumed rank %d ran %d timesteps, want 12", r, out.res.TimestepsRun)
		}
		// Timesteps 0–3 came from the checkpoint: only packs 4–7 and 8–11
		// were materialized.
		if out.loader.PackLoads > 2 {
			t.Errorf("resumed rank %d materialized %d packs, want <=2 (resume skips completed timesteps)", r, out.loader.PackLoads)
		}
	}
	got := gobBytes(t, resumeArrivals)
	if !bytes.Equal(want, got) {
		t.Fatal("resumed run's arrivals differ from the uninterrupted run's")
	}
}
