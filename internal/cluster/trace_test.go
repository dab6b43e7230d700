package cluster

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"tsgraph/internal/algorithms"
	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/gen"
	"tsgraph/internal/obs"
	"tsgraph/internal/subgraph"
)

// TestGatherTracesMergesFourRankMesh is the tracing acceptance path: a
// 4-rank loopback mesh runs distributed TDSP with a tracer per node, rank
// 0 gathers every shard, and the merged trace must validate — one process
// row per rank, monotonic aligned timestamps, and every receiver exchange
// span resolvable to its sender span.
func TestGatherTracesMergesFourRankMesh(t *testing.T) {
	const k = 4
	f := newDistFixture(t, k)
	tracers := make([]*obs.Tracer, k)
	nodes, meshes := mesh(t, k, f.parts, func(rank int, cfg *Config) {
		tracers[rank] = obs.NewTracer(0)
		tracers[rank].Enable()
		cfg.Tracer = tracers[rank]
	})

	requireNoErrors(t, eachRank(k, func(r int) error {
		_, err := algorithms.NewTDSP(meshes[r].Local, 0, 20, gen.AttrLatency).Sweep(&core.Job{
			Template: f.tmpl,
			Source:   core.MemorySource{C: f.coll},
			Tracer:   tracers[r],
			Mesh:     meshes[r],
		})
		return err
	}))

	// Non-zero ranks ship their shards, then rank 0 collects all four.
	for r := 1; r < k; r++ {
		if _, err := nodes[r].GatherTraces(5 * time.Second); err != nil {
			t.Fatalf("rank %d ship: %v", r, err)
		}
	}
	shards, err := nodes[0].GatherTraces(5 * time.Second)
	if err != nil {
		t.Fatalf("gather: %v", err)
	}
	if len(shards) != k {
		t.Fatalf("gathered %d shards, want %d", len(shards), k)
	}
	m := obs.MergeTraces(shards)
	if err := m.Validate(); err != nil {
		t.Fatalf("merged trace invalid: %v", err)
	}
	if len(m.Ranks) != k {
		t.Fatalf("merged ranks = %v", m.Ranks)
	}
	sends, recvs := 0, 0
	prev := int64(-1)
	for _, sp := range m.Spans {
		if sp.Start < prev {
			t.Fatalf("aligned spans not monotonic: %d after %d", sp.Start, prev)
		}
		prev = sp.Start
		switch sp.Kind {
		case obs.SpanWireSend:
			sends++
		case obs.SpanWireRecv:
			recvs++
		}
	}
	if sends == 0 || recvs == 0 {
		t.Fatalf("no cross-rank wire spans recorded (send %d, recv %d)", sends, recvs)
	}

	// The Chrome export must carry one process row per rank.
	var sb strings.Builder
	if err := m.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &parsed); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	procs := map[string]bool{}
	for _, ev := range parsed.TraceEvents {
		if ev["ph"] == "M" && ev["name"] == "process_name" {
			procs[ev["args"].(map[string]any)["name"].(string)] = true
		}
	}
	for _, want := range []string{"rank 0 driver", "rank 1 driver", "rank 2 driver", "rank 3 driver"} {
		if !procs[want] {
			t.Fatalf("missing process row %q (have %v)", want, procs)
		}
	}

	// Handshake clock probes must have produced an offset estimate (and an
	// RTT-bounded one: offsets across loopback are sub-second).
	offs := nodes[0].ClockOffsets()
	if len(offs) != k {
		t.Fatalf("ClockOffsets len = %d, want %d", len(offs), k)
	}
	for r := 1; r < k; r++ {
		if d := offs[r]; d < -time.Second || d > time.Second {
			t.Fatalf("implausible loopback offset to rank %d: %v", r, d)
		}
	}
	if nodes[0].OffsetToRank0() != 0 {
		t.Fatal("rank 0 must be its own clock reference")
	}
}

// stallOnce keeps subgraphs active for limit supersteps and injects one
// long sleep at a chosen superstep — the stall the watchdog must catch.
type stallOnce struct {
	at    int
	delay time.Duration
	limit int
	once  sync.Once
}

func (p *stallOnce) Compute(ctx *core.Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
	if timestep == 0 && superstep == p.at {
		p.once.Do(func() { time.Sleep(p.delay) })
	}
	if superstep >= p.limit {
		ctx.VoteToHalt()
	}
}

// TestClusterWatchdogNamesStalledRank attaches a watchdog to rank 0's
// barrier and injects a 10x stall on rank 1: exactly one structured
// warning must fire, naming rank 1.
func TestClusterWatchdogNamesStalledRank(t *testing.T) {
	const k = 2
	f := newDistFixture(t, k)
	tracer := obs.NewTracer(0)
	tracer.Enable()
	log := &strings.Builder{}
	var logMu sync.Mutex
	var wd *obs.Watchdog
	_, meshes := mesh(t, k, f.parts, func(rank int, cfg *Config) {
		if rank == 0 {
			wd = obs.NewWatchdog(obs.WatchdogConfig{
				Parties: k,
				MinWait: 50 * time.Millisecond,
				Poll:    5 * time.Millisecond,
				Tracer:  tracer,
				Log:     lockedWriter{&logMu, log},
				Describe: func(p int) string {
					return "rank 1 suspect" // only party 1 can stall here
				},
			})
			cfg.Watchdog = wd
		}
	})
	defer wd.Close()

	requireNoErrors(t, eachRank(k, func(r int) error {
		prog := &stallOnce{limit: 6}
		if r == 1 {
			prog.at = 4
			prog.delay = 500 * time.Millisecond // 10x the 50ms floor
		}
		_, err := core.Run(&core.Job{
			Template: f.tmpl,
			Source:   core.MemorySource{C: f.coll},
			Program:  prog, Pattern: core.SequentiallyDependent,
			Mesh: meshes[r],
		})
		return err
	}))

	warns := wd.Warnings()
	if len(warns) != 1 {
		t.Fatalf("got %d warnings, want exactly 1: %+v", len(warns), warns)
	}
	if warns[0].Party != 1 {
		t.Fatalf("warning blamed party %d, want rank 1: %+v", warns[0].Party, warns[0])
	}
	if warns[0].Step != 4 || warns[0].TS != 0 {
		t.Fatalf("warning at t%d s%d, want t0 s4", warns[0].TS, warns[0].Step)
	}
	logMu.Lock()
	line := log.String()
	logMu.Unlock()
	if !strings.Contains(line, "rank 1 suspect") {
		t.Fatalf("stderr report does not name the suspect: %q", line)
	}
	stalls := 0
	for _, sp := range tracer.Spans() {
		if sp.Kind == obs.SpanStall {
			stalls++
			if sp.Part != 1 {
				t.Fatalf("stall span blames partition %d, want rank 1", sp.Part)
			}
		}
	}
	if stalls != 1 {
		t.Fatalf("recorded %d stall spans, want 1", stalls)
	}
}

// lockedWriter serializes watchdog log writes against test reads.
type lockedWriter struct {
	mu *sync.Mutex
	w  *strings.Builder
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
