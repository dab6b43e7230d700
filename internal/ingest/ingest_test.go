package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/gen"
	"tsgraph/internal/gofs"
	"tsgraph/internal/graph"
	"tsgraph/internal/partition"
	"tsgraph/internal/subgraph"
)

// seedDataset writes a small delta-encoded dataset (latency edge floats +
// tweets vertex string-lists) and returns its template.
func seedDataset(t *testing.T, dir string, steps int) *graph.Template {
	t.Helper()
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 6, Cols: 6, RemoveFrac: 0.1, Seed: 3})
	c, err := gen.RandomLatencies(g, gen.LatencyConfig{Timesteps: steps, T0: 1000, Delta: 60, Min: 1, Max: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sir, err := gen.SIRTweets(g, gen.SIRConfig{Timesteps: steps, T0: 1000, Delta: 60, Memes: []string{"#m"}, HitProb: 0.4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ti := g.VertexSchema().Index(gen.AttrTweets)
	for s := 0; s < steps; s++ {
		c.Instance(s).VertexCols[ti] = sir.Collection.Instance(s).VertexCols[ti]
	}
	a, err := (partition.Multilevel{Seed: 6}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := gofs.WriteDatasetOptions(dir, c, a, gofs.Options{Pack: 4, Bin: 2, SnapshotEvery: 3}); err != nil {
		t.Fatal(err)
	}
	return g
}

// testMutation builds a deterministic mutation for one appended timestep:
// a couple of vertex tweet-list changes and one edge latency change.
func testMutation(g *graph.Template, step int) *Mutation {
	v1 := step % g.NumVertices()
	v2 := (step * 7) % g.NumVertices()
	// Any vertex with at least one out-edge.
	src := v1
	lo, hi := g.OutEdges(src)
	for hi == lo {
		src = (src + 1) % g.NumVertices()
		lo, hi = g.OutEdges(src)
	}
	dst := g.Target(lo)
	return &Mutation{
		Vertices: []VertexSet{
			{ID: int64(g.VertexID(v1)), Attr: gen.AttrTweets,
				Value: json.RawMessage(fmt.Sprintf(`["#m","s%d"]`, step))},
			{ID: int64(g.VertexID(v2)), Attr: gen.AttrTweets,
				Value: json.RawMessage(`[]`)},
		},
		Edges: []EdgeSet{
			{Src: int64(g.VertexID(src)), Dst: int64(g.VertexID(dst)),
				Attr: gen.AttrLatency, Value: json.RawMessage(fmt.Sprintf(`%d.5`, step))},
		},
	}
}

// datasetBytes snapshots manifest + every slice file (the WAL is excluded:
// it is allowed to differ between an interrupted and a clean run).
func datasetBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	man, err := os.ReadFile(filepath.Join(dir, "manifest.gofs"))
	if err != nil {
		t.Fatal(err)
	}
	out["manifest.gofs"] = man
	entries, err := os.ReadDir(filepath.Join(dir, "slices"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, "slices", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out["slices/"+e.Name()] = data
	}
	return out
}

// unpublished returns, for every slice file of the uninterrupted run A
// that run B does not yet hold byte for byte, B's bytes and A's. Because a
// live pack grows by appending records, B's are a prefix of A's: the
// difference is the last step's records, which a crash between the record
// fsync and the manifest bump would leave on disk.
func unpublished(t *testing.T, dirA, dirB string) map[string][2][]byte {
	t.Helper()
	a, b := datasetBytes(t, dirA), datasetBytes(t, dirB)
	out := map[string][2][]byte{}
	for name, want := range a {
		if name == "manifest.gofs" || bytes.Equal(want, b[name]) {
			continue
		}
		if !bytes.HasPrefix(want, b[name]) {
			t.Fatalf("%s: the published file is not a prefix of the grown one", name)
		}
		out[name] = [2][]byte{b[name], want}
	}
	if len(out) == 0 {
		t.Fatal("the last step changed no slice file")
	}
	return out
}

// TestIngestCrashConsistency is the crash matrix of a live append: ingest
// K timesteps uninterrupted (run A); separately ingest K-1, make the Kth
// mutation's WAL record durable, leave the disk as a crash at one point
// of the Kth append would, and reopen (run B). Every cell must recover a
// dataset byte-identical to run A — manifest and every slice file — and
// to an offline write of what it recovered. An unacked cell loses the WAL
// record too, so it recovers K-1 steps, and only the second oracle holds.
func TestIngestCrashConsistency(t *testing.T) {
	const seedSteps = 5 // packs of 4: the seed's tail pack holds step 4
	for _, tc := range []struct {
		name     string
		appended int
		unacked  bool
		crash    func(t *testing.T, dirA, dirB string)
	}{
		// Killed after the WAL fsync but before any record write, with a
		// torn half WAL record behind it.
		{"wal-only", 6, false, func(t *testing.T, _, dirB string) {
			f, err := os.OpenFile(WALPath(dirB), os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write([]byte("GoWL\x01\x00\x00")); err != nil {
				t.Fatal(err)
			}
		}},
		// Killed after every bin's record was fsynced, before the manifest
		// bump: the records sit past the published end.
		{"records-unpublished", 6, false, func(t *testing.T, dirA, dirB string) {
			for name, d := range unpublished(t, dirA, dirB) {
				writeFile(t, filepath.Join(dirB, name), d[1])
			}
		}},
		// Killed mid-write of one bin's record.
		{"torn-record", 6, false, func(t *testing.T, dirA, dirB string) {
			for name, d := range unpublished(t, dirA, dirB) {
				pub, grown := d[0], d[1]
				writeFile(t, filepath.Join(dirB, name), grown[:len(pub)+(len(grown)-len(pub))/2])
				return
			}
		}},
		// Killed mid-record before the WAL record was synced: the append
		// was never acked, and its torn record must not survive into the
		// next append's file.
		{"unacked-torn-record", 6, true, func(t *testing.T, dirA, dirB string) {
			for name, d := range unpublished(t, dirA, dirB) {
				pub, grown := d[0], d[1]
				writeFile(t, filepath.Join(dirB, name), grown[:len(pub)+(len(grown)-len(pub))/2])
			}
		}},
		// The unpublished step is the first of a new pack (step 8): its
		// files exist, holding a header and one record each.
		{"new-pack", 4, false, func(t *testing.T, dirA, dirB string) {
			for name, d := range unpublished(t, dirA, dirB) {
				if len(d[0]) != 0 {
					t.Fatalf("%s existed before the new pack's first step", name)
				}
				writeFile(t, filepath.Join(dirB, name), d[1])
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			muts := func(g *graph.Template) []*Mutation {
				var ms []*Mutation
				for i := 0; i < tc.appended; i++ {
					ms = append(ms, testMutation(g, seedSteps+i))
				}
				return ms
			}

			// Run A: uninterrupted.
			dirA := t.TempDir()
			gA := seedDataset(t, dirA, seedSteps)
			storeA, err := gofs.Open(dirA)
			if err != nil {
				t.Fatal(err)
			}
			ingA, err := Open(storeA, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range muts(gA) {
				if _, err := ingA.Apply(m); err != nil {
					t.Fatal(err)
				}
			}
			if got := ingA.Watermark(); got != seedSteps+tc.appended {
				t.Fatalf("watermark = %d, want %d", got, seedSteps+tc.appended)
			}
			ingA.Close()

			// Run B: all but the last mutation, then its durable WAL
			// record, then the cell's crash state.
			dirB := t.TempDir()
			gB := seedDataset(t, dirB, seedSteps)
			storeB, err := gofs.Open(dirB)
			if err != nil {
				t.Fatal(err)
			}
			ingB, err := Open(storeB, Options{})
			if err != nil {
				t.Fatal(err)
			}
			msB := muts(gB)
			for _, m := range msB[:tc.appended-1] {
				if _, err := ingB.Apply(m); err != nil {
					t.Fatal(err)
				}
			}
			ingB.Close()
			wantWM := seedSteps + tc.appended
			if tc.unacked {
				wantWM--
			} else {
				last := msB[tc.appended-1]
				ts := seedSteps + tc.appended - 1
				last.Timestep = &ts
				payload, err := json.Marshal(last)
				if err != nil {
					t.Fatal(err)
				}
				wal, _, err := gofs.OpenWAL(WALPath(dirB))
				if err != nil {
					t.Fatal(err)
				}
				if err := wal.Append(payload); err != nil {
					t.Fatal(err)
				}
				wal.Close()
			}
			tc.crash(t, dirA, dirB)

			// Restart: the Appender cuts what the manifest does not cover,
			// and replay folds the last mutation again.
			storeB2, err := gofs.Open(dirB)
			if err != nil {
				t.Fatal(err)
			}
			ingB2, err := Open(storeB2, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer ingB2.Close()
			if got := ingB2.Watermark(); got != wantWM {
				t.Fatalf("recovered watermark = %d, want %d", got, wantWM)
			}
			if !tc.unacked {
				sameDataset(t, "clean", dirA, dirB)
			}
			c, err := storeB2.LoadAll()
			if err != nil {
				t.Fatalf("recovered dataset unreadable: %v", err)
			}
			offline := t.TempDir()
			if err := gofs.WriteDatasetOptions(offline, c, storeB2.Assignment(), gofs.Options{Pack: 4, Bin: 2, SnapshotEvery: 3}); err != nil {
				t.Fatal(err)
			}
			sameDataset(t, "offline", offline, dirB)
		})
	}
}

// sameDataset fails unless the recovered dataset at got holds exactly the
// manifest and slice files of the one at want.
func sameDataset(t *testing.T, what, want, got string) {
	t.Helper()
	w, g := datasetBytes(t, want), datasetBytes(t, got)
	for name := range g {
		if _, ok := w[name]; !ok {
			t.Errorf("recovered run has %s, the %s run does not", name, what)
		}
	}
	for name, data := range w {
		if !bytes.Equal(data, g[name]) {
			t.Errorf("%s differs between the %s and the recovered run", name, what)
		}
	}
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestIngestReplayIsIdempotent: reopening without a crash (empty or fully
// covered WAL) changes nothing.
func TestIngestReplayIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	g := seedDataset(t, dir, 5)
	store, err := gofs.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := Open(store, Options{WALRotateRecords: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := ing.Apply(testMutation(g, 5+i)); err != nil {
			t.Fatal(err)
		}
	}
	ing.Close()
	before := datasetBytes(t, dir)

	store2, err := gofs.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ing2, err := Open(store2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ing2.Close()
	if ing2.Watermark() != 8 {
		t.Fatalf("watermark = %d, want 8", ing2.Watermark())
	}
	after := datasetBytes(t, dir)
	for name, want := range before {
		if !bytes.Equal(want, after[name]) {
			t.Errorf("%s changed across a clean reopen", name)
		}
	}
}

// TestIngestValidation: bad mutations are rejected with ErrBadMutation,
// stale/future timesteps with ErrTimestepGap, and neither advances the
// watermark or leaves WAL records behind.
func TestIngestValidation(t *testing.T) {
	dir := t.TempDir()
	g := seedDataset(t, dir, 5)
	store, err := gofs.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := Open(store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	bad := []*Mutation{
		{Vertices: []VertexSet{{ID: 999999, Attr: gen.AttrTweets, Value: json.RawMessage(`[]`)}}},
		{Vertices: []VertexSet{{ID: int64(g.VertexID(0)), Attr: "nope", Value: json.RawMessage(`[]`)}}},
		{Vertices: []VertexSet{{ID: int64(g.VertexID(0)), Attr: gen.AttrTweets, Value: json.RawMessage(`3`)}}},
		{Edges: []EdgeSet{{Src: int64(g.VertexID(0)), Dst: int64(g.VertexID(0)), Attr: gen.AttrLatency, Value: json.RawMessage(`1`)}}},
	}
	for i, m := range bad {
		if _, err := ing.Apply(m); err == nil {
			t.Errorf("bad mutation %d accepted", i)
		} else if !strings.Contains(err.Error(), "bad mutation") {
			t.Errorf("bad mutation %d: unexpected error %v", i, err)
		}
	}
	wrong := testMutation(g, 5)
	ts := 7
	wrong.Timestep = &ts
	if _, err := ing.Apply(wrong); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Errorf("timestep gap not rejected: %v", err)
	}
	if ing.Watermark() != 5 {
		t.Fatalf("failed mutations advanced watermark to %d", ing.Watermark())
	}
	if got, _, err := gofs.ReplayWAL(WALPath(dir)); err != nil || len(got) != 0 {
		t.Fatalf("failed mutations left %d WAL records (err %v)", len(got), err)
	}
	if ing.Metrics().failures.Load() != 5 {
		t.Fatalf("failures counter = %d, want 5", ing.Metrics().failures.Load())
	}
}

// TestIngestRetention: what a live-grown dataset retains on disk is
// exactly what an offline write of the same collection holds — the same
// file names with the same bytes, and no superseded generation, part file
// or temp file beside them.
func TestIngestRetention(t *testing.T) {
	dir := t.TempDir()
	g := seedDataset(t, dir, 5)
	store, err := gofs.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := Open(store, Options{WALRotateRecords: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := ing.Apply(testMutation(g, 5+i)); err != nil {
			t.Fatal(err)
		}
	}
	ing.Close()
	c, err := store.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	offline := t.TempDir()
	if err := gofs.WriteDatasetOptions(offline, c, store.Assignment(), gofs.Options{Pack: 4, Bin: 2, SnapshotEvery: 3}); err != nil {
		t.Fatal(err)
	}
	sameDataset(t, "offline", offline, dir)
}

// TestIngestHTTP drives the handler end to end: accepted mutations answer
// 200 with the watermark header, malformed bodies 400, gaps 409, and
// non-POST methods 405.
func TestIngestHTTP(t *testing.T) {
	dir := t.TempDir()
	g := seedDataset(t, dir, 5)
	store, err := gofs.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := Open(store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	srv := httptest.NewServer(ing.Handler())
	defer srv.Close()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	m, _ := json.Marshal(testMutation(g, 5))
	resp := post(string(m))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good mutation: status %d", resp.StatusCode)
	}
	if wm := resp.Header.Get(WatermarkHeader); wm != "6" {
		t.Fatalf("watermark header = %q, want 6", wm)
	}
	var body ingestResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Timestep != 5 || body.Watermark != 6 {
		t.Fatalf("response = %+v", body)
	}

	if resp := post(`{"bogus_field":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
	if resp := post(`{"vertices":[{"id":1,"attr":"nope","value":[]}]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown attr: status %d, want 400", resp.StatusCode)
	}
	if resp := post(`{"timestep":99}`); resp.StatusCode != http.StatusConflict {
		t.Errorf("gap: status %d, want 409", resp.StatusCode)
	}
	getResp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", getResp.StatusCode)
	}
}

// tagCountProgram is a minimal incremental-safe TI-BSP program (same shape
// as core's own incremental tests): each subgraph retains its max tag
// count across timesteps.
type tagCountProgram struct {
	attr string
	mu   sync.Mutex
	best map[subgraph.ID]int
}

func (p *tagCountProgram) IncrementalSafe() {}

func (p *tagCountProgram) Compute(ctx *core.Context, sg *subgraph.Subgraph, timestep, superstep int, msgs []bsp.Message) {
	tweets := ctx.Instance().VertexStringLists(ctx.Template(), p.attr)
	count := 0
	for _, lv := range sg.Verts {
		count += len(tweets[sg.Part.GlobalIdx[lv]])
	}
	p.mu.Lock()
	if count > p.best[sg.SID] {
		p.best[sg.SID] = count
	}
	p.mu.Unlock()
	ctx.VoteToHalt()
}

func (p *tagCountProgram) EndOfTimestep(ctx *core.EndContext, sg *subgraph.Subgraph, timestep int) {
	p.mu.Lock()
	best := p.best[sg.SID]
	p.mu.Unlock()
	ctx.Output(best)
}

// TestIngestComposesWithIncremental: a dataset grown by live ingestion
// carries change summaries the incremental scheduler can consume —
// Job.Incremental over the appended prefix skips clean subgraphs yet
// produces outputs identical to a full recompute.
func TestIngestComposesWithIncremental(t *testing.T) {
	dir := t.TempDir()
	g := seedDataset(t, dir, 5)
	store, err := gofs.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := Open(store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	// Alternate real changes with empty "tick" timesteps (the clock
	// advances, nothing changed): ticks on delta-encoded steps yield empty
	// change summaries every subgraph can skip.
	for i := 0; i < 6; i++ {
		mut := &Mutation{}
		if i%2 == 0 {
			mut.Vertices = []VertexSet{{
				ID: int64(g.VertexID(i % 3)), Attr: gen.AttrTweets,
				Value: json.RawMessage(fmt.Sprintf(`["#m","live%d"]`, i)),
			}}
		}
		if _, err := ing.Apply(mut); err != nil {
			t.Fatal(err)
		}
	}

	parts, err := subgraph.Build(g, store.Assignment())
	if err != nil {
		t.Fatal(err)
	}
	run := func(incremental bool) (*tagCountProgram, *core.Result) {
		s, err := gofs.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		prog := &tagCountProgram{attr: gen.AttrTweets, best: map[subgraph.ID]int{}}
		res, err := core.Run(&core.Job{
			Template: g, Parts: parts,
			Source:      gofs.NewLoader(s),
			Program:     prog,
			Pattern:     core.SequentiallyDependent,
			Incremental: incremental,
		})
		if err != nil {
			t.Fatal(err)
		}
		return prog, res
	}
	fullProg, fullRes := run(false)
	incProg, incRes := run(true)
	if incRes.SubgraphsSkipped == 0 {
		t.Error("incremental run over ingested deltas skipped nothing")
	}
	if len(fullRes.Outputs) != len(incRes.Outputs) {
		t.Fatalf("output counts differ: %d vs %d", len(fullRes.Outputs), len(incRes.Outputs))
	}
	for sid, want := range fullProg.best {
		if incProg.best[sid] != want {
			t.Errorf("subgraph %v best = %d, want %d", sid, incProg.best[sid], want)
		}
	}
}

// TestIngestConcurrentAppends: concurrent Apply calls (no pinned timestep)
// serialize into consecutive timesteps, all succeed, and group commit
// coalesces their WAL fsyncs — strictly fewer fsyncs than appends once the
// commit window lets writers pile up.
func TestIngestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	g := seedDataset(t, dir, 3)
	store, err := gofs.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := Open(store, Options{GroupCommitWindow: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	const writers, perWriter = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < perWriter; r++ {
				mut := testMutation(g, w*perWriter+r)
				mut.Timestep = nil // ride the head
				if _, err := ing.Apply(mut); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	const total = writers * perWriter
	if wm := ing.Watermark(); wm != 3+total {
		t.Fatalf("watermark = %d, want %d", wm, 3+total)
	}
	fsyncs := ing.wal.Fsyncs()
	if fsyncs >= total {
		t.Fatalf("group commit did not coalesce: %d fsyncs for %d appends", fsyncs, total)
	}
	t.Logf("group commit: %d appends in %d fsyncs", total, fsyncs)

	// The dataset must still replay clean: reopen and check the head.
	store2, err := gofs.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := store2.Timesteps(); got != 3+total {
		t.Fatalf("reopened store has %d timesteps, want %d", got, 3+total)
	}
}
