package gofs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"tsgraph/internal/gen"
	"tsgraph/internal/graph"
	"tsgraph/internal/partition"
)

// formatPins maps "case/relative-path" to the SHA-256 of every file the
// format-pin cases write. It makes "the on-disk bytes did not change" an
// executed check: a codec rewrite must reproduce these exactly, and a
// deliberate format change must update them in the same commit.
//
// How the constants were captured: format version 3 (record-framed
// slices, which a live append grows in place) changed every slice and
// manifest byte on purpose, so the table was emptied and TestFormatPinned
// was run on the first version-3 writer; the test prints every file's hash
// as Go source on a mismatch, and that output was pasted here unchanged.
// The template and checkpoint hashes did not move. Before that, the table
// pinned the version-1/2 bytes from the last commit whose codec encoded one
// value per write call; those bytes are now pinned only as read-only
// fixtures under testdata/legacy.
var formatPins = map[string]string{
	"append/manifest.gofs":                   "ed713e8ad364042ef61f5cec322be8197e2328e4c38ae93f739b0f789497d6f0",
	"append/slices/p0_b0_t0.slice":           "78455e5a463d0082ed209e9d5f2867a632a62b3448da47397d67a83d1f0a2925",
	"append/slices/p0_b0_t4.slice":           "26b91a6285f5c8535c03724a3479cd8c04ea6f9c970572f439f1f90dc0486cf5",
	"append/slices/p1_b0_t0.slice":           "d16885ed7122616d879428bc1aa7dfb977332040c2055e7fe53a90b570aa1f95",
	"append/slices/p1_b0_t4.slice":           "c1dd9d6f4e86476d342235895598f13b54ece9822be5d53b786f7c648a982d0f",
	"append/template.gofs":                   "3014f4dc554c597c32ce1beaa5bb1e6957d497c83414448b682cef485cbad78b",
	"checkpoint/ckpt_r1_t00000007.ckpt":      "8b365534abd10c62c23ada6499bb01a397fb7a783a88e4aef945616fbcd18b74",
	"road-delta/manifest.gofs":               "2d4a939011766397fc59f6c9fe81dae8ca42edca9723f84fe4513b010996216b",
	"road-delta/slices/p0_b0_t0.slice":       "5a7d280480f5255b0b5da8469cc99e8be69bf13d2585f2b8c1c84980cbfb7c10",
	"road-delta/slices/p0_b0_t5.slice":       "c29a7835c32affef22eb584392392d8105b666402e20c795637d7436c76bdc9b",
	"road-delta/slices/p1_b0_t0.slice":       "4511201b08b5834803670010325e2c57865effd6f8537b3f3ee24557074b7998",
	"road-delta/slices/p1_b0_t5.slice":       "46d64b981cf7c8c3d4bf837726f0eb00cb3d60060ac22ca864b013326102a0b8",
	"road-delta/template.gofs":               "3014f4dc554c597c32ce1beaa5bb1e6957d497c83414448b682cef485cbad78b",
	"road-full/manifest.gofs":                "2151f77086f4436855af6e23f5bee3eb11fa911b2e10049e0d62431cf9fc2524",
	"road-full/slices/p0_b0_t0.slice":        "415b72d1cafcc4c276b1a76efc9849a979c2624253859daeb0c729e18f75dd6c",
	"road-full/slices/p0_b0_t4.slice":        "b0ef30e8a9ddc3287af4e85fcd4947600d545d4ab37ead439bf9242ab4f15e6e",
	"road-full/slices/p1_b0_t0.slice":        "5e1e099b156805c48c5c434ab8d3c67d0ba186f74287a0a15b0e20b52517e342",
	"road-full/slices/p1_b0_t4.slice":        "275cfda8518fc38710c81c6a832f29028066e46556a38de2f9d9b490f00520aa",
	"road-full/template.gofs":                "3014f4dc554c597c32ce1beaa5bb1e6957d497c83414448b682cef485cbad78b",
	"smallworld-delta/manifest.gofs":         "606d0069a66a755728d3a05866d8de351dd05cc9bdff5684e39f5d9acc79f5f4",
	"smallworld-delta/slices/p0_b0_t0.slice": "a2d54f2be71c2848f7bf5905bef77a3e12fce730842932fb4097132b5d8e0a2b",
	"smallworld-delta/slices/p0_b0_t4.slice": "8b0539a300bad4b7ce9bea77b08bf73120f5b219931de858e97c21c868fbbadb",
	"smallworld-delta/slices/p0_b1_t0.slice": "2ff58e07d09e1e4f7cb6820f1d33f373cec1de45fe0cc93d44555d26f7d26350",
	"smallworld-delta/slices/p0_b1_t4.slice": "6d0b9ed2ee46afa96f5405775ee0926b529c9d2624e9fbe533a93025bb452be6",
	"smallworld-delta/slices/p0_b2_t0.slice": "d1bcdbdb5702305cbff4c13a803d1006e104d76057d984bec96f7f854167e90d",
	"smallworld-delta/slices/p0_b2_t4.slice": "9f269bed2c6a3c4631ee7194602476f0c39a1b424adeccc6dd6e3b21116c4ac4",
	"smallworld-delta/slices/p0_b3_t0.slice": "5634889b4467a0ae051f4694644a34cfdf2235988df2ace5b34a5755c5b395c2",
	"smallworld-delta/slices/p0_b3_t4.slice": "ce371c755924d6355613b27f514efaac4cc693cee069f93620db243ca6fe7ccc",
	"smallworld-delta/slices/p1_b0_t0.slice": "c26048718561c211d75ffaf331f802963a285d8e094738a12c0be6eb783e43c1",
	"smallworld-delta/slices/p1_b0_t4.slice": "8b46ef066625f25239072dfd5ea1089902f985ff8f2aca06cd86dd642930b04c",
	"smallworld-delta/template.gofs":         "2658305f873722554de48430657f240f0cb684b3089be201e66cd42eb96936c9",
	"types-delta/manifest.gofs":              "2b21c122d70902455f7749fd3bae2bb795f2ef86477da9993229000a20880ede",
	"types-delta/slices/p0_b0_t0.slice":      "a11fe6550ad576427c857017aaa12e22d5f651d0204a6e4b154c3cdede0374bb",
	"types-delta/slices/p0_b0_t3.slice":      "b478988d6bd73de383fe8d62757da0e9e321fc7ccf31141ec6bcb46e62d01673",
	"types-delta/slices/p1_b0_t0.slice":      "d96c6cf760dd2588e5a7483b245946db925f818be4172f192707bf0899eae946",
	"types-delta/slices/p1_b0_t3.slice":      "6d541d2115337013c6ed0236b013236ca1ed4fe534ab775b23281b992bd69924",
	"types-delta/template.gofs":              "b51657ed943844a30b81500874a8505e85fb7716d15d91ac44bc42dd54858c4c",
}

// roadFixture is a road network with churned latencies: the edge float
// column changes on ~10 % of edges per step, so a delta-encoded write
// carries real deltas. At 64×64 each partition's edge list is longer than
// one codec chunk, so chunk boundaries are pinned too.
func roadFixture(tb testing.TB, steps int) (*graph.Collection, *partition.Assignment) {
	tb.Helper()
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 64, Cols: 64, RemoveFrac: 0.1, Seed: 3})
	c, err := gen.RandomLatencies(g, gen.LatencyConfig{Timesteps: steps, T0: 1000, Delta: 60, Min: 1, Max: 100, Seed: 4, Churn: 0.1})
	if err != nil {
		tb.Fatal(err)
	}
	a, err := (partition.Multilevel{Seed: 6}).Partition(g, 2)
	if err != nil {
		tb.Fatal(err)
	}
	return c, a
}

// smallWorldFixture is a small-world graph carrying both latencies and
// the string-list tweets column (tsgen -graph smallworld -data both).
func smallWorldFixture(tb testing.TB, steps int) (*graph.Collection, *partition.Assignment) {
	tb.Helper()
	g := gen.SmallWorld(gen.SmallWorldConfig{N: 40, M: 2, Seed: 7})
	c, err := gen.RandomLatencies(g, gen.LatencyConfig{Timesteps: steps, Delta: 60, Min: 1, Max: 20, Seed: 8, Churn: 0.2})
	if err != nil {
		tb.Fatal(err)
	}
	sir, err := gen.SIRTweets(g, gen.SIRConfig{Timesteps: steps, Delta: 60, Memes: []string{"#m"}, HitProb: 0.3, Seed: 9})
	if err != nil {
		tb.Fatal(err)
	}
	ti := g.VertexSchema().Index(gen.AttrTweets)
	for s := 0; s < steps; s++ {
		c.Instance(s).VertexCols[ti] = sir.Collection.Instance(s).VertexCols[ti]
	}
	a, err := (partition.Multilevel{Seed: 10}).Partition(g, 2)
	if err != nil {
		tb.Fatal(err)
	}
	return c, a
}

// allTypesFixture covers the column types no generator emits (int, bool,
// string) beside float and string list, on vertices and edges, with a
// third of the values changing per step.
func allTypesFixture(tb testing.TB, steps int) (*graph.Collection, *partition.Assignment) {
	tb.Helper()
	types := []graph.AttrType{graph.TInt, graph.TFloat, graph.TString, graph.TStringList, graph.TBool}
	vs := graph.MustSchema([]string{"i", "f", "s", "sl", "b"}, types)
	es := graph.MustSchema([]string{"ei", "ef", "es", "esl", "eb"}, types)
	b := graph.NewBuilder("types", vs, es)
	const n = 24
	for v := 0; v < n; v++ {
		b.AddVertex(graph.VertexID(v))
	}
	for v := 0; v < n; v++ {
		b.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%n))
		b.AddEdge(graph.VertexID(v), graph.VertexID((v*7+3)%n))
	}
	t, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	fill := func(cols []graph.Column, fresh bool) {
		for ci := range cols {
			col := &cols[ci]
			for i := 0; i < col.Len(); i++ {
				if !fresh && rng.Intn(3) != 0 {
					continue
				}
				switch col.Type {
				case graph.TInt:
					col.Ints[i] = rng.Int63() - rng.Int63()
				case graph.TFloat:
					col.Floats[i] = rng.NormFloat64()
				case graph.TString:
					col.Strings[i] = strings.Repeat("x", rng.Intn(5))
				case graph.TStringList:
					col.StringLists[i] = nil
					for j := rng.Intn(3); j > 0; j-- {
						col.StringLists[i] = append(col.StringLists[i], fmt.Sprint("#", rng.Intn(100)))
					}
				case graph.TBool:
					col.Bools[i] = rng.Intn(2) == 1
				}
			}
		}
	}
	c := graph.NewCollection(t, 500, 30)
	var prev *graph.Instance
	for s := 0; s < steps; s++ {
		var ins *graph.Instance
		if prev == nil {
			ins = graph.NewInstance(t, s, 500+int64(s)*30)
		} else {
			ins = prev.Clone()
			ins.Timestep, ins.Time = s, 500+int64(s)*30
		}
		fill(ins.VertexCols, prev == nil)
		fill(ins.EdgeCols, prev == nil)
		if err := c.Append(ins); err != nil {
			tb.Fatal(err)
		}
		prev = ins
	}
	a, err := (partition.Multilevel{Seed: 12}).Partition(t, 2)
	if err != nil {
		tb.Fatal(err)
	}
	return c, a
}

// formatCases writes each pinned artifact into its own directory.
var formatCases = []struct {
	name  string
	write func(tb testing.TB, dir string)
}{
	{"road-full", func(tb testing.TB, dir string) {
		c, a := roadFixture(tb, 8)
		mustWrite(tb, dir, c, a, Options{Pack: 4, Bin: 2})
	}},
	{"road-delta", func(tb testing.TB, dir string) {
		c, a := roadFixture(tb, 10)
		mustWrite(tb, dir, c, a, Options{Pack: 5, Bin: 2, SnapshotEvery: 3})
	}},
	{"smallworld-delta", func(tb testing.TB, dir string) {
		c, a := smallWorldFixture(tb, 8)
		mustWrite(tb, dir, c, a, Options{Pack: 4, Bin: 2, SnapshotEvery: 2})
	}},
	{"types-delta", func(tb testing.TB, dir string) {
		c, a := allTypesFixture(tb, 6)
		mustWrite(tb, dir, c, a, Options{Pack: 3, Bin: 2, SnapshotEvery: 2})
	}},
	{"append", func(tb testing.TB, dir string) {
		// Three live steps onto a three-step offline prefix with packs of
		// four: step 3 completes pack 0, steps 4-5 open pack 1.
		c, a := roadFixture(tb, 6)
		prefix := graph.NewCollection(c.Template, 1000, 60)
		for s := 0; s < 3; s++ {
			if err := prefix.Append(c.Instance(s)); err != nil {
				tb.Fatal(err)
			}
		}
		mustWrite(tb, dir, prefix, a, Options{Pack: 4, Bin: 2, SnapshotEvery: 3})
		s, err := Open(dir)
		if err != nil {
			tb.Fatal(err)
		}
		app, err := NewAppender(s)
		if err != nil {
			tb.Fatal(err)
		}
		defer app.Close()
		for step := 3; step < 6; step++ {
			if err := app.Append(c.Instance(step)); err != nil {
				tb.Fatal(err)
			}
		}
	}},
	{"checkpoint", func(tb testing.TB, dir string) {
		// Longer than the codec's 64 KB window, so it is read back in
		// several refills.
		payload := make([]byte, 150_000)
		rand.New(rand.NewSource(13)).Read(payload)
		if err := WriteCheckpoint(dir, 1, 7, payload); err != nil {
			tb.Fatal(err)
		}
		if got, err := ReadCheckpoint(dir, 1, 7); err != nil || !bytes.Equal(got, payload) {
			tb.Fatalf("checkpoint read back: %v", err)
		}
	}},
}

func mustWrite(tb testing.TB, dir string, c *graph.Collection, a *partition.Assignment, o Options) {
	tb.Helper()
	if err := WriteDatasetOptions(dir, c, a, o); err != nil {
		tb.Fatal(err)
	}
}

// hashTree returns "prefix/relative-path" -> hex SHA-256 for every regular
// file under dir.
func hashTree(tb testing.TB, dir, prefix string) map[string]string {
	tb.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(data)
		out[prefix+"/"+filepath.ToSlash(rel)] = hex.EncodeToString(sum[:])
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestFormatPinned: every file of every pinned artifact hashes to the
// captured constant, and no file is missing or extra.
func TestFormatPinned(t *testing.T) {
	got := map[string]string{}
	for _, fc := range formatCases {
		dir := t.TempDir()
		fc.write(t, dir)
		for k, v := range hashTree(t, dir, fc.name) {
			got[k] = v
		}
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bad := len(got) != len(formatPins)
	for _, k := range keys {
		if want, ok := formatPins[k]; !ok || want != got[k] {
			t.Errorf("%s: sha256 %s, pinned %q", k, got[k], want)
			bad = true
		}
	}
	for k := range formatPins {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: pinned but not written", k)
		}
	}
	if bad {
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "\t%q: %q,\n", k, got[k])
		}
		t.Logf("written hashes:\n%s", sb.String())
	}
}
