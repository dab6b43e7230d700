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
// How the constants were captured: the table was left empty and
// TestFormatPinned was run at commit 1f3862d, the last commit whose codec
// encoded one value per write call; the test prints every file's hash as
// Go source on a mismatch, and that output was pasted here unchanged.
var formatPins = map[string]string{
	"append/manifest.gofs":                "1f2e7d3506e008b91d0b2cbe6df8b003f444522b6c2c7b29a81cab255ca3816d",
	"append/slices/p0_b0_t0.slice":        "c06c98e86f6e546641ed731883b670b06c9faf1fe121fe310b017382cfcc9dfd",
	"append/slices/p0_b0_t4.part1.slice":  "8726ea93b101fc6d5876b63448c50db58b98522e8c120687b07f8a4df8f15d97",
	"append/slices/p0_b0_t4.part2.slice":  "c30e0f7392af6e4c5d5e777839eeb7dd7fd2dd3329a2c38c06f23fec9246bcda",
	"append/slices/p1_b0_t0.slice":        "956076fdade3cee922e33208aa04f5b52c1d9e427c99e0657b25fe3dd49e55e4",
	"append/slices/p1_b0_t4.part1.slice":  "2267633c3cb1525d45abb9c8e64dcf382114385464dcee87c00ac974967df4e5",
	"append/slices/p1_b0_t4.part2.slice":  "364d9ed656ca9a0593082d98aec5cf6693822cecb69de478a4f8ea59a82c88d7",
	"append/template.gofs":                "3014f4dc554c597c32ce1beaa5bb1e6957d497c83414448b682cef485cbad78b",
	"checkpoint/ckpt_r1_t00000007.ckpt":   "8b365534abd10c62c23ada6499bb01a397fb7a783a88e4aef945616fbcd18b74",
	"road-compress/manifest.gofs":         "932a545ce5fff268cc5acdef670db51873ca9af232b85ad595138295fb05ce34",
	"road-compress/slices/p0_b0_t0.slice": "d570f2bddb5c67b43c7ed7e88af0dbaac980ef1b893f955b04428a9ef48d458e",
	"road-compress/slices/p0_b0_t5.slice": "0cfd70bea61a94badabb71071ef655c69d6b60fdcc9b9b12c6ea7f7e6c937821",
	"road-compress/slices/p1_b0_t0.slice": "7ac05850798d5251d97d8c5528604153aa407cdcbb044401b099a4144181dee4",
	"road-compress/slices/p1_b0_t5.slice": "3d67a951676f99f45cbd3a7f579adfb2981584e0fbe4de009700e9e2e4532e83",
	"road-compress/template.gofs":         "3014f4dc554c597c32ce1beaa5bb1e6957d497c83414448b682cef485cbad78b",
	"road-v1/manifest.gofs":               "813540b6d368ac22a865f10f3033683f904c93a9a569c72ff2422de51eaf6a09",
	"road-v1/slices/p0_b0_t0.slice":       "812b0837a1409f06c68149f04d703031b52497f1d965d899243714db61fe647d",
	"road-v1/slices/p0_b0_t4.slice":       "de87dfcd72ae2d1d65bcf903828cf1eba4a571bbe6b439cd2a999c33a2153284",
	"road-v1/slices/p1_b0_t0.slice":       "cb4c7a9acd750dda8512ab29a7377d67c15045bddc7937c0ca057f780a62f965",
	"road-v1/slices/p1_b0_t4.slice":       "1bc38bedfa565ccc73309a840f8c8577d876564e396e6df0f324eb7c58db7a88",
	"road-v1/template.gofs":               "3014f4dc554c597c32ce1beaa5bb1e6957d497c83414448b682cef485cbad78b",
	"road-v2/manifest.gofs":               "b39882cce478050c5611d4a38ba40fd2cb10995369af23d8e0869acc69431d67",
	"road-v2/slices/p0_b0_t0.slice":       "5af47c54258f5fa49cf0f9f90db9b4bd785bc6c65ed072223701ea85ceba1eaa",
	"road-v2/slices/p0_b0_t5.slice":       "16c6f3e2590d04a858c859806092e2261ab8bc6dbb54f5a25d30255713b57dfd",
	"road-v2/slices/p1_b0_t0.slice":       "3f4b8fbde3fddde220fb21dbee7fba090e52816f35ae90b188584476b3aedf16",
	"road-v2/slices/p1_b0_t5.slice":       "451a2d2506d880c0d5fcd030e1ee12b1c1a36add8c6d1d4bd2f45e457f94f939",
	"road-v2/template.gofs":               "3014f4dc554c597c32ce1beaa5bb1e6957d497c83414448b682cef485cbad78b",
	"smallworld-v2/manifest.gofs":         "a7a9cf8e36f1d91faec74e73ababe0e7e60983d1e75527fd7840c65a3e5bcf5c",
	"smallworld-v2/slices/p0_b0_t0.slice": "59399dd5c4790800b2c1f2290390e3fd58c7e77034a0bfcd9e893c8a9a479811",
	"smallworld-v2/slices/p0_b0_t4.slice": "afef96c2a25ca1c4702e42cf4aca1d5f482e57105d817eb74a51d82f011d6c15",
	"smallworld-v2/slices/p0_b1_t0.slice": "da6e55a42ff74cbbac91c942d1f3be530f8bd165b3b8f4dd5ea6df61a66d6b50",
	"smallworld-v2/slices/p0_b1_t4.slice": "9e203168cecefc739fffe87693e003244cbfdb1d3f3bebb1fee332353ee15440",
	"smallworld-v2/slices/p0_b2_t0.slice": "8b61864c27da7ecdb69f77c98e2f97b073ce8f1f725af4be001b9017e4931651",
	"smallworld-v2/slices/p0_b2_t4.slice": "fc65e8e7933c6a4c14739f9ff373f37a48339212fccd1cbd72a4941365cd0c8e",
	"smallworld-v2/slices/p0_b3_t0.slice": "8ca4f9d53e827fdbd30a5969600b018ab844383b7fd45aab790d4ffa88a3b863",
	"smallworld-v2/slices/p0_b3_t4.slice": "b2e2230cb88647df282a2c798c2e30ec4a57e73d07757de9360663ec71a27f1d",
	"smallworld-v2/slices/p1_b0_t0.slice": "2053b86600fbb0b855dbb5a77470ac9b12309080932d1363f7b03ae6b3b9e977",
	"smallworld-v2/slices/p1_b0_t4.slice": "a4a6bafa44e0212528237983865e61d922416ac3f55e436a13d859778a0b74ee",
	"smallworld-v2/template.gofs":         "2658305f873722554de48430657f240f0cb684b3089be201e66cd42eb96936c9",
	"types-v2/manifest.gofs":              "7f4dfc17b2ae5e9dab81e0107b9678ca5b487d31c10cbc09b7b92bec72829dde",
	"types-v2/slices/p0_b0_t0.slice":      "7db8fc76a888604913a987d3bde6b7281ec4b972846aaa6508ed037f21ebecf9",
	"types-v2/slices/p0_b0_t3.slice":      "2347a44bdcd3348e97d33f372c0664cfc37edcd0be93f738ad91a77ff4715a74",
	"types-v2/slices/p1_b0_t0.slice":      "25b4b00b6a5566a9a66c6806a16ef81b3326c9e98231013a6b350bbc399bc05a",
	"types-v2/slices/p1_b0_t3.slice":      "3152bc81574a3671437cf22a0c430706733be38ac0388da125d2250a5d796564",
	"types-v2/template.gofs":              "b51657ed943844a30b81500874a8505e85fb7716d15d91ac44bc42dd54858c4c",
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
	{"road-v1", func(tb testing.TB, dir string) {
		c, a := roadFixture(tb, 8)
		mustWrite(tb, dir, c, a, Options{Pack: 4, Bin: 2})
	}},
	{"road-v2", func(tb testing.TB, dir string) {
		c, a := roadFixture(tb, 10)
		mustWrite(tb, dir, c, a, Options{Pack: 5, Bin: 2, SnapshotEvery: 3})
	}},
	{"road-compress", func(tb testing.TB, dir string) {
		c, a := roadFixture(tb, 10)
		mustWrite(tb, dir, c, a, Options{Pack: 5, Bin: 2, SnapshotEvery: 3, Compress: true})
	}},
	{"smallworld-v2", func(tb testing.TB, dir string) {
		c, a := smallWorldFixture(tb, 8)
		mustWrite(tb, dir, c, a, Options{Pack: 4, Bin: 2, SnapshotEvery: 2})
	}},
	{"types-v2", func(tb testing.TB, dir string) {
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
