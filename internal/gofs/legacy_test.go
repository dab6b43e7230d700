package gofs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tsgraph/internal/gen"
	"tsgraph/internal/graph"
	"tsgraph/internal/partition"
)

// legacyDir holds datasets written by the version-1/2 writers (commit
// e9d52e6, the last before format version 3), each from legacyRoad(7):
//
//	road-v1           Options{Pack: 3, Bin: 2}
//	road-v2           Options{Pack: 3, Bin: 2, SnapshotEvery: 2}
//	road-v2-appended  the same options, steps 0-3 written offline and steps
//	                  4-6 appended by that build's Appender, so the tail is a
//	                  .part1.slice and a superseded .part2.slice remains
//	road-gzip         Options{Pack: 3, Bin: 2, SnapshotEvery: 2, Compress: true}
const legacyDir = "testdata/legacy"

// legacyRoad regenerates the collection and assignment the legacy
// fixtures were written from.
func legacyRoad(tb testing.TB, steps int) (*graph.Collection, *partition.Assignment) {
	tb.Helper()
	g := gen.RoadNetwork(gen.RoadConfig{Rows: 4, Cols: 4, RemoveFrac: 0.1, Seed: 21})
	c, err := gen.RandomLatencies(g, gen.LatencyConfig{Timesteps: steps, T0: 1000, Delta: 60, Min: 1, Max: 100, Seed: 22, Churn: 0.3})
	if err != nil {
		tb.Fatal(err)
	}
	a, err := (partition.Multilevel{Seed: 23}).Partition(g, 2)
	if err != nil {
		tb.Fatal(err)
	}
	return c, a
}

// legacyFiles reads every file of a legacy fixture by relative path.
func legacyFiles(tb testing.TB, name string) map[string][]byte {
	tb.Helper()
	root := filepath.Join(legacyDir, name)
	files := map[string][]byte{}
	for _, rel := range []string{templateFile, manifestFile} {
		data, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			tb.Fatal(err)
		}
		files[rel] = data
	}
	for name, data := range readDirFiles(tb, filepath.Join(root, sliceDir)) {
		files[filepath.Join(sliceDir, name)] = data
	}
	return files
}

// writeFiles lays out files by relative path under a fresh directory.
func writeFiles(tb testing.TB, files map[string][]byte) string {
	tb.Helper()
	dir := tb.TempDir()
	if err := os.Mkdir(filepath.Join(dir, sliceDir), 0o755); err != nil {
		tb.Fatal(err)
	}
	for rel, data := range files {
		if err := os.WriteFile(filepath.Join(dir, rel), data, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	return dir
}

// TestLegacyRead: version-1 and version-2 datasets, including one grown
// by the old whole-tail-rewriting Appender, load exactly the collection
// they were written from, and refuse appends naming the migration.
func TestLegacyRead(t *testing.T) {
	want, _ := legacyRoad(t, 7)
	for _, name := range []string{"road-v1", "road-v2", "road-v2-appended"} {
		t.Run(name, func(t *testing.T) {
			s, err := Open(filepath.Join(legacyDir, name))
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.LoadAll()
			if err != nil {
				t.Fatal(err)
			}
			collectionsEqual(t, want, got)
			if _, err := NewAppender(s); err == nil || !strings.Contains(err.Error(), "tspart -rewrite") {
				t.Fatalf("NewAppender on a legacy dataset: %v, want an error naming tspart -rewrite", err)
			}
		})
	}
}

// TestLegacyGzipRefused: a dataset written with whole-payload gzip is a
// hard error at Open that says why.
func TestLegacyGzipRefused(t *testing.T) {
	_, err := Open(filepath.Join(legacyDir, "road-gzip"))
	if err == nil || !strings.Contains(err.Error(), "gzip") {
		t.Fatalf("Open of a gzip dataset: %v, want an error about gzip", err)
	}
}
