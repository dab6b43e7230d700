package main

import (
	"path/filepath"
	"reflect"
	"testing"

	"tsgraph"
	"tsgraph/internal/gofs"
)

// TestRewriteMigratesLegacy: -rewrite of each legacy (version 1 or 2)
// fixture with its stored options yields a dataset that loads the same
// instances and, unlike its source, accepts appends.
func TestRewriteMigratesLegacy(t *testing.T) {
	for _, name := range []string{"road-v1", "road-v2", "road-v2-appended"} {
		t.Run(name, func(t *testing.T) {
			legacy, err := tsgraph.OpenDataset(filepath.Join("..", "..", "internal", "gofs", "testdata", "legacy", name))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := gofs.NewAppender(legacy); err == nil {
				t.Fatal("a legacy dataset accepted an Appender")
			}
			m := legacy.Manifest()
			dir := t.TempDir()
			n, err := rewriteDataset(legacy, dir, tsgraph.StoreOptions{Pack: m.Pack, Bin: m.Bin, SnapshotEvery: m.SnapshotEvery})
			if err != nil {
				t.Fatal(err)
			}
			if n != m.Timesteps {
				t.Fatalf("rewrote %d instances, want %d", n, m.Timesteps)
			}
			want, err := legacy.LoadAll()
			if err != nil {
				t.Fatal(err)
			}
			migrated, err := tsgraph.OpenDataset(dir)
			if err != nil {
				t.Fatal(err)
			}
			got, err := migrated.LoadAll()
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < want.NumInstances(); s++ {
				if !reflect.DeepEqual(want.Instance(s), got.Instance(s)) {
					t.Fatalf("instance %d differs after the rewrite", s)
				}
			}

			app, err := gofs.NewAppender(migrated)
			if err != nil {
				t.Fatal(err)
			}
			defer app.Close()
			next := app.Head().Clone()
			next.Timestep = m.Timesteps
			next.Time = m.T0 + int64(m.Timesteps)*m.Delta
			if err := app.Append(next); err != nil {
				t.Fatal(err)
			}
			grown, err := tsgraph.OpenDataset(dir)
			if err != nil {
				t.Fatal(err)
			}
			c, err := grown.LoadAll()
			if err != nil {
				t.Fatal(err)
			}
			if c.NumInstances() != m.Timesteps+1 || !reflect.DeepEqual(c.Instance(m.Timesteps), next) {
				t.Fatalf("the migrated dataset did not grow by the appended instance")
			}
		})
	}
}
