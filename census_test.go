package tsgraph_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// familiesTable is the committed census: one row per /metrics family,
// naming the file that reads it.
const familiesTable = "internal/obs/FAMILIES.md"

var familyNameRE = regexp.MustCompile(`^ts(graph|gofs|serve|ingest|shard|cluster)_[a-z0-9_]+$`)

// readFamilies parses the census table: the repo path of each family's
// consumer, keyed by family name.
func readFamilies(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(familiesTable)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "| `ts") {
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) != 7 {
			t.Fatalf("%s:%d: want 5 cells (family, type, labels, consumer, read for): %s", familiesTable, i+1, line)
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		if _, dup := rows[name]; dup {
			t.Fatalf("%s:%d: duplicate row for %s", familiesTable, i+1, name)
		}
		rows[name] = strings.Trim(strings.TrimSpace(cells[4]), "`")
	}
	return rows
}

// emittedFamilies returns every family-shaped string literal in the
// non-test Go under internal/ and cmd/, with the files that contain it.
func emittedFamilies(t *testing.T) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			seen := map[string]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				if s, err := strconv.Unquote(lit.Value); err == nil && familyNameRE.MatchString(s) && !seen[s] {
					seen[s] = true
					out[s] = append(out[s], filepath.ToSlash(path))
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestTelemetryCensus holds the census table equal to what the code
// emits, and holds every row to a consumer outside the emitting file that
// names the family.
func TestTelemetryCensus(t *testing.T) {
	rows := readFamilies(t)
	emitted := emittedFamilies(t)
	if len(emitted) == 0 {
		t.Fatal("no family names found under internal/ and cmd/")
	}
	var names []string
	for name := range emitted {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := rows[name]; !ok {
			t.Errorf("%s (emitted in %v) has no row in %s", name, emitted[name], familiesTable)
		}
	}
	for name, consumer := range rows {
		files, ok := emitted[name]
		if !ok {
			t.Errorf("%s: row for %s, which nothing emits", familiesTable, name)
			continue
		}
		for _, f := range files {
			if f == consumer {
				t.Errorf("%s: consumer of %s is its emitting file %s", familiesTable, name, f)
			}
		}
		data, err := os.ReadFile(consumer)
		if err != nil {
			t.Errorf("%s: consumer of %s: %v", familiesTable, name, err)
			continue
		}
		named := regexp.MustCompile(`(^|[^a-z0-9_])` + name + `(_bucket|_sum|_count)?([^a-z0-9_]|$)`)
		if !named.Match(data) {
			t.Errorf("%s: consumer %s does not name %s", familiesTable, consumer, name)
		}
	}
}
