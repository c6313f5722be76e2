package experiments

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/ and EXPERIMENTS.md's generated blocks")

// readRecord reads a committed record, which WriteFile must reproduce
// byte for byte.
func readRecord(t *testing.T, path string) *Record {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test -update writes a golden)", err)
	}
	var r Record
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	again := filepath.Join(t.TempDir(), "again.json")
	if err := r.WriteFile(again); err != nil {
		t.Fatal(err)
	}
	if out, _ := os.ReadFile(again); string(out) != string(data) {
		t.Fatalf("%s: rewriting the record changes its bytes", path)
	}
	return &r
}

// maskWall returns a copy of table whose cells on the wall clock read
// "*": they differ from run to run. Everything else a study prints is
// modeled or counted and repeats bit for bit at a fixed scale and seed.
func maskWall(table *Table) *Table {
	m := *table
	m.Rows = nil
	for _, row := range table.Rows {
		row = append([]Cell(nil), row...)
		for i := range row {
			if table.Columns[i].Clock == Wall {
				row[i] = Cell{Label: "*"}
			}
		}
		m.Rows = append(m.Rows, row)
	}
	return &m
}

// checkGolden holds the table a shape test just computed at cfg to
// testdata/<slug>.json, a one-table Record, at each column's printed
// precision. The goldens are the record of what the studies print: a
// refactor of the harness must leave them unchanged, and a change that
// means to move a number regenerates them with
// `go test ./internal/experiments/ -update` and shows the diff. A golden
// is the table written and read back, so the comparison is also the
// record's round trip: read back, every table renders byte for byte.
func checkGolden(t *testing.T, cfg Config, table *Table) {
	t.Helper()
	path := filepath.Join("testdata", table.slug()+".json")
	got := &Record{Scale: cfg.Scale, Seed: cfg.Seed, Tables: []*Table{maskWall(table)}}
	if *update {
		if err := got.WriteFile(path); err != nil {
			t.Fatal(err)
		}
	}
	want := readRecord(t, path)
	if want.Scale != got.Scale || want.Seed != got.Seed || len(want.Tables) != 1 {
		t.Fatalf("%s: scale %v seed %d with %d tables, want one table at scale %v seed %d",
			path, want.Scale, want.Seed, len(want.Tables), got.Scale, got.Seed)
	}
	if !reflect.DeepEqual(want.Tables[0].Columns, table.Columns) {
		t.Errorf("%s: columns %+v, golden %+v", path, table.Columns, want.Tables[0].Columns)
	}
	if g, w := got.Tables[0].Render(), want.Tables[0].Render(); g != w {
		t.Fatalf("%s differs\ngot:\n%s\ngolden:\n%s", path, g, w)
	}
}

// Every table griffin-bench records has its own slug. The goldens hold
// all 23 tables, so uniqueness is asserted over them without running a
// study a second time.
func TestGoldenSlugsUnique(t *testing.T) {
	if *update {
		t.Skip("the goldens are being rewritten by this run")
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 23 {
		t.Fatalf("%d goldens under testdata/, want one per table (23)", len(paths))
	}
	seen := map[string]string{}
	for _, path := range paths {
		title := readRecord(t, path).Tables[0].Title
		slug := (&Table{Title: title}).slug()
		if prev, dup := seen[slug]; dup {
			t.Errorf("slug %q names both %q and %q", slug, prev, title)
		}
		seen[slug] = title
		if want := filepath.Join("testdata", slug+".json"); path != want {
			t.Errorf("%s holds %q, whose slug is %q", path, title, slug)
		}
	}
}
