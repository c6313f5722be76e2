package experiments

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden tables under testdata/ from this run")

// wallClockColumns names, by header, the columns measured on the host's
// clock: they differ from run to run, so a golden holds "*" in their
// place. Everything else a study prints is modeled time or a count and
// repeats bit for bit at a fixed scale and seed.
var wallClockColumns = map[string]bool{"mean recovery": true}

// goldenTable is the committed form of one table: what griffin-bench
// -json emits for it, less the slug (which names the file).
type goldenTable struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// checkGolden holds the table a shape test just computed, at that test's
// scale and seed, to testdata/<slug>.json cell for cell. The goldens are
// the record of what the studies print: a refactor of the harness must
// leave them byte-unchanged, and a change that means to move a number
// regenerates them with `go test ./internal/experiments/ -update` and
// shows the diff.
func checkGolden(t *testing.T, table *Table) {
	t.Helper()
	got := goldenTable{Title: table.Title, Header: table.Header, Notes: table.Notes}
	for _, row := range table.Rows {
		masked := append([]string(nil), row...)
		for i := range masked {
			if i < len(table.Header) && wallClockColumns[table.Header[i]] {
				masked[i] = "*"
			}
		}
		got.Rows = append(got.Rows, masked)
	}
	path := filepath.Join("testdata", table.Slug()+".json")
	if *update {
		data, err := json.MarshalIndent(&got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t, path)
	if got.Title != want.Title || !reflect.DeepEqual(got.Header, want.Header) {
		t.Fatalf("%s: title/header %q %q, golden %q %q", path, got.Title, got.Header, want.Title, want.Header)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, golden %d\n%s", path, len(got.Rows), len(want.Rows), table.Render())
	}
	for r := range want.Rows {
		if len(got.Rows[r]) != len(want.Rows[r]) {
			t.Fatalf("%s: row %d has %d cells, golden %d", path, r, len(got.Rows[r]), len(want.Rows[r]))
		}
		for c := range want.Rows[r] {
			if got.Rows[r][c] != want.Rows[r][c] {
				t.Errorf("%s: row %d (%s), column %q: %s, golden %s",
					path, r, want.Rows[r][0], want.Header[c], got.Rows[r][c], want.Rows[r][c])
			}
		}
	}
	if !reflect.DeepEqual(got.Notes, want.Notes) {
		t.Errorf("%s: notes differ:\n got %q\nwant %q", path, got.Notes, want.Notes)
	}
}

func readGolden(t *testing.T, path string) goldenTable {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -update to write it)", err)
	}
	var g goldenTable
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return g
}

// Every table griffin-bench emits lands in its own -csvdir file and under
// its own -json slug. The goldens record all 23 titles, so uniqueness is
// asserted over them without running a study a second time.
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
		g := readGolden(t, path)
		slug := (&Table{Title: g.Title}).Slug()
		if prev, dup := seen[slug]; dup {
			t.Errorf("slug %q names both %q and %q", slug, prev, g.Title)
		}
		seen[slug] = g.Title
		if want := filepath.Join("testdata", slug+".json"); path != want {
			t.Errorf("%s holds %q, whose slug is %q", path, g.Title, slug)
		}
	}
}
