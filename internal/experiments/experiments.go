// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) on the simulated hardware: each Run* function executes
// the real algorithms under the calibrated cost models and returns both a
// printable table (the same rows/series the paper reports) and a typed
// result the shape-validation tests assert on.
//
// Absolute numbers differ from the paper's testbed by construction; the
// reproduction targets are the *shapes*: who wins, by roughly what factor,
// and where the crossovers fall. EXPERIMENTS.md records paper-vs-measured
// for every experiment.
package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/workload"
)

// Config scales the experiment suite. Scale 1.0 approximates the paper's
// data sizes (minutes of runtime); tests run at small scales.
type Config struct {
	// Scale multiplies workload sizes (list lengths, query counts).
	Scale float64
	// Seed drives all generation.
	Seed int64
	// Device is the simulated GPU shared by all experiments.
	Device *gpu.Device
	// CPU prices host work.
	CPU hwmodel.CPUModel
}

// DefaultConfig returns the full-scale configuration.
func DefaultConfig() Config {
	return Config{
		Scale:  1.0,
		Seed:   1,
		Device: gpu.New(hwmodel.DefaultGPU(), 0),
		CPU:    hwmodel.DefaultCPU(),
	}
}

// scaled returns max(lo, round(v*Scale)).
func (c Config) scaled(v int, lo int) int {
	n := int(float64(v) * c.Scale)
	if n < lo {
		n = lo
	}
	return n
}

// rng returns a deterministic generator offset from the suite seed so each
// experiment is independently reproducible.
func (c Config) rng(offset int64) *rand.Rand {
	return rand.New(rand.NewSource(c.Seed*1009 + offset))
}

// Clock names what a number was measured on.
type Clock string

const (
	// Modeled is time on the calibrated hardware models, or a quantity
	// derived from it: it repeats bit for bit at a fixed scale and seed.
	Modeled Clock = "modeled"
	// Wall is the host's clock: it differs from run to run.
	Wall Clock = "wall"
	// Count is a tally, a ratio of tallies or a setting of the run.
	Count Clock = "count"
)

// Column is one column of a Table, or the kind of one value a note
// prints. A label column has no clock.
type Column struct {
	Name  string `json:"name"`
	Unit  string `json:"unit,omitempty"`
	Clock Clock  `json:"clock,omitempty"`
	Prec  int    `json:"prec,omitempty"`
}

// Cell is a number, printed at its column's precision, or a label.
type Cell struct {
	Num   float64
	Label string
}

// Value is one number a note prints.
type Value struct {
	Column
	Num float64 `json:"num"`
}

// Note is a line printed under a table: Text with each {} replaced by
// the next of Values.
type Note struct {
	Text   string  `json:"text"`
	Values []Value `json:"values,omitempty"`
}

// Table is one experiment result, typed: every number in it, a note's
// included, carries its column's name, unit, clock and precision.
type Table struct {
	Title   string   `json:"title"`
	Columns []Column `json:"columns"`
	Rows    [][]Cell `json:"rows"`
	Notes   []Note   `json:"notes,omitempty"`
}

// Record is one run of the suite: what griffin-bench -results writes,
// and the form of the goldens under testdata/ and the records under
// results/. It holds no time or commit, so the same code regenerates it
// byte for byte.
type Record struct {
	Scale float64 `json:"scale"`
	Seed  int64   `json:"seed"`
	// Only lists the keys of the studies that ran, in run order.
	Only   []string `json:"only,omitempty"`
	Tables []*Table `json:"tables"`
}

// WriteFile writes r as indented JSON.
func (r *Record) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// MarshalJSON writes a number as a JSON number and a label as a string.
func (c Cell) MarshalJSON() ([]byte, error) {
	if c.Label != "" {
		return json.Marshal(c.Label)
	}
	return json.Marshal(c.Num)
}

// UnmarshalJSON reads what MarshalJSON writes.
func (c *Cell) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		return json.Unmarshal(b, &c.Label)
	}
	return json.Unmarshal(b, &c.Num)
}

// format prints a cell of the column: a label as it is, a number at the
// column's precision, followed by its unit when that is x or % and the
// name does not already end with it.
func (c Column) format(v Cell) string {
	if v.Label != "" {
		return v.Label
	}
	s := strconv.FormatFloat(v.Num, 'f', c.Prec, 64)
	if (c.Unit == "x" || c.Unit == "%") && !strings.HasSuffix(c.Name, c.Unit) {
		s += c.Unit
	}
	return s
}

// String renders the note's text with its values.
func (n Note) String() string {
	parts := strings.Split(n.Text, "{}")
	var sb strings.Builder
	for i, p := range parts {
		sb.WriteString(p)
		if i < len(n.Values) {
			sb.WriteString(n.Values[i].format(Cell{Num: n.Values[i].Num}))
		}
	}
	return sb.String()
}

// cell converts a value a study computed: a string is a label, a
// time.Duration is recorded in milliseconds, an integer or float as it is.
func cell(v any) Cell {
	switch v := v.(type) {
	case string:
		return Cell{Label: v}
	case time.Duration:
		return Cell{Num: float64(v) / float64(time.Millisecond)}
	case int:
		return Cell{Num: float64(v)}
	case int64:
		return Cell{Num: float64(v)}
	case float64:
		return Cell{Num: v}
	}
	panic(fmt.Sprintf("experiments: no cell for %T", v))
}

// row appends one row of values (see cell).
func (t *Table) row(vals ...any) {
	r := make([]Cell, len(vals))
	for i, v := range vals {
		r[i] = cell(v)
	}
	t.Rows = append(t.Rows, r)
}

// note appends a note whose {} print vals.
func (t *Table) note(text string, vals ...Value) {
	t.Notes = append(t.Notes, Note{Text: text, Values: vals})
}

// of makes a note value of the column's kind (see cell).
func (c Column) of(v any) Value { return Value{Column: c, Num: cell(v).Num} }

// The column kinds the studies print.
func label(name string) Column { return Column{Name: name} }
func msec(name string) Column  { return Column{Name: name, Unit: "ms", Clock: Modeled, Prec: 3} }
func count(name string) Column { return Column{Name: name, Clock: Count} }
func times(name string, prec int) Column {
	return Column{Name: name, Unit: "x", Clock: Modeled, Prec: prec}
}
func pct(name string, prec int) Column {
	return Column{Name: name, Unit: "%", Clock: Count, Prec: prec}
}
func util(name string) Column            { return Column{Name: name, Clock: Modeled, Prec: 2} }
func perSecond(name, unit string) Column { return Column{Name: name, Unit: unit, Clock: Modeled} }

// Render formats the table as aligned plain text.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	cells := make([][]string, 1+len(t.Rows))
	for _, c := range t.Columns {
		cells[0] = append(cells[0], c.Name)
	}
	for r, row := range t.Rows {
		for i, v := range row {
			cells[1+r] = append(cells[1+r], t.Columns[i].format(v))
		}
	}
	widths := make([]int, len(t.Columns))
	for _, row := range cells {
		for i, s := range row {
			widths[i] = max(widths[i], len(s))
		}
	}
	line := func(cells []string) {
		for i, s := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], s)
		}
		sb.WriteByte('\n')
	}
	line(cells[0])
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range cells[1:] {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// slug returns a filesystem-friendly name derived from the title, unique
// per table. A numbered title is named by its number ("Figure 7: ..." is
// figure_7, the paper's own label); the Extension and Ablation tables
// share their prefix with a dozen others, so theirs runs on through the
// subject, up to the parenthesised unit.
func (t *Table) slug() string {
	s := strings.ToLower(t.Title)
	head, rest, _ := strings.Cut(s, ":")
	if n := len(head); n > 0 && head[n-1] >= '0' && head[n-1] <= '9' {
		s = head
	} else {
		subject, _, _ := strings.Cut(rest, "(")
		s = head + subject
	}
	return strings.Join(strings.Fields(s), "_")
}

// corpusSpec is the shared end-to-end corpus at the given scale, shaped
// like the paper's benchmark (§4.2): Zipfian list sizes from 1K up to
// single-digit millions over a multi-million docID space.
//
// List lengths are floored at paper-like magnitudes even at small scales:
// the GPU/CPU trade-off the end-to-end experiments measure only exists
// when lists are long enough to amortize device overheads (Figure 12's
// <2x region is below ~10K elements), so scaling down shrinks the *number*
// of terms and queries, not the lists themselves.
func (c Config) corpusSpec() workload.CorpusSpec {
	return workload.CorpusSpec{
		NumDocs:    c.scaled(8_000_000, 2_000_000),
		NumTerms:   c.scaled(1_000, 50),
		MaxListLen: c.scaled(4_000_000, 1_000_000),
		MinListLen: c.scaled(1_000, 1_000),
		Alpha:      0.85,
		Seed:       c.Seed,
	}
}

// BuildCorpus materializes the shared corpus (cached by callers that run
// several experiments).
func (c Config) BuildCorpus() (*workload.Corpus, error) {
	return workload.GenerateCorpus(c.corpusSpec())
}
