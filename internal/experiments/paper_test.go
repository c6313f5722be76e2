package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The records of reproduction: Table 1 and Figures 7-15 at scale 1.0,
// seeds 1-3, and the extension studies at scale 1.0, seed 1. griffin-bench
// -results writes them; the CI reproduction job regenerates seed 1 and
// fails when it differs from the committed file.
var paperRecords = []string{"paper-seed1.json", "paper-seed2.json", "paper-seed3.json"}

const unexplained = "unexplained — see ROADMAP item 5"

// anchor is one number the paper publishes, the band a reproduction must
// land in, and, while the records miss it, why.
type anchor struct {
	slug  string // the table it reads
	claim string
	paper float64
	band  [2]float64
	prec  int
	get   func(*Table) float64
	// miss is empty when every seed lands in the band. Otherwise it names
	// the cause of a miss every seed shows, and the test fails once the
	// records land in the band, so that fixing a miss flips a test.
	miss string
}

// near is the band of a number the paper gives as a measurement: ±20 %.
func near(x float64) [2]float64    { return [2]float64{0.8 * x, 1.2 * x} }
func atLeast(x float64) [2]float64 { return [2]float64{x, math.Inf(1)} }

var anchors = []anchor{
	{"table_1", "PForDelta compression ratio", 3.3, near(3.3), 1, at("Compression Ratio", "PforDelta"), ""},
	{"table_1", "Elias-Fano compression ratio", 4.6, near(4.6), 1, at("Compression Ratio", "EF"), ""},
	{"table_1", "EF advantage over PForDelta", 4.6 / 3.3, near(4.6 / 3.3), 2, noted("EF advantage"), ""},
	{"figure_8", "ratio from which the CPU intersects faster", 128, [2]float64{128, 128}, 0, noted("crossover from ratio"), unexplained},
	{"figure_11", "2-term queries (%)", 27, near(27), 1, at("2", "percentage %"), ""},
	{"figure_11", "3-term queries (%)", 33, near(33), 1, at("3", "percentage %"), ""},
	{"figure_11", "4-term queries (%)", 24, near(24), 1, at("4", "percentage %"), ""},
	{"figure_12", "Para-EF over CPU PForDelta at 1K", 2, [2]float64{0, 2}, 1, at("1K", "speedup"), ""},
	{"figure_12", "Para-EF over CPU PForDelta at 10K", 2, [2]float64{0, 2}, 1, at("10K", "speedup"), unexplained},
	{"figure_12", "Para-EF over CPU PForDelta at 100K", 11, near(11), 1, at("100K", "speedup"), ""},
	{"figure_12", "Para-EF over CPU PForDelta at 10M", 29.6, near(29.6), 1, at("10M", "speedup"), "the GPU column returns the 40 MB list over 8 GB/s PCIe (5.0 ms), more than the paper's whole GPU time at 29.6x"},
	{"figure_13", "GPU merge over CPU merge at 10M", 87.35, near(87.35), 1, noted("GPU merge over CPU merge"), unexplained},
	{"figure_13", "GPU merge over GPU binary at 10M", 2.29, near(2.29), 2, noted("GPU merge over GPU binary"), unexplained},
	{"figure_14", "Griffin over CPU-only, mean", 10, near(10), 1, noted("mean speedup vs CPU-only"), ""},
	{"figure_14", "Griffin over GPU-only, mean", 1.5, near(1.5), 2, noted("mean speedup vs GPU-only"), ""},
	{"figure_15", "P80 speedup over CPU-only", 6.6, near(6.6), 1, at("P80", "speedup"), unexplained},
	{"figure_15", "P90 speedup over CPU-only", 8.3, near(8.3), 1, at("P90", "speedup"), unexplained},
	{"figure_15", "P95 speedup over CPU-only", 10.4, near(10.4), 1, at("P95", "speedup"), unexplained},
	{"figure_15", "P99 speedup over CPU-only", 16.1, near(16.1), 1, at("P99", "speedup"), unexplained},
	{"figure_15", "P99.9 speedup over CPU-only", 26.8, near(26.8), 1, at("P99.9", "speedup"), unexplained},
	{"figure_15", "speedup grows through P99.9 (least step ratio)", 10.4 / 8.3, atLeast(1), 2, leastStep, unexplained},
}

// at reads the number in column col of the row labelled row.
func at(row, col string) func(*Table) float64 {
	return func(t *Table) float64 {
		for _, r := range t.Rows {
			for i, c := range t.Columns {
				if r[0].Label == row && c.Name == col {
					return r[i].Num
				}
			}
		}
		return math.NaN()
	}
}

// noted reads the note value named name.
func noted(name string) func(*Table) float64 {
	return func(t *Table) float64 {
		for _, n := range t.Notes {
			for _, v := range n.Values {
				if v.Name == name {
					return v.Num
				}
			}
		}
		return math.NaN()
	}
}

// leastStep reads Figure 15's least ratio of one percentile's speedup to
// the one before it: at least 1 exactly when the speedup never falls.
func leastStep(t *Table) float64 {
	least := math.Inf(1)
	for i := 1; i < len(t.Rows); i++ {
		least = min(least, t.Rows[i][3].Num/t.Rows[i-1][3].Num)
	}
	return least
}

// readRecords reads records under results/, which hold scale 1.0 at
// seeds 1, 2, ...
func readRecords(t *testing.T, names ...string) []*Record {
	t.Helper()
	var recs []*Record
	for i, name := range names {
		r := readRecord(t, filepath.Join("..", "..", "results", name))
		if r.Scale != 1 || r.Seed != int64(i+1) {
			t.Fatalf("%s holds scale %v seed %d, want scale 1 seed %d", name, r.Scale, r.Seed, i+1)
		}
		recs = append(recs, r)
	}
	return recs
}

// slugged returns table slug of every record, or nil if one lacks it.
func slugged(recs []*Record, slug string) []*Table {
	var out []*Table
	for _, r := range recs {
		for _, t := range r.Tables {
			if t.slug() == slug {
				out = append(out, t)
			}
		}
	}
	if len(out) != len(recs) {
		return nil
	}
	return out
}

// measure reads the anchor at every seed.
func (a anchor) measure(recs []*Record) (vals []float64) {
	for _, t := range slugged(recs, a.slug) {
		vals = append(vals, a.get(t))
	}
	return vals
}

// The paper's shapes, held tightly against the committed scale-1.0
// records: every anchor lands in its band at every seed, or names why it
// does not.
func TestPaperAnchors(t *testing.T) {
	recs := readRecords(t, paperRecords...)
	for _, a := range anchors {
		vals, lands := a.measure(recs), true
		for _, v := range vals {
			lands = lands && v >= a.band[0] && v <= a.band[1]
		}
		switch {
		case len(vals) != len(recs) || a.miss == "" && !lands:
			t.Errorf("%s, %s: measured %v, outside %v (paper %v)", a.slug, a.claim, vals, a.band, a.paper)
		case a.miss != "" && lands:
			t.Errorf("%s, %s: measured %v now lands in %v: drop its miss %q", a.slug, a.claim, vals, a.band, a.miss)
		}
	}
}

var generated = regexp.MustCompile(`(?s)(<!-- generated: (\S+) -->\n).*?(<!-- end generated -->\n)`)

// EXPERIMENTS.md's tables are generated from the records between
// "<!-- generated: <slug> -->" and "<!-- end generated -->"; go test
// ./internal/experiments/ -update rewrites them.
func TestExperimentsDoc(t *testing.T) {
	path := filepath.Join("..", "..", "EXPERIMENTS.md")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	paper, ext := readRecords(t, paperRecords...), readRecords(t, "extensions-seed1.json")
	doc := generated.ReplaceAllStringFunc(string(data), func(block string) string {
		m := generated.FindStringSubmatch(block)
		if ts := slugged(paper, m[2]); ts != nil {
			return m[1] + markdown(ts) + anchorTable(m[2], paper) + m[3]
		}
		if ts := slugged(ext, m[2]); ts != nil {
			return m[1] + markdown(ts) + m[3]
		}
		t.Errorf("EXPERIMENTS.md: no record holds %s", m[2])
		return block
	})
	if *update {
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if doc != string(data) {
		t.Errorf("EXPERIMENTS.md's generated blocks disagree with the records under results/: go test ./internal/experiments/ -update rewrites them")
	}
}

// spread prints what one column holds across seeds: one number when they
// print alike, min–max otherwise.
func spread(c Column, vals []float64) string {
	lo, hi := slices.Min(vals), slices.Max(vals)
	s := c.format(Cell{Num: lo})
	if h := c.format(Cell{Num: hi}); h != s {
		s += "–" + h
	}
	return s
}

// markdown prints one table across seeds and, for a single seed, the
// notes that carry numbers (the anchors read those of the paper's).
func markdown(ts []*Table) string {
	var sb strings.Builder
	row := func(cells []string) { sb.WriteString("| " + strings.Join(cells, " | ") + " |\n") }
	var names, rule []string
	for _, c := range ts[0].Columns {
		names, rule = append(names, c.Name), append(rule, "---")
	}
	row(names)
	row(rule)
	for r, cells := range ts[0].Rows {
		var out []string
		for i, c := range cells {
			if c.Label == "" {
				var vals []float64
				for _, t := range ts {
					vals = append(vals, t.Rows[r][i].Num)
				}
				c.Label = spread(ts[0].Columns[i], vals)
			}
			out = append(out, c.Label)
		}
		row(out)
	}
	for _, note := range ts[0].Notes {
		if len(ts) == 1 && len(note.Values) > 0 {
			sb.WriteString("\n" + note.String() + "\n")
		}
	}
	return sb.String()
}

// anchorTable prints the anchors of one table against the records: the
// paper's number, the band, the measured min–max over the seeds, the
// relative error, and the verdict.
func anchorTable(slug string, recs []*Record) string {
	var sb strings.Builder
	for _, a := range anchors {
		if a.slug != slug {
			continue
		}
		if sb.Len() == 0 {
			sb.WriteString("\n| paper claim | paper | band | measured, seeds 1–3 | error | verdict |\n|---|---|---|---|---|---|\n")
		}
		num := func(x float64) string { return strconv.FormatFloat(x, 'f', a.prec, 64) }
		band := num(a.band[0]) + "–" + num(a.band[1])
		if math.IsInf(a.band[1], 1) {
			band = "≥ " + num(a.band[0])
		}
		vals := a.measure(recs)
		relErr := func(x float64) string { return fmt.Sprintf("%+.0f %%", 100*(x-a.paper)/a.paper) }
		errs := relErr(slices.Min(vals))
		if e := relErr(slices.Max(vals)); e != errs {
			errs += " to " + e
		}
		verdict := "in band"
		if a.miss != "" {
			verdict = "**miss**: " + a.miss
		}
		fmt.Fprintf(&sb, "| %s | %s | %s | %s | %s | %s |\n", a.claim, num(a.paper), band,
			spread(Column{Prec: a.prec}, vals), errs, verdict)
	}
	return sb.String()
}
