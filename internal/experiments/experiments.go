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
	"fmt"
	"math/rand"
	"strings"
	"time"

	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
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
	// BatchWindow and BatchMax parameterize the batching-on arm of the
	// batch sweep (RunBatchSweep). Zero selects the sweep's defaults
	// (2ms window, gpu.DefaultBatchMax members); every other experiment
	// runs with batching off regardless.
	BatchWindow time.Duration
	BatchMax    int
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

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table as aligned plain text.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// CSV renders the table as RFC-4180-ish CSV (header row first; notes as
// trailing comment lines), the format griffin-bench -csvdir emits for
// plotting.
func (t *Table) CSV() string {
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			sb.WriteString(c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "# %s\n", n)
	}
	return sb.String()
}

// TableJSON is the machine-readable form of a Table, emitted by
// griffin-bench -json so CI can record the perf trajectory.
type TableJSON struct {
	Slug   string     `json:"slug"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// JSON returns the table's machine-readable form.
func (t *Table) JSON() TableJSON {
	return TableJSON{Slug: t.Slug(), Title: t.Title, Header: t.Header, Rows: t.Rows, Notes: t.Notes}
}

// Slug returns a filesystem-friendly name derived from the title, unique
// per table. A numbered title is named by its number ("Figure 7: ..." is
// figure_7, the paper's own label); the Extension and Ablation tables
// share their prefix with a dozen others, so theirs runs on through the
// subject, up to the parenthesised unit.
func (t *Table) Slug() string {
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

// ms renders a duration as milliseconds with 3 decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond))
}

// speedup renders a ratio like "12.3x".
func speedup(base, other time.Duration) string {
	if other <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(base)/float64(other))
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
		Codec:      index.CodecEF,
		Seed:       c.Seed,
	}
}

// BuildCorpus materializes the shared corpus (cached by callers that run
// several experiments).
func (c Config) BuildCorpus() (*workload.Corpus, error) {
	return workload.GenerateCorpus(c.corpusSpec())
}

// Scale2Queries returns the end-to-end query-log length at this scale
// (paper: 10,000 queries).
func (c Config) Scale2Queries() int {
	return c.scaled(10_000, 150)
}
