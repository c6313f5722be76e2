package experiments

import (
	"griffin/internal/ef"
	"griffin/internal/pfordelta"
	"griffin/internal/vbyte"
	"griffin/internal/workload"
)

// Table1Result is the compression-ratio comparison of §4.3.1 (Table 1):
// average compression ratio of PForDelta vs Elias-Fano over the corpus's
// inverted lists. The paper measures 3.3 vs 4.6 (EF 1.4x better). VByte,
// not in the paper's table, is included as the classic byte-aligned
// reference codec.
type Table1Result struct {
	PFDRatio   float64
	EFRatio    float64
	VByteRatio float64
}

// runTable1 compresses every list of a Zipfian corpus sample with both
// codecs and reports the size-weighted average ratios.
func runTable1(cfg Config) (Table1Result, *Table, error) {
	rng := cfg.rng(1)
	numLists := cfg.scaled(500, 40)
	maxLen := cfg.scaled(1_000_000, 20_000)

	var rawBits, pfdBits, efBits, vbBits int64
	for i := 0; i < numLists; i++ {
		// Zipf-ish spread of list lengths, web-like d-gap profile.
		n := maxLen / (1 + i)
		if n < 1000 {
			n = 1000
		}
		universe := uint32(n * (4 + rng.Intn(60)))
		ids := workload.GenList(rng, n, universe)
		if len(ids) == 0 {
			continue
		}
		p, err := pfordelta.Compress(ids)
		if err != nil {
			return Table1Result{}, nil, err
		}
		e, err := ef.Compress(ids)
		if err != nil {
			return Table1Result{}, nil, err
		}
		vb, err := vbyte.Compress(ids)
		if err != nil {
			return Table1Result{}, nil, err
		}
		rawBits += int64(len(ids)) * 32
		pfdBits += p.CompressedBits()
		efBits += e.CompressedBits()
		vbBits += vb.CompressedBits()
	}

	res := Table1Result{
		PFDRatio:   float64(rawBits) / float64(pfdBits),
		EFRatio:    float64(rawBits) / float64(efBits),
		VByteRatio: float64(rawBits) / float64(vbBits),
	}
	ratio := func(name string) Column { return Column{Name: name, Clock: Count, Prec: 1} }
	t := &Table{
		Title:   "Table 1: Compression Ratio Comparison",
		Columns: []Column{label("Scheme"), ratio("PforDelta"), ratio("EF"), ratio("VByte (ref)")},
	}
	t.row("Compression Ratio", res.PFDRatio, res.EFRatio, res.VByteRatio)
	t.note("paper: 3.3 vs 4.6 (EF 1.4x better); measured EF advantage: {}",
		Column{Name: "EF advantage", Unit: "x", Clock: Count, Prec: 2}.of(res.EFRatio/res.PFDRatio))
	t.note("VByte column added as the classic byte-aligned reference codec")
	return res, t, nil
}
