package sched

import (
	"testing"
	"testing/quick"
)

func TestRatioPolicyBelowThresholdGPU(t *testing.T) {
	p := NewRatioPolicy()
	d := p.Decide(1000, 10_000) // ratio 10
	if d.Where != GPU {
		t.Fatalf("ratio 10 scheduled on %v, want GPU", d.Where)
	}
	if d.Ratio != 10 {
		t.Fatalf("ratio = %v", d.Ratio)
	}
}

func TestRatioPolicyAboveThresholdCPU(t *testing.T) {
	p := NewRatioPolicy()
	d := p.Decide(100, 100*129)
	if d.Where != CPU {
		t.Fatalf("ratio 129 scheduled on %v, want CPU", d.Where)
	}
}

func TestRatioPolicyExactThresholdCPU(t *testing.T) {
	// The paper's rule is "less than 128 -> GPU": exactly 128 goes CPU.
	p := NewRatioPolicy()
	if d := p.Decide(100, 12800); d.Where != CPU {
		t.Fatalf("ratio exactly 128 scheduled on %v, want CPU", d.Where)
	}
}

func TestStickyMigration(t *testing.T) {
	p := NewRatioPolicy()
	if d := p.Decide(1000, 2000); d.Where != GPU {
		t.Fatal("first low-ratio op should be GPU")
	}
	if d := p.Decide(10, 100_000); d.Where != CPU {
		t.Fatal("high-ratio op should migrate to CPU")
	}
	// After migration, even a low ratio stays on CPU (sticky).
	if d := p.Decide(1000, 2000); d.Where != CPU {
		t.Fatal("sticky policy returned to GPU after migration")
	}
}

func TestNonStickyPolicy(t *testing.T) {
	p := &RatioPolicy{Crossover: 128, Sticky: false}
	p.Decide(10, 100_000) // CPU
	if d := p.Decide(1000, 2000); d.Where != GPU {
		t.Fatal("non-sticky policy must re-evaluate each op")
	}
}

func TestFreshResetsMigration(t *testing.T) {
	p := NewRatioPolicy()
	p.Decide(10, 100_000) // migrate
	q := p.Fresh().(*RatioPolicy)
	if d := q.Decide(1000, 2000); d.Where != GPU {
		t.Fatal("Fresh policy inherited migration state")
	}
	if q.Crossover != p.Crossover || q.Sticky != p.Sticky {
		t.Fatal("Fresh lost configuration")
	}
}

func TestCustomCrossover(t *testing.T) {
	p := &RatioPolicy{Crossover: 64, Sticky: true}
	if d := p.Decide(100, 6500); d.Where != CPU {
		t.Fatal("ratio 65 should be CPU at crossover 64")
	}
	p2 := &RatioPolicy{Crossover: 64, Sticky: true}
	if d := p2.Decide(100, 6300); d.Where != GPU {
		t.Fatal("ratio 63 should be GPU at crossover 64")
	}
}

func TestZeroCrossoverDefaults(t *testing.T) {
	p := &RatioPolicy{}
	if d := p.Decide(100, 100); d.Where != GPU {
		t.Fatal("zero crossover should default to 128")
	}
}

func TestZeroShortLenGoesCPU(t *testing.T) {
	p := NewRatioPolicy()
	if d := p.Decide(0, 100); d.Where != CPU {
		t.Fatal("empty short list must not be scheduled on GPU")
	}
}

func TestAlwaysPolicy(t *testing.T) {
	g := AlwaysPolicy{Target: GPU}
	if g.Decide(1, 1<<30).Where != GPU {
		t.Fatal("AlwaysPolicy(GPU) decided CPU")
	}
	c := AlwaysPolicy{Target: CPU}
	if c.Decide(1000, 1000).Where != CPU {
		t.Fatal("AlwaysPolicy(CPU) decided GPU")
	}
	if g.Fresh().Decide(1, 2).Where != GPU {
		t.Fatal("Fresh lost target")
	}
}

func TestPerQueryPolicyPinsFirstDecision(t *testing.T) {
	p := &PerQueryPolicy{Inner: NewRatioPolicy()}
	if p.Decide(1000, 2000).Where != GPU {
		t.Fatal("first decision below the crossover placed on CPU")
	}
	if d := p.Decide(10, 1<<20); d.Where != GPU || d.Ratio != Ratio(10, 1<<20) {
		t.Fatalf("later decision %+v, want the pinned GPU at its own ratio", d)
	}
	f := p.Fresh()
	if f.Decide(10, 1<<20).Where != CPU || f.Decide(1000, 2000).Where != CPU {
		t.Fatal("Fresh kept the pinned answer")
	}
	// A single-term query asks about an empty short side: host decode.
	if (&PerQueryPolicy{Inner: NewRatioPolicy()}).Decide(0, 100).Where != CPU {
		t.Fatal("empty short side pinned to GPU")
	}
}

func TestProcessorString(t *testing.T) {
	if CPU.String() != "CPU" || GPU.String() != "GPU" {
		t.Fatal("Processor.String wrong")
	}
}

// TestFigure9Pigeonhole verifies the paper's block-skipping claim: with
// 128-element blocks, λ > 128 guarantees at least one skippable block in
// the long list.
func TestFigure9Pigeonhole(t *testing.T) {
	f := func(shortRaw uint16, mult uint8) bool {
		shortLen := int(shortRaw)%1000 + 1
		// λ strictly greater than 128.
		longLen := shortLen*128 + int(mult) + 1
		if SkippableBlocks(shortLen, longLen, 128) < 0 {
			return false
		}
		// The strict guarantee needs λ > blockSize, i.e. longLen >
		// shortLen*128; then blocks = ceil(longLen/128) > shortLen.
		blocks := (longLen + 127) / 128
		if blocks > shortLen {
			return SkippableBlocks(shortLen, longLen, 128) >= 1
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSkippableBlocksNeverNegative(t *testing.T) {
	if got := SkippableBlocks(1000, 128, 128); got != 0 {
		t.Fatalf("skippable = %d, want 0", got)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(10, 100) != 10 {
		t.Fatal("Ratio(10,100) != 10")
	}
	if Ratio(0, 5) < 1e18 {
		t.Fatal("Ratio with empty short list must be effectively infinite")
	}
}
