package stats

import (
	"testing"
	"testing/quick"
	"time"
)

func TestPercentileExact(t *testing.T) {
	r := NewLatencyRecorder(100)
	for i := 1; i <= 100; i++ {
		r.Record(time.Duration(i) * time.Millisecond)
	}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{50, 50 * time.Millisecond},
		{80, 80 * time.Millisecond},
		{95, 95 * time.Millisecond},
		{99, 99 * time.Millisecond},
		{100, 100 * time.Millisecond},
		{1, 1 * time.Millisecond},
	}
	for _, c := range cases {
		if got := r.Percentile(c.p); got != c.want {
			t.Errorf("P%.1f = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileUnsortedInput(t *testing.T) {
	r := NewLatencyRecorder(0)
	for _, v := range []int{50, 10, 90, 30, 70} {
		r.Record(time.Duration(v))
	}
	if got := r.Percentile(100); got != 90 {
		t.Fatalf("max percentile = %v, want 90", got)
	}
	// Recording after a percentile query must re-sort.
	r.Record(time.Duration(95))
	if got := r.Percentile(100); got != 95 {
		t.Fatalf("after new record: %v, want 95", got)
	}
}

func TestPercentileEmpty(t *testing.T) {
	r := NewLatencyRecorder(0)
	if r.Percentile(99) != 0 || r.Mean() != 0 || r.Max() != 0 {
		t.Fatal("empty recorder must return zeros")
	}
}

func TestPercentile999NearMax(t *testing.T) {
	// With 10000 samples, P99.9 is the 9990th value (nearest rank).
	r := NewLatencyRecorder(10000)
	for i := 1; i <= 10000; i++ {
		r.Record(time.Duration(i))
	}
	if got := r.Percentile(99.9); got != time.Duration(9990) {
		t.Fatalf("P99.9 = %v, want 9990", got)
	}
}

func TestPercentileMonotoneQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		r := NewLatencyRecorder(len(raw))
		for _, v := range raw {
			r.Record(time.Duration(v))
		}
		prev := time.Duration(-1)
		for _, p := range []float64{10, 50, 80, 90, 95, 99, 99.9, 100} {
			v := r.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanAndMax(t *testing.T) {
	r := NewLatencyRecorder(0)
	for _, v := range []int{10, 20, 30} {
		r.Record(time.Duration(v))
	}
	if r.Mean() != 20 {
		t.Fatalf("mean = %v", r.Mean())
	}
	if r.Max() != 30 {
		t.Fatalf("max = %v", r.Max())
	}
	if r.Count() != 3 {
		t.Fatalf("count = %d", r.Count())
	}
}

func TestCDF(t *testing.T) {
	values := []int{1, 5, 10, 50, 100, 1000}
	got := CDF(values, []int{0, 1, 10, 100, 10000})
	want := []float64{0, 1.0 / 6, 3.0 / 6, 5.0 / 6, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("CDF[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	got := CDF(nil, []int{1, 2})
	if got[0] != 0 || got[1] != 0 {
		t.Fatal("empty CDF must be zero")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int{2, 2, 3, 3, 3, 4} {
		h.Add(v)
	}
	if h.Fraction(2) != 2.0/6 || h.Fraction(3) != 3.0/6 || h.Fraction(5) != 0 {
		t.Fatalf("fractions wrong: %v %v %v", h.Fraction(2), h.Fraction(3), h.Fraction(5))
	}
	if h.Fraction(3)+h.Fraction(4) != 4.0/6 {
		t.Fatalf("fraction at least 3 = %v", h.Fraction(3)+h.Fraction(4))
	}
}

func TestRatioGroups(t *testing.T) {
	groups := PaperRatioGroups()
	if len(groups) != 7 {
		t.Fatalf("got %d groups, want 7", len(groups))
	}
	if groups[0].String() != "[1,16)" || groups[6].String() != "[512,1024)" {
		t.Fatalf("group names: %v ... %v", groups[0], groups[6])
	}
	// Groups must tile [1,1024) without gaps or overlaps.
	if groups[0].Lo != 1 || groups[6].Hi != 1024 {
		t.Fatalf("groups span [%d,%d), want [1,1024)", groups[0].Lo, groups[6].Hi)
	}
	for i := 1; i < len(groups); i++ {
		if groups[i].Lo != groups[i-1].Hi || groups[i].Lo >= groups[i].Hi {
			t.Fatalf("%v does not follow %v", groups[i], groups[i-1])
		}
	}
}
