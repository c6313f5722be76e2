package overload

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestParseClass(t *testing.T) {
	cases := []struct {
		in   string
		want Class
		ok   bool
	}{
		{"", Interactive, true},
		{"interactive", Interactive, true},
		{"batch", Batch, true},
		{"Batch", Interactive, false},
		{"bulk", Interactive, false},
	}
	for _, c := range cases {
		got, ok := ParseClass(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseClass(%q) = %v,%v want %v,%v", c.in, got, ok, c.want, c.ok)
		}
	}
	if Interactive.String() != "interactive" || Batch.String() != "batch" {
		t.Errorf("String: %q %q", Interactive, Batch)
	}
}

func TestIsOverload(t *testing.T) {
	if !IsOverload(fmt.Errorf("shard 3: %w", ErrShed)) {
		t.Error("wrapped ErrShed not recognized")
	}
	if !IsOverload(fmt.Errorf("q: %w", ErrDeadline)) {
		t.Error("wrapped ErrDeadline not recognized")
	}
	if IsOverload(errors.New("boom")) {
		t.Error("ordinary error classified as overload")
	}
}

func TestConfigEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	if !(Config{DefaultDeadline: time.Millisecond}).Enabled() {
		t.Error("deadline-only config reports disabled")
	}
	if !(Config{RetryBudget: 0.1}).Enabled() {
		t.Error("budget-only config reports disabled")
	}
}

func TestBudgetNilGrantsEverything(t *testing.T) {
	var b *Budget
	b.Admit()
	for i := 0; i < 100; i++ {
		if !b.Take() {
			t.Fatal("nil budget denied")
		}
	}
	if b.Stats() != (BudgetStats{}) {
		t.Errorf("nil stats: %+v", b.Stats())
	}
	if NewBudget(0, 5) != nil || NewBudget(-1, 5) != nil {
		t.Error("non-positive ratio must disable the budget")
	}
}

func TestBudgetBoundsRetries(t *testing.T) {
	b := NewBudget(0.1, 2)
	// Starts at burst: two grants, then dry.
	if !b.Take() || !b.Take() {
		t.Fatal("initial burst not granted")
	}
	if b.Take() {
		t.Fatal("granted beyond burst with no admissions")
	}
	// 10 admissions earn exactly one token.
	for i := 0; i < 10; i++ {
		b.Admit()
	}
	if !b.Take() {
		t.Fatal("earned token not granted")
	}
	if b.Take() {
		t.Fatal("granted more than earned")
	}
	st := b.Stats()
	if st.Admissions != 10 || st.Granted != 3 || st.Denied != 2 {
		t.Errorf("stats: %+v", st)
	}
	// The bucket never exceeds burst however many admissions arrive.
	for i := 0; i < 1000; i++ {
		b.Admit()
	}
	grants := 0
	for b.Take() {
		grants++
	}
	if grants != 2 {
		t.Errorf("burst cap violated: %d grants after refill", grants)
	}
}

func TestShedderAdmitsUnderTarget(t *testing.T) {
	s := NewShedder(time.Millisecond, 2*time.Millisecond)
	for i := 0; i < 50; i++ {
		now := time.Duration(i) * time.Millisecond
		if !s.Offer(now, time.Millisecond) {
			t.Fatalf("shed at target age (offer %d)", i)
		}
	}
	if st := s.Stats(); st.Sheds != 0 || st.Offered != 50 {
		t.Errorf("stats: %+v", st)
	}
}

func TestShedderRequiresSustainedOverage(t *testing.T) {
	s := NewShedder(time.Millisecond, 2*time.Millisecond)
	// First overage starts the window but is admitted.
	if !s.Offer(0, 5*time.Millisecond) {
		t.Fatal("first overage shed immediately")
	}
	// Still inside the interval: admitted.
	if !s.Offer(time.Millisecond, 5*time.Millisecond) {
		t.Fatal("shed before interval elapsed")
	}
	// A dip below target resets the window.
	if !s.Offer(1500*time.Microsecond, 500*time.Microsecond) {
		t.Fatal("under-target offer shed")
	}
	if !s.Offer(1600*time.Microsecond, 5*time.Millisecond) {
		t.Fatal("overage after reset shed immediately")
	}
	// Sustained past the interval: shed.
	if s.Offer(4*time.Millisecond, 5*time.Millisecond) {
		t.Fatal("sustained overage admitted")
	}
	st := s.Stats()
	if st.Sheds != 1 || !st.Above || st.LastAge != 5*time.Millisecond {
		t.Errorf("stats: %+v", st)
	}
}

func TestShedderNilAndDisabled(t *testing.T) {
	var s *Shedder
	if !s.Offer(0, time.Hour) {
		t.Error("nil shedder shed")
	}
	if NewShedder(0, time.Second) != nil || NewShedder(-1, 0) != nil {
		t.Error("non-positive target must disable the shedder")
	}
}

func TestBrownoutLadder(t *testing.T) {
	b := NewBrownout(10*time.Millisecond, 20*time.Millisecond, 5*time.Millisecond)
	if lvl := b.Observe(0, 5*time.Millisecond); lvl != 0 {
		t.Fatalf("level under enter: %d", lvl)
	}
	if lvl := b.Observe(time.Millisecond, 12*time.Millisecond); lvl != 1 {
		t.Fatalf("enter not taken: %d", lvl)
	}
	// Escalation is immediate.
	if lvl := b.Observe(2*time.Millisecond, 25*time.Millisecond); lvl != 2 {
		t.Fatalf("escalate not taken: %d", lvl)
	}
	// Pressure drops below half of escalate, but hold not yet elapsed.
	if lvl := b.Observe(3*time.Millisecond, time.Millisecond); lvl != 2 {
		t.Fatalf("stepped down before hold: %d", lvl)
	}
	// Hold elapsed: one step down at a time.
	if lvl := b.Observe(8*time.Millisecond, time.Millisecond); lvl != 1 {
		t.Fatalf("no step-down after hold: %d", lvl)
	}
	if lvl := b.Observe(9*time.Millisecond, time.Millisecond); lvl != 1 {
		t.Fatalf("second step-down skipped hold: %d", lvl)
	}
	if lvl := b.Observe(14*time.Millisecond, time.Millisecond); lvl != 0 {
		t.Fatalf("no return to level 0: %d", lvl)
	}
	// Pressure between exit and enter thresholds: level holds (hysteresis).
	b2 := NewBrownout(10*time.Millisecond, 0, time.Millisecond)
	b2.Observe(0, 15*time.Millisecond)
	if lvl := b2.Observe(10*time.Millisecond, 7*time.Millisecond); lvl != 1 {
		t.Fatalf("flapped below enter but above exit: %d", lvl)
	}
	st := b.Stats()
	if st.Escalations != 2 || st.Level != 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestBrownoutNilAndCounters(t *testing.T) {
	var b *Brownout
	if b.Observe(0, time.Hour) != 0 || b.Stats().Level != 0 {
		t.Error("nil brownout escalated")
	}
	b.NoteBatchShed()
	b.NoteDegraded()
	if b.Stats() != (BrownoutStats{}) {
		t.Errorf("nil stats: %+v", b.Stats())
	}
	real := NewBrownout(time.Millisecond, 0, 0)
	real.NoteBatchShed()
	real.NoteDegraded()
	real.NoteDegraded()
	if st := real.Stats(); st.BatchSheds != 1 || st.Degraded != 2 {
		t.Errorf("counters: %+v", st)
	}
}

func TestBudgetConcurrentAccounting(t *testing.T) {
	b := NewBudget(0.5, 4)
	var wg sync.WaitGroup
	var granted int64
	var mu sync.Mutex
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := int64(0)
			for j := 0; j < 100; j++ {
				b.Admit()
				if b.Take() {
					local++
				}
			}
			mu.Lock()
			granted += local
			mu.Unlock()
		}()
	}
	wg.Wait()
	st := b.Stats()
	if st.Admissions != 800 {
		t.Errorf("admissions: %d", st.Admissions)
	}
	if st.Granted != granted {
		t.Errorf("granted mismatch: stats %d observed %d", st.Granted, granted)
	}
	// Grants can never exceed burst + earned tokens.
	if max := int64(4 + 800/2); granted > max {
		t.Errorf("granted %d exceeds budget bound %d", granted, max)
	}
}
