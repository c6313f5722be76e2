package gpu

import (
	"sync"
	"testing"
	"time"

	"griffin/internal/hwmodel"
)

// launchOp submits one keyed compute kernel through the handle and
// returns its batch membership.
func launchOp(t *testing.T, h *QueryStream, key string) Batched {
	t.Helper()
	m, err := h.SubmitOp(ComputeEngine, key, func(s *Stream) error {
		s.Launch(testKernel("work"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Two queries admitted into the same epoch submitting the same kernel
// family coalesce: the leader pays full cost, the follower is rebated
// the launch overhead minus the per-member marginal cost.
func TestBatcherCoalescesAcrossQueries(t *testing.T) {
	model := hwmodel.DefaultGPU()
	dev := New(model, 0)
	rt := NewRuntime(dev, 1)
	rt.EnableBatching(BatchConfig{Window: time.Millisecond})

	h1 := rt.Admit()
	h2 := rt.Admit()
	defer h1.Release()
	defer h2.Release()

	m1 := launchOp(t, h1, "intersect:mergepath")
	service := h1.Elapsed()
	m2 := launchOp(t, h2, "intersect:mergepath")

	if m1.ID == 0 || m1.Seq != 1 || m1.Saved != 0 {
		t.Fatalf("leader membership %+v", m1)
	}
	wantRebate := model.LaunchOverhead - model.BatchMemberOverhead
	if m2.ID != m1.ID || m2.Seq != 2 || m2.Saved != wantRebate {
		t.Fatalf("follower membership %+v, want batch %d seq 2 saved %v", m2, m1.ID, wantRebate)
	}
	// The follower's clock: waited behind the leader's service, ran the
	// same kernel, got the rebate back.
	if got, want := h2.Elapsed(), service+service-wantRebate; got != want {
		t.Fatalf("follower clock %v, want %v", got, want)
	}
	st := rt.BatchStats()
	if st.Batches != 1 || st.Members != 2 || st.Saved != wantRebate {
		t.Fatalf("stats %+v", st)
	}
}

// A batch holds at most one op per query: a single query's back-to-back
// ops of one family open parallel batches instead of self-coalescing, so
// an isolated query's timeline is bit-identical to batching disabled.
func TestBatcherNeverSelfBatches(t *testing.T) {
	run := func(window time.Duration) (time.Duration, [2]Batched) {
		dev := New(hwmodel.DefaultGPU(), 0)
		rt := NewRuntime(dev, 1)
		rt.EnableBatching(BatchConfig{Window: window})
		h := rt.Admit()
		defer h.Release()
		var ms [2]Batched
		ms[0] = launchOp(t, h, "decompress")
		ms[1] = launchOp(t, h, "decompress")
		return h.Elapsed(), ms
	}
	offClock, _ := run(0)
	onClock, ms := run(10 * time.Millisecond)
	if onClock != offClock {
		t.Fatalf("isolated query clock moved with batching on: %v vs %v", onClock, offClock)
	}
	if ms[0].Seq != 1 || ms[1].Seq != 1 {
		t.Fatalf("same-query ops joined one batch: %+v", ms)
	}
	if ms[0].ID == ms[1].ID {
		t.Fatalf("same-query ops share batch %d", ms[0].ID)
	}
	if ms[0].Saved != 0 || ms[1].Saved != 0 {
		t.Fatalf("isolated query collected a rebate: %+v", ms)
	}
}

// Parallel batches pack by position: with two overlapping queries each
// submitting two ops of one family, op i of each query shares batch i.
func TestBatcherParallelBatchesAlignByPosition(t *testing.T) {
	dev := New(hwmodel.DefaultGPU(), 0)
	rt := NewRuntime(dev, 1)
	rt.EnableBatching(BatchConfig{Window: 50 * time.Millisecond})

	h1 := rt.Admit()
	h2 := rt.Admit()
	defer h1.Release()
	defer h2.Release()

	a1 := launchOp(t, h1, "upload")
	a2 := launchOp(t, h1, "upload")
	b1 := launchOp(t, h2, "upload")
	b2 := launchOp(t, h2, "upload")

	if b1.ID != a1.ID || b1.Seq != 2 {
		t.Fatalf("q2 op1 %+v did not join q1 op1's batch %d", b1, a1.ID)
	}
	if b2.ID != a2.ID || b2.Seq != 2 {
		t.Fatalf("q2 op2 %+v did not join q1 op2's batch %d", b2, a2.ID)
	}
}

// An op whose ready position falls past an open batch's window retires
// that batch (window flush) and leads a fresh one.
func TestBatcherWindowFlush(t *testing.T) {
	const window = 100 * time.Microsecond
	dev := New(hwmodel.DefaultGPU(), 0)
	rt := NewRuntime(dev, 1)
	rt.EnableBatching(BatchConfig{Window: window})

	h1 := admitAt(rt, 0)
	h2 := admitAt(rt, window*2) // ready past h1's window
	defer h1.Release()
	defer h2.Release()

	m1 := launchOp(t, h1, "k")
	m2 := launchOp(t, h2, "k")
	if m2.ID == m1.ID || m2.Seq != 1 || m2.Saved != 0 {
		t.Fatalf("late op joined expired batch: %+v after %+v", m2, m1)
	}
	st := rt.BatchStats()
	if st.Batches != 2 || st.WindowFlushes != 1 || st.SizeFlushes != 0 {
		t.Fatalf("stats %+v, want 2 batches with 1 window flush", st)
	}
}

// A batch reaching Max members closes early (size flush); the next
// compatible op leads a new batch.
func TestBatcherSizeFlush(t *testing.T) {
	dev := New(hwmodel.DefaultGPU(), 0)
	rt := NewRuntime(dev, 1)
	rt.EnableBatching(BatchConfig{Window: 50 * time.Millisecond, Max: 2})

	hs := []*QueryStream{rt.Admit(), rt.Admit(), rt.Admit()}
	var ms []Batched
	for _, h := range hs {
		defer h.Release()
		ms = append(ms, launchOp(t, h, "k"))
	}
	if ms[1].ID != ms[0].ID || ms[1].Seq != 2 {
		t.Fatalf("second op %+v did not fill the first batch %+v", ms[1], ms[0])
	}
	if ms[2].ID == ms[0].ID || ms[2].Seq != 1 {
		t.Fatalf("third op %+v joined a size-flushed batch", ms[2])
	}
	st := rt.BatchStats()
	if st.SizeFlushes != 1 || st.Batches != 2 {
		t.Fatalf("stats %+v, want 1 size flush over 2 batches", st)
	}
}

// A drained device forfeits its open batches: queries separated by an
// idle gap never overlapped, so the second must not collect a rebate
// from the first's launch.
func TestBatcherDrainedDeviceFlushes(t *testing.T) {
	dev := New(hwmodel.DefaultGPU(), 0)
	rt := NewRuntime(dev, 1)
	rt.EnableBatching(BatchConfig{Window: time.Hour}) // window alone would never expire

	h1 := rt.Admit()
	m1 := launchOp(t, h1, "k")
	h1.Release()

	h2 := rt.Admit() // device drained: admission flushes all open batches
	defer h2.Release()
	m2 := launchOp(t, h2, "k")
	if m2.ID == m1.ID || m2.Saved != 0 {
		t.Fatalf("sequential query rode a drained batch: %+v after %+v", m2, m1)
	}
	if st := rt.BatchStats(); st.WindowFlushes != 1 {
		t.Fatalf("stats %+v, want the drain counted as a window flush", st)
	}
}

// Unkeyed submissions opt out of batching entirely.
func TestBatcherIgnoresUnkeyedOps(t *testing.T) {
	dev := New(hwmodel.DefaultGPU(), 0)
	rt := NewRuntime(dev, 1)
	rt.EnableBatching(BatchConfig{Window: time.Millisecond})
	h1, h2 := rt.Admit(), rt.Admit()
	defer h1.Release()
	defer h2.Release()
	launchOp(t, h1, "")
	launchOp(t, h2, "")
	if st := rt.BatchStats(); st != (BatchStats{}) {
		t.Fatalf("unkeyed ops touched the batcher: %+v", st)
	}
}

// Concurrently admitted queries racing their submissions into one window
// coalesce into exactly one batch — the -race exercise of the admission→
// batch→submit pipeline: every member lands in the same batch with a
// distinct ordinal and everyone but the leader collects the same rebate.
func TestBatcherConcurrentAdmissionsOneBatch(t *testing.T) {
	const n = 8
	model := hwmodel.DefaultGPU()
	dev := New(model, 0)
	rt := NewRuntime(dev, 1)
	rt.EnableBatching(BatchConfig{Window: time.Hour, Max: n})

	// Admit every query before any submits so the device never drains
	// mid-test (a drain would flush the open batch).
	hs := make([]*QueryStream, n)
	for i := range hs {
		hs[i] = rt.Admit()
	}
	ms := make([]Batched, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, h := range hs {
		wg.Add(1)
		go func(i int, h *QueryStream) {
			defer wg.Done()
			ms[i], errs[i] = h.SubmitOp(ComputeEngine, "intersect:mergepath", func(s *Stream) error {
				s.Launch(testKernel("work"))
				return nil
			})
		}(i, h)
	}
	wg.Wait()
	for _, h := range hs {
		h.Release()
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}

	seqs := make(map[int]bool)
	wantRebate := model.LaunchOverhead - model.BatchMemberOverhead
	for i, m := range ms {
		if m.ID != ms[0].ID {
			t.Fatalf("member %d in batch %d, want %d", i, m.ID, ms[0].ID)
		}
		if m.Seq < 1 || m.Seq > n || seqs[m.Seq] {
			t.Fatalf("member %d has bad ordinal %d (seen %v)", i, m.Seq, seqs)
		}
		seqs[m.Seq] = true
		if m.Seq == 1 && m.Saved != 0 {
			t.Fatalf("leader %d collected rebate %v", i, m.Saved)
		}
		if m.Seq > 1 && m.Saved != wantRebate {
			t.Fatalf("follower %d rebated %v, want %v", i, m.Saved, wantRebate)
		}
	}
	st := rt.BatchStats()
	if st.Batches != 1 || st.Members != n || st.SizeFlushes != 1 {
		t.Fatalf("stats %+v, want one full batch of %d", st, n)
	}
	if st.Saved != time.Duration(n-1)*wantRebate {
		t.Fatalf("saved %v, want %v", st.Saved, time.Duration(n-1)*wantRebate)
	}
}
