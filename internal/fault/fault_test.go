package fault

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
)

func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	if h := in.DeviceHook("s0r0"); h != nil {
		t.Fatalf("nil injector returned non-nil hook")
	}
	if d, err := in.AdmitQuery("s0r0", 0); d != 0 || err != nil {
		t.Fatalf("nil injector admitted with stall=%v err=%v", d, err)
	}
	if d := in.ResetRemaining("s0r0", 0); d != 0 {
		t.Fatalf("nil injector reports reset remaining %v", d)
	}
	if got := in.Log(); got != nil {
		t.Fatalf("nil injector has log %v", got)
	}
	if in.Total() != 0 || in.Counts() != nil || in.Seed() != 0 {
		t.Fatalf("nil injector has non-zero telemetry")
	}
}

func TestHashUnitRangeAndDeterminism(t *testing.T) {
	for seq := int64(0); seq < 1000; seq++ {
		v := hashUnit(42, "s1r0", uint64(KernelLaunch), seq)
		if v < 0 || v >= 1 {
			t.Fatalf("hashUnit out of range: %v", v)
		}
		if v != hashUnit(42, "s1r0", uint64(KernelLaunch), seq) {
			t.Fatalf("hashUnit not deterministic at seq %d", seq)
		}
	}
	// Different seeds must decorrelate.
	same := 0
	for seq := int64(0); seq < 1000; seq++ {
		a := hashUnit(1, "s0r0", uint64(TransferError), seq) < 0.05
		b := hashUnit(2, "s0r0", uint64(TransferError), seq) < 0.05
		if a && b {
			same++
		}
	}
	if same > 25 {
		t.Fatalf("seeds look correlated: %d joint hits at 5%% rate", same)
	}
}

func TestDeviceHookRatesAndClasses(t *testing.T) {
	in := NewInjector(Plan{Seed: 7, Rules: []Rule{
		{Kind: KernelLaunch, Rate: 0.1},
		{Kind: TransferError, Rate: 0.1},
	}})
	hook := in.DeviceHook("s0r0")
	const n = 5000
	var kernel, transfer int
	for i := 0; i < n; i++ {
		class := gpu.CopyEngine
		if i%2 == 0 {
			class = gpu.ComputeEngine
		}
		if err := hook(class, 0); err != nil {
			var df *DeviceFault
			if !errors.As(err, &df) {
				t.Fatalf("hook error is not a DeviceFault: %v", err)
			}
			if df.Kind == KernelLaunch {
				kernel++
			} else if df.Kind == TransferError {
				transfer++
			}
			if class == gpu.ComputeEngine && df.Kind == TransferError {
				t.Fatalf("transfer error on compute submission")
			}
			if class == gpu.CopyEngine && df.Kind == KernelLaunch {
				t.Fatalf("kernel-launch failure on copy submission")
			}
		}
	}
	// ~10% of 2500 opportunities each; allow wide tolerance.
	if kernel < 150 || kernel > 350 {
		t.Fatalf("kernel-launch fired %d times, want ~250", kernel)
	}
	if transfer < 150 || transfer > 350 {
		t.Fatalf("transfer-error fired %d times, want ~250", transfer)
	}
	if in.Total() != int64(kernel+transfer) {
		t.Fatalf("Total %d != observed %d", in.Total(), kernel+transfer)
	}
}

func TestDeviceResetWindow(t *testing.T) {
	in := NewInjector(Plan{Seed: 3, Rules: []Rule{
		{Kind: DeviceReset, Rate: 1, Until: 1, Stall: 2 * time.Millisecond},
	}})
	hook := in.DeviceHook("s0r0")
	err := hook(gpu.ComputeEngine, time.Millisecond)
	var df *DeviceFault
	if !errors.As(err, &df) || df.Kind != DeviceReset {
		t.Fatalf("first submission did not trigger the reset: %v", err)
	}
	if got := in.ResetRemaining("s0r0", time.Millisecond); got != 2*time.Millisecond {
		t.Fatalf("ResetRemaining at trigger = %v, want 2ms", got)
	}
	if got := in.ResetRemaining("s0r0", 2*time.Millisecond); got != time.Millisecond {
		t.Fatalf("ResetRemaining mid-window = %v, want 1ms", got)
	}
	// Submissions inside the window fail fast without new log events.
	if err := hook(gpu.ComputeEngine, 2*time.Millisecond); !IsDeviceFault(err) {
		t.Fatalf("mid-reset submission did not fail: %v", err)
	}
	if got := len(in.Log()); got != 1 {
		t.Fatalf("mid-reset failures logged extra events: %d", got)
	}
	// After the window (rule is Until:1 so no re-fire) the device recovers.
	if err := hook(gpu.ComputeEngine, 4*time.Millisecond); err != nil {
		t.Fatalf("post-reset submission failed: %v", err)
	}
	if got := in.ResetRemaining("s0r0", 4*time.Millisecond); got != 0 {
		t.Fatalf("ResetRemaining after recovery = %v", got)
	}
}

func TestAdmitQueryStallAndEngineError(t *testing.T) {
	in := NewInjector(Plan{Seed: 11, Rules: []Rule{
		{Kind: ShardStall, Rate: 0.2, Stall: 5 * time.Millisecond},
		{Kind: EngineError, Rate: 0.1},
	}})
	var stalls, errs int
	for i := 0; i < 2000; i++ {
		d, err := in.AdmitQuery("s1r1", 0)
		if err != nil {
			if !IsEngineFault(err) {
				t.Fatalf("admission error is not an EngineFault: %v", err)
			}
			errs++
		}
		if d != 0 {
			if d != 5*time.Millisecond {
				t.Fatalf("stall duration %v, want 5ms", d)
			}
			stalls++
		}
	}
	if errs < 120 || errs > 280 {
		t.Fatalf("engine errors fired %d times, want ~200", errs)
	}
	if stalls < 250 || stalls > 550 {
		t.Fatalf("stalls fired %d times, want ~400 (minus engine-error overlap)", stalls)
	}
}

func TestScheduleWindow(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, Rules: []Rule{
		{Kind: EngineError, Rate: 1, After: 10, Until: 20},
	}})
	for i := 0; i < 30; i++ {
		_, err := in.AdmitQuery("s0r0", 0)
		inWindow := i >= 10 && i < 20
		if (err != nil) != inWindow {
			t.Fatalf("opportunity %d: err=%v, want fire=%v", i, err, inWindow)
		}
	}
}

// TestLogDeterministicUnderConcurrency drives the same plan from many
// goroutines twice and checks the sorted logs match exactly: outcomes
// must depend only on (seed, site, seq), never on interleaving.
func TestLogDeterministicUnderConcurrency(t *testing.T) {
	run := func() []Event {
		in := NewInjector(Plan{Seed: 99, Rules: []Rule{
			{Kind: KernelLaunch, Rate: 0.1},
			{Kind: EngineError, Rate: 0.05},
		}})
		var wg sync.WaitGroup
		for site := 0; site < 4; site++ {
			name := fmt.Sprintf("s%dr0", site)
			hook := in.DeviceHook(name)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					_ = hook(gpu.ComputeEngine, 0)
					_, _ = in.AdmitQuery(name, 0)
				}
			}()
		}
		wg.Wait()
		return in.Log()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatalf("plan injected nothing")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fault logs differ across identical runs: %d vs %d events", len(a), len(b))
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: 10 * time.Millisecond, Probes: 2})
	now := time.Duration(0)
	if !b.Allow(now) || b.State(now) != Closed {
		t.Fatalf("new breaker not closed")
	}
	// Two failures: still closed (threshold 3).
	b.Record(now, false)
	b.Record(now, false)
	if b.State(now) != Closed {
		t.Fatalf("breaker tripped below threshold")
	}
	// A success resets the strike count.
	b.Record(now, true)
	b.Record(now, false)
	b.Record(now, false)
	if b.State(now) != Closed {
		t.Fatalf("strike count not reset by success")
	}
	// Third consecutive failure trips it.
	b.Record(now, false)
	if b.State(now) != Open || b.Allow(now) {
		t.Fatalf("breaker did not trip at threshold")
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}
	// Cooldown not yet expired.
	if b.Allow(now + 5*time.Millisecond) {
		t.Fatalf("breaker admitted during cooldown")
	}
	// Cooldown expired: half-open probe admitted.
	now += 10 * time.Millisecond
	if b.State(now) != HalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", b.State(now))
	}
	if !b.Allow(now) {
		t.Fatalf("probe refused after cooldown")
	}
	// Probe failure re-opens.
	b.Record(now, false)
	if b.State(now) != Open || b.Trips() != 2 {
		t.Fatalf("failed probe did not re-open (state=%v trips=%d)", b.State(now), b.Trips())
	}
	// Recover: two probe successes re-close.
	now += 10 * time.Millisecond
	if !b.Allow(now) {
		t.Fatalf("second probe refused")
	}
	b.Record(now, true)
	if b.State(now) != HalfOpen {
		t.Fatalf("breaker closed after one probe, want two")
	}
	b.Record(now, true)
	if b.State(now) != Closed || !b.Allow(now) {
		t.Fatalf("breaker did not re-close after probe successes")
	}
}

// TestBreakerConcurrentHalfOpenProbes races many goroutines against a
// half-open breaker: exactly Probes of them may be admitted as the
// probe, a probe failure re-opens cleanly with no stuck reservations,
// and a cancelled reservation frees the slot for another caller.
func TestBreakerConcurrentHalfOpenProbes(t *testing.T) {
	const attempts = 64
	for seed := 0; seed < 3; seed++ {
		b := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: 10 * time.Millisecond, Probes: 1})
		b.Record(0, false) // trip
		if b.State(0) != Open {
			t.Fatalf("seed %d: breaker not open after threshold failure", seed)
		}
		now := 10 * time.Millisecond

		var wg sync.WaitGroup
		admitted := make([]bool, attempts)
		for i := 0; i < attempts; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				admitted[i] = b.Allow(now)
			}(i)
		}
		wg.Wait()
		wins := 0
		for _, ok := range admitted {
			if ok {
				wins++
			}
		}
		if wins != 1 {
			t.Fatalf("seed %d: %d goroutines admitted as the half-open probe, want exactly 1", seed, wins)
		}

		// The probe fails: the breaker re-opens cleanly and refuses
		// everything until the next cooldown.
		b.Record(now, false)
		if b.State(now) != Open || b.Trips() != 2 {
			t.Fatalf("seed %d: failed probe did not re-open (state=%v trips=%d)", seed, b.State(now), b.Trips())
		}
		if b.Allow(now + 5*time.Millisecond) {
			t.Fatalf("seed %d: admitted during post-probe cooldown", seed)
		}

		// Next half-open window: the slot is free again (no reservation
		// leaked from the failed round); a cancelled reservation frees the
		// slot, and a successful probe re-closes.
		now += 10 * time.Millisecond
		if !b.Allow(now) {
			t.Fatalf("seed %d: probe slot leaked from previous round", seed)
		}
		if b.Allow(now) {
			t.Fatalf("seed %d: second concurrent probe admitted", seed)
		}
		b.Cancel()
		if !b.Allow(now) {
			t.Fatalf("seed %d: cancelled reservation did not free the slot", seed)
		}
		b.Record(now, true)
		if b.State(now) != Closed || !b.Allow(now) {
			t.Fatalf("seed %d: breaker did not re-close after probe success", seed)
		}
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: -1})
	for i := 0; i < 10; i++ {
		b.Record(0, false)
	}
	if !b.Allow(0) || b.State(0) != Closed || b.Trips() != 0 {
		t.Fatalf("disabled breaker tripped")
	}
}

func TestRuntimeHookFailsSubmission(t *testing.T) {
	dev := gpu.New(hwmodel.DefaultGPU(), 0)
	rt := gpu.NewRuntime(dev, 1)
	in := NewInjector(Plan{Seed: 5, Rules: []Rule{{Kind: KernelLaunch, Rate: 1, Until: 1}}})
	rt.SetSubmitHook(in.DeviceHook("s0r0"))
	h := rt.Admit()
	defer h.Release()
	err := h.Submit(gpu.ComputeEngine, func(s *gpu.Stream) error { return nil })
	if !IsDeviceFault(err) {
		t.Fatalf("hooked submission error = %v, want injected DeviceFault", err)
	}
	// The failed item must not have occupied the lane or charged time.
	if got := h.Elapsed(); got != 0 {
		t.Fatalf("failed submission advanced the stream clock: %v", got)
	}
	// Rule exhausted (Until 1): next submission succeeds.
	if err := h.Submit(gpu.ComputeEngine, func(s *gpu.Stream) error { return nil }); err != nil {
		t.Fatalf("second submission failed: %v", err)
	}
}
