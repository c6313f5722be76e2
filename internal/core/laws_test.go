package core

import (
	"fmt"
	"math/rand"
	"testing"

	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/workload"
)

// TestModeledTimeIgnoresLogOrder holds the modeled clock to its order and
// isolation laws: an untimed, uncached query's modeled time depends on the
// query alone. Replaying one log forward, reversed and shuffled, each on a
// fresh engine, gives every query the same Latency and every operator the
// same Took, in GPU-only and Griffin mode on one device and on two; and a
// query run alone on a fresh engine takes what it took inside the log.
// No device state that a query leaves behind may reach the next one's
// timing — a first-use cudaMalloc charge, say, breaks both laws.
func TestModeledTimeIgnoresLogOrder(t *testing.T) {
	c := testCorpus(t)
	log := workload.GenerateQueryLog(c, workload.QuerySpec{NumQueries: 200, PopularityAlpha: 0.7, Seed: 11})
	n := len(log)
	forward := make([]int, n)
	reversed := make([]int, n)
	for i := range forward {
		forward[i], reversed[i] = i, n-1-i
	}
	shuffled := rand.New(rand.NewSource(3)).Perm(n)

	for _, mode := range []Mode{GPUOnly, Hybrid} {
		for _, devices := range []int{1, 2} {
			fresh := func() *Engine {
				e, err := New(c.Index, Config{Mode: mode, Device: gpu.New(hwmodel.DefaultGPU(), 0), Devices: devices})
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			// run answers query q on e and returns its latency and its
			// operators' times.
			run := func(e *Engine, q int) string {
				r, err := e.Search(log[q].Terms)
				if err != nil {
					t.Fatal(err)
				}
				s := fmt.Sprint(r.Stats.Latency)
				for _, op := range r.Stats.Plan {
					s += fmt.Sprintf(" %v@%v:%v", op.Kind, op.Where, op.Took)
				}
				return s
			}
			replay := func(order []int) []string {
				e := fresh()
				out := make([]string, n)
				for _, q := range order {
					out[q] = run(e, q)
				}
				return out
			}
			want := replay(forward)
			for name, order := range map[string][]int{"reversed": reversed, "shuffled": shuffled} {
				got := replay(order)
				for q := range want {
					if got[q] != want[q] {
						t.Errorf("%v on %d devices, %s log: q%d %v took\n  %s\nin the forward log\n  %s",
							mode, devices, name, q, log[q].Terms, got[q], want[q])
					}
				}
			}
			// Isolation: every tenth query alone on a fresh engine.
			for q := 0; q < n; q += 10 {
				if got := run(fresh(), q); got != want[q] {
					t.Errorf("%v on %d devices: q%d %v alone took\n  %s\nin the log\n  %s",
						mode, devices, q, log[q].Terms, got, want[q])
				}
			}
		}
	}
}
