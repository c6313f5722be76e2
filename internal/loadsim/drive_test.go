package loadsim

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"griffin/internal/cluster"
	"griffin/internal/overload"
	"griffin/internal/wal"
)

// slot is one arrival as a fake target saw it.
type slot struct {
	write bool
	at    time.Duration
	terms []string // a read's terms, a write's tokens
	opts  cluster.QueryOpts
	merge bool
}

// fakeTarget records what Drive issues and answers every query with a
// fixed latency, shedding every shedEvery-th.
type fakeTarget struct {
	slots     []slot
	latency   time.Duration
	shedEvery int
}

func (f *fakeTarget) Query(terms []string, at time.Duration, opts cluster.QueryOpts) (Outcome, error) {
	f.slots = append(f.slots, slot{at: at, terms: terms, opts: opts})
	if f.shedEvery > 0 && len(f.slots)%f.shedEvery == 0 {
		return Outcome{Shed: true}, nil
	}
	return Outcome{Stats: cluster.Stats{Latency: f.latency}}, nil
}

func (f *fakeTarget) Utilization() float64 { return 0.5 }

// fakeWriter is a fakeTarget that also takes writes.
type fakeWriter struct {
	fakeTarget
	writes int
}

func (f *fakeWriter) Apply(m Mutation, at time.Duration, merge bool) (int, error) {
	f.slots = append(f.slots, slot{write: true, at: at, terms: m.Tokens, merge: merge})
	f.writes++
	return f.writes, nil
}

func fakeLog(n int) ([][]string, []Mutation) {
	queries := make([][]string, n)
	muts := make([]Mutation, n/2)
	for i := range queries {
		queries[i] = []string{"q", string(rune('a' + i%26))}
	}
	for i := range muts {
		muts[i] = Mutation{Op: wal.OpAdd, DocID: uint32(i), Tokens: []string{"w", string(rune('a' + i%26))}}
	}
	return queries, muts
}

// interleaving strips a run down to what the arrival process decided:
// which slots were writes, when each arrived, and what it carried.
func interleaving(slots []slot) []slot {
	out := make([]slot, len(slots))
	for i, s := range slots {
		out[i] = slot{write: s.write, at: s.at, terms: s.terms}
	}
	return out
}

// The arms of a study share a seed and differ in Merge, in
// PropagateDeadline, or in the system behind the target. None of those
// may move an arrival, a write slot or a class draw: the rng belongs to
// the arrival process alone.
func TestDriveArmsReplayOneInterleaving(t *testing.T) {
	queries, muts := fakeLog(80)
	spec := Spec{
		ArrivalRate: 500, Seed: 31, Mutations: muts, WriteFraction: 0.3,
		BatchFraction: 0.25, Deadline: 5 * time.Millisecond,
	}
	run := func(sp Spec, w *fakeWriter) (Result, []slot) {
		t.Helper()
		res, err := Drive(w, queries, sp)
		if err != nil {
			t.Fatal(err)
		}
		return res, w.slots
	}
	base, baseSlots := run(spec, &fakeWriter{fakeTarget: fakeTarget{latency: time.Millisecond}})
	if base.Writes == 0 || base.Writes == len(muts) || base.Batch.Queries == 0 || base.Interactive.Queries == 0 {
		t.Fatalf("fixture does not mix writes and classes: %+v", base)
	}

	merge := spec
	merge.Merge = true
	prop := spec
	prop.PropagateDeadline = true
	arms := []struct {
		name string
		spec Spec
		w    *fakeWriter
	}{
		{"merge on", merge, &fakeWriter{fakeTarget: fakeTarget{latency: time.Millisecond}}},
		{"deadline propagated", prop, &fakeWriter{fakeTarget: fakeTarget{latency: time.Millisecond}}},
		{"slow shedding target", prop, &fakeWriter{fakeTarget: fakeTarget{latency: 40 * time.Millisecond, shedEvery: 3}}},
	}
	var propagated [][]slot
	var slow Result // the last arm's
	for _, arm := range arms {
		res, slots := run(arm.spec, arm.w)
		slow = res
		if !reflect.DeepEqual(interleaving(slots), interleaving(baseSlots)) {
			t.Errorf("%s: arrivals or write slots moved", arm.name)
		}
		if res.Writes != base.Writes || res.Batch.Queries != base.Batch.Queries || res.Interactive.Queries != base.Interactive.Queries {
			t.Errorf("%s: %d writes, %d batch, %d interactive; base %d, %d, %d", arm.name,
				res.Writes, res.Batch.Queries, res.Interactive.Queries,
				base.Writes, base.Batch.Queries, base.Interactive.Queries)
		}
		for _, s := range slots {
			if s.write && s.merge != arm.spec.Merge {
				t.Fatalf("%s: write issued with merge=%v", arm.name, s.merge)
			}
		}
		if arm.spec.PropagateDeadline {
			propagated = append(propagated, slots)
		}
	}
	// With the deadline propagated the class travels with the query, so
	// the two such arms show the draws slot by slot.
	if !reflect.DeepEqual(propagated[0], propagated[1]) {
		t.Error("class draws differ between targets")
	}
	batch := 0
	for _, s := range propagated[0] {
		if !s.write && s.opts.Deadline != spec.Deadline {
			t.Fatalf("propagated deadline %v, want %v", s.opts.Deadline, spec.Deadline)
		}
		if s.opts.Class == overload.Batch {
			batch++
		}
	}
	if batch != base.Batch.Queries {
		t.Errorf("%d queries carried the batch class, %d tallied", batch, base.Batch.Queries)
	}
	for _, s := range baseSlots {
		if s.opts != (cluster.QueryOpts{}) {
			t.Fatalf("unpropagated run passed opts %+v", s.opts)
		}
	}
	// The 40 ms target misses the 5 ms deadline on every answer it gives.
	if got := slow.Interactive.Good + slow.Batch.Good; got != 0 {
		t.Errorf("%d answers scored good at 8x the deadline", got)
	}
	if slow.Interactive.Shed+slow.Batch.Shed == 0 || slow.Interactive.DeadlineMisses == 0 {
		t.Errorf("sheds and misses not tallied: %+v", slow)
	}
	if slow.GPUBusy != 0.5 {
		t.Errorf("GPUBusy %v, want the target's 0.5", slow.GPUBusy)
	}
}

// A target that is not a Writer is never offered a write, and the write
// coin is not drawn for it: a script in its Spec leaves the arrivals where
// they are without one.
func TestDriveNonWriterNeverDrawsWriteCoin(t *testing.T) {
	queries, muts := fakeLog(40)
	plain, scripted := &fakeTarget{latency: time.Millisecond}, &fakeTarget{latency: time.Millisecond}
	if _, err := Drive(plain, queries, Spec{ArrivalRate: 200, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	res, err := Drive(scripted, queries, Spec{ArrivalRate: 200, Seed: 5, Mutations: muts, WriteFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Writes != 0 || len(scripted.slots) != len(queries) {
		t.Fatalf("non-writer saw %d writes over %d slots", res.Writes, len(scripted.slots))
	}
	if !reflect.DeepEqual(plain.slots, scripted.slots) {
		t.Fatal("a mutation script moved a non-writer's arrivals")
	}
	if res.Batch.Queries != 0 || res.Interactive.Queries != len(queries) {
		t.Fatalf("a run without batch traffic tallied %d batch, %d interactive", res.Batch.Queries, res.Interactive.Queries)
	}
}

// The draw order, replayed by hand: after each exponential gap a write
// coin while scripted mutations remain — whatever WriteFraction is, so a
// zero fraction still draws — then a class coin only when BatchFraction
// is positive. Once the script is exhausted no further write coin is
// drawn.
func TestDriveDrawOrder(t *testing.T) {
	queries, muts := fakeLog(12)
	muts = muts[:3]
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"script runs out", Spec{ArrivalRate: 100, Seed: 77, Mutations: muts, WriteFraction: 1}},
		{"zero fraction still draws", Spec{ArrivalRate: 100, Seed: 77, Mutations: muts}},
		{"with classes", Spec{ArrivalRate: 100, Seed: 77, Mutations: muts, WriteFraction: 0.5, BatchFraction: 0.5}},
	} {
		rng := rand.New(rand.NewSource(tc.spec.Seed))
		var want []slot
		var at time.Duration
		left := len(tc.spec.Mutations)
		for reads := 0; reads < len(queries); {
			at += time.Duration(rng.ExpFloat64() / tc.spec.ArrivalRate * float64(time.Second))
			if left > 0 && rng.Float64() < tc.spec.WriteFraction {
				left--
				want = append(want, slot{write: true, at: at})
				continue
			}
			if tc.spec.BatchFraction > 0 {
				rng.Float64()
			}
			want = append(want, slot{at: at})
			reads++
		}

		w := &fakeWriter{fakeTarget: fakeTarget{latency: time.Millisecond}}
		res, err := Drive(w, queries, tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.slots) != len(want) {
			t.Fatalf("%s: %d slots, want %d", tc.name, len(w.slots), len(want))
		}
		for i, s := range w.slots {
			if s.write != want[i].write || s.at != want[i].at {
				t.Fatalf("%s: slot %d is write=%v at %v, want write=%v at %v",
					tc.name, i, s.write, s.at, want[i].write, want[i].at)
			}
		}
		if res.DeltaPeak != res.Writes {
			t.Errorf("%s: delta peak %d after %d writes the fake never merges", tc.name, res.DeltaPeak, res.Writes)
		}
	}
}
