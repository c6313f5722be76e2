package exec

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/intersect"
	"griffin/internal/kernels"
	"griffin/internal/rank"
	"griffin/internal/sched"
	"griffin/internal/workload"
)

// serialRun is the reference the asynchronous executor is checked against:
// the single-stream executor Run replaced. It walks the same builders but
// issues every device operator to ONE in-order stream and waits for each,
// so a query's device time is the plain sum of its operators. It exists
// only here; no non-test code can reach it.
func serialRun(ctx *Context, fetches []Fetch, mkBuilder func([]*index.PostingList) Builder) (*Outcome, error) {
	var (
		stats    QueryStats
		s        = ctx.Device.NewStream()
		hostIDs  []uint32
		devRes   *kernels.IntersectResult
		onDevice bool
		started  bool
		comp     = map[*index.PostingList]*gpu.Buffer{}
		dec      = map[*index.PostingList]*gpu.Buffer{}
		owned    []*gpu.Buffer
		last     time.Duration
	)
	defer func() {
		for _, b := range owned {
			b.Free()
		}
	}()
	cpuOp := func(rec OpRecord, took time.Duration) {
		rec.Where, rec.Took = sched.CPU, took
		stats.CPUTime += took
		stats.Plan = append(stats.Plan, rec)
	}
	gpuOp := func(rec OpRecord, start time.Duration) {
		rec.Took = s.Elapsed() - start
		stats.Plan = append(stats.Plan, rec)
	}
	settle := func() {
		stats.GPUTime += s.Elapsed() - last
		last = s.Elapsed()
	}

	var lists []*index.PostingList
	for _, f := range fetches {
		if f.List == nil {
			return nil, fmt.Errorf("serialRun: term %q missing", f.Term)
		}
		lists = append(lists, f.List)
		cpuOp(OpRecord{Kind: OpFetch, Term: f.Term, NOut: f.List.N}, ctx.CPU.Time(hwmodel.CPUWork{CachedProbes: 1}))
	}
	views := make([]index.BlockList, len(lists))
	for i, pl := range lists {
		views[i] = index.EFView{L: pl.EF}
	}
	ordered := make([]*index.PostingList, len(lists))
	for i, oi := range intersect.OrderByLength(views) {
		ordered[i] = lists[oi]
	}

	b := mkBuilder(ordered)
	for {
		n := ordered[0].N
		switch {
		case started && onDevice:
			n = devRes.Count
		case started:
			n = len(hostIDs)
		}
		ops := b.Next(State{Len: n, OnDevice: onDevice})
		if ops == nil {
			break
		}
		for i := range ops {
			op := &ops[i]
			rec := OpRecord{Kind: op.Kind, Algo: op.Algo, Where: op.Where}
			start := s.Elapsed()
			switch {
			case op.Kind == OpUpload && op.Arg.List == nil:
				buf, err := s.H2D(hostIDs, int64(len(hostIDs))*4)
				if err != nil {
					return nil, err
				}
				owned = append(owned, buf)
				devRes, onDevice = &kernels.IntersectResult{Out: buf, Count: len(hostIDs)}, true
				rec.NIn, rec.NOut, rec.Bytes = len(hostIDs), len(hostIDs), int64(len(hostIDs))*4
				gpuOp(rec, start)
			case op.Kind == OpUpload:
				pl := op.Arg.List
				buf, err := kernels.UploadEF(s, pl.EF)
				if err != nil {
					return nil, err
				}
				owned = append(owned, buf)
				comp[pl] = buf
				rec.Term, rec.NIn, rec.NOut, rec.Bytes = pl.Term, pl.N, pl.N, pl.EF.CompressedBytes()
				gpuOp(rec, start)
			case op.Kind == OpDecompress:
				pl := op.Arg.List
				buf, _, err := kernels.ParaEFDecompress(s, comp[pl])
				if err != nil {
					return nil, err
				}
				owned = append(owned, buf)
				dec[pl] = buf
				rec.Term, rec.NIn, rec.NOut = pl.Term, pl.N, pl.N
				gpuOp(rec, start)
			case op.Kind == OpIntersect && op.Where == sched.CPU:
				var short index.BlockList = index.RawView{IDs: hostIDs}
				if op.Short.List != nil {
					short = index.EFView{L: op.Short.List.EF}
				}
				var step intersect.Result
				if op.Algo == AlgoCPUDecode {
					step = intersect.SvS([]index.BlockList{short}, ctx.SkipThreshold)
				} else {
					step = intersect.Pair(short, index.EFView{L: op.Long.List.EF}, ctx.SkipThreshold)
				}
				hostIDs, onDevice, started = step.IDs, false, true
				rec.NIn, rec.NOut = op.ShortLen, len(step.IDs)
				cpuOp(rec, ctx.CPU.Time(step.Work))
			case op.Kind == OpIntersect:
				shortBuf := dec[op.Short.List]
				if op.Short.List == nil {
					shortBuf = devRes.Out
				}
				var out *kernels.IntersectResult
				var err error
				if op.Algo == AlgoBinarySkips {
					out, err = kernels.IntersectBinarySkips(s, shortBuf, comp[op.Long.List])
				} else {
					out, err = kernels.IntersectMergePath(s, shortBuf, dec[op.Long.List])
				}
				if err != nil {
					return nil, err
				}
				owned = append(owned, out.Out)
				devRes, onDevice, started = out, true, true
				rec.NIn, rec.NOut = op.ShortLen, out.Count
				gpuOp(rec, start)
				settle()
			case op.Kind == OpMigrate:
				buf, n := (*gpu.Buffer)(nil), 0
				if op.Arg.List != nil {
					buf, n = dec[op.Arg.List], op.Arg.List.N
				} else {
					buf, n = devRes.Out, devRes.Count
				}
				hostIDs = []uint32{}
				if !op.Final || n > 0 {
					hostIDs = kernels.IDs(s.D2H(buf, int64(n)*4))[:n]
					rec.Bytes = int64(n) * 4
				}
				if !op.Final {
					stats.Migrated = true
				}
				onDevice, started = false, true
				rec.NIn, rec.NOut = n, len(hostIDs)
				gpuOp(rec, start)
				settle()
			default:
				return nil, fmt.Errorf("serialRun: unexpected operator %v", op.Kind)
			}
		}
	}

	docs := []kernels.ScoredDoc{}
	if len(hostIDs) > 0 {
		scored, work := ctx.Scorer.ScoreCandidates(lists, hostIDs)
		cpuOp(OpRecord{Kind: OpScore, NIn: len(hostIDs), NOut: len(scored)}, ctx.CPU.Time(work))
		top, tkWork := rank.TopKCPU(scored, ctx.TopK)
		cpuOp(OpRecord{Kind: OpTopK, NIn: len(scored), NOut: len(top)}, ctx.CPU.Time(tkWork))
		docs = append(docs, top...)
	}
	stats.Candidates = len(hostIDs)
	stats.Latency = stats.CPUTime + stats.GPUTime
	return &Outcome{Docs: docs, Candidates: hostIDs, Stats: stats}, nil
}

// engineOf maps a device operator to the stream it is issued to.
func engineOf(op OpRecord) gpu.EngineClass {
	switch op.Kind {
	case OpUpload:
		return gpu.CopyEngine
	case OpMigrate:
		return gpu.CopyOutEngine
	}
	return gpu.ComputeEngine
}

// checkOverlapInvariants checks one executed plan's timeline on its own:
// conservation, the latency bounds, in-order engines and event ordering.
func checkOverlapInvariants(t *testing.T, at string, st QueryStats) {
	t.Helper()
	var cpuSum, gpuSum time.Duration
	var spans [][2]time.Duration // device ops' [start, end)
	var busy [3]time.Duration
	var engineEnd [3]time.Duration
	var deviceEnd time.Duration // latest end of any device op so far
	uploaded := map[string]time.Duration{}
	for i, op := range st.Plan {
		end := op.Start + op.Took
		if op.Where != sched.GPU {
			cpuSum += op.Took
			// The host computes only after it has waited for the device.
			if op.Start < deviceEnd {
				t.Errorf("%s: host op %d (%v) starts at %v, before the device finished at %v", at, i, op.Kind, op.Start, deviceEnd)
			}
			continue
		}
		gpuSum += op.Took
		e := engineOf(op)
		busy[e] += op.Took
		if op.Start < engineEnd[e] {
			t.Errorf("%s: op %d (%v) starts at %v while %v is busy until %v", at, i, op.Kind, op.Start, e, engineEnd[e])
		}
		engineEnd[e] = end
		switch op.Kind {
		case OpUpload:
			uploaded[op.Term] = end
		case OpDecompress:
			if op.Start < uploaded[op.Term] {
				t.Errorf("%s: decompress of %q starts at %v, before its upload ends at %v", at, op.Term, op.Start, uploaded[op.Term])
			}
		default:
			// An intersection reads what every earlier device op of its
			// step produced; a migration reads the last intersection.
			if op.Start < deviceEnd {
				t.Errorf("%s: op %d (%v) starts at %v, before its inputs are ready at %v", at, i, op.Kind, op.Start, deviceEnd)
			}
		}
		spans = append(spans, [2]time.Duration{op.Start, end})
		deviceEnd = max(deviceEnd, end)
	}
	// GPUTime is the time at least one engine was working for the query:
	// the length of the union of the device ops' intervals.
	sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
	var union, covered time.Duration
	for _, sp := range spans {
		covered = max(covered, sp[0])
		if sp[1] > covered {
			union += sp[1] - covered
			covered = sp[1]
		}
	}
	if union != st.GPUTime {
		t.Errorf("%s: device ops cover %v of the timeline, GPUTime is %v", at, union, st.GPUTime)
	}
	if cpuSum != st.CPUTime {
		t.Errorf("%s: host ops sum to %v, CPUTime is %v", at, cpuSum, st.CPUTime)
	}
	if gpuSum-st.Overlapped != st.GPUTime {
		t.Errorf("%s: device ops sum to %v, minus Overlapped %v != GPUTime %v", at, gpuSum, st.Overlapped, st.GPUTime)
	}
	if st.Latency != st.CPUTime+st.GPUTime {
		t.Errorf("%s: Latency %v != CPUTime %v + GPUTime %v", at, st.Latency, st.CPUTime, st.GPUTime)
	}
	if lo := max(busy[0], busy[1], busy[2]) + st.CPUTime; st.Latency < lo || st.Latency > cpuSum+gpuSum {
		t.Errorf("%s: Latency %v outside [busiest engine + host %v, sum of ops %v]", at, st.Latency, lo, cpuSum+gpuSum)
	}
	if st.Overlapped < 0 {
		t.Errorf("%s: negative Overlapped %v", at, st.Overlapped)
	}
}

// TestOverlapMatchesSerialReference replays the golden query log under
// every device-placing mode and every way a query can reach the device,
// and checks the asynchronous executor against the serial reference: same
// answers and the same physical plan operator by operator — each with the
// same service time — with only the makespan shorter, by exactly
// Overlapped.
func TestOverlapMatchesSerialReference(t *testing.T) {
	c, err := workload.GenerateCorpus(workload.CorpusSpec{
		NumDocs: 300_000, NumTerms: 60, MaxListLen: 80_000, MinListLen: 200,
		Alpha: 1.0, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.GenerateQueryLog(c, workload.QuerySpec{NumQueries: 200, PopularityAlpha: 0.7, Seed: 7})
	scorer := rank.NewScorer(c.Index, rank.DefaultBM25())

	// Each path admits query i and returns its handle (nil = private
	// streams) and the device it runs on; the reference keeps one device
	// per path device so both sides see the same pool history.
	type path struct {
		devices int
		admit   func(node *gpu.NodeRuntime, i int) *gpu.QueryStream
	}
	paths := map[string]path{
		"private streams": {1, func(*gpu.NodeRuntime, int) *gpu.QueryStream { return nil }},
		"runtime handle":  {1, func(n *gpu.NodeRuntime, _ int) *gpu.QueryStream { return n.AdmitOn(0) }},
		"2-device node":   {2, func(n *gpu.NodeRuntime, i int) *gpu.QueryStream { return n.AdmitOn(i % 2) }},
	}

	var overlapped, migrated int
	for _, m := range modes[1:] { // every mode that places device work
		mode, mk := m.name, planFor(m.policy)
		for pname, p := range paths {
			node := gpu.NewNode(gpu.New(hwmodel.DefaultGPU(), 0), p.devices, 0)
			refDevs := make([]*gpu.Device, p.devices)
			for d := range refDevs {
				refDevs[d] = gpu.New(hwmodel.DefaultGPU(), 0)
			}
			for i, q := range queries {
				at := fmt.Sprintf("%s/%s q%d %v", mode, pname, i, q.Terms)
				fetches := make([]Fetch, len(q.Terms))
				for j, term := range q.Terms {
					pl, _ := c.Index.Lookup(term)
					fetches[j] = Fetch{Term: term, List: pl}
				}
				h := p.admit(node, i)
				d := 0
				if h != nil {
					d = h.Device()
				}
				ctx := &Context{
					CPU: hwmodel.DefaultCPU(), Device: node.Runtime(d).Device(), Handle: h,
					Scorer: scorer, SkipThreshold: intersect.DefaultSkipThreshold, TopK: 10,
				}
				got, err := Run(ctx, fetches, mk)
				if h != nil {
					h.Release()
				}
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				refCtx := *ctx
				refCtx.Device, refCtx.Handle = refDevs[d], nil
				want, err := serialRun(&refCtx, fetches, mk)
				if err != nil {
					t.Fatalf("%s: reference: %v", at, err)
				}

				if len(got.Docs) != len(want.Docs) {
					t.Fatalf("%s: %d docs, reference %d", at, len(got.Docs), len(want.Docs))
				}
				for j := range want.Docs {
					if got.Docs[j].DocID != want.Docs[j].DocID ||
						math.Float32bits(got.Docs[j].Score) != math.Float32bits(want.Docs[j].Score) {
						t.Fatalf("%s: doc[%d] %+v, reference %+v", at, j, got.Docs[j], want.Docs[j])
					}
				}
				if !reflect.DeepEqual(got.Candidates, want.Candidates) || got.Stats.Migrated != want.Stats.Migrated {
					t.Fatalf("%s: candidates/migrated (%d,%v), reference (%d,%v)", at,
						len(got.Candidates), got.Stats.Migrated, len(want.Candidates), want.Stats.Migrated)
				}
				if len(got.Stats.Plan) != len(want.Stats.Plan) {
					t.Fatalf("%s: %d plan ops, reference %d", at, len(got.Stats.Plan), len(want.Stats.Plan))
				}
				for j, w := range want.Stats.Plan {
					g := got.Stats.Plan[j]
					if g.Kind != w.Kind || g.Where != w.Where || g.Algo != w.Algo ||
						g.NIn != w.NIn || g.NOut != w.NOut || g.Bytes != w.Bytes || g.Took != w.Took {
						t.Fatalf("%s: plan op %d\n got       %+v\n reference %+v", at, j, g, w)
					}
				}
				if got.Stats.CPUTime != want.Stats.CPUTime ||
					got.Stats.GPUTime != want.Stats.GPUTime-got.Stats.Overlapped {
					t.Fatalf("%s: cpu/gpu time (%v,%v) overlapped %v, reference (%v,%v)", at,
						got.Stats.CPUTime, got.Stats.GPUTime, got.Stats.Overlapped, want.Stats.CPUTime, want.Stats.GPUTime)
				}
				if got.Stats.GPUWait != 0 {
					t.Fatalf("%s: contention-free query charged %v queueing delay", at, got.Stats.GPUWait)
				}
				checkOverlapInvariants(t, at, got.Stats)
				if t.Failed() {
					t.FailNow()
				}
				if got.Stats.Overlapped > 0 {
					overlapped++
				}
				if got.Stats.Migrated {
					migrated++
				}
			}
			for d := 0; d < p.devices; d++ {
				if n := node.Runtime(d).Device().Allocated(); n != 0 {
					t.Fatalf("%s/%s: device %d still holds %d live bytes", mode, pname, d, n)
				}
			}
		}
	}
	// The comparison means something only if queries really overlapped
	// and really migrated.
	if overlapped == 0 || migrated == 0 {
		t.Fatalf("log exercised nothing: %d overlapped queries, %d migrated", overlapped, migrated)
	}
}

// TestOverlapHidesUploadUnderDecompress pins the shape of the saving on
// one two-term device step: the second list's upload runs while the first
// list is decompressed, and nothing else moves.
func TestOverlapHidesUploadUnderDecompress(t *testing.T) {
	ix := buildIndex(t, []string{"a", "b"}, []int{40_000, 60_000})
	ctx := testContext(ix, gpu.New(hwmodel.DefaultGPU(), 0))
	out, err := Run(ctx, fetchAll(t, ix, []string{"a", "b"}), planFor(sched.AlwaysPolicy{Target: sched.GPU}))
	if err != nil {
		t.Fatal(err)
	}
	var dev []OpRecord
	for _, op := range out.Stats.Plan {
		if op.Where == sched.GPU {
			dev = append(dev, op)
		}
	}
	kinds := []OpKind{OpUpload, OpDecompress, OpUpload, OpDecompress, OpIntersect, OpMigrate}
	if len(dev) != len(kinds) {
		t.Fatalf("device plan %+v", dev)
	}
	for i, k := range kinds {
		if dev[i].Kind != k {
			t.Fatalf("device op %d is %v, want %v", i, dev[i].Kind, k)
		}
	}
	upA, decA, upB, decB := dev[0], dev[1], dev[2], dev[3]
	if upB.Start != upA.Start+upA.Took {
		t.Errorf("upload B starts at %v, want right behind upload A at %v", upB.Start, upA.Start+upA.Took)
	}
	if decA.Start != upA.Start+upA.Took {
		t.Errorf("decompress A starts at %v, want at upload A's event %v", decA.Start, upA.Start+upA.Took)
	}
	if want := max(decA.Start+decA.Took, upB.Start+upB.Took); decB.Start != want {
		t.Errorf("decompress B starts at %v, want %v (compute free and upload B done)", decB.Start, want)
	}
	hidden := min(decA.Took, upB.Took)
	if out.Stats.Overlapped != hidden {
		t.Errorf("Overlapped %v, want the shorter of decompress A %v and upload B %v", out.Stats.Overlapped, decA.Took, upB.Took)
	}
	checkOverlapInvariants(t, "two-term step", out.Stats)
}
