package ingest

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/fault"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/wal"
	"griffin/internal/workload"
)

// ---------------------------------------------------------------------------
// The explorer runs a schedule against a live cluster and a model of it:
// the oracle for what the cluster must answer, and what its write path must
// have counted, logged, synced and checkpointed. A schedule is one line,
// row fields then steps (docs/ingest.md has the whole alphabet):
//
//	backend=Open mode=cpu wal=sync seed=heap corpus=311/70/14 script=312 fseed=7 | mut*10 merge mut*8 ckpt crash reopen quiesce close
//
// A fault step (torn@N, flip@N, short@N, mfault@A[:U]) arms the
// incarnation, open to crash or close, it is written in. After every step
// the explorer asserts the oracle's answer to the query log, the running
// statistics and the model's counters, which mutations are refused and
// which queries fail; after every reopen, what recovery found; after every
// quiesce, that each shard segment is what index.Builder encodes from the
// oracle. A schedule ends in Close or Crash (close is added), after which
// the goroutine count must fall back to its count before the first open.
// ---------------------------------------------------------------------------

// backend is one way a live cluster is opened: Open over a single-node
// Config, whose injector covers the write path only, or OpenCluster, whose
// injector covers serving too.
type backend struct {
	name   string
	shards int
}

var backends = []backend{{"Open", 1}, {"OpenCluster-shards=1", 1}, {"OpenCluster-shards=2", 2}}

func (b backend) open(seed *index.Index, cfg Config) (*Cluster, error) {
	if b.name == "Open" {
		return Open(seed, cfg)
	}
	return OpenCluster(seed, ClusterConfig{
		Shards: b.shards, Cluster: cluster.Config{Engine: cfg.Engine, Fault: cfg.Fault},
		WALDir: cfg.WALDir, WALSyncEvery: cfg.WALSyncEvery,
	})
}

// segment returns shard s's current main segment.
func segment(c *Cluster, s int) *index.Index {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.shards[s].ix
}

// ---------------------------------------------------------------------------
// Schedules
// ---------------------------------------------------------------------------

type schedule struct {
	text    string
	backend backend
	hybrid  bool
	wal     bool
	// syncEvery is the store's policy: 1 every append, 0 deferred.
	syncEvery int
	mapped    bool
	corpus    [3]int64 // seed, docs, vocab
	script    int64
	fseed     int64
	steps     []step
}

type step struct {
	word string // as written
	op   string
	a, b int64
	m    *mutation // an explicit mutation
}

// Bounds that keep any parsed schedule small enough to run.
const (
	maxSteps  = 2500
	maxSplits = 6
	maxDocID  = 1 << 20
)

var mutationOps = map[string]wal.Op{"mut": 0, "add": wal.OpAdd, "upd": wal.OpUpdate, "del": wal.OpDelete}

// stepRE reads a step: its name; a number after ':' or '@'; after a
// further ':' an explicit document's tokens or a fault window's end; a
// repeat count after '*'. stepArgs is what each name takes: nothing, ':'
// (optional: a docID, a shard, a seed) or '@' (a fault's opportunity).
var (
	stepRE   = regexp.MustCompile(`^([a-z-]+)(?:([:@])(\d{1,7})(?::([^*]+))?)?(?:\*(\d{1,4}))?$`)
	stepArgs = map[string]string{
		"mut": "", "top": "", "ckpt": "", "ckpt-corrupt": "", "split": "", "quiesce": "", "crash": "", "close": "", "reopen": "",
		"add": ":", "upd": ":", "del": ":", "merge": ":", "reseed": ":", "torn": "@", "flip": "@", "short": "@", "mfault": "@",
	}
)

func parseSchedule(text string) (*schedule, error) {
	head, body, ok := strings.Cut(text, "|")
	if !ok {
		return nil, errors.New("no '|' between row and steps")
	}
	s := &schedule{text: text, backend: backends[0], wal: true, syncEvery: 1, corpus: [3]int64{1, 40, 10}, script: 2, fseed: 1}
	for _, f := range strings.Fields(head) {
		k, v, _ := strings.Cut(f, "=")
		var err error
		switch k {
		case "backend":
			i := slices.IndexFunc(backends, func(b backend) bool { return b.name == v })
			s.backend, ok = backends[max(i, 0)], i >= 0
		case "mode":
			s.hybrid, ok = v == "hybrid", v == "hybrid" || v == "cpu"
		case "seed":
			s.mapped, ok = v == "mapped", v == "mapped" || v == "heap"
		case "wal":
			s.wal, s.syncEvery = v != "off", map[string]int{"sync": 1}[v]
			if v != "off" && v != "sync" && v != "defer" {
				s.syncEvery, err = strconv.Atoi(v)
				ok = s.syncEvery >= 1 && s.syncEvery <= 64
			}
		case "corpus":
			_, err = fmt.Sscanf(v, "%d/%d/%d", &s.corpus[0], &s.corpus[1], &s.corpus[2])
			ok = s.corpus[1] >= 0 && s.corpus[1] <= 200 && s.corpus[2] >= 2 && s.corpus[2] <= 40
		case "script":
			s.script, err = strconv.ParseInt(v, 10, 64)
		case "fseed":
			s.fseed, err = strconv.ParseInt(v, 10, 64)
		default:
			ok = false
		}
		if err != nil || !ok {
			return nil, fmt.Errorf("bad field %q (%v)", f, err)
		}
	}
	ended, armed, splits := false, map[string]bool{}, 0
	for _, word := range strings.Fields(body) {
		m := stepRE.FindStringSubmatch(word)
		if m == nil {
			return nil, fmt.Errorf("bad step %q", word)
		}
		st := step{word: word, op: m[1]}
		args, known := stepArgs[st.op]
		a, _ := strconv.ParseInt(m[3], 10, 64)
		b, errB := strconv.ParseInt(m[4], 10, 64)
		rep, _ := strconv.Atoi(m[5])
		st.a, rep = a, max(rep, 1)
		switch {
		case !known, m[2] != args && (m[2] != "" || args == "@"), a >= maxDocID,
			m[4] != "" && st.op != "add" && st.op != "upd" && (st.op != "mfault" || errB != nil):
			return nil, fmt.Errorf("bad step %q", word)
		case ended && st.op != "reopen":
			return nil, fmt.Errorf("%s after the cluster stopped: reopen first", word)
		case !ended && st.op == "reopen":
			return nil, errors.New("reopen of a running cluster")
		case st.op == "reopen":
			ended, armed = false, map[string]bool{}
		case st.op == "crash" || st.op == "close":
			ended = true
		case args == "@":
			if armed[st.op] || rep > 1 {
				return nil, fmt.Errorf("%s armed twice in one incarnation", st.op)
			}
			armed[st.op], st.b = true, b
			if st.op != "mfault" {
				st.b = a + 1
			}
		case m[2] != "" && mutationOps[st.op] != 0:
			st.m = &mutation{kind: mutationOps[st.op], docID: uint32(a)}
			if m[4] != "" {
				st.m.tokens = strings.Split(m[4], ",")
			}
		case st.op == "split":
			splits += rep
		}
		if len(s.steps)+rep > maxSteps || splits > maxSplits {
			return nil, fmt.Errorf("more than %d steps or %d splits", maxSteps, maxSplits)
		}
		for range rep {
			s.steps = append(s.steps, st)
		}
	}
	return s, nil
}

// ---------------------------------------------------------------------------
// The model of the write path
// ---------------------------------------------------------------------------

// frame is one record on a shard log.
type frame struct {
	gen uint64
	len int64
}

// logModel is one shard log: the records synced to it, those written but
// not synced, the corrupt bytes a fault left at its tail and, after a
// short sync whose cut was not observed, the frames of which any strict
// prefix may have survived.
type logModel struct {
	site    string
	durable []uint64
	pending []frame
	garbage int64
	unsure  []frame
	wedged  bool
}

// synced makes the pending frames durable.
func (l *logModel) synced() {
	for _, f := range l.pending {
		l.durable = append(l.durable, f.gen)
	}
	l.pending = nil
}

// frameLen is a record's size on a log: u32 length | u32 CRC32C | u64
// gen | u8 op | u32 docID | uvarint ntokens | per token uvarint length
// and bytes.
func frameLen(m mutation) int64 {
	n := 8 + 8 + 1 + 4 + uvarintLen(len(m.tokens))
	for _, tok := range m.tokens {
		n += uvarintLen(len(tok)) + len(tok)
	}
	return int64(n)
}

func uvarintLen(v int) int { return len(binary.AppendUvarint(nil, uint64(v))) }

// shardSite is the WAL fault site of log i of a store with n logs.
func shardSite(i, n int) string {
	if n <= 1 {
		return site
	}
	return fmt.Sprintf("%s.s%d", site, i)
}

// counts are what Stats must report, reset at every open.
type counts struct {
	adds, updates, deletes, merges, aborts, rebuilds, splits int64
	appends, syncs, checkpoints                              int64
	ckptGen, mergedGen                                       uint64
}

type explorer struct {
	t     *testing.T
	s     *schedule
	dir   string
	seedF string
	vocab int

	c       *Cluster
	base    *oracle
	o       *oracle
	acked   []mutation // acked[g-1] carries generation g
	g       *generator
	queries [][]string

	shards  int
	pending []map[uint32]bool // per shard, the documents with a delta record
	lastGen []uint64          // per shard, the generation its delta last took
	n       counts

	logs  []*logModel
	ckpts map[uint64]bool // checkpoint files by watermark: corrupt?
	armed map[fault.Kind]fault.Rule
	sites map[string]int64 // opportunities drawn per fault site
}

// run explores one schedule.
func (s *schedule) run(t *testing.T) {
	baseline := runtime.NumGoroutine()
	x := &explorer{t: t, s: s, dir: t.TempDir(), vocab: int(s.corpus[2]), ckpts: map[uint64]bool{}}
	x.base = seedCorpus(s.corpus[0], int(s.corpus[1]), x.vocab)
	x.o = x.base.clone()
	x.g = newGenerator(s.script, x.o, x.vocab)
	x.queries = queryLog(x.vocab)
	if s.mapped {
		x.seedF = filepath.Join(x.dir, "seed.grif")
		if err := os.WriteFile(x.seedF, serialized(t, x.base.build(t)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		if x.c != nil {
			x.c.Crash()
		}
	})
	x.reopen(0)
	x.check("open")
	steps := s.steps
	if n := len(steps); n == 0 || (steps[n-1].op != "crash" && steps[n-1].op != "close") {
		steps = append(slices.Clip(steps), step{word: "close", op: "close"})
	}
	for i, st := range steps {
		x.step(i, st)
		x.check(st.word)
		if t.Failed() {
			t.Fatalf("schedule %q failed at step %d (%s)", s.text, i, st.word)
		}
	}
	settle(t, baseline, s.text)
}

// settle is the leak law: once a cluster is closed or crashed, the
// goroutine count falls back to what it was before the cluster opened,
// within a bounded wait.
func settle(t *testing.T, baseline int, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%s: %d goroutines after the cluster stopped, %d before it opened:\n%s",
				what, runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// eventually waits, boundedly, for background work to make cond true.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: never happened", what)
		}
	}
}

// draw takes the next opportunity at a fault site; fires reports whether
// the armed rule of kind k fires at it.
func (x *explorer) draw(site string) int64 {
	seq := x.sites[site]
	x.sites[site]++
	return seq
}

func (x *explorer) fires(k fault.Kind, seq int64) bool {
	r, ok := x.armed[k]
	return ok && seq >= r.After && (r.Until == 0 || seq < r.Until)
}

func (x *explorer) step(i int, st step) {
	switch st.op {
	case "mut", "add", "upd", "del", "top":
		x.mutate(st)
	case "reseed":
		x.g = newGenerator(st.a, x.o, x.vocab)
	case "merge":
		var err error
		ok := true
		if strings.HasPrefix(st.word, "merge:") {
			s := int(st.a) % x.shards
			err = x.c.MergeShard(s)
			ok = x.mergeShard(s)
		} else {
			err = x.c.Merge()
			for s := 0; s < x.shards && ok; s++ {
				ok = x.mergeShard(s)
			}
		}
		x.expectEngineFault(err, !ok, "merge")
	case "ckpt":
		x.checkpoint()
	case "ckpt-corrupt":
		x.corruptCheckpoint()
	case "split":
		if err := x.c.Split(); err != nil {
			x.t.Fatalf("split: %v", err)
		}
		x.rebuilt(true)
	case "quiesce":
		if err := x.c.Quiesce(); err != nil {
			x.t.Fatalf("quiesce: %v", err)
		}
		x.rebuilt(false)
		x.checkSegments()
	case "crash":
		x.c.Crash()
		x.stopped()
		for _, l := range x.logs {
			l.pending = nil // the unsynced tail dies with the process
		}
	case "close":
		x.c.Close()
		x.stopped()
		x.syncAll(nil) // Close is a durability barrier
	case "reopen":
		x.reopen(i)
	default: // a fault: armed at the incarnation's open
	}
}

// stopped checks a stopped cluster refuses work.
func (x *explorer) stopped() {
	_, err := x.c.Search(x.queries[0])
	if err2 := x.c.Add(maxDocID, []string{"x"}); err != ErrClosed || err2 != ErrClosed {
		x.t.Errorf("search and add on a stopped cluster: %v, %v; want ErrClosed", err, err2)
	}
	x.c = nil
}

// reopen opens the cluster (the first time, or after a crash or close)
// with the faults armed for the incarnation starting at step i, and holds
// what it recovered to the model.
func (x *explorer) reopen(i int) {
	t, s := x.t, x.s
	x.armed, x.sites = map[fault.Kind]fault.Rule{}, map[string]int64{}
	var rules []fault.Rule
	for _, st := range s.steps[i:] {
		if st.op == "crash" || st.op == "close" {
			break
		}
		if k, ok := map[string]fault.Kind{"torn": fault.TornWrite, "flip": fault.BitFlip, "short": fault.ShortWrite, "mfault": fault.EngineError}[st.op]; ok {
			x.armed[k] = fault.Rule{Kind: k, Rate: 1, After: st.a, Until: st.b}
			rules = append(rules, x.armed[k])
		}
	}
	cfg := Config{Engine: core.Config{Mode: core.CPUOnly}}
	if s.hybrid {
		cfg.Engine = core.Config{Mode: core.Hybrid, Device: gpu.New(hwmodel.DefaultGPU(), 0)}
	}
	if rules != nil {
		cfg.Fault = fault.NewInjector(fault.Plan{Seed: s.fseed, Rules: rules})
	}
	if s.wal {
		cfg.WALDir, cfg.WALSyncEvery = x.dir, s.syncEvery
		if s.syncEvery == 0 {
			cfg.WALSyncEvery = -1
		}
	}
	seed := x.base.build(t)
	if s.mapped {
		var err error
		if seed, err = index.Open(x.seedF); err != nil {
			t.Fatal(err)
		}
	}

	// What recovery must find: the newest intact checkpoint, and the
	// generations the logs hold contiguously past it — all that may have
	// survived an unobserved short write counted in hi, not in lo.
	wm, skipped := uint64(0), 0
	for _, w := range x.ckptWatermarks() {
		if wm = w; !x.ckpts[w] {
			break
		}
		wm, skipped = 0, skipped+1
	}
	sure, maybe := map[uint64]bool{}, map[uint64]bool{}
	var truncLo, truncHi int64
	for _, l := range x.logs {
		for _, g := range l.durable {
			sure[g] = true
		}
		truncLo += l.garbage
		for j, f := range l.unsure {
			maybe[f.gen] = j < len(l.unsure)-1
			truncHi += f.len
		}
		truncHi -= min(1, int64(len(l.unsure)))
	}
	truncHi += truncLo
	lo := wm
	for sure[lo+1] {
		lo++
	}
	hi := lo
	for sure[hi+1] || maybe[hi+1] {
		hi++
	}

	c, err := s.backend.open(seed, cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	x.c = c
	st := c.Stats()
	g := st.Gen
	if g < lo || g > hi {
		x.t.Errorf("recovered generation %d, want %d..%d (acknowledged %d)", g, lo, hi, len(x.acked))
		g = min(max(g, lo), hi)
	}
	names, _ := filepath.Glob(filepath.Join(x.dir, "*.ckpt"))
	if w := st.WAL; s.wal && (w.RecoveredRecords != int64(g-wm) || w.SkippedCheckpoints != int64(skipped) ||
		w.CheckpointGen != wm || w.TruncatedBytes < truncLo || w.TruncatedBytes > truncHi || len(names) != len(x.ckpts)) {
		x.t.Errorf("recovery: %d records, %d skipped checkpoints, watermark %d, %d truncated bytes, %d files; want %d, %d, %d, %d..%d, %d",
			w.RecoveredRecords, w.SkippedCheckpoints, w.CheckpointGen, w.TruncatedBytes, len(names), g-wm, skipped, wm, truncLo, truncHi, len(x.ckpts))
	}

	// Adopt the recovered prefix: what was lost was never durable, and a
	// record past a gap must never come back.
	if int(g) < len(x.acked) {
		x.acked = x.acked[:g]
		x.o = x.base.clone()
		for _, m := range x.acked {
			x.o.apply(m)
		}
		x.g.rebase(x.o)
	}
	// The manifest's shard count wins over a stale row's.
	n := max(s.backend.shards, len(x.logs))
	x.topology(n)
	for j := wm; j < g; j++ {
		s := workload.ShardOf(x.acked[j].docID, n)
		x.pending[s][x.acked[j].docID] = true
		x.lastGen[s] = j + 1
	}
	x.n = counts{ckptGen: wm, mergedGen: wm}
	for li := range x.logs {
		l := &logModel{site: shardSite(li, len(x.logs))}
		for _, gen := range x.logs[li].durable {
			if gen <= g {
				l.durable = append(l.durable, gen)
			}
		}
		for _, f := range x.logs[li].unsure {
			if f.gen <= g {
				l.durable = append(l.durable, f.gen)
			}
		}
		x.logs[li] = l
	}
	for li := len(x.logs); s.wal && li < n; li++ {
		x.logs = append(x.logs, &logModel{site: shardSite(li, n)})
	}
}

// ckptWatermarks lists the checkpoint files' watermarks, newest first.
func (x *explorer) ckptWatermarks() []uint64 {
	var wms []uint64
	for w := range x.ckpts {
		wms = append(wms, w)
	}
	slices.Sort(wms)
	slices.Reverse(wms)
	return wms
}

// topology starts n shards with empty deltas.
func (x *explorer) topology(n int) {
	x.shards = n
	x.pending = make([]map[uint32]bool, n)
	for s := range x.pending {
		x.pending[s] = map[uint32]bool{}
	}
	x.lastGen = make([]uint64, n)
}

// mutate applies one mutation step and holds its outcome to the model:
// an invalid one is refused as invalid, one routed to a wedged log or
// torn on its way down as a storage fault, and every other acknowledged.
func (x *explorer) mutate(st step) {
	var m mutation
	switch {
	case st.m != nil:
		m = *st.m
		if m.kind != wal.OpDelete && m.tokens == nil {
			m.tokens = genDoc(x.g.r, x.vocab)
		}
	case st.op == "top":
		m = x.g.drawTop(x.o)
	default:
		var ok bool
		if m, ok = x.g.draw(mutationOps[st.op]); !ok {
			return
		}
	}
	err := x.c.Apply(m.kind, m.docID, m.tokens)
	_, live := x.o.docs[m.docID]
	if (m.kind == wal.OpAdd && live) || (m.kind == wal.OpDelete && !live) || (m.kind != wal.OpDelete && len(m.tokens) == 0) {
		if !IsInvalid(err) {
			x.t.Errorf("%s doc %d: %v, want an invalid-mutation error", m.kind, m.docID, err)
		}
		return
	}
	if x.s.wal {
		l := x.logs[workload.ShardOf(m.docID, x.shards)]
		if l.wedged {
			if !fault.IsStorageFault(err) {
				x.t.Errorf("%s doc %d on a wedged log: %v, want its storage fault", m.kind, m.docID, err)
			}
			return
		}
		seq := x.draw(l.site + ".wal.append")
		if k := fault.TornWrite; x.fires(k, seq) || x.fires(fault.BitFlip, seq) {
			if !x.fires(k, seq) {
				k = fault.BitFlip
			}
			sf := storageFault(err)
			if sf == nil || sf.Kind != k {
				x.t.Errorf("%s doc %d: %v, want a %v at append %d of %s", m.kind, m.docID, err, k, seq, l.site)
				return
			}
			n := frameLen(m)
			if k == fault.TornWrite {
				n = min(int64(sf.Frac*float64(n)), n-1)
			}
			// The corrupt frame is synced, and the tail before it with it.
			l.synced()
			l.wedged, l.garbage = true, l.garbage+n
			return
		}
		x.n.appends++
		l.pending = append(l.pending, frame{uint64(len(x.acked) + 1), frameLen(m)})
		if x.s.syncEvery > 0 && len(l.pending) >= x.s.syncEvery && !x.sync(l, storageFault(err)) {
			if !fault.IsStorageFault(err) {
				x.t.Errorf("%s doc %d: %v, want the short sync's storage fault", m.kind, m.docID, err)
			}
			return
		}
	}
	if err != nil {
		x.t.Errorf("%s doc %d: %v", m.kind, m.docID, err)
		return
	}
	x.acked = append(x.acked, m)
	x.o.apply(m)
	x.g.commit(m)
	s := workload.ShardOf(m.docID, x.shards)
	x.pending[s][m.docID] = true
	x.lastGen[s] = uint64(len(x.acked))
	switch m.kind {
	case wal.OpAdd:
		x.n.adds++
	case wal.OpUpdate:
		x.n.updates++
	default:
		x.n.deletes++
	}
}

func storageFault(err error) *fault.StorageFault {
	var sf *fault.StorageFault
	if errors.As(err, &sf) {
		return sf
	}
	return nil
}

// sync is one log's sync: a drawn short write keeps a prefix of the
// unsynced tail — cut where sf, the fault the caller saw, says, or
// anywhere when the fault was not observed — and wedges the log.
func (x *explorer) sync(l *logModel, sf *fault.StorageFault) bool {
	if l.wedged || len(l.pending) == 0 {
		l.pending = nil
		return !l.wedged
	}
	seq := x.draw(l.site + ".wal.sync")
	if !x.fires(fault.ShortWrite, seq) {
		l.synced()
		x.n.syncs++
		return true
	}
	l.wedged = true
	if sf == nil || sf.Site != l.site+".wal.sync" {
		l.unsure = append(l.unsure, l.pending...)
		l.pending = nil
		return false
	}
	var total int64
	for _, f := range l.pending {
		total += f.len
	}
	kept, cut := int64(sf.Frac*float64(total)), 0
	for ; kept >= l.pending[cut].len; cut++ {
		kept -= l.pending[cut].len
	}
	l.pending = l.pending[:cut]
	l.synced()
	l.garbage += kept
	return false
}

// syncAll is the store's Sync: every log in order, the first error
// returned. It reports whether every log synced.
func (x *explorer) syncAll(err error) bool {
	ok := true
	for _, l := range x.logs {
		var sf *fault.StorageFault
		if ok {
			sf = storageFault(err)
		}
		if !x.sync(l, sf) {
			ok = false
		}
	}
	return ok
}

// mergeShard is one shard's merge with its retries: an empty delta draws
// nothing; each attempt draws one merge admission.
func (x *explorer) mergeShard(s int) bool {
	if len(x.pending[s]) == 0 {
		return true
	}
	mergeSite := site + ".merge"
	if x.shards > 1 {
		mergeSite = fmt.Sprintf("%s.s%d.merge", site, s)
	}
	for range mergeRetries + 1 {
		if !x.fires(fault.EngineError, x.draw(mergeSite)) {
			x.n.merges++
			x.n.mergedGen = max(x.n.mergedGen, x.lastGen[s])
			x.pending[s] = map[uint32]bool{}
			// A merge at one shard stamps exact statistics.
			if got, want := segment(x.c, 0).NumDocs, x.o.stats().numDocs; x.shards == 1 && got != want {
				x.t.Errorf("merged segment NumDocs %d, want %d", got, want)
			}
			return true
		}
		x.n.aborts++
	}
	return false
}

func (x *explorer) expectEngineFault(err error, want bool, what string) {
	if want != fault.IsEngineFault(err) || want != (err != nil) {
		x.t.Errorf("%s: %v, want an injected engine fault: %v", what, err, want)
	}
}

// checkpoint is Checkpoint: at one shard a merge then the merged segment
// at MergedGen, at more the global build at the generation; either way
// the logs are synced first and the checkpoint write draws its fault.
func (x *explorer) checkpoint() {
	err := x.c.Checkpoint()
	if !x.s.wal {
		if err != nil {
			x.t.Errorf("checkpoint without a WAL: %v", err)
		}
		return
	}
	wm := uint64(len(x.acked))
	if x.shards == 1 {
		if !x.mergeShard(0) {
			x.expectEngineFault(err, true, "checkpoint")
			return
		}
		wm = x.n.mergedGen
	}
	if !x.syncAll(err) {
		if !fault.IsStorageFault(err) {
			x.t.Errorf("checkpoint over a failed sync: %v, want its storage fault", err)
		}
		return
	}
	if err != nil {
		x.t.Errorf("checkpoint: %v", err)
		return
	}
	seq := x.draw(site + ".ckpt")
	x.ckpts[wm] = x.fires(fault.TornWrite, seq) || x.fires(fault.BitFlip, seq)
	x.n.checkpoints++
	x.n.ckptGen = wm
	for _, w := range x.ckptWatermarks()[min(2, len(x.ckpts)):] {
		delete(x.ckpts, w)
	}
}

// corruptCheckpoint flips a bit in the middle of the newest checkpoint
// file, as a disk would, unless it is corrupt already.
func (x *explorer) corruptCheckpoint() {
	wms := x.ckptWatermarks()
	if len(wms) == 0 || x.ckpts[wms[0]] {
		return
	}
	name := filepath.Join(x.dir, fmt.Sprintf("ckpt-%016x.ckpt", wms[0]))
	b, err := os.ReadFile(name)
	if err == nil {
		b[len(b)/2] ^= 0x10
		err = os.WriteFile(name, b, 0o644)
	}
	if err != nil {
		x.t.Fatal(err)
	}
	x.ckpts[wms[0]] = true
}

// rebuilt accounts for a Quiesce or Split: every delta folded into a
// fresh topology, the WAL grown first.
func (x *explorer) rebuilt(grow bool) {
	n := x.shards
	if grow {
		n++
		x.n.splits++
		for i := len(x.logs); x.s.wal && i < n; i++ {
			x.logs = append(x.logs, &logModel{site: shardSite(i, n)})
		}
	}
	x.topology(n)
	x.n.rebuilds++
	x.n.mergedGen = uint64(len(x.acked))
}

// checkSegments holds every shard segment to a fresh build of the
// oracle's documents, partitioned as the cluster is.
func (x *explorer) checkSegments() {
	want := []*index.Index{x.o.build(x.t)}
	if x.shards > 1 {
		var err error
		if want, err = workload.PartitionIndex(want[0], x.shards); err != nil {
			x.t.Fatal(err)
		}
	}
	for s, w := range want {
		checkSameIndex(x.t, segment(x.c, s), w, fmt.Sprintf("quiesced shard %d", s))
	}
}

// check holds the running cluster to the model and the oracle.
func (x *explorer) check(tag string) {
	c := x.c
	if c == nil {
		return
	}
	st := c.Stats()
	wedged := false
	for _, l := range x.logs {
		wedged = wedged || l.wedged
	}
	if (st.WAL != nil) != x.s.wal || (c.store != nil) != x.s.wal || (c.Wedged() != nil) != wedged {
		x.t.Errorf("%s: wal stats %v, store %v, wedged %v; want wal %v, wedged %v", tag, st.WAL != nil, c.store != nil, c.Wedged(), x.s.wal, wedged)
	}
	w := st.WAL
	if w == nil {
		w = &wal.Stats{}
	}
	if got := (counts{st.Adds, st.Updates, st.Deletes, st.Merges, st.Aborts, st.Rebuilds, st.Splits,
		w.Appends, w.Syncs, w.Checkpoints, w.CheckpointGen, st.MergedGen}); got != x.n {
		x.t.Errorf("%s: counters %+v, the model has %+v", tag, got, x.n)
	}
	shardDocs, shardDelta := make([]int, x.shards), make([]int, x.shards)
	for id := range x.o.docs {
		shardDocs[workload.ShardOf(id, x.shards)]++
	}
	for s, p := range x.pending {
		shardDelta[s] = len(p)
	}
	if st.Gen != uint64(len(x.acked)) || st.Shards != x.shards || !slices.Equal(st.ShardDocs, shardDocs) || !slices.Equal(st.ShardDelta, shardDelta) {
		x.t.Errorf("%s: gen %d shards %d docs %v delta %v; the model has %d %d %v %v",
			tag, st.Gen, st.Shards, st.ShardDocs, st.ShardDelta, len(x.acked), x.shards, shardDocs, shardDelta)
	}
	if got, want := running(&c.writer), x.o.stats(); got != want {
		x.t.Errorf("%s: running statistics %+v, the oracle's %+v", tag, got, want)
	}
	// OpenCluster's injector covers serving: a query fails at the shards
	// whose replica site draws the armed engine error.
	serving := x.s.backend.name != "Open" && len(x.armed) > 0
	tops, cands := x.o.searchAll(x.queries, 10)
	for qi, q := range x.queries {
		var failed []int
		if serving {
			for s := 0; s < x.shards; s++ {
				if x.fires(fault.EngineError, x.draw(fmt.Sprintf("s%dr0", s))) {
					failed = append(failed, s)
				}
			}
		}
		r, err := c.Search(q)
		switch {
		case len(failed) == x.shards:
			if !errors.Is(err, cluster.ErrAllShardsFailed) {
				x.t.Errorf("%s q%d: %v, want every shard failed", tag, qi, err)
			}
		case err != nil:
			x.t.Errorf("%s q%d %v: %v", tag, qi, q, err)
		case failed != nil:
			if !r.Stats.Degraded || !slices.Equal(r.Stats.Missing, failed) {
				x.t.Errorf("%s q%d: degraded %v missing %v, want shards %v missing", tag, qi, r.Stats.Degraded, r.Stats.Missing, failed)
			}
		default:
			if err := agrees(r, tops[qi], cands[qi]); err != nil {
				x.t.Errorf("%s q%d %v: %v", tag, qi, q, err)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Named schedules, each run by its test under the subtest path given ("" =
// in the test itself). Open and OpenCluster at one shard differ only in
// whether the injector covers serving: without a merge fault they cannot
// fail differently, so the OpenCluster row runs over the mapped seed.
// ---------------------------------------------------------------------------

type namedSchedule struct{ path, text string }

var named = namedSchedules()

func namedSchedules() map[string][]namedSchedule {
	m := map[string][]namedSchedule{}
	add := func(test, path, text string) { m[test] = append(m[test], namedSchedule{path, text}) }
	// rows adds the one-shard rows to test and the two-shard row to its
	// cluster twin.
	rows := func(test, twin, prefix, head, steps string) {
		add(test, prefix+"Open", "backend=Open "+head+" | "+steps)
		add(test, prefix+"OpenCluster-shards=1", "backend=OpenCluster-shards=1 seed=mapped "+head+" | "+steps)
		add(twin, prefix+"OpenCluster-shards=2", "backend=OpenCluster-shards=2 "+head+" | "+steps)
	}

	// Live parity during mutation, CPU-only and hybrid: a merge mid-life
	// and one late, a delta-only term, and more mutation after the swap.
	live := "mut*46 merge mut*44 upd:9000:fresh-term,w00,w00,w01 merge reseed:13 mut*30 close"
	for _, mode := range []string{"cpu", "hybrid"} {
		head := "mode=" + mode + " wal=off corpus=11/120/16 script=12"
		rows("TestLiveParity", "TestClusterLiveParity", mode+"/", head, live)
	}

	// Crash points straddling a committed merge (after the 10th mutation)
	// and checkpoint (after the 18th), each recovered, quiesced, closed.
	for _, k := range []int{0, 1, 7, 18, 19, 25, 40} {
		var toks []string
		for i := range k {
			toks = append(toks, "mut")
			switch i {
			case 9:
				toks = append(toks, "merge")
			case 17:
				toks = append(toks, "ckpt")
			}
		}
		steps := compact(append(toks, "crash", "reopen", "quiesce", "close"))
		rows("TestCrashRecoveryParity", "TestClusterCrashRecoveryParity", fmt.Sprintf("crash-after-%d/", k),
			"wal=sync corpus=311/70/14 script=312", steps)
	}

	// Storage faults on the append and sync paths: the acknowledged prefix
	// survives, the rest is refused.
	for _, c := range [][3]string{
		{"torn-append-early", "sync", "torn@3"},
		{"torn-append-late", "sync", "torn@30"},
		{"bitflip-append", "sync", "flip@12"},
		{"short-sync", "4", "short@2"},
	} {
		add("TestCrashPointFaultParityMatrix", c[0],
			"wal="+c[1]+" corpus=321/70/14 script=322 fseed=7 | "+c[2]+" mut*36 crash reopen quiesce close")
	}
	add("TestCorruptCheckpointFallsBackToFullReplay", "",
		"corpus=331/60/12 script=332 | mut*20 ckpt ckpt-corrupt mut*10 crash reopen quiesce close")
	// The re-add of a deleted document tears: the tombstone is durable.
	add("TestRecoveryNeverResurrectsTombstone", "",
		"corpus=341/10/8 fseed=5 | torn@1 del:3 add:3:resurrect,me crash reopen quiesce close")
	// Close syncs everything a deferred-sync log acknowledged.
	rows("TestCloseDurabilityBarrier", "TestClusterCloseDurabilityBarrier", "",
		"wal=defer corpus=351/40/10 script=352", "mut*25 close reopen quiesce close")
	// Two aborts per merge site, then the merge commits; at OpenCluster
	// rows the first two queries at each replica site fail too, so both
	// one-shard rows run it.
	abort := "wal=off corpus=31/60/12 script=32 fseed=5 | mfault@0:2 mut*25 merge close"
	add("TestMergeAbortRetries", "Open", "backend=Open "+abort)
	add("TestMergeAbortRetries", "OpenCluster-shards=1", "backend=OpenCluster-shards=1 "+abort)
	add("TestClusterMergeAbort", "OpenCluster-shards=2", "backend=OpenCluster-shards=2 "+abort)
	// Every merge admission aborts: the snapshot, the delta, the
	// generation and MergedGen stay as they were, and reads stay exact.
	add("TestMergeAbortNeverTearsSnapshot", "", "wal=off corpus=41/60/12 script=42 fseed=6 | mfault@0 mut*20 merge close")
	// Every merge aborts, and the checkpoint riding it: recovery finds no
	// checkpoint and the whole log.
	add("TestMergeAbortCrashRecoversPreMergeView", "",
		"corpus=361/50/12 script=362 fseed=9 | mfault@0 mut*24 merge ckpt crash reopen quiesce close")
	add("TestClusterSplitRecovery", "",
		"backend=OpenCluster-shards=2 corpus=421/80/12 script=422 | mut*15 split mut*15 crash reopen quiesce close")
	add("TestClusterWedgedShardKeepsOthersWritable", "",
		"backend=OpenCluster-shards=2 corpus=431/80/12 script=432 fseed=11 | torn@6 mut*40 crash reopen quiesce close")
	add("TestClusterCheckpointSuffixReplay", "",
		"backend=OpenCluster-shards=2 corpus=441/70/12 script=442 | mut*20 ckpt mut*10 crash reopen close")
	// Every third append syncs a shard log, so a crash loses one log's
	// tail while the other's later generations survive past the gap.
	// Recovery drops those; the generations the next incarnation appends
	// must not meet them again at the recovery after it.
	add("TestRecoveryForgetsRecordsPastAGap", "",
		"backend=OpenCluster-shards=2 wal=3 corpus=999/52/13 script=981 | mut*5 crash reopen mut*2 close reopen close")
	rows("TestOpenWithoutWALDirMatchesNew", "TestOpenClusterWithoutWALDirMatchesNew", "",
		"wal=off corpus=301/40/10 script=302", "mut*20 ckpt close")

	// Two thousand top-heavy mutations: a shard merge every 50, a
	// checkpoint ten steps before each crash every 400.
	for name, shards := range map[string]int{"engine": 1, "cluster": 2} {
		var toks []string
		for step := 1; step <= 2000; step++ {
			toks = append(toks, "top")
			switch {
			case step%400 == 0:
				toks = append(toks, "crash", "reopen")
			case step%400 == 390:
				toks = append(toks, "ckpt")
			case step%50 == 0:
				toks = append(toks, fmt.Sprintf("merge:%d", step/50%shards))
			}
		}
		add("TestRunningStatsMatchLiveScan", name, fmt.Sprintf(
			"backend=OpenCluster-shards=%d corpus=41/30/12 script=42 | %s", shards, compact(toks)))
	}
	return m
}

// compact writes runs of one step as step*n.
func compact(toks []string) string {
	var out []string
	for i := 0; i < len(toks); {
		j := i
		for j < len(toks) && toks[j] == toks[i] {
			j++
		}
		if j-i > 1 {
			out = append(out, fmt.Sprintf("%s*%d", toks[i], j-i))
		} else {
			out = append(out, toks[i])
		}
		i = j
	}
	return strings.Join(out, " ")
}

// runNamed runs the named schedules of the calling test.
func runNamed(t *testing.T) { runPaths(t, named[t.Name()]) }

func runPaths(t *testing.T, list []namedSchedule) {
	var order []string
	groups := map[string][]namedSchedule{}
	for _, n := range list {
		if n.path == "" {
			s, err := parseSchedule(n.text)
			if err != nil {
				t.Fatalf("schedule %q: %v", n.text, err)
			}
			s.run(t)
			continue
		}
		head, rest, _ := strings.Cut(n.path, "/")
		if groups[head] == nil {
			order = append(order, head)
		}
		groups[head] = append(groups[head], namedSchedule{rest, n.text})
	}
	for _, h := range order {
		t.Run(h, func(t *testing.T) { runPaths(t, groups[h]) })
	}
}

func TestLiveParity(t *testing.T)                             { runNamed(t) }
func TestClusterLiveParity(t *testing.T)                      { runNamed(t) }
func TestCrashRecoveryParity(t *testing.T)                    { runNamed(t) }
func TestClusterCrashRecoveryParity(t *testing.T)             { runNamed(t) }
func TestCrashPointFaultParityMatrix(t *testing.T)            { runNamed(t) }
func TestCorruptCheckpointFallsBackToFullReplay(t *testing.T) { runNamed(t) }
func TestRecoveryNeverResurrectsTombstone(t *testing.T)       { runNamed(t) }
func TestCloseDurabilityBarrier(t *testing.T)                 { runNamed(t) }
func TestClusterCloseDurabilityBarrier(t *testing.T)          { runNamed(t) }
func TestMergeAbortRetries(t *testing.T)                      { runNamed(t) }
func TestClusterMergeAbort(t *testing.T)                      { runNamed(t) }
func TestMergeAbortNeverTearsSnapshot(t *testing.T)           { runNamed(t) }
func TestMergeAbortCrashRecoversPreMergeView(t *testing.T)    { runNamed(t) }
func TestClusterSplitRecovery(t *testing.T)                   { runNamed(t) }
func TestClusterWedgedShardKeepsOthersWritable(t *testing.T)  { runNamed(t) }
func TestClusterCheckpointSuffixReplay(t *testing.T)          { runNamed(t) }
func TestRecoveryForgetsRecordsPastAGap(t *testing.T)         { runNamed(t) }
func TestOpenWithoutWALDirMatchesNew(t *testing.T)            { runNamed(t) }
func TestOpenClusterWithoutWALDirMatchesNew(t *testing.T)     { runNamed(t) }
func TestRunningStatsMatchLiveScan(t *testing.T)              { runNamed(t) }

// ---------------------------------------------------------------------------
// Generated schedules and the fuzzer
// ---------------------------------------------------------------------------

// generatedSchedules is how many generated schedules tier-1 runs, as seeds
// of FuzzExplore.
const generatedSchedules = 24

// genSchedule draws a schedule: a random row, faults armed at random
// opportunities, and 30–60 steps over the whole alphabet.
func genSchedule(seed int64) string {
	r := rand.New(rand.NewSource(seed))
	pick := func(words ...string) string { return words[r.Intn(len(words))] }
	b := backends[r.Intn(len(backends))]
	head := fmt.Sprintf("backend=%s mode=%s wal=%s seed=%s corpus=%d/%d/%d script=%d fseed=%d",
		b.name, pick("cpu", "cpu", "cpu", "hybrid"), pick("off", "sync", "sync", "defer", "3"), pick("heap", "mapped"),
		r.Intn(1000), 10+r.Intn(50), 6+r.Intn(10), r.Intn(1000), r.Intn(1000))
	var toks []string
	arm := func() {
		if r.Intn(2) == 0 {
			toks = append(toks, fmt.Sprintf("%s@%d", pick("torn", "flip", "short"), r.Intn(16)))
		}
		if r.Intn(4) == 0 {
			a := r.Intn(6)
			toks = append(toks, fmt.Sprintf("mfault@%d:%d", a, a+1+r.Intn(3)))
		}
	}
	arm()
	shards := b.shards
	for range 30 + r.Intn(30) {
		switch k := r.Intn(40); {
		case k < 20:
			toks = append(toks, "mut")
		case k < 24:
			toks = append(toks, pick("add", "upd", "del", "top"))
		case k < 28:
			toks = append(toks, pick("merge", "merge:0", "merge:1"))
		case k < 31:
			toks = append(toks, "ckpt")
		case k < 32:
			toks = append(toks, "ckpt-corrupt")
		case k < 34 && shards < 4:
			toks = append(toks, "split")
			shards++
		case k < 36:
			toks = append(toks, "quiesce")
		default:
			toks = append(toks, pick("crash", "close"), "reopen")
			arm()
		}
	}
	return head + " | " + compact(toks)
}

// FuzzExplore runs a schedule from its text. Its seeds are every named
// schedule and the generated ones; a failing input the fuzzer finds is
// shrunk and written under testdata/fuzz/FuzzExplore, where plain go test
// runs it from then on. Named schedules run under their own tests, so
// outside fuzzing they are skipped here, and under fuzzing inputs longer
// than 400 steps are (they cost seconds each).
func FuzzExplore(f *testing.F) {
	isNamed := map[string]bool{}
	for _, list := range named {
		for _, n := range list {
			isNamed[n.text] = true
			f.Add(n.text)
		}
	}
	for seed := range int64(generatedSchedules) {
		f.Add(genSchedule(seed + 1))
	}
	fuzzing := flag.Lookup("test.fuzz").Value.String() != ""
	f.Fuzz(func(t *testing.T, text string) {
		s, err := parseSchedule(text)
		switch {
		case err != nil:
			t.Skip(err)
		case !fuzzing && isNamed[text]:
			t.Skip("runs under its own test")
		case fuzzing && len(s.steps) > 400:
			t.Skip("too long to fuzz")
		}
		s.run(t)
	})
}
