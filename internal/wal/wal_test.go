package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"griffin/internal/fault"
	"griffin/internal/index"
)

func mkRecords(n int, startGen uint64) []Record {
	recs := make([]Record, n)
	for i := range recs {
		op := OpAdd
		switch i % 3 {
		case 1:
			op = OpUpdate
		case 2:
			op = OpDelete
		}
		var toks []string
		if op != OpDelete {
			toks = []string{"alpha", "beta", string(rune('a' + i%26))}
		}
		recs[i] = Record{Gen: startGen + uint64(i), Op: op, DocID: uint32(i % 7), Tokens: toks}
	}
	return recs
}

func TestFrameRoundTrip(t *testing.T) {
	recs := mkRecords(50, 1)
	recs = append(recs, Record{Gen: 51, Op: OpAdd, DocID: 0, Tokens: nil})                   // empty doc
	recs = append(recs, Record{Gen: 52, Op: OpUpdate, DocID: 1 << 31, Tokens: []string{""}}) // empty token
	var buf []byte
	for _, r := range recs {
		buf = appendFrame(buf, r)
	}
	got, clean := ScanRecords(buf)
	if clean != len(buf) {
		t.Fatalf("clean prefix %d of %d bytes", clean, len(buf))
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		want := recs[i]
		if want.Tokens == nil {
			// nil and empty both encode as zero tokens
			want.Tokens = got[i].Tokens
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
}

func TestScanTruncatesAtCorruption(t *testing.T) {
	recs := mkRecords(10, 1)
	var buf []byte
	var offs []int
	for _, r := range recs {
		offs = append(offs, len(buf))
		buf = appendFrame(buf, r)
	}
	cases := []struct {
		name string
		mut  func([]byte) []byte
		keep int // records expected to survive
	}{
		{"torn tail", func(b []byte) []byte { return b[:offs[7]+5] }, 7},
		{"bit flip mid-log", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[offs[4]+frameHeaderSize+3] ^= 0x10
			return c
		}, 4},
		{"length prefix corrupted", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[offs[2]] = 0xFF
			c[offs[2]+1] = 0xFF
			c[offs[2]+2] = 0xFF
			c[offs[2]+3] = 0xFF
			return c
		}, 2},
		{"zero length frame", func(b []byte) []byte {
			c := append([]byte(nil), b[:offs[5]]...)
			c = append(c, make([]byte, 8)...)
			return append(c, b[offs[5]:]...)
		}, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, clean := ScanRecords(tc.mut(buf))
			if len(got) != tc.keep {
				t.Fatalf("survived %d records, want %d", len(got), tc.keep)
			}
			if clean != offs[tc.keep] && tc.keep < len(offs) {
				t.Fatalf("clean prefix %d, want %d", clean, offs[tc.keep])
			}
			for i := 0; i < tc.keep; i++ {
				if got[i].Gen != recs[i].Gen {
					t.Fatalf("record %d gen %d, want %d", i, got[i].Gen, recs[i].Gen)
				}
			}
		})
	}
}

func smallIndex(t *testing.T, docs map[uint32][]string) *index.Index {
	t.Helper()
	b := index.NewBuilder(index.CodecEF)
	ids := make([]uint32, 0, len(docs))
	for id := range docs {
		ids = append(ids, id)
	}
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			if ids[j] < ids[i] {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
	}
	for _, id := range ids {
		if err := b.AddDocument(id, docs[id]); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestStoreAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, rec, err := Open(dir, Options{Shards: 1, SyncEvery: 1, Site: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Fresh {
		t.Fatalf("fresh dir not reported fresh: %+v", rec)
	}
	recs := mkRecords(25, 1)
	for _, r := range recs {
		if err := s.Append(0, r); err != nil {
			t.Fatal(err)
		}
	}
	s.Crash()

	s2, rec2, err := Open(dir, Options{Site: "t"})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec2.Fresh || rec2.Lineage != rec.Lineage || rec2.Shards != 1 {
		t.Fatalf("recovered %+v, want lineage %016x shards 1", rec2, rec.Lineage)
	}
	if len(rec2.Records) != len(recs) {
		t.Fatalf("recovered %d records, want %d", len(rec2.Records), len(recs))
	}
	for i := range recs {
		if rec2.Records[i].Gen != recs[i].Gen || rec2.Records[i].DocID != recs[i].DocID {
			t.Fatalf("record %d: got %+v want %+v", i, rec2.Records[i], recs[i])
		}
	}
}

func TestCrashDropsUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	// SyncEvery 0: nothing durable until an explicit Sync.
	s, _, err := Open(dir, Options{Shards: 1, SyncEvery: 0, Site: "t"})
	if err != nil {
		t.Fatal(err)
	}
	recs := mkRecords(20, 1)
	for i, r := range recs {
		if err := s.Append(0, r); err != nil {
			t.Fatal(err)
		}
		if i == 11 {
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Crash()
	_, rec, err := Open(dir, Options{Site: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 12 {
		t.Fatalf("recovered %d records, want the 12 synced ones", len(rec.Records))
	}
}

func TestInjectedTornWriteWedgesAndTruncates(t *testing.T) {
	in := fault.NewInjector(fault.Plan{Seed: 9, Rules: []fault.Rule{
		{Kind: fault.TornWrite, Rate: 1, After: 13, Until: 14},
	}})
	dir := t.TempDir()
	s, _, err := Open(dir, Options{Shards: 1, SyncEvery: 1, Site: "t", Fault: in})
	if err != nil {
		t.Fatal(err)
	}
	recs := mkRecords(20, 1)
	acked := 0
	var wedgeErr error
	for _, r := range recs {
		if err := s.Append(0, r); err != nil {
			wedgeErr = err
			break
		}
		acked++
	}
	if acked != 13 {
		t.Fatalf("acked %d records, want 13 before the injected torn write", acked)
	}
	if !fault.IsStorageFault(wedgeErr) {
		t.Fatalf("append error %v is not a storage fault", wedgeErr)
	}
	if err := s.Append(0, recs[14]); !fault.IsStorageFault(err) {
		t.Fatalf("wedged log accepted another append (err=%v)", err)
	}
	if s.Wedged() == nil {
		t.Fatalf("store does not report wedged")
	}
	s.Crash()

	_, rec, err := Open(dir, Options{Site: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != acked {
		t.Fatalf("recovered %d records, want the %d acknowledged", len(rec.Records), acked)
	}
	if rec.TruncatedBytes == 0 {
		t.Fatalf("no torn bytes reported despite injected torn write")
	}
}

func TestInjectedBitFlipTruncatesAtFlippedRecord(t *testing.T) {
	in := fault.NewInjector(fault.Plan{Seed: 4, Rules: []fault.Rule{
		{Kind: fault.BitFlip, Rate: 1, After: 6, Until: 7},
	}})
	dir := t.TempDir()
	s, _, err := Open(dir, Options{Shards: 1, SyncEvery: 1, Site: "t", Fault: in})
	if err != nil {
		t.Fatal(err)
	}
	acked := 0
	for _, r := range mkRecords(12, 1) {
		if err := s.Append(0, r); err != nil {
			break
		}
		acked++
	}
	s.Crash()
	_, rec, err := Open(dir, Options{Site: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if acked != 6 || len(rec.Records) != 6 {
		t.Fatalf("acked %d recovered %d, want 6/6", acked, len(rec.Records))
	}
}

func TestInjectedShortSyncKeepsPrefix(t *testing.T) {
	in := fault.NewInjector(fault.Plan{Seed: 2, Rules: []fault.Rule{
		{Kind: fault.ShortWrite, Rate: 1, After: 1, Until: 2},
	}})
	dir := t.TempDir()
	s, _, err := Open(dir, Options{Shards: 1, SyncEvery: 5, Site: "t", Fault: in})
	if err != nil {
		t.Fatal(err)
	}
	acked := 0
	for _, r := range mkRecords(20, 1) {
		if err := s.Append(0, r); err != nil {
			break
		}
		acked++
	}
	// First sync (records 1-5) is clean; the second sync fires short, so
	// the 10th append — whose policy sync failed — is not acknowledged.
	if acked != 9 {
		t.Fatalf("acked %d, want 9 (wedge on the second policy sync)", acked)
	}
	s.Crash()
	_, rec, err := Open(dir, Options{Site: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) < 5 || len(rec.Records) >= 10 {
		t.Fatalf("recovered %d records, want the 5 from the clean sync plus a short prefix of the second batch", len(rec.Records))
	}
	// Prefix rule: whatever survived must be gens 1..k.
	for i, r := range rec.Records {
		if r.Gen != uint64(i+1) {
			t.Fatalf("recovered gen %d at position %d: not a prefix", r.Gen, i)
		}
	}
}

func TestCheckpointAndSuffixReplay(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{Shards: 1, SyncEvery: 1, Site: "t"})
	if err != nil {
		t.Fatal(err)
	}
	recs := mkRecords(30, 1)
	for i, r := range recs {
		if err := s.Append(0, r); err != nil {
			t.Fatal(err)
		}
		if i == 19 {
			ix := smallIndex(t, map[uint32][]string{1: {"x", "y"}, 2: {"y", "z"}})
			if err := s.Checkpoint(ix, 20); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Crash()
	_, rec, err := Open(dir, Options{Site: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoint == nil || rec.Watermark != 20 {
		t.Fatalf("no checkpoint recovered (watermark %d)", rec.Watermark)
	}
	if len(rec.Records) != 10 || rec.Records[0].Gen != 21 {
		t.Fatalf("replay suffix wrong: %d records starting at gen %d", len(rec.Records), rec.Records[0].Gen)
	}
	if got := rec.Checkpoint.DocLen(1); got != 2 {
		t.Fatalf("checkpoint index doc 1 length %d, want 2", got)
	}
}

func TestCorruptCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{Shards: 1, SyncEvery: 1, Site: "t"})
	if err != nil {
		t.Fatal(err)
	}
	recs := mkRecords(30, 1)
	ix := smallIndex(t, map[uint32][]string{1: {"x"}})
	for i, r := range recs {
		if err := s.Append(0, r); err != nil {
			t.Fatal(err)
		}
		if i == 9 {
			if err := s.Checkpoint(ix, 10); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Second checkpoint at gen 20, silently corrupted by the ckpt site.
	in := fault.NewInjector(fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Kind: fault.BitFlip, Rate: 1},
	}})
	s.mu.Lock()
	s.opts.Fault = in
	s.mu.Unlock()
	if err := s.Checkpoint(ix, 20); err != nil {
		t.Fatal(err) // silent corruption: the writer sees success
	}
	s.Crash()

	_, rec, err := Open(dir, Options{Site: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SkippedCheckpoints != 1 {
		t.Fatalf("skipped %d checkpoints, want 1", rec.SkippedCheckpoints)
	}
	if rec.Watermark != 10 {
		t.Fatalf("fell back to watermark %d, want 10", rec.Watermark)
	}
	if len(rec.Records) != 20 || rec.Records[0].Gen != 11 {
		t.Fatalf("replay suffix wrong after fallback: %d records from gen %d",
			len(rec.Records), rec.Records[0].Gen)
	}
}

func TestLineageMismatchRefusesToServe(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{Shards: 1, SyncEvery: 1, Site: "t"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range mkRecords(5, 1) {
		if err := s.Append(0, r); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Transplant a checkpoint from a different lineage (a different
	// store's history) into the directory.
	other := t.TempDir()
	s2, _, err := Open(other, Options{Shards: 1, SyncEvery: 1, Site: "t"})
	if err != nil {
		t.Fatal(err)
	}
	ix := smallIndex(t, map[uint32][]string{9: {"q"}})
	if err := s2.Checkpoint(ix, 3); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	src, err := os.ReadFile(filepath.Join(other, "ckpt-0000000000000003.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ckpt-0000000000000003.ckpt"), src, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = Open(dir, Options{Site: "t"})
	if !errors.Is(err, ErrLineageMismatch) {
		t.Fatalf("mixed-lineage directory opened without refusing: err=%v", err)
	}
}

func TestGapInStitchedStreamDropsSuffix(t *testing.T) {
	// Two shard logs with independent sync points: shard 0 loses its
	// unsynced tail, shard 1 keeps later gens. Recovery must stop at the
	// hole, not replay across it.
	dir := t.TempDir()
	s, _, err := Open(dir, Options{Shards: 2, SyncEvery: 0, Site: "t"})
	if err != nil {
		t.Fatal(err)
	}
	// gens 1,2 -> shard 0, synced; gens 3,4 -> shard 0, unsynced (lost);
	// gens 5,6 -> shard 1, synced.
	for _, r := range mkRecords(2, 1) {
		if err := s.Append(0, r); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	l0 := s.logs[0]
	s.mu.Unlock()
	if err := l0.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, r := range mkRecords(2, 3) {
		if err := s.Append(0, r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range mkRecords(2, 5) {
		if err := s.Append(1, r); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	l1 := s.logs[1]
	s.mu.Unlock()
	if err := l1.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Crash()

	_, rec, err := Open(dir, Options{Site: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 2 || rec.Records[1].Gen != 2 {
		t.Fatalf("replayed %d records, want exactly gens 1-2 before the hole", len(rec.Records))
	}
	if rec.DroppedRecords != 2 {
		t.Fatalf("dropped %d records past the gap, want 2 (gens 5,6)", rec.DroppedRecords)
	}
}

func TestReshardGrowsManifestAndRoutes(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{Shards: 1, SyncEvery: 1, Site: "t"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range mkRecords(4, 1) {
		if err := s.Append(0, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Reshard(3); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(2, Record{Gen: 5, Op: OpAdd, DocID: 9, Tokens: []string{"k"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Reshard(1); err == nil {
		t.Fatalf("shrinking reshard accepted; would orphan logs")
	}
	s.Crash()
	s2, rec, err := Open(dir, Options{Shards: 1, Site: "t"}) // opts.Shards ignored
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.Shards != 3 {
		t.Fatalf("manifest shards %d, want 3", rec.Shards)
	}
	if len(rec.Records) != 5 || rec.Records[4].Gen != 5 {
		t.Fatalf("recovered %d records across resharded logs, want 5", len(rec.Records))
	}
}

func TestCheckpointPruneKeepsTwo(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{Shards: 1, SyncEvery: 1, Site: "t"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ix := smallIndex(t, map[uint32][]string{1: {"x"}})
	for wm := uint64(10); wm <= 50; wm += 10 {
		if err := s.Checkpoint(ix, wm); err != nil {
			t.Fatal(err)
		}
	}
	names, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if len(names) != 2 {
		t.Fatalf("%d checkpoints on disk after prune, want 2: %v", len(names), names)
	}
	want := []string{
		filepath.Join(dir, "ckpt-0000000000000028.ckpt"), // 40
		filepath.Join(dir, "ckpt-0000000000000032.ckpt"), // 50
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("kept %v, want the newest two %v", names, want)
	}
}

func TestStatsCounters(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{Shards: 1, SyncEvery: 1, Site: "t"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, r := range mkRecords(8, 1) {
		if err := s.Append(0, r); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Appends != 8 || st.Syncs != 8 || st.AppendedBytes == 0 || st.Wedged {
		t.Fatalf("stats %+v, want 8 appends / 8 syncs, bytes > 0, not wedged", st)
	}
}

// A directory fsync that fails is a rename that may not survive a crash,
// unless the filesystem rejects directory fsync altogether.
func TestDirSyncErr(t *testing.T) {
	fsync := func(errno syscall.Errno) error {
		return &os.PathError{Op: "sync", Path: "/wal", Err: errno}
	}
	if err := dirSyncErr(fsync(syscall.EIO)); !errors.Is(err, syscall.EIO) {
		t.Errorf("EIO: got %v, want it returned", err)
	}
	for _, err := range []error{nil, fsync(syscall.EINVAL), fsync(syscall.ENOTSUP), os.ErrInvalid} {
		if got := dirSyncErr(err); got != nil {
			t.Errorf("%v: got %v, want nil", err, got)
		}
	}
}

func TestManifestRoundTripBytes(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{Shards: 2, SyncEvery: 1, Site: "t"})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 24 || !bytes.Equal(data[0:4], manifestMagic[:]) {
		t.Fatalf("manifest is %d bytes with magic %q", len(data), data[:4])
	}
	// A flipped byte must be detected, not silently accepted.
	data[10] ^= 0x01
	bad := filepath.Join(dir, "MANIFEST")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{Site: "t"}); err == nil {
		t.Fatalf("corrupt manifest accepted")
	}
}

// payloadSize is the length appendFrame gives a record's payload, across
// the widths of the token counts and lengths.
func TestPayloadSizeIsTheFrame(t *testing.T) {
	recs := mkRecords(10, 1)
	for _, n := range []int{0, 1, 127, 128, 16383, 16384} {
		recs = append(recs, Record{Gen: 99, Op: OpAdd, DocID: 5, Tokens: []string{string(make([]byte, n)), "x"}})
	}
	recs = append(recs, Record{Gen: 100, Op: OpAdd, Tokens: make([]string, 200)})
	for i, r := range recs {
		if got, want := payloadSize(r), len(appendFrame(nil, r))-frameHeaderSize; got != want {
			t.Errorf("record %d: payloadSize %d, frame payload %d", i, got, want)
		}
	}
}

// A record whose payload would be over MaxPayload is refused before a
// byte is written, and the log stays usable: the records around it
// recover. Written, its frame would read back as corrupt and recovery
// would truncate the log there, losing it and the acknowledged record
// after it.
func TestAppendRefusesRecordOverPayloadLimit(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{Shards: 1, SyncEvery: 1, Site: "t"})
	if err != nil {
		t.Fatal(err)
	}
	mb := string(make([]byte, 1<<20))
	big := Record{Gen: 2, Op: OpAdd, DocID: 9, Tokens: make([]string, MaxPayload>>20)}
	for i := range big.Tokens {
		big.Tokens[i] = mb // one string, its header repeated: 64 MB of payload, 1 MB allocated
	}
	// A refused record takes no generation: the writer gives the next one
	// the same.
	recs := mkRecords(2, 1)
	recs[1].Gen = big.Gen
	for i, r := range []Record{recs[0], big, recs[1]} {
		err := s.Append(0, r)
		if want := i == 1; errors.Is(err, ErrTooLarge) != want || (err != nil) != want {
			t.Fatalf("append %d (gen %d): %v, want ErrTooLarge: %v", i, r.Gen, err, want)
		}
	}
	s.Crash()
	s2, rec, err := Open(dir, Options{Site: "t"})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(rec.Records) != 2 || rec.Records[0].Gen != 1 || rec.Records[1].Gen != 2 || rec.Records[1].DocID != recs[1].DocID {
		t.Fatalf("recovered %+v, want generations 1 and 2, doc %d", rec.Records, recs[1].DocID)
	}
}
