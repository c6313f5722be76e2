package wal

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"griffin/internal/fault"
	"griffin/internal/index"
)

// ErrLineageMismatch means a log or checkpoint carries a different
// lineage stamp than the manifest: the directory mixes files from two
// engine histories (a restored checkpoint from another machine, a
// half-copied directory). Serving from it could return results for a
// corpus that never existed, so recovery refuses outright.
var ErrLineageMismatch = errors.New("wal: lineage mismatch")

// errClosed marks a log whose file has been closed (clean Close or
// Crash); it is not surfaced as a wedge.
var errClosed = errors.New("wal: log closed")

// Options configures a Store.
type Options struct {
	// Shards is the shard-log count for a freshly created store. On an
	// existing store the manifest wins and this value is ignored.
	Shards int
	// SyncEvery syncs each log after this many appends; 1 (the durable
	// default) syncs every append, 0 syncs only at checkpoints, explicit
	// Sync calls, and Close.
	SyncEvery int
	// Site is the fault-site base: shard i's log draws faults at
	// "<shardSite>.wal.append" / "<shardSite>.wal.sync" and checkpoint
	// writes at "<Site>.ckpt", where shardSite is Site for single-shard
	// stores and "<Site>.s<i>" otherwise.
	Site string
	// Fault injects storage faults; nil injects nothing.
	Fault *fault.Injector
}

func (o Options) shardSite(i, shards int) string {
	if shards <= 1 {
		return o.Site
	}
	return fmt.Sprintf("%s.s%d", o.Site, i)
}

// Recovered summarizes what Open reconstructed from an existing
// directory.
type Recovered struct {
	// Fresh is true when the directory had no manifest: a new lineage
	// was created and there is nothing to replay.
	Fresh bool
	// Lineage is the store's history stamp.
	Lineage uint64
	// Shards is the manifest's shard-log count.
	Shards int
	// Checkpoint is the newest valid checkpoint's index, nil when no
	// usable checkpoint exists (recovery then replays the full log over
	// the caller's seed segment).
	Checkpoint *index.Index
	// Watermark is the generation the checkpoint covers (0 without one).
	Watermark uint64
	// Records is the replay suffix: every durable record with gen >
	// Watermark, gen-ascending and contiguous from Watermark+1.
	Records []Record
	// TruncatedBytes counts torn/corrupt tail bytes discarded across
	// the shard logs.
	TruncatedBytes int64
	// DroppedRecords counts intact records discarded because an earlier
	// generation was lost (a gap in the stitched sequence): replaying
	// past a hole would apply mutations against a state they were never
	// validated on.
	DroppedRecords int
	// SkippedCheckpoints counts checkpoint files that failed their
	// header or checksum validation and were passed over.
	SkippedCheckpoints int
}

// Stats is the store's telemetry, shaped for /statz.
type Stats struct {
	Appends            int64  `json:"appends"`
	AppendedBytes      int64  `json:"appended_bytes"`
	Syncs              int64  `json:"syncs"`
	Failures           int64  `json:"failures,omitempty"`
	Wedged             bool   `json:"wedged,omitempty"`
	Checkpoints        int64  `json:"checkpoints"`
	CheckpointGen      uint64 `json:"checkpoint_gen"`
	RecoveredRecords   int64  `json:"recovered_records"`
	TruncatedBytes     int64  `json:"recovered_truncated_bytes,omitempty"`
	DroppedRecords     int64  `json:"recovered_dropped_records,omitempty"`
	SkippedCheckpoints int64  `json:"recovered_skipped_checkpoints,omitempty"`
}

// Store is a WAL directory: a lineage-stamped manifest, one append log
// per shard, and a set of checkpoint files. Appends are routed by shard;
// checkpoints snapshot a caller-built index at a generation watermark.
type Store struct {
	dir     string
	opts    Options
	lineage uint64

	// ckptMu serializes checkpoints, and Close and Crash behind one in
	// flight. Taken before mu, never under it.
	ckptMu sync.Mutex

	mu            sync.Mutex
	logs          []*Log
	checkpoints   int64
	checkpointGen uint64
	recovered     Recovered
	closed        bool
}

const (
	manifestName    = "MANIFEST"
	manifestVersion = 1
	ckptVersion     = 1
)

var (
	manifestMagic = [4]byte{'G', 'W', 'M', 'F'}
	ckptMagic     = [4]byte{'G', 'W', 'C', 'P'}
)

// Open opens (or creates) the WAL directory and runs recovery. A
// directory without a manifest is initialized fresh with opts.Shards
// logs and a new lineage; otherwise the manifest's shard count and
// lineage govern, every shard log is scanned and truncated to its
// intact prefix, the newest valid checkpoint is loaded, and the
// stitched replay suffix is returned.
func Open(dir string, opts Options) (*Store, *Recovered, error) {
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	s := &Store{dir: dir, opts: opts}
	mf, err := readManifest(filepath.Join(dir, manifestName))
	switch {
	case errors.Is(err, os.ErrNotExist):
		rec, err := s.create()
		if err != nil {
			return nil, nil, err
		}
		return s, rec, nil
	case err != nil:
		return nil, nil, err
	}
	rec, err := s.recover(mf)
	if err != nil {
		s.closeLogs()
		return nil, nil, err
	}
	return s, rec, nil
}

// create initializes a fresh store: new lineage, empty shard logs, and
// a manifest committed last so a crash mid-create leaves a directory
// Open will simply re-create.
func (s *Store) create() (*Recovered, error) {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return nil, err
	}
	s.lineage = binary.LittleEndian.Uint64(b[:]) | 1 // never zero
	for i := 0; i < s.opts.Shards; i++ {
		l, err := createLog(s.logPath(i), s.lineage, i,
			s.opts.shardSite(i, s.opts.Shards), s.opts.Fault, s.opts.SyncEvery)
		if err != nil {
			s.closeLogs()
			return nil, err
		}
		s.logs = append(s.logs, l)
	}
	if err := s.writeManifest(s.opts.Shards); err != nil {
		s.closeLogs()
		return nil, err
	}
	rec := Recovered{Fresh: true, Lineage: s.lineage, Shards: s.opts.Shards}
	s.recovered = rec
	return &rec, nil
}

type manifest struct {
	lineage uint64
	shards  int
}

func (s *Store) logPath(i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("wal-%d.log", i))
}

func (s *Store) ckptPath(watermark uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("ckpt-%016x.ckpt", watermark))
}

// writeManifest commits the manifest atomically: tmp file, fsync,
// rename, directory fsync. Layout: magic | u32 version | u64 lineage |
// u32 shards | u32 crc over the preceding fields.
func (s *Store) writeManifest(shards int) error {
	buf := make([]byte, 0, 24)
	buf = append(buf, manifestMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, manifestVersion)
	buf = binary.LittleEndian.AppendUint64(buf, s.lineage)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(shards))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	path := filepath.Join(s.dir, manifestName)
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, buf); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(s.dir)
}

func readManifest(path string) (manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return manifest{}, err
	}
	if len(data) != 24 || [4]byte(data[0:4]) != manifestMagic ||
		binary.LittleEndian.Uint32(data[4:8]) != manifestVersion ||
		crc32.Checksum(data[:20], castagnoli) != binary.LittleEndian.Uint32(data[20:24]) {
		return manifest{}, fmt.Errorf("wal: %s: corrupt manifest", path)
	}
	m := manifest{
		lineage: binary.LittleEndian.Uint64(data[8:16]),
		shards:  int(binary.LittleEndian.Uint32(data[16:20])),
	}
	if m.shards <= 0 {
		return manifest{}, fmt.Errorf("wal: %s: corrupt manifest (shards=%d)", path, m.shards)
	}
	return m, nil
}

// recover rebuilds state from an existing directory: scan + truncate
// every shard log, load the newest valid checkpoint, stitch the shard
// record streams into one gen-ordered history, and keep only the
// contiguous suffix past the checkpoint watermark.
func (s *Store) recover(mf manifest) (*Recovered, error) {
	s.lineage = mf.lineage
	rec := Recovered{Lineage: mf.lineage, Shards: mf.shards}
	var all []Record
	for i := 0; i < mf.shards; i++ {
		l, recs, truncated, err := openLog(s.logPath(i), mf.lineage,
			s.opts.shardSite(i, mf.shards), s.opts.Fault, s.opts.SyncEvery)
		if err != nil {
			return nil, err
		}
		s.logs = append(s.logs, l)
		all = append(all, recs...)
		rec.TruncatedBytes += truncated
	}
	ix, wm, skipped, err := s.loadCheckpoint()
	if err != nil {
		return nil, err
	}
	rec.Checkpoint, rec.Watermark, rec.SkippedCheckpoints = ix, wm, skipped

	sort.Slice(all, func(i, j int) bool { return all[i].Gen < all[j].Gen })
	next := wm + 1
	for _, r := range all {
		if r.Gen < next {
			continue // covered by the checkpoint
		}
		if r.Gen > next {
			// A generation is missing (a shard's unsynced tail died in the
			// crash). Everything after the hole was validated against state
			// that includes the lost records, so replay stops here.
			rec.DroppedRecords++
			continue
		}
		rec.Records = append(rec.Records, r)
		next++
	}
	s.checkpointGen = wm
	s.recovered = rec
	return &rec, nil
}

// loadCheckpoint returns the newest checkpoint that passes validation,
// skipping corrupt ones. A checkpoint with the wrong lineage is not
// skippable damage — it is evidence the directory mixes histories — so
// it refuses recovery entirely.
func (s *Store) loadCheckpoint() (*index.Index, uint64, int, error) {
	names, err := filepath.Glob(filepath.Join(s.dir, "ckpt-*.ckpt"))
	if err != nil {
		return nil, 0, 0, err
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names))) // hex watermark: newest first
	skipped := 0
	for _, name := range names {
		ix, wm, err := readCheckpoint(name, s.lineage)
		if errors.Is(err, ErrLineageMismatch) {
			return nil, 0, 0, err
		}
		if err != nil {
			skipped++
			continue
		}
		return ix, wm, skipped, nil
	}
	return nil, 0, skipped, nil
}

// Checkpoint atomically persists ix as the state through generation
// watermark. A fired ckpt-site fault corrupts the payload on the way
// down silently — the writer believes it succeeded, and only recovery's
// validation catches it (and falls back to an older checkpoint or a
// full replay). Older checkpoints beyond the newest two are pruned.
//
// Checkpoints serialize on their own mutex; s.mu is held only to read
// the store's state and to publish the result, so appends keep being
// acknowledged while a segment is written and synced.
func (s *Store) Checkpoint(ix *index.Index, watermark uint64) error {
	if s == nil {
		return nil
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.mu.Lock()
	closed, in := s.closed, s.opts.Fault
	s.mu.Unlock()
	if closed {
		return errClosed
	}
	sf := in.StorageOp(s.opts.Site+".ckpt", 0, fault.TornWrite, fault.BitFlip)
	path := s.ckptPath(watermark)
	tmp := path + ".tmp"
	if err := writeCheckpoint(tmp, ix, s.lineage, watermark, sf); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	s.mu.Lock()
	s.checkpoints++
	s.checkpointGen = watermark
	s.pruneLocked(watermark)
	s.mu.Unlock()
	return nil
}

// ckptHeaderLen is the checkpoint header: magic | u32 version | u64
// lineage | u64 watermark | u64 payload length | u32 CRC32C of the
// payload. The serialized index follows.
const ckptHeaderLen = 36

// writeCheckpoint streams ix into path behind a checkpoint header and
// fsyncs it. The payload's length and checksum are only known once it is
// written, so the header goes down as zeros first and is patched in
// place. sf, when non-nil, then corrupts the payload on disk exactly as
// corruptFrame would have corrupted it in memory: a torn write keeps a
// strict prefix, a bit flip inverts one bit, both at the offset the
// fault's hashed fraction picks — the header keeps describing the
// intact payload, which is how recovery tells.
func writeCheckpoint(path string, ix *index.Index, lineage, watermark uint64, sf *fault.StorageFault) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer f.Close() // error paths; the success path checks Close below
	if _, err := f.Write(make([]byte, ckptHeaderLen)); err != nil {
		return err
	}
	sum := crc32.New(castagnoli)
	n, err := ix.WriteTo(io.MultiWriter(f, sum))
	if err != nil {
		return err
	}
	hdr := make([]byte, 0, ckptHeaderLen)
	hdr = append(hdr, ckptMagic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, ckptVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, lineage)
	hdr = binary.LittleEndian.AppendUint64(hdr, watermark)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(n))
	hdr = binary.LittleEndian.AppendUint32(hdr, sum.Sum32())
	if _, err := f.WriteAt(hdr, 0); err != nil {
		return err
	}
	if sf != nil {
		if err := corruptFile(f, ckptHeaderLen, n, sf); err != nil {
			return err
		}
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}

// corruptFile is corruptFrame for the n bytes of f starting at off.
func corruptFile(f *os.File, off, n int64, sf *fault.StorageFault) error {
	if sf.Kind != fault.BitFlip { // TornWrite, ShortWrite: a strict prefix reaches disk
		return f.Truncate(off + min(int64(sf.Frac*float64(n)), n-1))
	}
	bit := min(int64(sf.Frac*float64(n*8)), n*8-1)
	var b [1]byte
	if _, err := f.ReadAt(b[:], off+bit/8); err != nil {
		return err
	}
	b[0] ^= 1 << (bit % 8)
	_, err := f.WriteAt(b[:], off+bit/8)
	return err
}

// pruneLocked deletes checkpoints older than the newest two. Two are
// kept — not one — so a corrupt newest checkpoint still has a valid
// fallback.
func (s *Store) pruneLocked(newest uint64) {
	names, err := filepath.Glob(filepath.Join(s.dir, "ckpt-*.ckpt"))
	if err != nil {
		return
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	for i, name := range names {
		if i >= 2 {
			os.Remove(name)
		}
	}
}

// readCheckpoint validates and loads one checkpoint file. Once the
// header and checksum hold, the payload is parsed where it was read —
// the returned index aliases the buffer (index.Parse) — and parsing in
// place wants the payload 8-byte aligned, so the file is read far enough
// into its buffer to put byte ckptHeaderLen on an 8-byte boundary.
func readCheckpoint(path string, lineage uint64) (*index.Index, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	const lead = -ckptHeaderLen & 7
	buf := make([]byte, lead+fi.Size())
	if _, err := io.ReadFull(f, buf[lead:]); err != nil {
		return nil, 0, fmt.Errorf("wal: %s: %w", path, err)
	}
	data := buf[lead:]
	if len(data) < ckptHeaderLen || [4]byte(data[0:4]) != ckptMagic ||
		binary.LittleEndian.Uint32(data[4:8]) != ckptVersion {
		return nil, 0, fmt.Errorf("wal: %s: bad checkpoint header", path)
	}
	if got := binary.LittleEndian.Uint64(data[8:16]); got != lineage {
		return nil, 0, fmt.Errorf("%w: checkpoint %s has lineage %016x, manifest %016x",
			ErrLineageMismatch, path, got, lineage)
	}
	wm := binary.LittleEndian.Uint64(data[16:24])
	n := binary.LittleEndian.Uint64(data[24:32])
	if uint64(len(data)-ckptHeaderLen) != n {
		return nil, 0, fmt.Errorf("wal: %s: checkpoint payload truncated", path)
	}
	payload := data[ckptHeaderLen:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[32:36]) {
		return nil, 0, fmt.Errorf("wal: %s: checkpoint checksum mismatch", path)
	}
	ix, err := index.Parse(payload)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: %s: %v", path, err)
	}
	return ix, wm, nil
}

// Append routes r to shard's log. An error means the record is NOT
// durable and the mutation must not be acknowledged.
func (s *Store) Append(shard int, r Record) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errClosed
	}
	l := s.logs[shard]
	s.mu.Unlock()
	return l.Append(r)
}

// Sync flushes every shard log; the first error wins but all logs are
// attempted.
func (s *Store) Sync() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	logs := append([]*Log(nil), s.logs...)
	s.mu.Unlock()
	var first error
	for _, l := range logs {
		if err := l.Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Reshard grows the store to n shard logs and commits the new count to
// the manifest. The manifest commit happens before the caller swaps its
// routing topology, so a crash between the two recovers with every
// already-written record still reachable. Shrinking is refused: records
// in orphaned logs would silently fall out of recovery.
func (s *Store) Reshard(n int) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	if n < len(s.logs) {
		return fmt.Errorf("wal: reshard %d -> %d would orphan shard logs", len(s.logs), n)
	}
	if n == len(s.logs) {
		return nil
	}
	for i := len(s.logs); i < n; i++ {
		l, err := createLog(s.logPath(i), s.lineage, i,
			s.opts.shardSite(i, n), s.opts.Fault, s.opts.SyncEvery)
		if err != nil {
			return err
		}
		s.logs = append(s.logs, l)
	}
	return s.writeManifest(n)
}

// Crash simulates kill -9 across the store: every log's unsynced tail
// vanishes and all files close. Reopen the directory to recover.
func (s *Store) Crash() {
	if s == nil {
		return
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.logs {
		l.Crash()
	}
	s.closed = true
}

// Close syncs and closes every log.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	logs := s.logs
	s.mu.Unlock()
	var first error
	for _, l := range logs {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (s *Store) closeLogs() {
	for _, l := range s.logs {
		l.Close()
	}
}

// Wedged returns the first wedging error across the shard logs, or nil.
func (s *Store) Wedged() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	logs := append([]*Log(nil), s.logs...)
	s.mu.Unlock()
	for _, l := range logs {
		if err := l.Wedged(); err != nil {
			return err
		}
	}
	return nil
}

// Stats aggregates the store's telemetry.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Checkpoints:        s.checkpoints,
		CheckpointGen:      s.checkpointGen,
		RecoveredRecords:   int64(len(s.recovered.Records)),
		TruncatedBytes:     s.recovered.TruncatedBytes,
		DroppedRecords:     int64(s.recovered.DroppedRecords),
		SkippedCheckpoints: int64(s.recovered.SkippedCheckpoints),
	}
	for _, l := range s.logs {
		l.mu.Lock()
		st.Appends += l.appends
		st.AppendedBytes += l.bytes
		st.Syncs += l.syncs
		st.Failures += l.fails
		if l.wedged != nil && l.wedged != errClosed {
			st.Wedged = true
		}
		l.mu.Unlock()
	}
	return st
}

// writeFileSync writes data and fsyncs before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a rename is durable; best-effort on
// platforms where directory fsync is unsupported.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return nil // tolerate filesystems that reject directory fsync
	}
	return nil
}
