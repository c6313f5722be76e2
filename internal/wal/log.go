package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"

	"griffin/internal/fault"
)

// Log file header: magic | u32 version | u64 lineage | u32 shard.
var logMagic = [4]byte{'G', 'W', 'L', 'G'}

const (
	logVersion    = 1
	logHeaderSize = 20
)

// Log is one shard's append-only record log. Appends go to the OS file
// immediately but count as durable only once synced: Crash() — the
// simulated kill -9 — truncates the file back to the synced length, so
// the gap between acknowledged and durable is exactly the sync policy,
// deterministically.
//
// A fired storage fault wedges the log: the corrupt bytes are already
// on the durable surface, and appending acknowledged records after a
// record recovery will truncate at would silently lose them. Every
// subsequent append or sync returns the wedging fault.
type Log struct {
	mu        sync.Mutex
	f         *os.File
	path      string
	site      string // fault site base, e.g. "ingest" or "ingest.s0"
	in        *fault.Injector
	syncEvery int   // appends per automatic sync; 0 = explicit syncs only
	fileLen   int64 // bytes written, including any injected torn fragment
	syncedLen int64 // bytes that survive Crash
	pending   int   // appends since the last sync
	wedged    error
	buf       []byte // frame scratch, reused across appends

	appends int64
	syncs   int64
	bytes   int64
	fails   int64
}

// createLog creates a fresh shard log with a synced header.
func createLog(path string, lineage uint64, shard int, site string, in *fault.Injector, syncEvery int) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, 0, logHeaderSize)
	hdr = append(hdr, logMagic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, logVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, lineage)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(shard))
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{
		f: f, path: path, site: site, in: in, syncEvery: syncEvery,
		fileLen: logHeaderSize, syncedLen: logHeaderSize,
	}, nil
}

// openLog opens an existing shard log, scans its record body, truncates
// the file back to the last intact record (so post-recovery appends
// land after valid data, never after garbage), and returns the decoded
// records plus the number of torn/corrupt tail bytes discarded.
func openLog(path string, lineage uint64, site string, in *fault.Injector, syncEvery int) (*Log, []Record, int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, 0, err
	}
	data, err := readAll(f)
	if err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	if len(data) < logHeaderSize ||
		[4]byte(data[0:4]) != logMagic ||
		binary.LittleEndian.Uint32(data[4:8]) != logVersion {
		f.Close()
		return nil, nil, 0, fmt.Errorf("wal: %s: bad log header", path)
	}
	if got := binary.LittleEndian.Uint64(data[8:16]); got != lineage {
		f.Close()
		return nil, nil, 0, fmt.Errorf("%w: log %s has lineage %016x, manifest %016x",
			ErrLineageMismatch, path, got, lineage)
	}
	recs, clean := ScanRecords(data[logHeaderSize:])
	truncated := int64(len(data) - logHeaderSize - clean)
	end := int64(logHeaderSize + clean)
	if truncated > 0 {
		if err := f.Truncate(end); err != nil {
			f.Close()
			return nil, nil, 0, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, 0, err
		}
	}
	if _, err := f.Seek(end, 0); err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	l := &Log{
		f: f, path: path, site: site, in: in, syncEvery: syncEvery,
		fileLen: end, syncedLen: end,
	}
	return l, recs, truncated, nil
}

func readAll(f *os.File) ([]byte, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, st.Size())
	if _, err := f.ReadAt(data, 0); err != nil && st.Size() > 0 {
		return nil, err
	}
	return data, nil
}

// Append frames r and writes it. The record is durable once the write
// has been covered by a sync (per the syncEvery policy or an explicit
// Sync). A fired append-site fault writes the deterministically
// corrupted frame — torn prefix or flipped bit — syncs it (the model:
// those bytes reached the platter wrong), wedges the log, and returns
// the fault; the caller must not acknowledge the mutation.
func (l *Log) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wedged != nil {
		return l.wedged
	}
	l.buf = appendFrame(l.buf[:0], r)
	frame := l.buf
	if sf := l.in.StorageOp(l.site+".wal.append", 0, fault.TornWrite, fault.BitFlip); sf != nil {
		l.fails++
		corrupted := corruptFrame(frame, sf)
		if _, err := l.f.Write(corrupted); err == nil {
			l.f.Sync()
			l.fileLen += int64(len(corrupted))
			l.syncedLen = l.fileLen
		}
		l.wedged = fmt.Errorf("wal: append %s gen %d: %w", l.path, r.Gen, sf)
		return l.wedged
	}
	if _, err := l.f.Write(frame); err != nil {
		l.fails++
		l.wedged = fmt.Errorf("wal: append %s gen %d: %w", l.path, r.Gen, err)
		return l.wedged
	}
	l.fileLen += int64(len(frame))
	l.appends++
	l.bytes += int64(len(frame))
	l.pending++
	if l.syncEvery > 0 && l.pending >= l.syncEvery {
		return l.syncLocked()
	}
	return nil
}

// corruptFrame applies sf's deterministic corruption to a copy of frame:
// a torn or short write keeps a strict prefix, a bit flip inverts one
// bit chosen by the fault's hashed fraction.
func corruptFrame(frame []byte, sf *fault.StorageFault) []byte {
	out := append([]byte(nil), frame...)
	switch sf.Kind {
	case fault.BitFlip:
		bit := int(sf.Frac * float64(len(out)*8))
		if bit >= len(out)*8 {
			bit = len(out)*8 - 1
		}
		out[bit/8] ^= 1 << (bit % 8)
	default: // TornWrite, ShortWrite: a strict prefix reaches disk
		n := int(sf.Frac * float64(len(out)))
		if n >= len(out) {
			n = len(out) - 1
		}
		out = out[:n]
	}
	return out
}

// Sync makes every appended byte durable. A fired sync-site fault
// persists only a deterministic prefix of the unsynced region (the
// short-write class), truncates the file to match — the dropped tail
// never reached the platter — and wedges the log.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wedged != nil {
		return l.wedged
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.fileLen == l.syncedLen {
		l.pending = 0
		return nil
	}
	if sf := l.in.StorageOp(l.site+".wal.sync", 0, fault.ShortWrite); sf != nil {
		l.fails++
		kept := l.syncedLen + int64(sf.Frac*float64(l.fileLen-l.syncedLen))
		if err := l.f.Truncate(kept); err == nil {
			l.f.Sync()
			l.f.Seek(kept, 0)
			l.fileLen, l.syncedLen = kept, kept
		}
		l.wedged = fmt.Errorf("wal: sync %s: %w", l.path, sf)
		return l.wedged
	}
	if err := l.f.Sync(); err != nil {
		l.fails++
		l.wedged = fmt.Errorf("wal: sync %s: %w", l.path, err)
		return l.wedged
	}
	l.syncedLen = l.fileLen
	l.pending = 0
	l.syncs++
	return nil
}

// Crash simulates kill -9: unsynced bytes vanish, the file closes. The
// log is unusable afterwards; reopen the store to recover.
func (l *Log) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return
	}
	l.f.Truncate(l.syncedLen)
	l.f.Sync()
	l.f.Close()
	l.f = nil
	if l.wedged == nil {
		l.wedged = errClosed
	}
}

// Close syncs (unless the log is wedged — a wedged tail is already
// physically truncated to its durable prefix) and closes the file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var err error
	if l.wedged == nil {
		err = l.syncLocked()
	}
	l.f.Close()
	l.f = nil
	if l.wedged == nil {
		l.wedged = errClosed
	}
	return err
}

// Wedged returns the error that wedged the log, or nil.
func (l *Log) Wedged() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wedged == errClosed {
		return nil
	}
	return l.wedged
}
