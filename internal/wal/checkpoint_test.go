package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"griffin/internal/fault"
	"griffin/internal/index"
)

// framedCheckpoint is the checkpoint file format spelled out on a buffer:
// the 36-byte header over the serialized index, then the payload — with
// sf's corruption applied to the payload alone, as corruptFrame does.
func framedCheckpoint(t *testing.T, ix *index.Index, lineage, watermark uint64, sf *fault.StorageFault) []byte {
	t.Helper()
	var payload bytes.Buffer
	if _, err := ix.WriteTo(&payload); err != nil {
		t.Fatal(err)
	}
	body := payload.Bytes()
	buf := append([]byte(nil), ckptMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, ckptVersion)
	buf = binary.LittleEndian.AppendUint64(buf, lineage)
	buf = binary.LittleEndian.AppendUint64(buf, watermark)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(body)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, castagnoli))
	if sf != nil {
		body = corruptFrame(body, sf)
	}
	return append(buf, body...)
}

// docLensIndex is an index whose serialized form is dominated by a
// document-length table of the given size.
func docLensIndex(t *testing.T, docs uint32) *index.Index {
	t.Helper()
	b := index.NewBuilder(index.CodecEF)
	if err := b.AddPostings("x", []uint32{1, 5, docs - 1}, nil); err != nil {
		t.Fatal(err)
	}
	for d := uint32(0); d < docs; d += 3 {
		b.SetDocLen(d, 1+d%97)
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestCheckpointStreamedBytes: streaming the segment into the file and
// patching the header afterwards leaves the same bytes as framing it in
// memory — intact, torn and bit-flipped alike, the corruption landing at
// the offset the fault's fraction picks.
func TestCheckpointStreamedBytes(t *testing.T) {
	ix := docLensIndex(t, 50_000)
	for name, rules := range map[string][]fault.Rule{
		"intact":  nil,
		"torn":    {{Kind: fault.TornWrite, Rate: 1}},
		"bitflip": {{Kind: fault.BitFlip, Rate: 1}},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			plan := fault.Plan{Seed: 7, Rules: rules}
			s, _, err := Open(dir, Options{Site: "t", Fault: fault.NewInjector(plan)})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Checkpoint(ix, 42); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(s.ckptPath(42))
			if err != nil {
				t.Fatal(err)
			}
			// A second injector over the same plan draws the same fault.
			sf := fault.NewInjector(plan).StorageOp("t.ckpt", 0, fault.TornWrite, fault.BitFlip)
			if (sf != nil) != (rules != nil) {
				t.Fatalf("reference draw fired = %v", sf != nil)
			}
			want := framedCheckpoint(t, ix, s.lineage, 42, sf)
			if !bytes.Equal(got, want) {
				t.Fatalf("checkpoint file (%d bytes) differs from the framed reference (%d bytes)", len(got), len(want))
			}
			_, _, err = readCheckpoint(s.ckptPath(42), s.lineage)
			if (err != nil) != (rules != nil) {
				t.Fatalf("readCheckpoint err = %v with rules %v", err, rules)
			}
			if _, err := os.Stat(s.ckptPath(42) + ".tmp"); !os.IsNotExist(err) {
				t.Errorf("temp file left behind: %v", err)
			}
		})
	}
}

// TestCheckpointStreamedAllocation: a checkpoint's memory is the
// serializer's buffer, not a multiple of the segment.
func TestCheckpointStreamedAllocation(t *testing.T) {
	ix := docLensIndex(t, 4_000_000) // 16 MB of document lengths
	s, _, err := Open(t.TempDir(), Options{Site: "t"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.Checkpoint(ix, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	fi, err := os.Stat(s.ckptPath(1))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 16_000_000 {
		t.Fatalf("checkpoint is %d bytes, want >= 16 MB", fi.Size())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2<<20 {
		t.Errorf("checkpointing %d bytes allocated %d, want <= 2 MB", fi.Size(), got)
	}
}

// TestReadCheckpointParsesInPlace: loading a checkpoint allocates the
// file's buffer and the parsed block headers, not a second copy of the
// payload, and returns the segment that was written; a payload that
// passes the checksum but is not a current-format index is still an
// error, not an index.
func TestReadCheckpointParsesInPlace(t *testing.T) {
	ix := docLensIndex(t, 4_000_000) // 16 MB of document lengths
	dir := t.TempDir()
	path := filepath.Join(dir, "intact.ckpt")
	if err := writeCheckpoint(path, ix, 9, 42, nil); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, wm, err := readCheckpoint(path, 9)
	runtime.ReadMemStats(&after)
	if err != nil || wm != 42 {
		t.Fatalf("readCheckpoint = watermark %d, %v", wm, err)
	}
	if alloc := int64(after.TotalAlloc - before.TotalAlloc); alloc > fi.Size()+fi.Size()/4 {
		t.Errorf("loading a %d-byte checkpoint allocated %d bytes, want about the file once", fi.Size(), alloc)
	}
	if !reflect.DeepEqual(got, ix) {
		t.Error("the loaded segment is not the checkpointed one")
	}

	var payload bytes.Buffer
	if _, err := ix.WriteTo(&payload); err != nil {
		t.Fatal(err)
	}
	old := payload.Bytes()[:4096]
	binary.LittleEndian.PutUint32(old[4:], 2) // a version-2 payload, correctly framed
	frame := append([]byte(nil), ckptMagic[:]...)
	frame = binary.LittleEndian.AppendUint32(frame, ckptVersion)
	frame = binary.LittleEndian.AppendUint64(frame, 9)
	frame = binary.LittleEndian.AppendUint64(frame, 42)
	frame = binary.LittleEndian.AppendUint64(frame, uint64(len(old)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(old, castagnoli))
	stale := filepath.Join(dir, "stale.ckpt")
	if err := os.WriteFile(stale, append(frame, old...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readCheckpoint(stale, 9); err == nil || !strings.Contains(err.Error(), index.ErrBadFormat.Error()) {
		t.Errorf("version-2 payload: err = %v, want the index format error", err)
	}
	if _, _, err := readCheckpoint(path, 10); !errors.Is(err, ErrLineageMismatch) {
		t.Errorf("foreign lineage: err = %v, want ErrLineageMismatch", err)
	}
	if err := os.Truncate(path, ckptHeaderLen-1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readCheckpoint(path, 9); err == nil {
		t.Error("a file shorter than the header loaded")
	}
}
