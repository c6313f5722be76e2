// Package wal is the durability layer under the live-mutation engine: a
// length-prefixed, CRC32C-checksummed, generation-stamped write-ahead
// log plus periodic full-segment checkpoints. Every acknowledged
// Add/Update/Delete is framed and appended before the caller sees
// success; recovery loads the newest valid checkpoint and replays only
// the WAL suffix past its watermark, truncating at the first torn or
// corrupt record rather than guessing.
//
// The failure model is deliberately narrow and fully enumerated — torn
// tail records, short synced prefixes, and single-bit flips, injected
// deterministically through internal/fault — and recovery tolerates
// exactly that set: a corrupt record ends the replayable log, a corrupt
// checkpoint falls back to an older one (or a full replay), and a
// lineage mismatch between the manifest and a log or checkpoint refuses
// to serve instead of serving wrong results.
package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/bits"
)

// Op enumerates the mutation classes a WAL record can carry. Values
// start at 1 so an all-zeroes frame cannot decode as a valid record.
type Op uint8

const (
	// OpAdd inserts a document that did not exist.
	OpAdd Op = 1 + iota
	// OpUpdate replaces an existing document's content.
	OpUpdate
	// OpDelete tombstones a document.
	OpDelete
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "add"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	default:
		return "op(?)"
	}
}

// Record is one acknowledged mutation. Gen is the engine's global
// mutation generation — records are appended in gen order, and the gen
// sequence is what recovery uses to stitch per-shard logs back into one
// totally ordered history.
type Record struct {
	Gen    uint64
	Op     Op
	DocID  uint32
	Tokens []string
}

// Frame layout: u32 payload length | u32 CRC32C(payload) | payload.
// Payload: u64 gen | u8 op | u32 docID | uvarint ntokens |
// ntokens × (uvarint len | bytes).
const (
	frameHeaderSize = 8
	// MaxPayload is the longest payload a frame may carry, 64 MB: a
	// longer claimed length is corruption, so a bad length prefix cannot
	// drive a multi-gigabyte allocation during recovery. Append refuses a
	// record over it (ErrTooLarge), and the ingest endpoint a request
	// body over it.
	MaxPayload = 1 << 26
)

// castagnoli is the CRC32C polynomial table — the same checksum disk
// and filesystem formats use, chosen over IEEE for its burst-error
// detection on exactly this kind of framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	// errShort marks a frame cut off by the end of the buffer: the torn
	// tail a crash mid-append leaves behind. Recovery truncates here.
	errShort = errors.New("wal: short frame")
	// errCorrupt marks a frame whose length, checksum, or payload
	// structure is invalid: bytes reached the disk wrong. Recovery also
	// truncates here — nothing after a corrupt record is trustworthy.
	errCorrupt = errors.New("wal: corrupt frame")
)

// ErrTooLarge is Append's refusal of a record whose payload would be
// over MaxPayload: recovery would read its frame as corrupt and truncate
// the log there, dropping it and every record after it.
var ErrTooLarge = errors.New("wal: record over the payload limit")

// payloadSize returns the length of r's frame payload, as appendFrame
// encodes it, without encoding it.
func payloadSize(r Record) int {
	n := 8 + 1 + 4 + uvarintLen(len(r.Tokens))
	for _, tok := range r.Tokens {
		n += uvarintLen(len(tok)) + len(tok)
	}
	return n
}

// uvarintLen returns how many bytes binary.AppendUvarint writes for v.
func uvarintLen(v int) int { return max(1, (bits.Len(uint(v))+6)/7) }

// appendFrame encodes r as one frame onto buf.
func appendFrame(buf []byte, r Record) []byte {
	payloadAt := len(buf) + frameHeaderSize
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint64(buf, r.Gen)
	buf = append(buf, byte(r.Op))
	buf = binary.LittleEndian.AppendUint32(buf, r.DocID)
	buf = binary.AppendUvarint(buf, uint64(len(r.Tokens)))
	for _, tok := range r.Tokens {
		buf = binary.AppendUvarint(buf, uint64(len(tok)))
		buf = append(buf, tok...)
	}
	payload := buf[payloadAt:]
	binary.LittleEndian.PutUint32(buf[payloadAt-8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[payloadAt-4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// decodeFrame decodes the frame at the start of b, returning the record
// and the number of bytes consumed. errShort means b ends mid-frame;
// errCorrupt means the frame is structurally invalid or fails its
// checksum. A record is returned only when its checksum verified.
func decodeFrame(b []byte) (Record, int, error) {
	if len(b) < frameHeaderSize {
		return Record{}, 0, errShort
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n == 0 || n > MaxPayload {
		return Record{}, 0, errCorrupt
	}
	if uint64(len(b)) < frameHeaderSize+uint64(n) {
		return Record{}, 0, errShort
	}
	payload := b[frameHeaderSize : frameHeaderSize+n]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:8]) {
		return Record{}, 0, errCorrupt
	}
	r, err := decodePayload(payload)
	if err != nil {
		return Record{}, 0, errCorrupt
	}
	return r, frameHeaderSize + int(n), nil
}

// decodePayload parses a checksum-verified payload. Every bound is
// checked against the remaining bytes so no claimed count or length can
// over-read or over-allocate, even when a bit flip survives the CRC
// (fuzzing explores exactly that corner).
func decodePayload(p []byte) (Record, error) {
	if len(p) < 13 {
		return Record{}, errCorrupt
	}
	var r Record
	r.Gen = binary.LittleEndian.Uint64(p[0:8])
	r.Op = Op(p[8])
	if r.Op < OpAdd || r.Op > OpDelete {
		return Record{}, errCorrupt
	}
	r.DocID = binary.LittleEndian.Uint32(p[9:13])
	p = p[13:]
	ntok, sz := binary.Uvarint(p)
	if sz <= 0 || ntok > uint64(len(p)) {
		return Record{}, errCorrupt
	}
	p = p[sz:]
	if ntok > 0 {
		r.Tokens = make([]string, 0, ntok)
	}
	for i := uint64(0); i < ntok; i++ {
		l, sz := binary.Uvarint(p)
		if sz <= 0 || l > uint64(len(p)-sz) {
			return Record{}, errCorrupt
		}
		r.Tokens = append(r.Tokens, string(p[sz:sz+int(l)]))
		p = p[sz+int(l):]
	}
	if len(p) != 0 {
		return Record{}, errCorrupt
	}
	return r, nil
}

// ScanRecords decodes the valid record prefix of b, returning the
// records and the clean byte length. Scanning stops at the first short
// or corrupt frame — the documented recovery rule: truncate at the
// first record that cannot be proven intact.
func ScanRecords(b []byte) ([]Record, int) {
	var recs []Record
	off := 0
	for off < len(b) {
		r, n, err := decodeFrame(b[off:])
		if err != nil {
			break
		}
		recs = append(recs, r)
		off += n
	}
	return recs, off
}
