package index

import (
	"encoding/binary"
	"unsafe"
)

// This file is the package's only use of unsafe: reinterpreting bytes of
// a serialized index as the little-endian words they encode, and finding
// where in those bytes a word lies.

var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// wordsOf returns the little-endian words encoded in b (len(b) a
// multiple of 8): a view of b's own memory when the host is
// little-endian and b is 8-byte aligned, a decoded copy otherwise. An
// empty b yields nil.
func wordsOf(b []byte) []uint64 {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if p := unsafe.Pointer(unsafe.SliceData(b)); hostLittleEndian && uintptr(p)%8 == 0 {
		return unsafe.Slice((*uint64)(p), n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

// offsetIn returns the offset of *w in data, and whether w lies in data
// at all (it does not in a copy wordsOf made, nor on the heap).
func offsetIn(data []byte, w *uint64) (int, bool) {
	off := uintptr(unsafe.Pointer(w)) - uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	return int(off), off < uintptr(len(data))
}
