package index

import (
	"encoding/binary"
	"unsafe"
)

// This file is the package's only use of unsafe: reinterpreting bytes of
// a serialized index as the little-endian words and block rows they
// encode.

var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// viewable reports whether b can be read in place as values of the
// file's types: the host is little-endian, as the file is, and b is
// 8-byte aligned, as every section of the file is.
func viewable(b []byte) bool {
	return hostLittleEndian && uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 == 0
}

// wordsOf returns the little-endian words encoded in b (len(b) a
// multiple of 8): a view of b's own memory when b is viewable, a decoded
// copy otherwise. An empty b yields nil.
func wordsOf(b []byte) []uint64 {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if viewable(b) {
		return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(b))), n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

// rowsOf returns the n rows of type R encoded in b, each in R's memory
// layout on a little-endian host (TestRowLayoutIsTheFile): a view of b's
// own memory when b is viewable, else copies that get decodes from each
// row's bytes. An R must hold no pointer (TestBlockRowsHoldNoPointers).
// An n of 0 yields nil.
func rowsOf[R any](b []byte, n int, get func([]byte) R) []R {
	if n == 0 {
		return nil
	}
	if viewable(b) {
		return unsafe.Slice((*R)(unsafe.Pointer(unsafe.SliceData(b))), n)
	}
	out := make([]R, n)
	size := len(b) / n
	for i := range out {
		out[i] = get(b[i*size:])
	}
	return out
}
