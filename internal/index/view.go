package index

import (
	"encoding/binary"
	"unsafe"
)

// This file is the package's only use of unsafe: reinterpreting bytes of
// a serialized index as the little-endian words they encode, and finding
// where in those bytes a word lies.

var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// wordsOf returns the little-endian T values encoded in b (len(b) a
// multiple of T's size; get decodes one): a view of b's own memory when
// the host is little-endian and b is aligned for T, a decoded copy
// otherwise. An empty b yields nil.
func wordsOf[T uint32 | uint64](b []byte, get func([]byte) T) []T {
	size := int(unsafe.Sizeof(T(0)))
	n := len(b) / size
	if n == 0 {
		return nil
	}
	if p := unsafe.Pointer(unsafe.SliceData(b)); hostLittleEndian && uintptr(p)%uintptr(size) == 0 {
		return unsafe.Slice((*T)(p), n)
	}
	out := make([]T, n)
	for i := range out {
		out[i] = get(b[i*size:])
	}
	return out
}

// offsetIn returns the offset of *w in data, and whether w lies in data
// at all (it does not in a copy wordsOf made, nor on the heap).
func offsetIn(data []byte, w *uint64) (int, bool) {
	off := uintptr(unsafe.Pointer(w)) - uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	return int(off), off < uintptr(len(data))
}
