//go:build !linux

package ef

// Elsewhere the pages of a region fault in as they are first written.

func populate([]uint64) {}
