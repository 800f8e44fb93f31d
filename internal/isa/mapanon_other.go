//go:build !unix || race

package isa

import "errors"

// mapAnon maps nothing, so NewMem takes guest memory from the Go heap:
// this platform's syscall package has no Mmap, or this is a race-detector
// build, whose detector does not see accesses to memory outside the heap.
func mapAnon(int) ([]byte, error) {
	return nil, errors.New("isa: guest memory is not mapped in this build")
}

// unmapAnon is never called: mapAnon maps nothing here.
func unmapAnon([]byte) {}
