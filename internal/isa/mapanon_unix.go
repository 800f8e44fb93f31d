//go:build unix && !race

package isa

import "syscall"

// mapAnon maps size bytes of private anonymous memory, readable and
// writable. The kernel zero-fills each page on first touch.
func mapAnon(size int) ([]byte, error) {
	return syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// unmapAnon releases a mapping made by mapAnon. It runs from a finalizer,
// with nobody to report to, and Munmap of a live mapping cannot fail.
func unmapAnon(data []byte) { _ = syscall.Munmap(data) }
