//go:build linux && !race

package isa

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// TestNewMemOffHeap: a 32 MB guest memory adds almost nothing to the Go
// heap (only the dirty marks), and every page reads zero before it is
// written.
func TestNewMemOffHeap(t *testing.T) {
	const size = 32 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := NewMem(size)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("NewMem(%d) allocated %d bytes on the Go heap, want under 1 MB", size, got)
	}
	zero := make([]byte, PageSize)
	for _, pg := range []int{0, size / PageSize / 2, size/PageSize - 1} {
		if !bytes.Equal(m.Data[pg*PageSize:(pg+1)*PageSize], zero) {
			t.Fatalf("fresh memory: page %d is not zero", pg)
		}
	}
}

// TestDroppedMemIsUnmapped: once a Mem is unreachable, its finalizer
// removes the mapping behind Data. Finalizers run asynchronously after
// a collection, so the test polls a bounded number of times. The first
// poll that finds the address unmapped is the pass: a later anonymous
// mapping may reuse the freed range.
func TestDroppedMemIsUnmapped(t *testing.T) {
	m := NewMem(8 << 20)
	addr := uintptr(unsafe.Pointer(&m.Data[0]))
	if !mapped(t, addr) {
		t.Fatalf("guest memory at %#x is not in /proc/self/maps", addr)
	}
	// mapped allocates, so a collection may run inside it: keep m alive
	// until its mapping has been seen. m is dead from here on.
	runtime.KeepAlive(m)
	for i := 0; i < 100; i++ {
		runtime.GC()
		if !mapped(t, addr) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("guest memory at %#x is still mapped after its Mem was dropped", addr)
}

// mapped reports whether a line of /proc/self/maps covers addr.
func mapped(t *testing.T, addr uintptr) bool {
	t.Helper()
	f, err := os.Open("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var lo, hi uintptr
		if _, err := fmt.Sscanf(sc.Text(), "%x-%x", &lo, &hi); err != nil {
			t.Fatalf("/proc/self/maps line %q: %v", sc.Text(), err)
		}
		if lo <= addr && addr < hi {
			return true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return false
}
