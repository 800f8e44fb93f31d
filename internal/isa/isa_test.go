package isa

import (
	"bytes"
	"testing"
)

func TestMemLoadStoreRoundTrip(t *testing.T) {
	m := NewMem(4096)
	for _, sz := range []uint8{1, 2, 4, 8} {
		v := uint64(0x1122334455667788)
		m.Store(64, sz, v)
		got := m.Load(64, sz)
		mask := ^uint64(0)
		if sz < 8 {
			mask = (1 << (8 * sz)) - 1
		}
		if got != v&mask {
			t.Fatalf("sz=%d: %#x != %#x", sz, got, v&mask)
		}
	}
}

func TestMemLittleEndian(t *testing.T) {
	m := NewMem(64)
	m.Store(0, 4, 0x0A0B0C0D)
	if m.Data[0] != 0x0D || m.Data[3] != 0x0A {
		t.Fatalf("not little-endian: % x", m.Data[:4])
	}
}

func TestMemFaults(t *testing.T) {
	m := NewMem(64)
	for _, c := range []struct {
		f    func()
		want string
	}{
		{func() { m.Load(60, 8) }, "isa: load fault addr=0x3c sz=8"},
		{func() { m.Load64(57) }, "isa: load fault addr=0x39 sz=8"},
		{func() { m.Load8(64) }, "isa: load fault addr=0x40 sz=1"},
		{func() { m.Store(64, 1, 0) }, "isa: store fault addr=0x40 sz=1"},
		{func() { m.Store8(64, 0) }, "isa: store fault addr=0x40 sz=1"},
		{func() { m.Store16(63, 0) }, "isa: store fault addr=0x3f sz=2"},
		{func() { m.Store32(61, 0) }, "isa: store fault addr=0x3d sz=4"},
		{func() { m.Store64(60, 0) }, "isa: store fault addr=0x3c sz=8"},
		{func() { m.Bytes(32, 33) }, "isa: bytes fault addr=0x20 n=33"},
		{func() { m.Bytes(1, ^uint64(0)) }, "isa: bytes fault addr=0x1 n=18446744073709551615"},
	} {
		func() {
			defer func() {
				f, ok := recover().(*MemFault)
				if !ok {
					t.Fatalf("%s: out-of-range access must panic with a *MemFault", c.want)
				}
				if f.Error() != c.want {
					t.Fatalf("fault %q, want %q", f.Error(), c.want)
				}
			}()
			c.f()
		}()
	}
	if m.Data[63] != 0 || m.Dirty[0] != 0 {
		t.Fatal("a faulting access wrote memory or marked a page")
	}
}

// TestMemDirtyMarks pins the page marks checkpoint restore relies on:
// every write path marks exactly the pages it touches, a store that
// straddles a page boundary marks both, and loads mark nothing.
func TestMemDirtyMarks(t *testing.T) {
	const P = PageSize
	for _, c := range []struct {
		name  string
		write func(m *Mem)
		pages []int
	}{
		{"loads", func(m *Mem) { m.Load(P-4, 8); m.Load64(2 * P); m.Load8(0) }, nil},
		{"Store", func(m *Mem) { m.Store(P+8, 8, 1) }, []int{1}},
		{"Store straddling", func(m *Mem) { m.Store(2*P-3, 4, 1) }, []int{1, 2}},
		{"Store8", func(m *Mem) { m.Store8(3*P+P-1, 1) }, []int{3}},
		{"Store16", func(m *Mem) { m.Store16(P-2, 1) }, []int{0}},
		{"Store16 straddling", func(m *Mem) { m.Store16(P-1, 1) }, []int{0, 1}},
		{"Store32", func(m *Mem) { m.Store32(2*P, 1) }, []int{2}},
		{"Store32 straddling", func(m *Mem) { m.Store32(2*P-1, 1) }, []int{1, 2}},
		{"Store64", func(m *Mem) { m.Store64(P-8, 1) }, []int{0}},
		{"Store64 straddling", func(m *Mem) { m.Store64(3*P-5, 1) }, []int{2, 3}},
		{"Bytes empty", func(m *Mem) { m.Bytes(P, 0) }, nil},
		{"Bytes one page", func(m *Mem) { m.Bytes(P, P) }, []int{1}},
		{"Bytes three pages", func(m *Mem) { m.Bytes(P-1, P+2) }, []int{0, 1, 2}},
		{"LoadInto", func(m *Mem) {
			(&Program{TextBase: 16, Text: []byte{1}, DataBase: 3*P - 1, Data: []byte{2, 3}}).LoadInto(m)
		}, []int{0, 2, 3}},
	} {
		m := NewMem(4 * P)
		c.write(m)
		want := make([]byte, 4)
		for _, pg := range c.pages {
			want[pg] = 1
		}
		if !bytes.Equal(m.Dirty, want) {
			t.Errorf("%s: marks %v, want %v", c.name, m.Dirty, want)
		}
		m.ClearDirty()
		if !bytes.Equal(m.Dirty, make([]byte, 4)) {
			t.Errorf("%s: ClearDirty left %v", c.name, m.Dirty)
		}
	}
}

func TestSignExtend(t *testing.T) {
	cases := []struct {
		v    uint64
		sz   uint8
		want uint64
	}{
		{0x80, 1, 0xFFFFFFFFFFFFFF80},
		{0x7F, 1, 0x7F},
		{0x8000, 2, 0xFFFFFFFFFFFF8000},
		{0x80000000, 4, 0xFFFFFFFF80000000},
		{0x80000000, 8, 0x80000000},
	}
	for _, c := range cases {
		if got := SignExtend(c.v, c.sz); got != c.want {
			t.Errorf("SignExtend(%#x, %d) = %#x, want %#x", c.v, c.sz, got, c.want)
		}
	}
}

func TestProgramSymbols(t *testing.T) {
	p := &Program{
		TextBase: 0x1000, Text: []byte{1, 2, 3, 4},
		DataBase: 0x2000, Data: []byte{9},
		Syms: map[string]uint64{"f": 0x1000},
	}
	if p.SymAddr("f") != 0x1000 {
		t.Fatal("symbol lookup")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown symbol must panic")
		}
	}()
	p.SymAddr("ghost")
}

func TestProgramLoadInto(t *testing.T) {
	p := &Program{
		TextBase: 16, Text: []byte{0xAA, 0xBB},
		DataBase: 32, Data: []byte{0xCC},
	}
	m := NewMem(64)
	p.LoadInto(m)
	if m.Data[16] != 0xAA || m.Data[17] != 0xBB || m.Data[32] != 0xCC {
		t.Fatal("image not loaded")
	}
	if p.Size() != 3 {
		t.Fatalf("size %d", p.Size())
	}
}

func TestClassNames(t *testing.T) {
	if ClassLoad.String() != "load" || ClassIdle.String() != "idle" {
		t.Fatal("class names")
	}
	if Class(200).String() == "" {
		t.Fatal("unknown class must render")
	}
}
