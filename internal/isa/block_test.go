package isa

import (
	"errors"
	"testing"
)

// toyCode is a tiny translation source for exercising BlockCache without
// an ISA: each entry PC maps to the templates of its block, and every
// translate call is counted. PCs absent from the map fail to translate.
type toyCode struct {
	recs  map[uint64][]TraceRec
	calls int
}

var errNoCode = errors.New("toy: no code")

func (tc *toyCode) translate(pc uint64, mem *Mem) (*Block[int], error) {
	tc.calls++
	recs, ok := tc.recs[pc]
	if !ok {
		return nil, errNoCode
	}
	return &Block[int]{End: pc + 4*uint64(len(recs)), Recs: recs, Uops: make([]int, len(recs))}, nil
}

func newToyCode() *toyCode {
	alu := TraceRec{Class: ClassAlu, MicroOps: 1}
	ld := TraceRec{Class: ClassLoad, MicroOps: 1}
	st := TraceRec{Class: ClassStore, MicroOps: 2}
	br := TraceRec{Class: ClassBranch, MicroOps: 1}
	return &toyCode{recs: map[uint64][]TraceRec{
		0x1000: {alu, ld, br},
		0x2000: {st, alu, br},
		0x3000: {alu, br},
		0x4000: {br},
	}}
}

func newToyCache() *BlockCache[int] {
	c := NewBlockCache[int]()
	return &c
}

// linkedLoop enters A (0x1000), chains A→B (0x2000) and B→A, returning
// both blocks: the two-block loop the ISAs' chain tests run.
func linkedLoop(t *testing.T, c *BlockCache[int], tc *toyCode) (a, b *Block[int]) {
	t.Helper()
	a, err := c.Enter(0x1000, nil, tc.translate)
	if err != nil {
		t.Fatal(err)
	}
	if c.Follow(a, 0x2000) != nil {
		t.Fatal("Follow found a link before any was patched")
	}
	if b, err = c.Chain(a, 0x2000, nil, tc.translate); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Chain(b, 0x1000, nil, tc.translate); err != nil || got != a {
		t.Fatalf("Chain(b, A) = %p, %v; want block A", got, err)
	}
	return a, b
}

// TestBlockCacheEnter checks entry-PC resolution: translate runs once per
// block, the MRU serves repeats, every entry is a chain miss, distinct
// blocks count once per epoch, and a failed translation caches nothing.
func TestBlockCacheEnter(t *testing.T) {
	tc := newToyCode()
	c := newToyCache()
	a, err := c.Enter(0x1000, nil, tc.translate)
	if err != nil {
		t.Fatal(err)
	}
	if c.mru != a || c.mruPC != 0x1000 {
		t.Fatal("Enter did not make the block most recently used")
	}
	if a2, _ := c.Enter(0x1000, nil, tc.translate); a2 != a {
		t.Fatal("re-entry returned a different block")
	}
	if _, err := c.Enter(0x2000, nil, tc.translate); err != nil {
		t.Fatal(err)
	}
	if a3, _ := c.Enter(0x1000, nil, tc.translate); a3 != a {
		t.Fatal("map lookup returned a different block")
	}
	if tc.calls != 2 {
		t.Fatalf("translate ran %d times, want 2", tc.calls)
	}
	if st := c.ChainStats(); st != (ChainStats{Blocks: 2, Misses: 4}) {
		t.Fatalf("stats = %+v, want Blocks=2 Misses=4", st)
	}
	if _, err := c.Enter(0x9000, nil, tc.translate); err != errNoCode {
		t.Fatalf("Enter of untranslatable pc: err = %v, want %v", err, errNoCode)
	}
	if len(c.blocks) != 2 || c.mru != a {
		t.Fatal("failed translation changed the cache")
	}
	if st := c.ChainStats(); st.Misses != 4 {
		t.Fatalf("failed translation counted as a miss: %+v", st)
	}
}

// TestBlockCacheLinks pins the link-slot lifecycle: Chain patches the
// first free slot, Follow serves patched successors as hits, and a third
// successor stays unpatched.
func TestBlockCacheLinks(t *testing.T) {
	tc := newToyCode()
	c := newToyCache()
	a, b := linkedLoop(t, c, tc)
	if a.link0 != b || a.link0pc != 0x2000 || b.link0 != a || b.link0pc != 0x1000 {
		t.Fatalf("loop blocks not mutually linked: a=%p b=%p", a, b)
	}
	for i := 0; i < 10; i++ {
		if c.Follow(a, 0x2000) != b || c.Follow(b, 0x1000) != a {
			t.Fatal("Follow did not take the patched links")
		}
	}
	if st := c.ChainStats(); st != (ChainStats{Blocks: 2, Hits: 20, Misses: 3}) {
		t.Fatalf("stats = %+v, want Blocks=2 Hits=20 Misses=3", st)
	}
	// A second successor of A takes slot 1; a third is entered but not
	// linked, so A keeps the two successors it saw first.
	d, err := c.Chain(a, 0x3000, nil, tc.translate)
	if err != nil {
		t.Fatal(err)
	}
	if a.link1 != d || a.link1pc != 0x3000 || a.link0 != b {
		t.Fatal("second successor did not take link slot 1")
	}
	e, err := c.Chain(a, 0x4000, nil, tc.translate)
	if err != nil {
		t.Fatal(err)
	}
	if e == nil || a.link0 != b || a.link1 != d || c.Follow(a, 0x4000) != nil {
		t.Fatal("third successor was linked")
	}
	if _, err := c.Chain(b, 0x9000, nil, tc.translate); err != errNoCode || b.link1 != nil {
		t.Fatalf("failed Chain: err = %v, link1 = %p; want %v and no link", err, b.link1, errNoCode)
	}
}

// TestBlockCacheInvalidate checks the text-overwrite barrier: every block
// and the MRU are dropped, each live link counts as a break, and the next
// entry translates afresh.
func TestBlockCacheInvalidate(t *testing.T) {
	tc := newToyCode()
	c := newToyCache()
	a, _ := linkedLoop(t, c, tc)
	st := c.ChainStats()
	c.Invalidate()
	if len(c.blocks) != 0 || c.mru != nil || c.mruPC != 0 {
		t.Fatal("Invalidate left state behind")
	}
	if got := c.ChainStats().Breaks; got != st.Breaks+2 {
		t.Fatalf("Breaks = %d, want %d (two severed links)", got, st.Breaks+2)
	}
	calls := tc.calls
	a2, err := c.Enter(0x1000, nil, tc.translate)
	if err != nil {
		t.Fatal(err)
	}
	if a2 == a || tc.calls != calls+1 {
		t.Fatal("entry after Invalidate did not retranslate")
	}
}

// TestBlockCacheResetChains checks the checkpoint-restore primitive:
// links and telemetry are dropped while translated blocks survive, and
// the next entries start a fresh distinct-block generation.
func TestBlockCacheResetChains(t *testing.T) {
	tc := newToyCode()
	c := newToyCache()
	a, b := linkedLoop(t, c, tc)
	c.Follow(a, 0x2000)
	nBlocks := len(c.blocks)
	c.ResetChains()
	if st := c.ChainStats(); st != (ChainStats{}) {
		t.Fatalf("ResetChains left telemetry behind: %+v", st)
	}
	if len(c.blocks) != nBlocks {
		t.Fatalf("ResetChains dropped blocks: %d -> %d", nBlocks, len(c.blocks))
	}
	for pc, blk := range c.blocks {
		if blk.link0 != nil || blk.link1 != nil || blk.link0pc != 0 || blk.link1pc != 0 {
			t.Fatalf("block %#x kept a link after ResetChains", pc)
		}
	}
	calls := tc.calls
	if a2, b2 := linkedLoop(t, c, tc); a2 != a || b2 != b || tc.calls != calls {
		t.Fatal("entries after ResetChains retranslated")
	}
	if st := c.ChainStats(); st != (ChainStats{Blocks: 2, Misses: 3}) {
		t.Fatalf("stats after ResetChains = %+v, want Blocks=2 Misses=3", st)
	}
}

// TestBlockFold checks the census fold against a template scan for every
// prefix length, including the whole block.
func TestBlockFold(t *testing.T) {
	tc := newToyCode()
	c := newToyCache()
	for pc := range tc.recs {
		blk, err := c.Enter(pc, nil, tc.translate)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n <= len(blk.Recs); n++ {
			var got, want ClassCounts
			blk.Fold(&got, n)
			want.AddRecs(blk.Recs[:n])
			if got != want {
				t.Fatalf("block %#x: Fold(%d) = %+v, want %+v", pc, n, got, want)
			}
		}
	}
}
