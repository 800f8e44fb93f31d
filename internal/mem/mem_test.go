package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCacheBasics(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", Size: 1024, LineSize: 64, Assoc: 2, HitLatency: 1})
	if r := c.Access(0x0, false); r.Hit {
		t.Fatal("cold cache must miss")
	}
	if r := c.Access(0x0, false); !r.Hit {
		t.Fatal("second access must hit")
	}
	if r := c.Access(0x3F, false); !r.Hit {
		t.Fatal("same line must hit")
	}
	if r := c.Access(0x40, false); r.Hit {
		t.Fatal("next line must miss")
	}
	if c.Stats.Accesses != 4 || c.Stats.Misses != 2 {
		t.Fatalf("stats: %+v", c.Stats)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, 8 sets of 64B lines: addresses 0, 1024, 2048 map to set 0.
	c := NewCache(CacheConfig{Name: "t", Size: 1024, LineSize: 64, Assoc: 2, HitLatency: 1})
	c.Access(0, false)
	c.Access(1024, false)
	c.Access(0, false)    // 0 is now MRU
	c.Access(2048, false) // evicts 1024
	if !c.Probe(0) {
		t.Fatal("0 should survive (MRU)")
	}
	if c.Probe(1024) {
		t.Fatal("1024 should be evicted (LRU)")
	}
	if !c.Probe(2048) {
		t.Fatal("2048 should be resident")
	}
}

func TestCacheWriteback(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", Size: 128, LineSize: 64, Assoc: 1, HitLatency: 1})
	c.Access(0, true) // dirty
	r := c.Access(128, false)
	if !r.Writeback || r.VictimAddr != 0 {
		t.Fatalf("expected writeback of line 0, got %+v", r)
	}
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks=%d", c.Stats.Writebacks)
	}
	// Clean eviction must not write back.
	c.Access(0, false)
	if r := c.Access(128, false); r.Writeback {
		t.Fatal("clean eviction must not write back")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", Size: 1024, LineSize: 64, Assoc: 2, HitLatency: 1})
	c.Access(0x100, true)
	p, d := c.Invalidate(0x100)
	if !p || !d {
		t.Fatalf("invalidate: present=%v dirty=%v", p, d)
	}
	if c.Probe(0x100) {
		t.Fatal("line still present after invalidate")
	}
	if p, _ := c.Invalidate(0x100); p {
		t.Fatal("double invalidate reported present")
	}
}

func TestCacheCapacityOne(t *testing.T) {
	// Degenerate single-line cache: every distinct line must evict.
	c := NewCache(CacheConfig{Name: "t", Size: 64, LineSize: 64, Assoc: 1, HitLatency: 1})
	c.Access(0, false)
	c.Access(64, false)
	if c.Probe(0) {
		t.Fatal("capacity-1 cache retained two lines")
	}
	if !c.Probe(64) {
		t.Fatal("most recent line must be resident")
	}
}

// refCache is a brute-force reference model: a fully explicit LRU list per
// set, used to property-check the production cache.
type refCache struct {
	assoc    int
	nsets    uint64
	lineBits uint
	sets     map[uint64][]uint64 // set -> tags, MRU first
}

func newRefCache(size, lineSize, assoc int) *refCache {
	r := &refCache{assoc: assoc, sets: map[uint64][]uint64{}}
	r.nsets = uint64(size / lineSize / assoc)
	for ls := lineSize; ls > 1; ls >>= 1 {
		r.lineBits++
	}
	return r
}

func (r *refCache) access(addr uint64) bool {
	blk := addr >> r.lineBits
	set, tag := blk%r.nsets, blk/r.nsets
	tags := r.sets[set]
	for i, tg := range tags {
		if tg == tag {
			// Move to front.
			copy(tags[1:i+1], tags[:i])
			tags[0] = tag
			return true
		}
	}
	tags = append([]uint64{tag}, tags...)
	if len(tags) > r.assoc {
		tags = tags[:r.assoc]
	}
	r.sets[set] = tags
	return false
}

// TestNewCacheAllocatesOneLineArray: a cache's lines come from one
// backing array (besides the Cache and its set headers), and each set's
// capacity ends where the next set begins.
func TestNewCacheAllocatesOneLineArray(t *testing.T) {
	cfg := CacheConfig{Name: "t", Size: 64 << 10, LineSize: 64, Assoc: 8, HitLatency: 1}
	if n := testing.AllocsPerRun(10, func() { NewCache(cfg) }); n > 3 {
		t.Fatalf("NewCache made %.0f allocations, want at most 3", n)
	}
	c := NewCache(cfg)
	for i, set := range c.sets {
		if len(set) != cfg.Assoc || cap(set) != cfg.Assoc {
			t.Fatalf("set %d: len %d, cap %d, want %d", i, len(set), cap(set), cfg.Assoc)
		}
	}
}

func TestCacheMatchesReferenceModel(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	f := func() bool {
		sizes := []struct{ size, line, assoc int }{
			{512, 64, 2}, {1024, 32, 4}, {4096, 64, 8}, {64, 64, 1},
		}
		g := sizes[rnd.Intn(len(sizes))]
		c := NewCache(CacheConfig{Name: "p", Size: g.size, LineSize: g.line, Assoc: g.assoc, HitLatency: 1})
		ref := newRefCache(g.size, g.line, g.assoc)
		// A small address space forces heavy conflict traffic.
		for i := 0; i < 2000; i++ {
			addr := uint64(rnd.Intn(8 * g.size))
			hit := c.Access(addr, rnd.Intn(2) == 0).Hit
			want := ref.access(addr)
			if hit != want {
				t.Logf("op %d addr=%#x: cache hit=%v ref=%v (geom %+v)", i, addr, hit, want, g)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDRAMContention(t *testing.T) {
	d := NewDRAM(DRAMConfig{Latency: 100, BusCycle: 10})
	t0 := d.Access(0)
	t1 := d.Access(0) // queued behind the first transfer
	if t0 != 100 {
		t.Fatalf("first access done at %d, want 100", t0)
	}
	if t1 != 110 {
		t.Fatalf("second overlapping access done at %d, want 110", t1)
	}
	// After a long gap there is no queueing.
	t2 := d.Access(10000)
	if t2 != 10100 {
		t.Fatalf("idle access done at %d, want 10100", t2)
	}
}

func TestTLB(t *testing.T) {
	tlb := NewTLB(TLBConfig{Entries: 2, PageBits: 12, MissPenalty: 50})
	if lat := tlb.Access(0x1000); lat != 50 {
		t.Fatalf("cold access latency %d", lat)
	}
	if lat := tlb.Access(0x1FFF); lat != 0 {
		t.Fatalf("same page latency %d", lat)
	}
	tlb.Access(0x2000)
	tlb.Access(0x3000) // evicts page 1 (LRU)
	if lat := tlb.Access(0x1000); lat != 50 {
		t.Fatalf("evicted page should miss, latency %d", lat)
	}
	if tlb.Misses != 4 {
		t.Fatalf("misses=%d want 4", tlb.Misses)
	}
}

// refTLB is the map-based TLB the slot-array TLB replaced, kept as its
// reference model: page -> last-use tick, LRU victim by smallest tick.
type refTLB struct {
	cfg          TLBConfig
	pages        map[uint64]uint64
	tick         uint64
	hits, misses uint64
}

func newRefTLB(cfg TLBConfig) *refTLB {
	return &refTLB{cfg: cfg, pages: map[uint64]uint64{}}
}

// touch mirrors Access (count=true) and Warm (count=false).
func (r *refTLB) touch(addr uint64, count bool) uint64 {
	r.tick++
	page := addr >> r.cfg.PageBits
	if _, ok := r.pages[page]; ok {
		r.pages[page] = r.tick
		if count {
			r.hits++
		}
		return 0
	}
	if count {
		r.misses++
	}
	if len(r.pages) >= r.cfg.Entries {
		var victim uint64
		oldest := ^uint64(0)
		for p, use := range r.pages {
			if use < oldest {
				oldest = use
				victim = p
			}
		}
		delete(r.pages, victim)
	}
	r.pages[page] = r.tick
	if !count {
		return 0
	}
	return r.cfg.MissPenalty
}

func TestTLBMatchesReferenceModel(t *testing.T) {
	rnd := rand.New(rand.NewSource(13))
	for _, entries := range []int{1, 2, 64} {
		cfg := TLBConfig{Entries: entries, PageBits: 12, MissPenalty: 30}
		tlb, ref := NewTLB(cfg), newRefTLB(cfg)
		// Twice as many pages as entries, with a hot subset, so hits,
		// capacity evictions and MRU-slot hits all occur.
		npages := 2 * entries
		for i := 0; i < 20000; i++ {
			page := uint64(rnd.Intn(npages))
			if rnd.Intn(4) != 0 {
				page %= uint64(entries+1)/2 + 1
			}
			addr := page<<12 | uint64(rnd.Intn(4096))
			switch op := rnd.Intn(100); {
			case op < 1:
				tlb.Flush()
				ref.pages = map[uint64]uint64{}
			case op < 25:
				tlb.Warm(addr)
				ref.touch(addr, false)
			default:
				if got, want := tlb.Access(addr), ref.touch(addr, true); got != want {
					t.Fatalf("entries=%d op %d addr=%#x: latency %d, want %d", entries, i, addr, got, want)
				}
			}
			if tlb.Hits != ref.hits || tlb.Misses != ref.misses {
				t.Fatalf("entries=%d op %d: hits/misses %d/%d, want %d/%d",
					entries, i, tlb.Hits, tlb.Misses, ref.hits, ref.misses)
			}
		}
		if tlb.Hits == 0 || tlb.Misses == 0 {
			t.Fatalf("entries=%d: stream exercised only one outcome (%d hits, %d misses)",
				entries, tlb.Hits, tlb.Misses)
		}
	}
}

func TestHierarchyLatencies(t *testing.T) {
	dram := NewDRAM(DRAMConfig{Latency: 200, BusCycle: 16})
	h := NewHierarchy(DefaultHierConfig(), dram)

	// Cold data access goes to DRAM.
	done := h.AccessD(0, 0x8000, false)
	if done < 200 {
		t.Fatalf("cold access completed at %d, expected >= DRAM latency", done)
	}
	// Warm access is an L1 hit.
	done2 := h.AccessD(1000, 0x8000, false)
	if done2-1000 > 10 {
		t.Fatalf("warm access latency %d, want L1-ish", done2-1000)
	}
	if h.L1D.Stats.Misses != 1 || h.L2.Stats.Misses != 1 {
		t.Fatalf("miss counts: l1d=%d l2=%d", h.L1D.Stats.Misses, h.L2.Stats.Misses)
	}
}

func TestCoherenceInvalidation(t *testing.T) {
	dram := NewDRAM(DRAMConfig{})
	h0 := NewHierarchy(DefaultHierConfig(), dram)
	h1 := NewHierarchy(DefaultHierConfig(), dram)
	h0.SetPeer(h1)
	h1.SetPeer(h0)

	// Core 1 reads a line; core 0 writes it; core 1 must reload.
	h1.AccessD(0, 0x4000, false)
	if !h1.L1D.Probe(0x4000) {
		t.Fatal("line not cached on core 1")
	}
	h0.AccessD(100, 0x4000, true)
	if h1.L1D.Probe(0x4000) {
		t.Fatal("peer write did not invalidate core 1's copy")
	}
	if h1.CoherenceInvals == 0 {
		t.Fatal("coherence invalidation not counted")
	}
	// Core 1 reads the dirty remote line: extra transfer latency and the
	// write-back copy moves.
	before := h1.L1D.Stats.Misses
	h1.AccessD(200, 0x4000, false)
	if h1.L1D.Stats.Misses != before+1 {
		t.Fatal("reload after invalidation should miss")
	}
}

func TestHierarchyFlushAndStats(t *testing.T) {
	dram := NewDRAM(DRAMConfig{})
	h := NewHierarchy(DefaultHierConfig(), dram)
	h.AccessD(0, 0x100, true)
	h.FetchI(0, 0x200)
	h.ResetStats()
	if h.L1D.Stats.Accesses != 0 || h.L1I.Stats.Accesses != 0 {
		t.Fatal("stats not reset")
	}
	if !h.L1D.Probe(0x100) {
		t.Fatal("reset-stats must not flush contents")
	}
	h.Flush()
	if h.L1D.Probe(0x100) || h.L1I.Probe(0x200) {
		t.Fatal("flush must empty caches")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, cfg := range []CacheConfig{
		{Name: "badline", Size: 1024, LineSize: 48, Assoc: 2},
		{Name: "badsize", Size: 1000, LineSize: 64, Assoc: 2},
		{Name: "badassoc", Size: 1024, LineSize: 64, Assoc: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", cfg.Name)
				}
			}()
			NewCache(cfg)
		}()
	}
}
