// Package mem implements the simulated memory hierarchy: set-associative
// write-back caches with LRU replacement, a shared DRAM/bus model with
// queueing contention, TLBs, and a two-core write-invalidate coherence
// scheme. It reproduces the cache organization of the thesis's gem5 setup
// (Table 4.1): per-core 32 KB 8-way L1I and L1D, per-core 512 KB 4-way L2,
// DDR3-class memory behind a shared channel.
package mem

import "fmt"

// CacheConfig describes one cache.
type CacheConfig struct {
	Name       string
	Size       int // bytes
	LineSize   int // bytes, power of two
	Assoc      int
	HitLatency uint64 // cycles
}

// CacheStats counts cache events.
type CacheStats struct {
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
	Invals     uint64
}

// MissRate returns misses/accesses (0 when idle).
func (s CacheStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

// Cache is a set-associative write-back, write-allocate cache.
type Cache struct {
	cfg      CacheConfig
	sets     [][]line
	nsets    uint64
	lineBits uint
	tick     uint64
	Stats    CacheStats
}

// NewCache builds a cache from cfg, validating the geometry.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.LineSize <= 0 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("mem: %s: line size %d not a power of two", cfg.Name, cfg.LineSize))
	}
	if cfg.Assoc <= 0 || cfg.Size%(cfg.LineSize*cfg.Assoc) != 0 {
		panic(fmt.Sprintf("mem: %s: size %d not divisible by assoc*line", cfg.Name, cfg.Size))
	}
	nsets := cfg.Size / cfg.LineSize / cfg.Assoc
	c := &Cache{
		cfg:   cfg,
		sets:  make([][]line, nsets),
		nsets: uint64(nsets),
	}
	// One backing array for every line; capping each set's capacity
	// keeps an append to one set from spilling into the next.
	lines := make([]line, nsets*cfg.Assoc)
	for i := range c.sets {
		lo := i * cfg.Assoc
		c.sets[i] = lines[lo : lo+cfg.Assoc : lo+cfg.Assoc]
	}
	for ls := cfg.LineSize; ls > 1; ls >>= 1 {
		c.lineBits++
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

func (c *Cache) index(addr uint64) (set, tag uint64) {
	blk := addr >> c.lineBits
	return blk % c.nsets, blk / c.nsets
}

// AccessResult describes the outcome of a cache access.
type AccessResult struct {
	Hit        bool
	Writeback  bool   // a dirty victim was evicted
	VictimAddr uint64 // line address of the victim (valid when Writeback)
}

// Access looks up addr, allocating on miss and evicting LRU.
// write marks the line dirty.
func (c *Cache) Access(addr uint64, write bool) AccessResult {
	c.tick++
	c.Stats.Accesses++
	set, tag := c.index(addr)
	lines := c.sets[set]
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			lines[i].lru = c.tick
			if write {
				lines[i].dirty = true
			}
			return AccessResult{Hit: true}
		}
	}
	c.Stats.Misses++
	// Choose victim: invalid line first, else LRU.
	vi := 0
	for i := range lines {
		if !lines[i].valid {
			vi = i
			break
		}
		if lines[i].lru < lines[vi].lru {
			vi = i
		}
	}
	res := AccessResult{}
	if lines[vi].valid && lines[vi].dirty {
		res.Writeback = true
		res.VictimAddr = (lines[vi].tag*c.nsets + set) << c.lineBits
		c.Stats.Writebacks++
	}
	lines[vi] = line{tag: tag, valid: true, dirty: write, lru: c.tick}
	return res
}

// Warm performs a functional-warming access: it updates tags, LRU age and
// dirty bits exactly as Access would, but bumps no statistics counters and
// models no latency. Sampled simulation uses it to keep cache contents hot
// across fast-forwarded regions without perturbing the measured windows.
// It reports whether the line was already resident so callers can decide
// whether the next level would have been touched.
func (c *Cache) Warm(addr uint64, write bool) (hit bool) {
	c.tick++
	set, tag := c.index(addr)
	lines := c.sets[set]
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			lines[i].lru = c.tick
			if write {
				lines[i].dirty = true
			}
			return true
		}
	}
	vi := 0
	for i := range lines {
		if !lines[i].valid {
			vi = i
			break
		}
		if lines[i].lru < lines[vi].lru {
			vi = i
		}
	}
	lines[vi] = line{tag: tag, valid: true, dirty: write, lru: c.tick}
	return false
}

// Drop invalidates the line containing addr without touching stats — the
// functional-warming flavour of Invalidate. It returns whether the line was
// present and dirty so coherence warming can mirror the timed path's state
// transitions.
func (c *Cache) Drop(addr uint64) (present, dirty bool) {
	set, tag := c.index(addr)
	lines := c.sets[set]
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			dirty = lines[i].dirty
			lines[i] = line{}
			return true, dirty
		}
	}
	return false, false
}

// Probe reports whether addr is resident without touching LRU or stats.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	for _, l := range c.sets[set] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Invalidate drops the line containing addr, returning whether it was
// present and dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	set, tag := c.index(addr)
	lines := c.sets[set]
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			dirty = lines[i].dirty
			lines[i] = line{}
			c.Stats.Invals++
			return true, dirty
		}
	}
	return false, false
}

// Flush invalidates the entire cache (cold restart).
func (c *Cache) Flush() {
	for i := range c.sets {
		for j := range c.sets[i] {
			c.sets[i][j] = line{}
		}
	}
}

// ResetStats zeroes the counters without touching contents.
func (c *Cache) ResetStats() { c.Stats = CacheStats{} }

// LineSize returns the cache's line size in bytes.
func (c *Cache) LineSize() int { return c.cfg.LineSize }
