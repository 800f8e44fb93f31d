package mem

import "svbench/internal/trace"

// DRAMConfig describes the memory channel behind the last-level caches.
type DRAMConfig struct {
	Latency  uint64 // device access latency in CPU cycles
	BusCycle uint64 // channel occupancy per line transfer
}

// DRAM is a single shared memory channel with queueing: overlapping
// requests from both cores serialize on the channel, which is how the
// hotel workloads' L2 miss storms turn into the large cycle counts the
// thesis reports.
type DRAM struct {
	cfg      DRAMConfig
	nextFree uint64
	Accesses uint64
}

// NewDRAM returns a DRAM channel with the given timing.
func NewDRAM(cfg DRAMConfig) *DRAM {
	if cfg.Latency == 0 {
		cfg.Latency = 180
	}
	if cfg.BusCycle == 0 {
		cfg.BusCycle = 16
	}
	return &DRAM{cfg: cfg}
}

// Access issues a line fill at time now and returns its completion time.
func (d *DRAM) Access(now uint64) uint64 {
	d.Accesses++
	start := now
	if d.nextFree > start {
		start = d.nextFree
	}
	d.nextFree = start + d.cfg.BusCycle
	return start + d.cfg.Latency
}

// Reset clears channel occupancy and counters.
func (d *DRAM) Reset() {
	d.nextFree = 0
	d.Accesses = 0
}

// TLBConfig describes a TLB.
type TLBConfig struct {
	Entries     int
	PageBits    uint   // 12 for 4 KiB pages
	MissPenalty uint64 // page-walk cost in cycles (page-walk caches folded in)
}

// TLB is a fully-associative LRU translation buffer. The simulator uses a
// flat physical address space, so the TLB models translation *cost* only.
// Resident pages and their last-use ticks live in two parallel slices of
// Entries slots; every Access and Warm takes a fresh tick, so ticks are
// unique and the least-recently-used victim is unambiguous.
type TLB struct {
	cfg    TLBConfig
	pages  []uint64 // pages[:n] are resident
	used   []uint64 // last-use tick of pages[i]
	n      int
	mru    int // slot of the most recent hit or fill
	tick   uint64
	Hits   uint64
	Misses uint64
}

// NewTLB returns a TLB with the given configuration.
func NewTLB(cfg TLBConfig) *TLB {
	if cfg.Entries == 0 {
		cfg.Entries = 64
	}
	if cfg.PageBits == 0 {
		cfg.PageBits = 12
	}
	if cfg.MissPenalty == 0 {
		cfg.MissPenalty = 30
	}
	return &TLB{cfg: cfg, pages: make([]uint64, cfg.Entries), used: make([]uint64, cfg.Entries)}
}

// touch looks addr's page up, refreshing its last-use tick, and fills it
// on a miss (evicting the LRU page when full). It reports whether the
// page was resident.
func (t *TLB) touch(addr uint64) bool {
	t.tick++
	page := addr >> t.cfg.PageBits
	if t.n > 0 && t.pages[t.mru] == page {
		t.used[t.mru] = t.tick
		return true
	}
	for i, p := range t.pages[:t.n] {
		if p == page {
			t.used[i] = t.tick
			t.mru = i
			return true
		}
	}
	slot := t.n
	if t.n < len(t.pages) {
		t.n++
	} else {
		slot = 0
		for i, u := range t.used {
			if u < t.used[slot] {
				slot = i
			}
		}
	}
	t.pages[slot] = page
	t.used[slot] = t.tick
	t.mru = slot
	return false
}

// Access translates addr, returning the added latency (0 on hit).
func (t *TLB) Access(addr uint64) uint64 {
	if t.touch(addr) {
		t.Hits++
		return 0
	}
	t.Misses++
	return t.cfg.MissPenalty
}

// Warm touches addr's page, updating residency and LRU age exactly as
// Access would but without counting hits/misses or returning a penalty.
func (t *TLB) Warm(addr uint64) { t.touch(addr) }

// Flush empties the TLB.
func (t *TLB) Flush() { t.n = 0 }

// ResetStats zeroes counters.
func (t *TLB) ResetStats() { t.Hits, t.Misses = 0, 0 }

// HierConfig configures one core's cache hierarchy.
type HierConfig struct {
	L1I, L1D, L2 CacheConfig
	ITLB, DTLB   TLBConfig
}

// DefaultHierConfig mirrors Table 4.1 of the thesis.
func DefaultHierConfig() HierConfig {
	return HierConfig{
		L1I:  CacheConfig{Name: "l1i", Size: 32 << 10, LineSize: 64, Assoc: 8, HitLatency: 2},
		L1D:  CacheConfig{Name: "l1d", Size: 32 << 10, LineSize: 64, Assoc: 8, HitLatency: 3},
		L2:   CacheConfig{Name: "l2", Size: 512 << 10, LineSize: 64, Assoc: 4, HitLatency: 14},
		ITLB: TLBConfig{Entries: 64, PageBits: 12, MissPenalty: 24},
		DTLB: TLBConfig{Entries: 64, PageBits: 12, MissPenalty: 30},
	}
}

// Hierarchy is one core's private cache stack (L1I + L1D over a private
// unified L2) attached to the shared DRAM channel.
type Hierarchy struct {
	L1I, L1D, L2 *Cache
	ITLB, DTLB   *TLB
	DRAM         *DRAM
	peer         *Hierarchy
	// CoherenceInvals counts lines invalidated here by peer writes.
	CoherenceInvals uint64

	tr   *trace.Tracer
	core uint8
}

// AttachTracer routes this hierarchy's miss events to tr, stamped with the
// owning core's id. A nil tracer keeps the hot path event-free.
func (h *Hierarchy) AttachTracer(tr *trace.Tracer, core int) {
	h.tr = tr
	h.core = uint8(core)
}

// RegisterStats publishes the hierarchy's counters under prefix (e.g.
// "machine.core1") in the registry. The caches and TLBs keep incrementing
// their own fields; the registry reads the live pointers at dump time.
func (h *Hierarchy) RegisterStats(r *trace.Registry, prefix string) {
	for _, c := range []struct {
		name  string
		cache *Cache
	}{{"l1i", h.L1I}, {"l1d", h.L1D}, {"l2", h.L2}} {
		c := c
		r.Counter(prefix+"."+c.name+".accesses", c.name+" cache accesses", &c.cache.Stats.Accesses)
		r.Counter(prefix+"."+c.name+".misses", c.name+" cache misses", &c.cache.Stats.Misses)
		r.Formula(prefix+"."+c.name+".missRate", c.name+" miss ratio", func() float64 {
			return c.cache.Stats.MissRate()
		})
	}
	r.Counter(prefix+".itlb.misses", "instruction TLB misses", &h.ITLB.Misses)
	r.Counter(prefix+".dtlb.misses", "data TLB misses", &h.DTLB.Misses)
	r.Counter(prefix+".coherence.invals", "lines invalidated by peer writes", &h.CoherenceInvals)
}

// NewHierarchy builds a hierarchy over a shared DRAM channel.
func NewHierarchy(cfg HierConfig, dram *DRAM) *Hierarchy {
	return &Hierarchy{
		L1I:  NewCache(cfg.L1I),
		L1D:  NewCache(cfg.L1D),
		L2:   NewCache(cfg.L2),
		ITLB: NewTLB(cfg.ITLB),
		DTLB: NewTLB(cfg.DTLB),
		DRAM: dram,
	}
}

// SetPeer wires the other core's hierarchy for write-invalidate coherence.
func (h *Hierarchy) SetPeer(p *Hierarchy) { h.peer = p }

// remoteInvalidate drops the line from the peer's caches; returns extra
// latency when a remote dirty copy had to be transferred.
func (h *Hierarchy) remoteInvalidate(addr uint64) uint64 {
	if h.peer == nil {
		return 0
	}
	var extra uint64
	if p, d := h.peer.L1D.Invalidate(addr); p {
		h.peer.CoherenceInvals++
		if d {
			extra = 30 // cache-to-cache transfer of a modified line
		}
	}
	if p, d := h.peer.L2.Invalidate(addr); p {
		h.peer.CoherenceInvals++
		if d && extra == 0 {
			extra = 40
		}
	}
	return extra
}

// FetchI performs an instruction fetch of the line containing addr at time
// now, returning its completion time.
func (h *Hierarchy) FetchI(now uint64, addr uint64) uint64 {
	lat := h.ITLB.Access(addr)
	if lat != 0 && h.tr != nil {
		h.tr.EmitAt(trace.EvTLBMiss, h.core, now, addr, trace.LvlITLB, addr)
	}
	lat += h.L1I.Config().HitLatency
	if r := h.L1I.Access(addr, false); !r.Hit {
		if h.tr != nil {
			h.tr.EmitAt(trace.EvCacheMiss, h.core, now, addr, trace.LvlL1I, addr)
		}
		lat += h.L2.Config().HitLatency
		if r2 := h.L2.Access(addr, false); !r2.Hit {
			if h.tr != nil {
				h.tr.EmitAt(trace.EvCacheMiss, h.core, now, addr, trace.LvlL2, addr)
			}
			done := h.DRAM.Access(now + lat)
			return done
		}
	}
	return now + lat
}

// AccessD performs a data access at time now, returning completion time.
func (h *Hierarchy) AccessD(now uint64, addr uint64, write bool) uint64 {
	lat := h.DTLB.Access(addr)
	if lat != 0 && h.tr != nil {
		h.tr.EmitAt(trace.EvTLBMiss, h.core, now, addr, trace.LvlDTLB, addr)
	}
	lat += h.L1D.Config().HitLatency
	var extra uint64
	if write {
		extra = h.remoteInvalidate(addr)
	}
	r := h.L1D.Access(addr, write)
	if !r.Hit {
		if h.tr != nil {
			h.tr.EmitAt(trace.EvCacheMiss, h.core, now, addr, trace.LvlL1D, addr)
		}
		if !write {
			// A read miss may find the only valid copy dirty in the
			// peer; model the transfer.
			extra += h.remoteInvalidate(addr)
		}
		lat += h.L2.Config().HitLatency
		if r2 := h.L2.Access(addr, write); !r2.Hit {
			if h.tr != nil {
				h.tr.EmitAt(trace.EvCacheMiss, h.core, now, addr, trace.LvlL2, addr)
			}
			done := h.DRAM.Access(now + lat + extra)
			return done
		}
	}
	return now + lat + extra
}

// warmRemoteInvalidate mirrors remoteInvalidate's state transitions (line
// drops in the peer) without bumping coherence counters or returning
// latency.
func (h *Hierarchy) warmRemoteInvalidate(addr uint64) {
	if h.peer == nil {
		return
	}
	h.peer.L1D.Drop(addr)
	h.peer.L2.Drop(addr)
}

// WarmFetchI performs a functional-warming instruction fetch: the ITLB,
// L1I and (on an L1I miss) L2 see the same residency/LRU updates as a
// timed FetchI, but no stats counters move and no latency is modeled.
func (h *Hierarchy) WarmFetchI(addr uint64) {
	h.ITLB.Warm(addr)
	if !h.L1I.Warm(addr, false) {
		h.L2.Warm(addr, false)
	}
}

// WarmAccessD performs a functional-warming data access, mirroring
// AccessD's state transitions (including write-invalidate coherence in the
// peer) at zero modeled latency and with no stats counters.
func (h *Hierarchy) WarmAccessD(addr uint64, write bool) {
	h.DTLB.Warm(addr)
	if write {
		h.warmRemoteInvalidate(addr)
	}
	if !h.L1D.Warm(addr, write) {
		if !write {
			h.warmRemoteInvalidate(addr)
		}
		h.L2.Warm(addr, write)
	}
}

// Flush empties all caches and TLBs (checkpoint restore starts cold, as
// gem5 does when switching CPU models).
func (h *Hierarchy) Flush() {
	h.L1I.Flush()
	h.L1D.Flush()
	h.L2.Flush()
	h.ITLB.Flush()
	h.DTLB.Flush()
}

// ResetStats zeroes all counters without touching contents (the m5
// reset-stats operation).
func (h *Hierarchy) ResetStats() {
	h.L1I.ResetStats()
	h.L1D.ResetStats()
	h.L2.ResetStats()
	h.ITLB.ResetStats()
	h.DTLB.ResetStats()
	h.CoherenceInvals = 0
}
