package isa

// MaxBlockLen caps a translated basic block. Long straight-line runs are
// split; the tail simply becomes another block keyed by its own entry PC.
const MaxBlockLen = 32

// Block is a translated basic block of one ISA, generic over that ISA's
// lowered micro-op type U: a straight-line run of instructions terminated
// by a control transfer, an environment call, or MaxBlockLen. All but the
// last instruction are guaranteed straight-line. The trace templates and
// uops are immutable after translation — execution copies the
// per-instruction TraceRec templates and never writes back. The link
// fields are the one mutable part: a two-entry inline cache of successor
// blocks, patched on the first fully-executed transition (Chain) and
// severed by Invalidate and ResetChains (checkpoint restore).
type Block[U any] struct {
	End  uint64     // fall-through PC after the last instruction
	Recs []TraceRec // per-instruction templates: every field not set by execution
	Uops []U        // per-instruction lowered micro-ops, walked by the ISA

	cnt ClassCounts // static census of Recs (whole-block Fold)

	// Superblock links: successor blocks keyed by the architectural next
	// PC observed after this block completed. Two slots cover the common
	// shapes (taken + fall-through of a conditional branch, or a
	// monomorphic jump/call/return target); polymorphic successors beyond
	// two deliberately stay unpatched so a megamorphic indirect jump
	// cannot thrash the cache.
	link0pc uint64
	link1pc uint64
	link0   *Block[U]
	link1   *Block[U]

	// epoch marks the chain-telemetry generation (BlockCache.epoch) in
	// which this block was last counted as entered; see Enter.
	epoch uint64
}

// Fold adds the class census of b's first n instructions to cc: the
// block's static total when it ran to completion, a template prefix scan
// when the run was cut short by the budget or an error.
func (b *Block[U]) Fold(cc *ClassCounts, n int) {
	if n == len(b.Recs) {
		cc.Add(b.cnt)
		return
	}
	cc.AddRecs(b.Recs[:n])
}

// BlockCache holds one machine's translated blocks by entry PC together
// with the superblock-chaining telemetry (see ChainStats). Each ISA's
// DecodeCache embeds one; the ISA supplies the translate function that
// builds a block and the walker that executes one.
//
// Steady-state execution never touches the entry-PC map: StepN enters its
// first block through Enter, and after each block that runs to completion
// it resolves the next through Follow, falling back to Chain, which
// enters through the map and patches the link that Follow takes from then
// on. A block cut short by the budget neither follows nor patches a link
// (the next StepN call re-enters through the map), so chain shape never
// depends on where quantum boundaries fall.
type BlockCache[U any] struct {
	blocks map[uint64]*Block[U]
	mruPC  uint64
	mru    *Block[U]

	// Chaining telemetry (see ChainStats). epoch is the current
	// distinct-block accounting generation: a block whose epoch field lags
	// it has not been entered since the last ResetChains. It starts at 1
	// so freshly built blocks (epoch 0) always count.
	hits   uint64
	misses uint64
	breaks uint64
	used   uint64
	epoch  uint64
}

// NewBlockCache returns an empty cache.
func NewBlockCache[U any]() BlockCache[U] {
	return BlockCache[U]{blocks: map[uint64]*Block[U]{}, epoch: 1}
}

// Enter resolves the block entered at pc through the entry-PC map — a
// chain miss — calling translate to build it on first use, and maintains
// the telemetry separating map entries from link-followed transitions. A
// translate error is returned as is and caches nothing. Distinct-block
// accounting piggybacks here: after ResetChains every link is severed, so
// the first post-reset entry into any block necessarily comes through
// this path and the per-block epoch mark counts it exactly once.
func (c *BlockCache[U]) Enter(pc uint64, mem *Mem, translate func(pc uint64, mem *Mem) (*Block[U], error)) (*Block[U], error) {
	b := c.mru
	if b == nil || c.mruPC != pc {
		b = c.blocks[pc]
		if b == nil {
			var err error
			if b, err = translate(pc, mem); err != nil {
				return nil, err
			}
			b.cnt.AddRecs(b.Recs)
			c.blocks[pc] = b
		}
		c.mruPC, c.mru = pc, b
	}
	c.misses++
	if b.epoch != c.epoch {
		b.epoch = c.epoch
		c.used++
	}
	return b, nil
}

// Follow returns the block linked from b for next PC pc, counting a chain
// hit, or nil when neither link slot holds pc. It runs once per executed
// block and is kept small enough to inline into the ISAs' StepN.
func (c *BlockCache[U]) Follow(b *Block[U], pc uint64) *Block[U] {
	if b.link0pc == pc && b.link0 != nil {
		c.hits++
		return b.link0
	}
	if b.link1pc == pc && b.link1 != nil {
		c.hits++
		return b.link1
	}
	return nil
}

// Chain enters the block at pc after b ran to completion and Follow found
// no link for pc, then patches it into b's first free link slot.
func (c *BlockCache[U]) Chain(b *Block[U], pc uint64, mem *Mem, translate func(pc uint64, mem *Mem) (*Block[U], error)) (*Block[U], error) {
	nb, err := c.Enter(pc, mem, translate)
	if err != nil {
		return nil, err
	}
	if b.link0 == nil {
		b.link0pc, b.link0 = pc, nb
	} else if b.link1 == nil {
		b.link1pc, b.link1 = pc, nb
	}
	return nb, nil
}

// Invalidate drops every translated block, which also severs every
// superblock link — a link can only point at a block reachable from the
// dropped map, and execution never holds block pointers across a StepN
// return, so no stale chain can survive. Severed links are counted as
// chain breaks. The ISAs' InvalidateBlocks, the text-overwrite barrier,
// calls this and also drops the decoded instructions.
func (c *BlockCache[U]) Invalidate() {
	for _, b := range c.blocks {
		if b.link0 != nil {
			c.breaks++
		}
		if b.link1 != nil {
			c.breaks++
		}
	}
	c.blocks = map[uint64]*Block[U]{}
	c.mruPC, c.mru = 0, nil
}

// ResetChains severs every superblock link and starts a fresh telemetry
// epoch while keeping the translated blocks themselves. Checkpoint
// restore calls this: blocks survive (the restored image is
// text-identical, so re-translating would only penalize restore-heavy
// callers like the sweep engine) but links must not — with links dropped,
// the first post-restore entry into every block goes through the entry-PC
// map, so chain telemetry after a restore is identical whether the block
// cache was warm (reused machine) or cold (memoized checkpoint into a
// fresh machine), keeping stats exports byte-identical across both.
func (c *BlockCache[U]) ResetChains() {
	for _, b := range c.blocks {
		b.link0, b.link1 = nil, nil
		b.link0pc, b.link1pc = 0, 0
	}
	c.epoch++
	c.hits, c.misses, c.breaks, c.used = 0, 0, 0, 0
}

// ChainStats snapshots the superblock-chaining telemetry accumulated
// since the last ResetChains.
func (c *BlockCache[U]) ChainStats() ChainStats {
	return ChainStats{
		Blocks: c.used,
		Hits:   c.hits,
		Misses: c.misses,
		Breaks: c.breaks,
	}
}
