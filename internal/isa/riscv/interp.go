package riscv

import (
	"fmt"
	"math/bits"

	"svbench/internal/isa"
)

// ErrHalt and ErrBlock alias the shared sentinels so callers can match
// either through this package or through isa.
var (
	ErrHalt  = isa.ErrHalt
	ErrBlock = isa.ErrBlock
)

// SharedText is an immutable pre-decoded view of a text range. Because it
// is never written after PredecodeText returns, one SharedText can back
// the decode caches of any number of concurrently running machines — the
// per-machine DecodeCache stays single-threaded mutable state while the
// common prefix (typically the kernel image, identical across machines of
// one architecture) is decoded exactly once per process.
type SharedText struct {
	base uint64
	ok   []bool
	inst []Inst
}

// PredecodeText decodes every aligned instruction slot of text (loaded at
// base) into an immutable overlay. Slots that do not decode are left
// unset and fall back to the per-machine cache at lookup time.
func PredecodeText(base uint64, text []byte) *SharedText {
	n := len(text) / 4
	st := &SharedText{base: base, ok: make([]bool, n), inst: make([]Inst, n)}
	for i := 0; i < n; i++ {
		w := uint32(text[i*4]) | uint32(text[i*4+1])<<8 |
			uint32(text[i*4+2])<<16 | uint32(text[i*4+3])<<24
		if in, err := Decode(w); err == nil {
			st.inst[i] = in
			st.ok[i] = true
		}
	}
	return st
}

func (s *SharedText) lookup(pc uint64) (Inst, bool) {
	if s == nil || pc < s.base {
		return Inst{}, false
	}
	i := (pc - s.base) >> 2
	if i >= uint64(len(s.ok)) || !s.ok[i] {
		return Inst{}, false
	}
	return s.inst[i], true
}

// DecodeCache caches decoded instructions by address. Program text is
// immutable after load, so entries never invalidate. The cache is shared
// by all cores of a machine, and may be shared by machines whose text is
// identical at every address (gemsys.Machine.ShareDecodeCaches): what it
// holds depends only on the text. It is mutable and unsynchronized, so
// every core and machine using one must run on one goroutine; only the
// read-only SharedText overlay may cross goroutines. Its chain telemetry
// then counts all of them since the last ResetChains by any.
type DecodeCache struct {
	shared *SharedText
	pages  map[uint64]*decPage
	mruK   uint64
	mruV   *decPage

	// Sequential-PC fast path: the page and index that served the last
	// page-path lookup. Straight-line code asks for pc+4 next, which this
	// serves without recomputing the page key or touching the map/MRU.
	seqPC  uint64
	seqPg  *decPage
	seqIdx int

	// Translated basic blocks, superblock links and chain telemetry
	// (see isa.BlockCache; translation and the walker are in block.go).
	isa.BlockCache[uop]
}

type decPage struct {
	ok   [1024]bool
	inst [1024]Inst
}

// NewDecodeCache returns an empty cache.
func NewDecodeCache() *DecodeCache {
	return NewDecodeCacheShared(nil)
}

// NewDecodeCacheShared returns an empty cache backed by an immutable
// pre-decoded overlay (may be nil).
func NewDecodeCacheShared(shared *SharedText) *DecodeCache {
	return &DecodeCache{shared: shared, pages: map[uint64]*decPage{}, BlockCache: isa.NewBlockCache[uop]()}
}

// InvalidateBlocks is the text-overwrite barrier: it drops every
// translated basic block, severing every superblock link (see
// isa.BlockCache.Invalidate), AND every cached decoded instruction.
// Callers that overwrite text must use this. The immutable SharedText
// overlay is not (and must not be) dropped: it only covers the read-only
// program image.
func (d *DecodeCache) InvalidateBlocks() {
	d.Invalidate()
	d.pages = map[uint64]*decPage{}
	d.mruK, d.mruV = 0, nil
	d.seqPC, d.seqPg, d.seqIdx = 0, nil, 0
}

func (d *DecodeCache) lookup(pc uint64, mem *isa.Mem) (Inst, error) {
	// A page cannot be crossed by pc+4 when seqIdx+1 is still in range,
	// so the single compare covers both the page and the slot.
	if d.seqPg != nil && pc == d.seqPC+4 && d.seqIdx+1 < len(d.seqPg.ok) {
		if idx := d.seqIdx + 1; d.seqPg.ok[idx] {
			d.seqPC, d.seqIdx = pc, idx
			return d.seqPg.inst[idx], nil
		}
	}
	if in, ok := d.shared.lookup(pc); ok {
		return in, nil
	}
	key := pc >> 12
	pg := d.mruV
	if d.mruK != key || pg == nil {
		pg = d.pages[key]
		if pg == nil {
			pg = &decPage{}
			d.pages[key] = pg
		}
		d.mruK, d.mruV = key, pg
	}
	idx := (pc & 0xFFF) >> 2
	if pg.ok[idx] {
		d.seqPC, d.seqPg, d.seqIdx = pc, pg, int(idx)
		return pg.inst[idx], nil
	}
	w := uint32(mem.Load(pc, 4))
	in, err := Decode(w)
	if err != nil {
		return Inst{}, fmt.Errorf("riscv: at pc=%#x: %w", pc, err)
	}
	pg.inst[idx] = in
	pg.ok[idx] = true
	d.seqPC, d.seqPg, d.seqIdx = pc, pg, int(idx)
	return in, nil
}

// Core is the RV64IM architectural state of one hardware thread.
type Core struct {
	Regs [32]uint64
	pc   uint64
	Mem  *isa.Mem
	Hook isa.EcallHook
	Dec  *DecodeCache

	nInstr   uint64
	classes  isa.ClassCounts // census of the no-trace lane (see isa.ClassCounts)
	inflight *isa.TraceRec   // record being built during Step (for Annotate)

	// scratch receives the dynamic trace fields the block walker writes in
	// StepN's no-trace lane; nothing reads it.
	scratch [isa.MaxBlockLen]isa.TraceRec

	// DebugRing, when non-nil, records the most recent executed PCs for
	// post-mortem diagnostics.
	DebugRing []uint64
	debugPos  int
}

// DebugPos returns the ring cursor (oldest entry index). It is always in
// [0, len(DebugRing)).
func (c *Core) DebugPos() int { return c.debugPos }

// ringPush records pc in the debug ring with explicit wrap-around: no
// divide in the hot loop and no unbounded cursor.
func (c *Core) ringPush(pc uint64) {
	c.DebugRing[c.debugPos] = pc
	c.debugPos++
	if c.debugPos == len(c.DebugRing) {
		c.debugPos = 0
	}
}

// NewCore returns a core bound to mem with the given decode cache.
func NewCore(mem *isa.Mem, dec *DecodeCache) *Core {
	if dec == nil {
		dec = NewDecodeCache()
	}
	return &Core{Mem: mem, Dec: dec}
}

// Arch reports isa.RV64.
func (c *Core) Arch() isa.Arch { return isa.RV64 }

// PC returns the program counter.
func (c *Core) PC() uint64 { return c.pc }

// SetPC sets the program counter.
func (c *Core) SetPC(pc uint64) { c.pc = pc }

// Arg returns ecall argument i (a0..a5).
func (c *Core) Arg(i int) uint64 { return c.Regs[RegA0+i] }

// SetArg sets ecall argument i.
func (c *Core) SetArg(i int, v uint64) { c.Regs[RegA0+i] = v }

// EcallNum returns a7, the ecall number register.
func (c *Core) EcallNum() uint64 { return c.Regs[RegA7] }

// SetRet sets a0.
func (c *Core) SetRet(v uint64) { c.Regs[RegA0] = v }

// StackPtr returns sp.
func (c *Core) StackPtr() uint64 { return c.Regs[RegSP] }

// SetStackPtr sets sp.
func (c *Core) SetStackPtr(v uint64) { c.Regs[RegSP] = v }

// InstrCount reports retired instructions.
func (c *Core) InstrCount() uint64 { return c.nInstr }

// Classes reports the cumulative class census of the no-trace lane.
func (c *Core) Classes() isa.ClassCounts { return c.classes }

// CallInto redirects execution to a handler at addr; the handler's return
// (jalr x0, 0(ra)) resumes after the current ecall instruction.
func (c *Core) CallInto(addr uint64) {
	c.Regs[RegRA] = c.pc + 4
	c.pc = addr
}

// Annotate sets flags/seq on the instruction currently being executed.
// It may only be called from an ecall hook.
func (c *Core) Annotate(flags uint8, seq uint64) {
	if c.inflight != nil {
		c.inflight.Flags |= flags
		c.inflight.Seq = seq
	}
}

// Snapshot serializes the architectural state.
func (c *Core) Snapshot() []uint64 {
	s := make([]uint64, 34)
	copy(s, c.Regs[:])
	s[32] = c.pc
	s[33] = c.nInstr
	return s
}

// Restore loads state saved by Snapshot.
func (c *Core) Restore(s []uint64) {
	copy(c.Regs[:], s[:32])
	c.pc = s[32]
	c.nInstr = s[33]
}

func (c *Core) set(rd uint8, v uint64) {
	if rd != 0 {
		c.Regs[rd] = v
	}
}

// Step executes one instruction and appends its trace record to out.
func (c *Core) Step(out []isa.TraceRec) ([]isa.TraceRec, error) {
	in, err := c.Dec.lookup(c.pc, c.Mem)
	if err != nil {
		return out, err
	}
	pc := c.pc
	if c.DebugRing != nil {
		c.ringPush(pc)
	}
	rec := isa.TraceRec{
		PC: pc, Size: 4, Class: isa.ClassAlu,
		Src1: isa.NoDep, Src2: isa.NoDep, Dst: isa.NoDep,
		MicroOps: 1,
	}
	next := pc + 4
	r := &c.Regs

	switch in.Kind {
	case KindLUI:
		c.set(in.Rd, uint64(in.Imm<<12))
		rec.Dst = in.Rd
	case KindAUIPC:
		c.set(in.Rd, pc+uint64(in.Imm<<12))
		rec.Dst = in.Rd
	case KindJAL:
		c.set(in.Rd, pc+4)
		next = pc + uint64(in.Imm)
		rec.Dst = in.Rd
		rec.Taken = true
		rec.Target = next
		if in.Rd == RegRA {
			rec.Class = isa.ClassCall
		} else {
			rec.Class = isa.ClassJump
		}
	case KindJALR:
		t := (r[in.Rs1] + uint64(in.Imm)) &^ 1
		c.set(in.Rd, pc+4)
		next = t
		rec.Src1 = in.Rs1
		rec.Dst = in.Rd
		rec.Taken = true
		rec.Target = next
		switch {
		case in.Rd == RegRA:
			rec.Class = isa.ClassCall
		case in.Rd == RegZero && in.Rs1 == RegRA:
			rec.Class = isa.ClassRet
		default:
			rec.Class = isa.ClassJump
		}
	case KindBEQ, KindBNE, KindBLT, KindBGE, KindBLTU, KindBGEU:
		var take bool
		a, b := r[in.Rs1], r[in.Rs2]
		switch in.Kind {
		case KindBEQ:
			take = a == b
		case KindBNE:
			take = a != b
		case KindBLT:
			take = int64(a) < int64(b)
		case KindBGE:
			take = int64(a) >= int64(b)
		case KindBLTU:
			take = a < b
		case KindBGEU:
			take = a >= b
		}
		rec.Class = isa.ClassBranch
		rec.Src1, rec.Src2 = in.Rs1, in.Rs2
		rec.Target = pc + uint64(in.Imm)
		if take {
			next = rec.Target
			rec.Taken = true
		}
	case KindLB, KindLH, KindLW, KindLD, KindLBU, KindLHU, KindLWU:
		addr := r[in.Rs1] + uint64(in.Imm)
		var sz uint8
		var uns bool
		switch in.Kind {
		case KindLB:
			sz = 1
		case KindLH:
			sz = 2
		case KindLW:
			sz = 4
		case KindLD:
			sz = 8
		case KindLBU:
			sz, uns = 1, true
		case KindLHU:
			sz, uns = 2, true
		case KindLWU:
			sz, uns = 4, true
		}
		v := c.Mem.Load(addr, sz)
		if !uns {
			v = isa.SignExtend(v, sz)
		}
		c.set(in.Rd, v)
		rec.Class = isa.ClassLoad
		rec.MemAddr, rec.MemSize = addr, sz
		rec.Src1 = in.Rs1
		rec.Dst = in.Rd
	case KindSB, KindSH, KindSW, KindSD:
		addr := r[in.Rs1] + uint64(in.Imm)
		var sz uint8
		switch in.Kind {
		case KindSB:
			sz = 1
		case KindSH:
			sz = 2
		case KindSW:
			sz = 4
		case KindSD:
			sz = 8
		}
		c.Mem.Store(addr, sz, r[in.Rs2])
		rec.Class = isa.ClassStore
		rec.MemAddr, rec.MemSize = addr, sz
		rec.Src1, rec.Src2 = in.Rs1, in.Rs2
	case KindADDI:
		c.set(in.Rd, r[in.Rs1]+uint64(in.Imm))
		rec.Src1, rec.Dst = in.Rs1, in.Rd
	case KindADDIW:
		c.set(in.Rd, uint64(int64(int32(r[in.Rs1]+uint64(in.Imm)))))
		rec.Src1, rec.Dst = in.Rs1, in.Rd
	case KindSLTI:
		c.set(in.Rd, b2u(int64(r[in.Rs1]) < in.Imm))
		rec.Src1, rec.Dst = in.Rs1, in.Rd
	case KindSLTIU:
		c.set(in.Rd, b2u(r[in.Rs1] < uint64(in.Imm)))
		rec.Src1, rec.Dst = in.Rs1, in.Rd
	case KindXORI:
		c.set(in.Rd, r[in.Rs1]^uint64(in.Imm))
		rec.Src1, rec.Dst = in.Rs1, in.Rd
	case KindORI:
		c.set(in.Rd, r[in.Rs1]|uint64(in.Imm))
		rec.Src1, rec.Dst = in.Rs1, in.Rd
	case KindANDI:
		c.set(in.Rd, r[in.Rs1]&uint64(in.Imm))
		rec.Src1, rec.Dst = in.Rs1, in.Rd
	case KindSLLI:
		c.set(in.Rd, r[in.Rs1]<<uint64(in.Imm))
		rec.Src1, rec.Dst = in.Rs1, in.Rd
	case KindSRLI:
		c.set(in.Rd, r[in.Rs1]>>uint64(in.Imm))
		rec.Src1, rec.Dst = in.Rs1, in.Rd
	case KindSRAI:
		c.set(in.Rd, uint64(int64(r[in.Rs1])>>uint64(in.Imm)))
		rec.Src1, rec.Dst = in.Rs1, in.Rd
	case KindADD:
		c.set(in.Rd, r[in.Rs1]+r[in.Rs2])
		rec.Src1, rec.Src2, rec.Dst = in.Rs1, in.Rs2, in.Rd
	case KindSUB:
		c.set(in.Rd, r[in.Rs1]-r[in.Rs2])
		rec.Src1, rec.Src2, rec.Dst = in.Rs1, in.Rs2, in.Rd
	case KindSLL:
		c.set(in.Rd, r[in.Rs1]<<(r[in.Rs2]&63))
		rec.Src1, rec.Src2, rec.Dst = in.Rs1, in.Rs2, in.Rd
	case KindSLT:
		c.set(in.Rd, b2u(int64(r[in.Rs1]) < int64(r[in.Rs2])))
		rec.Src1, rec.Src2, rec.Dst = in.Rs1, in.Rs2, in.Rd
	case KindSLTU:
		c.set(in.Rd, b2u(r[in.Rs1] < r[in.Rs2]))
		rec.Src1, rec.Src2, rec.Dst = in.Rs1, in.Rs2, in.Rd
	case KindXOR:
		c.set(in.Rd, r[in.Rs1]^r[in.Rs2])
		rec.Src1, rec.Src2, rec.Dst = in.Rs1, in.Rs2, in.Rd
	case KindSRL:
		c.set(in.Rd, r[in.Rs1]>>(r[in.Rs2]&63))
		rec.Src1, rec.Src2, rec.Dst = in.Rs1, in.Rs2, in.Rd
	case KindSRA:
		c.set(in.Rd, uint64(int64(r[in.Rs1])>>(r[in.Rs2]&63)))
		rec.Src1, rec.Src2, rec.Dst = in.Rs1, in.Rs2, in.Rd
	case KindOR:
		c.set(in.Rd, r[in.Rs1]|r[in.Rs2])
		rec.Src1, rec.Src2, rec.Dst = in.Rs1, in.Rs2, in.Rd
	case KindAND:
		c.set(in.Rd, r[in.Rs1]&r[in.Rs2])
		rec.Src1, rec.Src2, rec.Dst = in.Rs1, in.Rs2, in.Rd
	case KindMUL:
		c.set(in.Rd, r[in.Rs1]*r[in.Rs2])
		rec.Class = isa.ClassMul
		rec.Src1, rec.Src2, rec.Dst = in.Rs1, in.Rs2, in.Rd
	case KindMULHU:
		hi, _ := bits.Mul64(r[in.Rs1], r[in.Rs2])
		c.set(in.Rd, hi)
		rec.Class = isa.ClassMul
		rec.Src1, rec.Src2, rec.Dst = in.Rs1, in.Rs2, in.Rd
	case KindDIV:
		c.set(in.Rd, uint64(divS(int64(r[in.Rs1]), int64(r[in.Rs2]))))
		rec.Class = isa.ClassDiv
		rec.Src1, rec.Src2, rec.Dst = in.Rs1, in.Rs2, in.Rd
	case KindDIVU:
		c.set(in.Rd, divU(r[in.Rs1], r[in.Rs2]))
		rec.Class = isa.ClassDiv
		rec.Src1, rec.Src2, rec.Dst = in.Rs1, in.Rs2, in.Rd
	case KindREM:
		c.set(in.Rd, uint64(remS(int64(r[in.Rs1]), int64(r[in.Rs2]))))
		rec.Class = isa.ClassDiv
		rec.Src1, rec.Src2, rec.Dst = in.Rs1, in.Rs2, in.Rd
	case KindREMU:
		c.set(in.Rd, remU(r[in.Rs1], r[in.Rs2]))
		rec.Class = isa.ClassDiv
		rec.Src1, rec.Src2, rec.Dst = in.Rs1, in.Rs2, in.Rd
	case KindECALL:
		rec.Class = isa.ClassEcall
		if c.Hook == nil {
			return out, fmt.Errorf("riscv: ecall with no hook at pc=%#x", pc)
		}
		c.inflight = &rec
		res := c.Hook(c)
		c.inflight = nil
		c.nInstr++
		switch res {
		case isa.EcallHandled:
			c.pc = next
			return append(out, rec), nil
		case isa.EcallVector:
			// CallInto already set pc to the handler; the record's
			// target reflects the redirect for the timing model.
			rec.Target = c.pc
			rec.Taken = true
			return append(out, rec), nil
		case isa.EcallBlock:
			c.pc = next
			return append(out, rec), ErrBlock
		case isa.EcallHalt:
			c.pc = next
			return append(out, rec), ErrHalt
		}
		return out, fmt.Errorf("riscv: bad ecall result %d", res)
	case KindEBREAK:
		return out, fmt.Errorf("riscv: ebreak at pc=%#x", pc)
	case KindFENCE:
		rec.Class = isa.ClassFence
	default:
		return out, fmt.Errorf("riscv: unimplemented %s at pc=%#x", in.Kind, pc)
	}
	c.pc = next
	c.nInstr++
	return append(out, rec), nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func divS(a, b int64) int64 {
	if b == 0 {
		return -1
	}
	if a == -1<<63 && b == -1 {
		return a
	}
	return a / b
}

func remS(a, b int64) int64 {
	if b == 0 {
		return a
	}
	if a == -1<<63 && b == -1 {
		return 0
	}
	return a % b
}

func divU(a, b uint64) uint64 {
	if b == 0 {
		return ^uint64(0)
	}
	return a / b
}

func remU(a, b uint64) uint64 {
	if b == 0 {
		return a
	}
	return a % b
}
