package cisc

import (
	"fmt"

	"svbench/internal/isa"
)

// ErrHalt and ErrBlock alias the shared sentinels so callers can match
// either through this package or through isa.
var (
	ErrHalt  = isa.ErrHalt
	ErrBlock = isa.ErrBlock
)

// SharedText is an immutable pre-decoded view of a text range. It is
// never written after PredecodeText returns, so one SharedText can back
// the decode caches of any number of concurrently running machines; the
// per-machine DecodeCache remains single-threaded mutable state.
type SharedText struct {
	base uint64
	inst []Inst // Kind==KindInvalid means no instruction starts here
}

// PredecodeText decodes an instruction at every byte offset of text
// (loaded at base) into an immutable overlay. Offsets that do not decode
// (mid-instruction bytes, data) are left invalid and fall back to the
// per-machine cache at lookup time.
func PredecodeText(base uint64, text []byte) *SharedText {
	st := &SharedText{base: base, inst: make([]Inst, len(text))}
	for i := range text {
		end := i + 10
		if end > len(text) {
			end = len(text)
		}
		if in, err := Decode(text[i:end]); err == nil {
			st.inst[i] = in
		}
	}
	return st
}

func (s *SharedText) lookup(pc uint64) (Inst, bool) {
	if s == nil || pc < s.base {
		return Inst{}, false
	}
	i := pc - s.base
	if i >= uint64(len(s.inst)) || s.inst[i].Kind == KindInvalid {
		return Inst{}, false
	}
	return s.inst[i], true
}

// DecodeCache caches decoded instructions by byte address. Program text
// is immutable after load, so entries never invalidate. The cache is
// shared by all cores of a machine, and may be shared by machines whose
// text is identical at every address (gemsys.Machine.ShareDecodeCaches):
// what it holds depends only on the text. It is mutable and
// unsynchronized, so every core and machine using one must run on one
// goroutine; only the read-only SharedText overlay may cross goroutines.
// Its chain telemetry then counts all of them since the last ResetChains
// by any.
type DecodeCache struct {
	shared *SharedText
	pages  map[uint64]*decPage
	mruK   uint64
	mruV   *decPage

	// Sequential-PC fast path: the page, address and size of the last
	// page-path hit. Straight-line code asks for pc+size next, which this
	// serves without recomputing the page key or touching the map/MRU.
	seqPC   uint64
	seqSize uint8
	seqKey  uint64
	seqPg   *decPage

	// Translated basic blocks, superblock links and chain telemetry
	// (see isa.BlockCache; translation and the walker are in block.go).
	isa.BlockCache[uop]
}

type decPage struct {
	inst [4096]Inst // Kind==KindInvalid means not yet decoded
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
	d.seqPC, d.seqSize, d.seqKey, d.seqPg = 0, 0, 0, nil
}

func (d *DecodeCache) lookup(pc uint64, mem *isa.Mem) (Inst, error) {
	// Variable-length encodings advance by the previous instruction's
	// size; the page-key compare guards against crossing into a new page.
	if d.seqPg != nil && pc == d.seqPC+uint64(d.seqSize) && pc>>12 == d.seqKey {
		if in := d.seqPg.inst[pc&0xFFF]; in.Kind != KindInvalid {
			d.seqPC, d.seqSize = pc, in.Size
			return in, nil
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
	idx := pc & 0xFFF
	if in := pg.inst[idx]; in.Kind != KindInvalid {
		d.seqPC, d.seqSize, d.seqKey, d.seqPg = pc, in.Size, key, pg
		return in, nil
	}
	end := pc + 10
	if end > uint64(len(mem.Data)) {
		end = uint64(len(mem.Data))
	}
	in, err := Decode(mem.Data[pc:end])
	if err != nil {
		return Inst{}, fmt.Errorf("cisc: at pc=%#x: %w", pc, err)
	}
	pg.inst[idx] = in
	d.seqPC, d.seqSize, d.seqKey, d.seqPg = pc, in.Size, key, pg
	return in, nil
}

// Core is the CISC64 architectural state of one hardware thread.
type Core struct {
	Regs [16]uint64
	pc   uint64
	// Condition flags are modeled by retaining the last comparison's
	// operands and evaluating conditions lazily.
	flagA, flagB int64
	Mem          *isa.Mem
	Hook         isa.EcallHook
	Dec          *DecodeCache

	nInstr   uint64
	classes  isa.ClassCounts // census of the no-trace lane (see isa.ClassCounts)
	inflight *isa.TraceRec

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

// Arch reports isa.CISC64.
func (c *Core) Arch() isa.Arch { return isa.CISC64 }

// PC returns the program counter.
func (c *Core) PC() uint64 { return c.pc }

// SetPC sets the program counter.
func (c *Core) SetPC(pc uint64) { c.pc = pc }

var argRegs = [6]uint8{RDI, RSI, RDX, RCX, R8, R9}

// Arg returns call/ecall argument i.
func (c *Core) Arg(i int) uint64 { return c.Regs[argRegs[i]] }

// SetArg sets call/ecall argument i.
func (c *Core) SetArg(i int, v uint64) { c.Regs[argRegs[i]] = v }

// EcallNum returns RAX, the syscall number register.
func (c *Core) EcallNum() uint64 { return c.Regs[RAX] }

// SetRet sets RAX.
func (c *Core) SetRet(v uint64) { c.Regs[RAX] = v }

// StackPtr returns RSP.
func (c *Core) StackPtr() uint64 { return c.Regs[RSP] }

// SetStackPtr sets RSP.
func (c *Core) SetStackPtr(v uint64) { c.Regs[RSP] = v }

// InstrCount reports retired instructions.
func (c *Core) InstrCount() uint64 { return c.nInstr }

// Classes reports the cumulative class census of the no-trace lane.
func (c *Core) Classes() isa.ClassCounts { return c.classes }

// CallInto redirects execution to a handler at addr, pushing the resume
// address so the handler's RET continues after the current instruction.
func (c *Core) CallInto(addr uint64) {
	c.Regs[RSP] -= 8
	c.Mem.Store(c.Regs[RSP], 8, c.pc+1) // SYSCALL is 1 byte
	c.pc = addr
}

// Annotate sets flags/seq on the in-flight trace record (ecall hooks only).
func (c *Core) Annotate(flags uint8, seq uint64) {
	if c.inflight != nil {
		c.inflight.Flags |= flags
		c.inflight.Seq = seq
	}
}

// Snapshot serializes the architectural state.
func (c *Core) Snapshot() []uint64 {
	s := make([]uint64, 20)
	copy(s, c.Regs[:])
	s[16] = c.pc
	s[17] = uint64(c.flagA)
	s[18] = uint64(c.flagB)
	s[19] = c.nInstr
	return s
}

// Restore loads state saved by Snapshot.
func (c *Core) Restore(s []uint64) {
	copy(c.Regs[:], s[:16])
	c.pc = s[16]
	c.flagA = int64(s[17])
	c.flagB = int64(s[18])
	c.nInstr = s[19]
}

func (c *Core) cond(k Kind) bool {
	a, b := c.flagA, c.flagB
	switch k {
	case KindJE, KindSETE:
		return a == b
	case KindJNE, KindSETNE:
		return a != b
	case KindJL, KindSETL:
		return a < b
	case KindJLE, KindSETLE:
		return a <= b
	case KindJG, KindSETG:
		return a > b
	case KindJGE, KindSETGE:
		return a >= b
	case KindJB, KindSETB:
		return uint64(a) < uint64(b)
	case KindJAE, KindSETAE:
		return uint64(a) >= uint64(b)
	}
	panic("cisc: not a condition: " + k.String())
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
		PC: pc, Size: in.Size, Class: isa.ClassAlu,
		Src1: isa.NoDep, Src2: isa.NoDep, Dst: isa.NoDep,
		MicroOps: 1,
	}
	next := pc + uint64(in.Size)
	r := &c.Regs

	switch in.Kind {
	case KindNOP:
	case KindFENCE:
		rec.Class = isa.ClassFence
	case KindMOVri, KindMOVri32:
		r[in.Dst] = uint64(in.Imm)
		rec.Dst = in.Dst
	case KindMOVrr:
		r[in.Dst] = r[in.Src]
		rec.Src1, rec.Dst = in.Src, in.Dst
	case KindADD:
		r[in.Dst] += r[in.Src]
		rec.Src1, rec.Src2, rec.Dst = in.Dst, in.Src, in.Dst
	case KindSUB:
		r[in.Dst] -= r[in.Src]
		rec.Src1, rec.Src2, rec.Dst = in.Dst, in.Src, in.Dst
	case KindMUL:
		r[in.Dst] *= r[in.Src]
		rec.Class = isa.ClassMul
		rec.Src1, rec.Src2, rec.Dst = in.Dst, in.Src, in.Dst
	case KindDIV:
		r[in.Dst] = uint64(divS(int64(r[in.Dst]), int64(r[in.Src])))
		rec.Class = isa.ClassDiv
		rec.Src1, rec.Src2, rec.Dst = in.Dst, in.Src, in.Dst
	case KindREM:
		r[in.Dst] = uint64(remS(int64(r[in.Dst]), int64(r[in.Src])))
		rec.Class = isa.ClassDiv
		rec.Src1, rec.Src2, rec.Dst = in.Dst, in.Src, in.Dst
	case KindDIVU:
		r[in.Dst] = divU(r[in.Dst], r[in.Src])
		rec.Class = isa.ClassDiv
		rec.Src1, rec.Src2, rec.Dst = in.Dst, in.Src, in.Dst
	case KindREMU:
		r[in.Dst] = remU(r[in.Dst], r[in.Src])
		rec.Class = isa.ClassDiv
		rec.Src1, rec.Src2, rec.Dst = in.Dst, in.Src, in.Dst
	case KindAND:
		r[in.Dst] &= r[in.Src]
		rec.Src1, rec.Src2, rec.Dst = in.Dst, in.Src, in.Dst
	case KindOR:
		r[in.Dst] |= r[in.Src]
		rec.Src1, rec.Src2, rec.Dst = in.Dst, in.Src, in.Dst
	case KindXOR:
		r[in.Dst] ^= r[in.Src]
		rec.Src1, rec.Src2, rec.Dst = in.Dst, in.Src, in.Dst
	case KindSHL:
		r[in.Dst] <<= r[in.Src] & 63
		rec.Src1, rec.Src2, rec.Dst = in.Dst, in.Src, in.Dst
	case KindSHR:
		r[in.Dst] >>= r[in.Src] & 63
		rec.Src1, rec.Src2, rec.Dst = in.Dst, in.Src, in.Dst
	case KindSAR:
		r[in.Dst] = uint64(int64(r[in.Dst]) >> (r[in.Src] & 63))
		rec.Src1, rec.Src2, rec.Dst = in.Dst, in.Src, in.Dst
	case KindADDri32:
		r[in.Dst] += uint64(in.Imm)
		rec.Src1, rec.Dst = in.Dst, in.Dst
	case KindANDri32:
		r[in.Dst] &= uint64(in.Imm)
		rec.Src1, rec.Dst = in.Dst, in.Dst
	case KindORri32:
		r[in.Dst] |= uint64(in.Imm)
		rec.Src1, rec.Dst = in.Dst, in.Dst
	case KindXORri32:
		r[in.Dst] ^= uint64(in.Imm)
		rec.Src1, rec.Dst = in.Dst, in.Dst
	case KindMULri32:
		r[in.Dst] *= uint64(in.Imm)
		rec.Class = isa.ClassMul
		rec.Src1, rec.Dst = in.Dst, in.Dst
	case KindSHLri8:
		r[in.Dst] <<= uint64(in.Imm) & 63
		rec.Src1, rec.Dst = in.Dst, in.Dst
	case KindSHRri8:
		r[in.Dst] >>= uint64(in.Imm) & 63
		rec.Src1, rec.Dst = in.Dst, in.Dst
	case KindSARri8:
		r[in.Dst] = uint64(int64(r[in.Dst]) >> (uint64(in.Imm) & 63))
		rec.Src1, rec.Dst = in.Dst, in.Dst
	case KindLDB, KindLDBU, KindLDH, KindLDHU, KindLDW, KindLDWU, KindLDQ:
		addr := r[in.Src] + uint64(in.Imm)
		var sz uint8
		uns := false
		switch in.Kind {
		case KindLDB:
			sz = 1
		case KindLDBU:
			sz, uns = 1, true
		case KindLDH:
			sz = 2
		case KindLDHU:
			sz, uns = 2, true
		case KindLDW:
			sz = 4
		case KindLDWU:
			sz, uns = 4, true
		case KindLDQ:
			sz, uns = 8, true
		}
		v := c.Mem.Load(addr, sz)
		if !uns {
			v = isa.SignExtend(v, sz)
		}
		r[in.Dst] = v
		rec.Class = isa.ClassLoad
		rec.MemAddr, rec.MemSize = addr, sz
		rec.Src1, rec.Dst = in.Src, in.Dst
	case KindSTB, KindSTH, KindSTW, KindSTQ:
		addr := r[in.Dst] + uint64(in.Imm)
		var sz uint8
		switch in.Kind {
		case KindSTB:
			sz = 1
		case KindSTH:
			sz = 2
		case KindSTW:
			sz = 4
		case KindSTQ:
			sz = 8
		}
		c.Mem.Store(addr, sz, r[in.Src])
		rec.Class = isa.ClassStore
		rec.MemAddr, rec.MemSize = addr, sz
		rec.Src1, rec.Src2 = in.Dst, in.Src
	case KindCMPrr:
		c.flagA, c.flagB = int64(r[in.Dst]), int64(r[in.Src])
		rec.Src1, rec.Src2, rec.Dst = in.Dst, in.Src, RegFlags
	case KindCMPri32:
		c.flagA, c.flagB = int64(r[in.Dst]), in.Imm
		rec.Src1, rec.Dst = in.Dst, RegFlags
	case KindJE, KindJNE, KindJL, KindJLE, KindJG, KindJGE, KindJB, KindJAE:
		rec.Class = isa.ClassBranch
		rec.Src1 = RegFlags
		rec.Target = next + uint64(in.Imm)
		if c.cond(in.Kind) {
			next = rec.Target
			rec.Taken = true
		}
	case KindSETE, KindSETNE, KindSETL, KindSETLE, KindSETG, KindSETGE, KindSETB, KindSETAE:
		if c.cond(in.Kind) {
			r[in.Dst] = 1
		} else {
			r[in.Dst] = 0
		}
		rec.Src1, rec.Dst = RegFlags, in.Dst
	case KindJMP:
		next += uint64(in.Imm)
		rec.Class = isa.ClassJump
		rec.Taken = true
		rec.Target = next
	case KindCALL:
		r[RSP] -= 8
		c.Mem.Store(r[RSP], 8, next)
		rec.Class = isa.ClassCall
		rec.MemAddr, rec.MemSize = r[RSP], 8
		rec.MicroOps = 2
		rec.Src1, rec.Dst = RSP, RSP
		next += uint64(in.Imm)
		rec.Taken = true
		rec.Target = next
	case KindCALLr:
		tgt := r[in.Src]
		r[RSP] -= 8
		c.Mem.Store(r[RSP], 8, next)
		rec.Class = isa.ClassCall
		rec.MemAddr, rec.MemSize = r[RSP], 8
		rec.MicroOps = 2
		rec.Src1, rec.Src2, rec.Dst = in.Src, RSP, RSP
		next = tgt
		rec.Taken = true
		rec.Target = next
	case KindJMPr:
		next = r[in.Src]
		rec.Class = isa.ClassJump
		rec.Src1 = in.Src
		rec.Taken = true
		rec.Target = next
	case KindRET:
		next = c.Mem.Load(r[RSP], 8)
		rec.MemAddr, rec.MemSize = r[RSP], 8
		r[RSP] += 8
		rec.Class = isa.ClassRet
		rec.MicroOps = 2
		rec.Src1, rec.Dst = RSP, RSP
		rec.Taken = true
		rec.Target = next
	case KindPUSH:
		r[RSP] -= 8
		c.Mem.Store(r[RSP], 8, r[in.Dst])
		rec.Class = isa.ClassStore
		rec.MemAddr, rec.MemSize = r[RSP], 8
		rec.MicroOps = 2
		rec.Src1, rec.Src2, rec.Dst = in.Dst, RSP, RSP
	case KindPOP:
		r[in.Dst] = c.Mem.Load(r[RSP], 8)
		rec.MemAddr, rec.MemSize = r[RSP], 8
		r[RSP] += 8
		rec.Class = isa.ClassLoad
		rec.MicroOps = 2
		rec.Src1, rec.Dst = RSP, in.Dst
	case KindLEA:
		r[in.Dst] = r[in.Src] + uint64(in.Imm)
		rec.Src1, rec.Dst = in.Src, in.Dst
	case KindSYSCALL:
		rec.Class = isa.ClassEcall
		if c.Hook == nil {
			return out, fmt.Errorf("cisc: syscall with no hook at pc=%#x", pc)
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
		return out, fmt.Errorf("cisc: bad ecall result %d", res)
	default:
		return out, fmt.Errorf("cisc: unimplemented %s at pc=%#x", in.Kind, pc)
	}
	c.pc = next
	c.nInstr++
	return append(out, rec), nil
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
