package cisc

import (
	"fmt"

	"svbench/internal/isa"
)

// maxBlockLen caps a translated basic block. Long straight-line runs are
// split; the tail simply becomes another block keyed by its own entry PC.
const maxBlockLen = 32

// block is a translated basic block: a straight-line run of decoded
// instructions starting at pc, terminated by a control-flow instruction,
// a syscall, or maxBlockLen. All but the last instruction are guaranteed
// straight-line. The decoded instructions, trace templates and lowered
// uops are immutable after construction — execution copies the
// per-instruction TraceRec templates and never writes back. The link
// fields are the one mutable part: a two-entry inline cache of successor
// blocks, patched on the first fully-executed transition and severed by
// InvalidateBlocks and ResetChains (checkpoint restore).
type block struct {
	pc    uint64
	end   uint64 // fall-through PC after the last instruction
	insts []Inst
	recs  []isa.TraceRec
	uops  []uop
	cnt   isa.ClassCounts // static census of recs (whole-block fast-lane add)

	// Superblock links: successor blocks keyed by the architectural next
	// PC observed after this block completed. Two slots cover the common
	// shapes (taken + fall-through of a conditional branch, or a
	// monomorphic call/return target); polymorphic successors beyond two
	// deliberately stay unpatched so a megamorphic indirect jump cannot
	// thrash the cache.
	link0pc uint64
	link1pc uint64
	link0   *block
	link1   *block

	// epoch marks the chain-telemetry generation (DecodeCache.epoch) in
	// which this block was last counted as "entered"; see enterBlock.
	epoch uint64
}

// blockEnds reports whether k terminates a basic block.
func blockEnds(k Kind) bool {
	switch k {
	case KindJE, KindJNE, KindJL, KindJLE, KindJG, KindJGE, KindJB, KindJAE,
		KindJMP, KindCALL, KindCALLr, KindJMPr, KindRET, KindSYSCALL:
		return true
	}
	return false
}

// recTemplate precomputes every TraceRec field that does not depend on
// register, flag or memory state. Dynamic fields (Taken, indirect Target,
// MemAddr, ecall Flags/Seq) stay zero and are filled at execution time.
func recTemplate(pc uint64, in Inst) isa.TraceRec {
	rec := isa.TraceRec{
		PC: pc, Size: in.Size, Class: isa.ClassAlu,
		Src1: isa.NoDep, Src2: isa.NoDep, Dst: isa.NoDep,
		MicroOps: 1,
	}
	next := pc + uint64(in.Size)
	switch in.Kind {
	case KindNOP:
	case KindFENCE:
		rec.Class = isa.ClassFence
	case KindMOVri, KindMOVri32:
		rec.Dst = in.Dst
	case KindMOVrr:
		rec.Src1, rec.Dst = in.Src, in.Dst
	case KindADD, KindSUB, KindAND, KindOR, KindXOR, KindSHL, KindSHR, KindSAR:
		rec.Src1, rec.Src2, rec.Dst = in.Dst, in.Src, in.Dst
	case KindMUL:
		rec.Class = isa.ClassMul
		rec.Src1, rec.Src2, rec.Dst = in.Dst, in.Src, in.Dst
	case KindDIV, KindREM, KindDIVU, KindREMU:
		rec.Class = isa.ClassDiv
		rec.Src1, rec.Src2, rec.Dst = in.Dst, in.Src, in.Dst
	case KindADDri32, KindANDri32, KindORri32, KindXORri32,
		KindSHLri8, KindSHRri8, KindSARri8:
		rec.Src1, rec.Dst = in.Dst, in.Dst
	case KindMULri32:
		rec.Class = isa.ClassMul
		rec.Src1, rec.Dst = in.Dst, in.Dst
	case KindLDB, KindLDBU:
		rec.Class, rec.MemSize = isa.ClassLoad, 1
		rec.Src1, rec.Dst = in.Src, in.Dst
	case KindLDH, KindLDHU:
		rec.Class, rec.MemSize = isa.ClassLoad, 2
		rec.Src1, rec.Dst = in.Src, in.Dst
	case KindLDW, KindLDWU:
		rec.Class, rec.MemSize = isa.ClassLoad, 4
		rec.Src1, rec.Dst = in.Src, in.Dst
	case KindLDQ:
		rec.Class, rec.MemSize = isa.ClassLoad, 8
		rec.Src1, rec.Dst = in.Src, in.Dst
	case KindSTB:
		rec.Class, rec.MemSize = isa.ClassStore, 1
		rec.Src1, rec.Src2 = in.Dst, in.Src
	case KindSTH:
		rec.Class, rec.MemSize = isa.ClassStore, 2
		rec.Src1, rec.Src2 = in.Dst, in.Src
	case KindSTW:
		rec.Class, rec.MemSize = isa.ClassStore, 4
		rec.Src1, rec.Src2 = in.Dst, in.Src
	case KindSTQ:
		rec.Class, rec.MemSize = isa.ClassStore, 8
		rec.Src1, rec.Src2 = in.Dst, in.Src
	case KindCMPrr:
		rec.Src1, rec.Src2, rec.Dst = in.Dst, in.Src, RegFlags
	case KindCMPri32:
		rec.Src1, rec.Dst = in.Dst, RegFlags
	case KindJE, KindJNE, KindJL, KindJLE, KindJG, KindJGE, KindJB, KindJAE:
		rec.Class = isa.ClassBranch
		rec.Src1 = RegFlags
		rec.Target = next + uint64(in.Imm)
	case KindSETE, KindSETNE, KindSETL, KindSETLE, KindSETG, KindSETGE, KindSETB, KindSETAE:
		rec.Src1, rec.Dst = RegFlags, in.Dst
	case KindJMP:
		rec.Class = isa.ClassJump
		rec.Taken = true
		rec.Target = next + uint64(in.Imm)
	case KindCALL:
		rec.Class = isa.ClassCall
		rec.MemSize = 8
		rec.MicroOps = 2
		rec.Src1, rec.Dst = RSP, RSP
		rec.Taken = true
		rec.Target = next + uint64(in.Imm)
	case KindCALLr:
		rec.Class = isa.ClassCall
		rec.MemSize = 8
		rec.MicroOps = 2
		rec.Src1, rec.Src2, rec.Dst = in.Src, RSP, RSP
		rec.Taken = true
	case KindJMPr:
		rec.Class = isa.ClassJump
		rec.Src1 = in.Src
		rec.Taken = true
	case KindRET:
		rec.Class = isa.ClassRet
		rec.MemSize = 8
		rec.MicroOps = 2
		rec.Src1, rec.Dst = RSP, RSP
		rec.Taken = true
	case KindPUSH:
		rec.Class = isa.ClassStore
		rec.MemSize = 8
		rec.MicroOps = 2
		rec.Src1, rec.Src2, rec.Dst = in.Dst, RSP, RSP
	case KindPOP:
		rec.Class = isa.ClassLoad
		rec.MemSize = 8
		rec.MicroOps = 2
		rec.Src1, rec.Dst = RSP, in.Dst
	case KindLEA:
		rec.Src1, rec.Dst = in.Src, in.Dst
	case KindSYSCALL:
		rec.Class = isa.ClassEcall
	}
	return rec
}

// uop is one direct-threaded micro-operation of a translated block: a
// dense handler index plus every operand the handler needs, precomputed
// at translation time so the execution loop is a tight array walk with no
// decode-shaped work (variable-length sizes included) left in it.
// Immediates are pre-extended, shift amounts pre-masked, direct
// branch/call targets and fall-through/return PCs absolute.
type uop struct {
	op  uint8
	dst uint8
	src uint8
	imm int64  // signed immediate: CMPri compare value, fall-through/push PC
	aux uint64 // precomputed: zext immediate, direct target, masked shift amount
	pc  uint64 // this instruction's PC
}

// Direct-threaded handler indices. The space is dense and small so the
// execution switch compiles to a jump table.
const (
	uNOP  uint8 = iota // nop, fence
	uMOVI              // dst = aux (MOVri/MOVri32 folded)
	uMOVrr
	uADDrr
	uSUBrr
	uMULrr
	uDIVrr
	uREMrr
	uDIVUrr
	uREMUrr
	uANDrr
	uORrr
	uXORrr
	uSHLrr
	uSHRrr
	uSARrr
	uADDI // dst op= aux
	uANDI
	uORI
	uXORI
	uMULI
	uSHLI // pre-masked shift amount in aux
	uSHRI
	uSARI
	uLDB // sign-extending loads, addr = src + aux
	uLDH
	uLDW
	uLDBU // zero-extending loads
	uLDHU
	uLDWU
	uLDQ
	uSTB // stores, addr = dst + aux, value src
	uSTH
	uSTW
	uSTQ
	uCMPrr
	uCMPri // compare value in imm
	uSETE
	uSETNE
	uSETL
	uSETLE
	uSETG
	uSETGE
	uSETB
	uSETAE
	uPUSH
	uPOP
	uLEA
	uJMP // pc = aux
	uJE  // taken target in aux, fall-through in imm
	uJNE
	uJL
	uJLE
	uJG
	uJGE
	uJB
	uJAE
	uCALL    // push imm (return PC), pc = aux
	uCALLr   // push imm, pc = src
	uJMPr    // pc = src
	uRET     // pc = pop
	uSYSCALL // fall-through in imm
	uBAD
)

// lowerInst translates one decoded instruction at pc into its uop. The
// lockstep differential tests pin every lowering against Core.Step.
func lowerInst(pc uint64, in Inst) uop {
	next := pc + uint64(in.Size)
	u := uop{dst: in.Dst, src: in.Src, imm: in.Imm, pc: pc}
	switch in.Kind {
	case KindNOP, KindFENCE:
		u.op = uNOP
	case KindMOVri, KindMOVri32:
		u.op, u.aux = uMOVI, uint64(in.Imm)
	case KindMOVrr:
		u.op = uMOVrr
	case KindADD:
		u.op = uADDrr
	case KindSUB:
		u.op = uSUBrr
	case KindMUL:
		u.op = uMULrr
	case KindDIV:
		u.op = uDIVrr
	case KindREM:
		u.op = uREMrr
	case KindDIVU:
		u.op = uDIVUrr
	case KindREMU:
		u.op = uREMUrr
	case KindAND:
		u.op = uANDrr
	case KindOR:
		u.op = uORrr
	case KindXOR:
		u.op = uXORrr
	case KindSHL:
		u.op = uSHLrr
	case KindSHR:
		u.op = uSHRrr
	case KindSAR:
		u.op = uSARrr
	case KindADDri32:
		u.op, u.aux = uADDI, uint64(in.Imm)
	case KindANDri32:
		u.op, u.aux = uANDI, uint64(in.Imm)
	case KindORri32:
		u.op, u.aux = uORI, uint64(in.Imm)
	case KindXORri32:
		u.op, u.aux = uXORI, uint64(in.Imm)
	case KindMULri32:
		u.op, u.aux = uMULI, uint64(in.Imm)
	case KindSHLri8:
		u.op, u.aux = uSHLI, uint64(in.Imm)&63
	case KindSHRri8:
		u.op, u.aux = uSHRI, uint64(in.Imm)&63
	case KindSARri8:
		u.op, u.aux = uSARI, uint64(in.Imm)&63
	case KindLDB:
		u.op, u.aux = uLDB, uint64(in.Imm)
	case KindLDH:
		u.op, u.aux = uLDH, uint64(in.Imm)
	case KindLDW:
		u.op, u.aux = uLDW, uint64(in.Imm)
	case KindLDBU:
		u.op, u.aux = uLDBU, uint64(in.Imm)
	case KindLDHU:
		u.op, u.aux = uLDHU, uint64(in.Imm)
	case KindLDWU:
		u.op, u.aux = uLDWU, uint64(in.Imm)
	case KindLDQ:
		u.op, u.aux = uLDQ, uint64(in.Imm)
	case KindSTB:
		u.op, u.aux = uSTB, uint64(in.Imm)
	case KindSTH:
		u.op, u.aux = uSTH, uint64(in.Imm)
	case KindSTW:
		u.op, u.aux = uSTW, uint64(in.Imm)
	case KindSTQ:
		u.op, u.aux = uSTQ, uint64(in.Imm)
	case KindCMPrr:
		u.op = uCMPrr
	case KindCMPri32:
		u.op = uCMPri
	case KindSETE:
		u.op = uSETE
	case KindSETNE:
		u.op = uSETNE
	case KindSETL:
		u.op = uSETL
	case KindSETLE:
		u.op = uSETLE
	case KindSETG:
		u.op = uSETG
	case KindSETGE:
		u.op = uSETGE
	case KindSETB:
		u.op = uSETB
	case KindSETAE:
		u.op = uSETAE
	case KindPUSH:
		u.op = uPUSH
	case KindPOP:
		u.op = uPOP
	case KindLEA:
		u.op, u.aux = uLEA, uint64(in.Imm)
	case KindJMP:
		u.op, u.aux = uJMP, next+uint64(in.Imm)
	case KindJE:
		u.op, u.aux, u.imm = uJE, next+uint64(in.Imm), int64(next)
	case KindJNE:
		u.op, u.aux, u.imm = uJNE, next+uint64(in.Imm), int64(next)
	case KindJL:
		u.op, u.aux, u.imm = uJL, next+uint64(in.Imm), int64(next)
	case KindJLE:
		u.op, u.aux, u.imm = uJLE, next+uint64(in.Imm), int64(next)
	case KindJG:
		u.op, u.aux, u.imm = uJG, next+uint64(in.Imm), int64(next)
	case KindJGE:
		u.op, u.aux, u.imm = uJGE, next+uint64(in.Imm), int64(next)
	case KindJB:
		u.op, u.aux, u.imm = uJB, next+uint64(in.Imm), int64(next)
	case KindJAE:
		u.op, u.aux, u.imm = uJAE, next+uint64(in.Imm), int64(next)
	case KindCALL:
		u.op, u.aux, u.imm = uCALL, next+uint64(in.Imm), int64(next)
	case KindCALLr:
		u.op, u.imm = uCALLr, int64(next)
	case KindJMPr:
		u.op = uJMPr
	case KindRET:
		u.op = uRET
	case KindSYSCALL:
		u.op, u.imm = uSYSCALL, int64(next)
	default:
		u.op = uBAD
	}
	return u
}

// blockAt returns the translated block entered at pc, building it on first
// use. A decode failure at the entry instruction is an error; a failure
// deeper in the run just ends the block early (the error surfaces if and
// when execution actually reaches that address).
func (d *DecodeCache) blockAt(pc uint64, mem *isa.Mem) (*block, error) {
	if d.mruB != nil && d.mruBPC == pc {
		return d.mruB, nil
	}
	if b, ok := d.blocks[pc]; ok {
		d.mruBPC, d.mruB = pc, b
		return b, nil
	}
	b := &block{pc: pc}
	p := pc
	for len(b.insts) < maxBlockLen {
		in, err := d.lookup(p, mem)
		if err != nil {
			if len(b.insts) == 0 {
				return nil, err
			}
			break
		}
		b.insts = append(b.insts, in)
		b.recs = append(b.recs, recTemplate(p, in))
		b.uops = append(b.uops, lowerInst(p, in))
		p += uint64(in.Size)
		if blockEnds(in.Kind) {
			break
		}
	}
	b.end = p
	b.cnt.AddRecs(b.recs)
	d.blocks[pc] = b
	d.mruBPC, d.mruB = pc, b
	return b, nil
}

// enterBlock resolves the block entered at pc through the entry-PC map —
// a chain miss — and maintains the telemetry separating map entries from
// link-followed transitions. Distinct-block accounting piggybacks here:
// after ResetChains every link is severed, so the first post-reset entry
// into any block necessarily comes through this path and the per-block
// epoch mark counts it exactly once.
func (d *DecodeCache) enterBlock(pc uint64, mem *isa.Mem) (*block, error) {
	b, err := d.blockAt(pc, mem)
	if err != nil {
		return nil, err
	}
	d.chainMisses++
	if b.epoch != d.epoch {
		b.epoch = d.epoch
		d.blocksUsed++
	}
	return b, nil
}

// StepN executes up to max instructions through the block cache. With a
// non-nil out it appends one TraceRec per retired instruction; with nil
// out it takes the no-trace lane and builds no records at all. It returns
// after the block boundary that follows any syscall so the machine can
// poll hook-side effects with single-step granularity.
//
// Steady-state execution never touches the entry-PC map: after a block
// runs to completion with budget remaining, the next block is resolved
// through the superblock link slots, trained on the first transition. A
// block truncated by the budget neither follows nor patches a link — the
// next StepN call re-enters through the map — so chain shape never
// depends on where quantum boundaries fall.
func (c *Core) StepN(max int, out []isa.TraceRec) (int, []isa.TraceRec, error) {
	if max <= 0 {
		return 0, out, nil
	}
	d := c.Dec
	b, err := d.enterBlock(c.pc, c.Mem)
	if err != nil {
		return 0, out, err
	}
	total := 0
	for {
		var n int
		var stop bool
		if out != nil {
			n, out, stop, err = c.stepBlockTrace(b, max-total, out)
		} else {
			n, stop, err = c.stepBlockFast(b, max-total)
		}
		total += n
		if err != nil || stop || total >= max {
			return total, out, err
		}
		pc := c.pc
		if b.link0pc == pc && b.link0 != nil {
			d.chainHits++
			b = b.link0
			continue
		}
		if b.link1pc == pc && b.link1 != nil {
			d.chainHits++
			b = b.link1
			continue
		}
		nb, err := d.enterBlock(pc, c.Mem)
		if err != nil {
			return total, out, err
		}
		if b.link0 == nil {
			b.link0pc, b.link0 = pc, nb
		} else if b.link1 == nil {
			b.link1pc, b.link1 = pc, nb
		}
		b = nb
	}
}

// stepBlockTrace executes up to max instructions of b, appending trace
// records built from the block's templates. stop reports that a syscall
// was executed and control must return to the driver. The semantics of
// every case mirror Core.Step exactly; the lockstep differential and fuzz
// tests pin the equivalence.
//
// Retired-instruction accounting is batched: c.nInstr is folded once at
// each exit (and just before a syscall hook runs, which observes the
// count) instead of per instruction.
func (c *Core) stepBlockTrace(b *block, max int, out []isa.TraceRec) (int, []isa.TraceRec, bool, error) {
	r := &c.Regs
	n := len(b.uops)
	full := n <= max
	if !full {
		n = max
	}
	// Append the whole run of template records in one shot, then patch the
	// dynamic fields in place while executing — one bulk copy instead of a
	// copy-then-append pair per instruction. Paths that retire fewer than n
	// instructions truncate back to what actually ran.
	base := len(out)
	out = append(out, b.recs[:n]...)
	ring := c.DebugRing != nil
	uops := b.uops[:n]
	for i := range uops {
		u := &uops[i]
		if ring {
			c.ringPush(u.pc)
		}
		switch u.op {
		case uNOP:
		case uMOVI:
			r[u.dst] = u.aux
		case uMOVrr:
			r[u.dst] = r[u.src]
		case uADDrr:
			r[u.dst] += r[u.src]
		case uSUBrr:
			r[u.dst] -= r[u.src]
		case uMULrr:
			r[u.dst] *= r[u.src]
		case uDIVrr:
			r[u.dst] = uint64(divS(int64(r[u.dst]), int64(r[u.src])))
		case uREMrr:
			r[u.dst] = uint64(remS(int64(r[u.dst]), int64(r[u.src])))
		case uDIVUrr:
			r[u.dst] = divU(r[u.dst], r[u.src])
		case uREMUrr:
			r[u.dst] = remU(r[u.dst], r[u.src])
		case uANDrr:
			r[u.dst] &= r[u.src]
		case uORrr:
			r[u.dst] |= r[u.src]
		case uXORrr:
			r[u.dst] ^= r[u.src]
		case uSHLrr:
			r[u.dst] <<= r[u.src] & 63
		case uSHRrr:
			r[u.dst] >>= r[u.src] & 63
		case uSARrr:
			r[u.dst] = uint64(int64(r[u.dst]) >> (r[u.src] & 63))
		case uADDI:
			r[u.dst] += u.aux
		case uANDI:
			r[u.dst] &= u.aux
		case uORI:
			r[u.dst] |= u.aux
		case uXORI:
			r[u.dst] ^= u.aux
		case uMULI:
			r[u.dst] *= u.aux
		case uSHLI:
			r[u.dst] <<= u.aux
		case uSHRI:
			r[u.dst] >>= u.aux
		case uSARI:
			r[u.dst] = uint64(int64(r[u.dst]) >> u.aux)
		case uLDB:
			addr := r[u.src] + u.aux
			r[u.dst] = isa.SignExtend(c.Mem.Load8(addr), 1)
			out[base+i].MemAddr = addr
		case uLDH:
			addr := r[u.src] + u.aux
			r[u.dst] = isa.SignExtend(c.Mem.Load16(addr), 2)
			out[base+i].MemAddr = addr
		case uLDW:
			addr := r[u.src] + u.aux
			r[u.dst] = isa.SignExtend(c.Mem.Load32(addr), 4)
			out[base+i].MemAddr = addr
		case uLDBU:
			addr := r[u.src] + u.aux
			r[u.dst] = c.Mem.Load8(addr)
			out[base+i].MemAddr = addr
		case uLDHU:
			addr := r[u.src] + u.aux
			r[u.dst] = c.Mem.Load16(addr)
			out[base+i].MemAddr = addr
		case uLDWU:
			addr := r[u.src] + u.aux
			r[u.dst] = c.Mem.Load32(addr)
			out[base+i].MemAddr = addr
		case uLDQ:
			addr := r[u.src] + u.aux
			r[u.dst] = c.Mem.Load64(addr)
			out[base+i].MemAddr = addr
		case uSTB:
			addr := r[u.dst] + u.aux
			c.Mem.Store8(addr, r[u.src])
			out[base+i].MemAddr = addr
		case uSTH:
			addr := r[u.dst] + u.aux
			c.Mem.Store16(addr, r[u.src])
			out[base+i].MemAddr = addr
		case uSTW:
			addr := r[u.dst] + u.aux
			c.Mem.Store32(addr, r[u.src])
			out[base+i].MemAddr = addr
		case uSTQ:
			addr := r[u.dst] + u.aux
			c.Mem.Store64(addr, r[u.src])
			out[base+i].MemAddr = addr
		case uCMPrr:
			c.flagA, c.flagB = int64(r[u.dst]), int64(r[u.src])
		case uCMPri:
			c.flagA, c.flagB = int64(r[u.dst]), u.imm
		case uSETE:
			r[u.dst] = b2u(c.flagA == c.flagB)
		case uSETNE:
			r[u.dst] = b2u(c.flagA != c.flagB)
		case uSETL:
			r[u.dst] = b2u(c.flagA < c.flagB)
		case uSETLE:
			r[u.dst] = b2u(c.flagA <= c.flagB)
		case uSETG:
			r[u.dst] = b2u(c.flagA > c.flagB)
		case uSETGE:
			r[u.dst] = b2u(c.flagA >= c.flagB)
		case uSETB:
			r[u.dst] = b2u(uint64(c.flagA) < uint64(c.flagB))
		case uSETAE:
			r[u.dst] = b2u(uint64(c.flagA) >= uint64(c.flagB))
		case uPUSH:
			r[RSP] -= 8
			c.Mem.Store64(r[RSP], r[u.dst])
			out[base+i].MemAddr = r[RSP]
		case uPOP:
			r[u.dst] = c.Mem.Load64(r[RSP])
			out[base+i].MemAddr = r[RSP]
			r[RSP] += 8
		case uLEA:
			r[u.dst] = r[u.src] + u.aux
		case uJMP:
			c.pc = u.aux
			c.nInstr += uint64(i + 1)
			return i + 1, out, false, nil
		case uJE:
			if c.flagA == c.flagB {
				c.pc = u.aux
				out[base+i].Taken = true
			} else {
				c.pc = uint64(u.imm)
			}
			c.nInstr += uint64(i + 1)
			return i + 1, out, false, nil
		case uJNE:
			if c.flagA != c.flagB {
				c.pc = u.aux
				out[base+i].Taken = true
			} else {
				c.pc = uint64(u.imm)
			}
			c.nInstr += uint64(i + 1)
			return i + 1, out, false, nil
		case uJL:
			if c.flagA < c.flagB {
				c.pc = u.aux
				out[base+i].Taken = true
			} else {
				c.pc = uint64(u.imm)
			}
			c.nInstr += uint64(i + 1)
			return i + 1, out, false, nil
		case uJLE:
			if c.flagA <= c.flagB {
				c.pc = u.aux
				out[base+i].Taken = true
			} else {
				c.pc = uint64(u.imm)
			}
			c.nInstr += uint64(i + 1)
			return i + 1, out, false, nil
		case uJG:
			if c.flagA > c.flagB {
				c.pc = u.aux
				out[base+i].Taken = true
			} else {
				c.pc = uint64(u.imm)
			}
			c.nInstr += uint64(i + 1)
			return i + 1, out, false, nil
		case uJGE:
			if c.flagA >= c.flagB {
				c.pc = u.aux
				out[base+i].Taken = true
			} else {
				c.pc = uint64(u.imm)
			}
			c.nInstr += uint64(i + 1)
			return i + 1, out, false, nil
		case uJB:
			if uint64(c.flagA) < uint64(c.flagB) {
				c.pc = u.aux
				out[base+i].Taken = true
			} else {
				c.pc = uint64(u.imm)
			}
			c.nInstr += uint64(i + 1)
			return i + 1, out, false, nil
		case uJAE:
			if uint64(c.flagA) >= uint64(c.flagB) {
				c.pc = u.aux
				out[base+i].Taken = true
			} else {
				c.pc = uint64(u.imm)
			}
			c.nInstr += uint64(i + 1)
			return i + 1, out, false, nil
		case uCALL:
			r[RSP] -= 8
			c.Mem.Store64(r[RSP], uint64(u.imm))
			out[base+i].MemAddr = r[RSP]
			c.pc = u.aux
			c.nInstr += uint64(i + 1)
			return i + 1, out, false, nil
		case uCALLr:
			tgt := r[u.src]
			r[RSP] -= 8
			c.Mem.Store64(r[RSP], uint64(u.imm))
			out[base+i].MemAddr = r[RSP]
			c.pc = tgt
			out[base+i].Target = tgt
			c.nInstr += uint64(i + 1)
			return i + 1, out, false, nil
		case uJMPr:
			c.pc = r[u.src]
			out[base+i].Target = c.pc
			c.nInstr += uint64(i + 1)
			return i + 1, out, false, nil
		case uRET:
			t := c.Mem.Load64(r[RSP])
			out[base+i].MemAddr = r[RSP]
			r[RSP] += 8
			c.pc = t
			out[base+i].Target = t
			c.nInstr += uint64(i + 1)
			return i + 1, out, false, nil
		case uSYSCALL:
			c.pc = u.pc
			c.nInstr += uint64(i)
			if c.Hook == nil {
				return i, out[:base+i], true, fmt.Errorf("cisc: syscall with no hook at pc=%#x", u.pc)
			}
			rec := &out[base+i]
			c.inflight = rec
			res := c.Hook(c)
			c.inflight = nil
			c.nInstr++
			switch res {
			case isa.EcallHandled:
				c.pc = uint64(u.imm)
				return i + 1, out, true, nil
			case isa.EcallVector:
				rec.Target = c.pc
				rec.Taken = true
				return i + 1, out, true, nil
			case isa.EcallBlock:
				c.pc = uint64(u.imm)
				return i + 1, out, true, ErrBlock
			case isa.EcallHalt:
				c.pc = uint64(u.imm)
				return i + 1, out, true, ErrHalt
			}
			return i, out[:base+i], true, fmt.Errorf("cisc: bad ecall result %d", res)
		default:
			c.pc = u.pc
			c.nInstr += uint64(i)
			return i, out[:base+i], true, fmt.Errorf("cisc: unimplemented %s at pc=%#x", b.insts[i].Kind, u.pc)
		}
	}
	c.nInstr += uint64(n)
	if full {
		c.pc = b.end
	} else {
		c.pc = b.uops[n].pc
	}
	return n, out, false, nil
}

// stepBlockFast executes up to max instructions of b without building any
// trace records — the setup-phase and fast-forward lane. Architectural
// effects, retired counts and syscall behavior are identical to
// stepBlockTrace (Annotate is a no-op because no record is in flight,
// matching the single-step path whose records the machine discards in
// this mode). The class census is folded from the block's static totals —
// one whole-block add in the common case, a template prefix scan when the
// run was cut short by the budget or a control transfer.
func (c *Core) stepBlockFast(b *block, max int) (int, bool, error) {
	n, stop, err := c.stepBlockFastInner(b, max)
	if n == len(b.recs) {
		c.classes.Add(b.cnt)
	} else if n > 0 {
		c.classes.AddRecs(b.recs[:n])
	}
	return n, stop, err
}

func (c *Core) stepBlockFastInner(b *block, max int) (int, bool, error) {
	r := &c.Regs
	n := len(b.uops)
	full := n <= max
	if !full {
		n = max
	}
	ring := c.DebugRing != nil
	uops := b.uops[:n]
	for i := range uops {
		u := &uops[i]
		if ring {
			c.ringPush(u.pc)
		}
		switch u.op {
		case uNOP:
		case uMOVI:
			r[u.dst] = u.aux
		case uMOVrr:
			r[u.dst] = r[u.src]
		case uADDrr:
			r[u.dst] += r[u.src]
		case uSUBrr:
			r[u.dst] -= r[u.src]
		case uMULrr:
			r[u.dst] *= r[u.src]
		case uDIVrr:
			r[u.dst] = uint64(divS(int64(r[u.dst]), int64(r[u.src])))
		case uREMrr:
			r[u.dst] = uint64(remS(int64(r[u.dst]), int64(r[u.src])))
		case uDIVUrr:
			r[u.dst] = divU(r[u.dst], r[u.src])
		case uREMUrr:
			r[u.dst] = remU(r[u.dst], r[u.src])
		case uANDrr:
			r[u.dst] &= r[u.src]
		case uORrr:
			r[u.dst] |= r[u.src]
		case uXORrr:
			r[u.dst] ^= r[u.src]
		case uSHLrr:
			r[u.dst] <<= r[u.src] & 63
		case uSHRrr:
			r[u.dst] >>= r[u.src] & 63
		case uSARrr:
			r[u.dst] = uint64(int64(r[u.dst]) >> (r[u.src] & 63))
		case uADDI:
			r[u.dst] += u.aux
		case uANDI:
			r[u.dst] &= u.aux
		case uORI:
			r[u.dst] |= u.aux
		case uXORI:
			r[u.dst] ^= u.aux
		case uMULI:
			r[u.dst] *= u.aux
		case uSHLI:
			r[u.dst] <<= u.aux
		case uSHRI:
			r[u.dst] >>= u.aux
		case uSARI:
			r[u.dst] = uint64(int64(r[u.dst]) >> u.aux)
		case uLDB:
			r[u.dst] = isa.SignExtend(c.Mem.Load8(r[u.src]+u.aux), 1)
		case uLDH:
			r[u.dst] = isa.SignExtend(c.Mem.Load16(r[u.src]+u.aux), 2)
		case uLDW:
			r[u.dst] = isa.SignExtend(c.Mem.Load32(r[u.src]+u.aux), 4)
		case uLDBU:
			r[u.dst] = c.Mem.Load8(r[u.src] + u.aux)
		case uLDHU:
			r[u.dst] = c.Mem.Load16(r[u.src] + u.aux)
		case uLDWU:
			r[u.dst] = c.Mem.Load32(r[u.src] + u.aux)
		case uLDQ:
			r[u.dst] = c.Mem.Load64(r[u.src] + u.aux)
		case uSTB:
			c.Mem.Store8(r[u.dst]+u.aux, r[u.src])
		case uSTH:
			c.Mem.Store16(r[u.dst]+u.aux, r[u.src])
		case uSTW:
			c.Mem.Store32(r[u.dst]+u.aux, r[u.src])
		case uSTQ:
			c.Mem.Store64(r[u.dst]+u.aux, r[u.src])
		case uCMPrr:
			c.flagA, c.flagB = int64(r[u.dst]), int64(r[u.src])
		case uCMPri:
			c.flagA, c.flagB = int64(r[u.dst]), u.imm
		case uSETE:
			r[u.dst] = b2u(c.flagA == c.flagB)
		case uSETNE:
			r[u.dst] = b2u(c.flagA != c.flagB)
		case uSETL:
			r[u.dst] = b2u(c.flagA < c.flagB)
		case uSETLE:
			r[u.dst] = b2u(c.flagA <= c.flagB)
		case uSETG:
			r[u.dst] = b2u(c.flagA > c.flagB)
		case uSETGE:
			r[u.dst] = b2u(c.flagA >= c.flagB)
		case uSETB:
			r[u.dst] = b2u(uint64(c.flagA) < uint64(c.flagB))
		case uSETAE:
			r[u.dst] = b2u(uint64(c.flagA) >= uint64(c.flagB))
		case uPUSH:
			r[RSP] -= 8
			c.Mem.Store64(r[RSP], r[u.dst])
		case uPOP:
			r[u.dst] = c.Mem.Load64(r[RSP])
			r[RSP] += 8
		case uLEA:
			r[u.dst] = r[u.src] + u.aux
		case uJMP:
			c.pc = u.aux
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uJE:
			if c.flagA == c.flagB {
				c.pc = u.aux
			} else {
				c.pc = uint64(u.imm)
			}
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uJNE:
			if c.flagA != c.flagB {
				c.pc = u.aux
			} else {
				c.pc = uint64(u.imm)
			}
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uJL:
			if c.flagA < c.flagB {
				c.pc = u.aux
			} else {
				c.pc = uint64(u.imm)
			}
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uJLE:
			if c.flagA <= c.flagB {
				c.pc = u.aux
			} else {
				c.pc = uint64(u.imm)
			}
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uJG:
			if c.flagA > c.flagB {
				c.pc = u.aux
			} else {
				c.pc = uint64(u.imm)
			}
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uJGE:
			if c.flagA >= c.flagB {
				c.pc = u.aux
			} else {
				c.pc = uint64(u.imm)
			}
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uJB:
			if uint64(c.flagA) < uint64(c.flagB) {
				c.pc = u.aux
			} else {
				c.pc = uint64(u.imm)
			}
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uJAE:
			if uint64(c.flagA) >= uint64(c.flagB) {
				c.pc = u.aux
			} else {
				c.pc = uint64(u.imm)
			}
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uCALL:
			r[RSP] -= 8
			c.Mem.Store64(r[RSP], uint64(u.imm))
			c.pc = u.aux
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uCALLr:
			tgt := r[u.src]
			r[RSP] -= 8
			c.Mem.Store64(r[RSP], uint64(u.imm))
			c.pc = tgt
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uJMPr:
			c.pc = r[u.src]
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uRET:
			c.pc = c.Mem.Load64(r[RSP])
			r[RSP] += 8
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uSYSCALL:
			c.pc = u.pc
			c.nInstr += uint64(i)
			if c.Hook == nil {
				return i, true, fmt.Errorf("cisc: syscall with no hook at pc=%#x", u.pc)
			}
			res := c.Hook(c)
			c.nInstr++
			switch res {
			case isa.EcallHandled:
				c.pc = uint64(u.imm)
				return i + 1, true, nil
			case isa.EcallVector:
				return i + 1, true, nil
			case isa.EcallBlock:
				c.pc = uint64(u.imm)
				return i + 1, true, ErrBlock
			case isa.EcallHalt:
				c.pc = uint64(u.imm)
				return i + 1, true, ErrHalt
			}
			return i, true, fmt.Errorf("cisc: bad ecall result %d", res)
		default:
			c.pc = u.pc
			c.nInstr += uint64(i)
			return i, true, fmt.Errorf("cisc: unimplemented %s at pc=%#x", b.insts[i].Kind, u.pc)
		}
	}
	c.nInstr += uint64(n)
	if full {
		c.pc = b.end
	} else {
		c.pc = b.uops[n].pc
	}
	return n, false, nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
