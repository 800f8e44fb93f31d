package cisc

import (
	"fmt"

	"svbench/internal/isa"
)

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
	uBAD     // unimplemented Kind in aux, for the error text
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
		u.op, u.aux = uBAD, uint64(in.Kind)
	}
	return u
}

// translate builds the block entered at pc. A decode failure at the entry
// instruction is an error; a failure deeper in the run just ends the
// block early (the error surfaces if and when execution actually reaches
// that address).
func (d *DecodeCache) translate(pc uint64, mem *isa.Mem) (*isa.Block[uop], error) {
	b := &isa.Block[uop]{}
	p := pc
	for len(b.Uops) < isa.MaxBlockLen {
		in, err := d.lookup(p, mem)
		if err != nil {
			if len(b.Uops) == 0 {
				return nil, err
			}
			break
		}
		b.Recs = append(b.Recs, recTemplate(p, in))
		b.Uops = append(b.Uops, lowerInst(p, in))
		p += uint64(in.Size)
		if blockEnds(in.Kind) {
			break
		}
	}
	b.End = p
	return b, nil
}

// StepN executes up to max instructions through the block cache. With a
// non-nil out it appends one TraceRec per retired instruction; with nil
// out it takes the no-trace lane, whose walker writes the dynamic fields
// into the core's scratch records, which nothing reads, and folds the
// class census instead. It returns after the block boundary that follows
// any syscall so the machine can poll hook-side effects with single-step
// granularity. Blocks are resolved as isa.BlockCache describes: through
// the entry-PC map on entry, through link slots after every block that
// ran to completion.
func (c *Core) StepN(max int, out []isa.TraceRec) (int, []isa.TraceRec, error) {
	if max <= 0 {
		return 0, out, nil
	}
	d := c.Dec
	b, err := d.Enter(c.pc, c.Mem, d.translate)
	if err != nil {
		return 0, out, err
	}
	trace := out != nil
	total := 0
	for {
		// Append the block's run of template records in one shot; the
		// walker patches their dynamic fields in place and StepN truncates
		// back to what actually retired.
		k := min(len(b.Uops), max-total)
		base := len(out)
		dst := c.scratch[:k]
		if trace {
			out = append(out, b.Recs[:k]...)
			dst = out[base:]
		}
		n, stop, err := c.stepBlock(b, dst)
		if trace {
			out = out[:base+n]
		} else {
			b.Fold(&c.classes, n)
		}
		total += n
		if err != nil || stop || total >= max {
			return total, out, err
		}
		if nb := d.Follow(b, c.pc); nb != nil {
			b = nb
			continue
		}
		if b, err = d.Chain(b, c.pc, c.Mem, d.translate); err != nil {
			return total, out, err
		}
	}
}

// stepBlock executes the first len(dst) instructions of b, writing the
// dynamic fields (MemAddr, Taken, indirect Target, and the syscall record
// the hook annotates) into dst, which holds the matching templates or
// scratch. stop reports that a syscall was executed and control must
// return to the driver. The semantics of every case mirror Core.Step
// exactly; the lockstep differential and fuzz tests pin the equivalence.
//
// Retired-instruction accounting is batched: c.nInstr is folded once at
// each exit (and just before a syscall hook runs, which observes the
// count) instead of per instruction.
func (c *Core) stepBlock(b *isa.Block[uop], dst []isa.TraceRec) (int, bool, error) {
	r := &c.Regs
	uops := b.Uops[:len(dst)]
	ring := c.DebugRing != nil
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
			dst[i].MemAddr = addr
		case uLDH:
			addr := r[u.src] + u.aux
			r[u.dst] = isa.SignExtend(c.Mem.Load16(addr), 2)
			dst[i].MemAddr = addr
		case uLDW:
			addr := r[u.src] + u.aux
			r[u.dst] = isa.SignExtend(c.Mem.Load32(addr), 4)
			dst[i].MemAddr = addr
		case uLDBU:
			addr := r[u.src] + u.aux
			r[u.dst] = c.Mem.Load8(addr)
			dst[i].MemAddr = addr
		case uLDHU:
			addr := r[u.src] + u.aux
			r[u.dst] = c.Mem.Load16(addr)
			dst[i].MemAddr = addr
		case uLDWU:
			addr := r[u.src] + u.aux
			r[u.dst] = c.Mem.Load32(addr)
			dst[i].MemAddr = addr
		case uLDQ:
			addr := r[u.src] + u.aux
			r[u.dst] = c.Mem.Load64(addr)
			dst[i].MemAddr = addr
		case uSTB:
			addr := r[u.dst] + u.aux
			c.Mem.Store8(addr, r[u.src])
			dst[i].MemAddr = addr
		case uSTH:
			addr := r[u.dst] + u.aux
			c.Mem.Store16(addr, r[u.src])
			dst[i].MemAddr = addr
		case uSTW:
			addr := r[u.dst] + u.aux
			c.Mem.Store32(addr, r[u.src])
			dst[i].MemAddr = addr
		case uSTQ:
			addr := r[u.dst] + u.aux
			c.Mem.Store64(addr, r[u.src])
			dst[i].MemAddr = addr
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
			dst[i].MemAddr = r[RSP]
		case uPOP:
			r[u.dst] = c.Mem.Load64(r[RSP])
			dst[i].MemAddr = r[RSP]
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
				dst[i].Taken = true
			} else {
				c.pc = uint64(u.imm)
			}
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uJNE:
			if c.flagA != c.flagB {
				c.pc = u.aux
				dst[i].Taken = true
			} else {
				c.pc = uint64(u.imm)
			}
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uJL:
			if c.flagA < c.flagB {
				c.pc = u.aux
				dst[i].Taken = true
			} else {
				c.pc = uint64(u.imm)
			}
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uJLE:
			if c.flagA <= c.flagB {
				c.pc = u.aux
				dst[i].Taken = true
			} else {
				c.pc = uint64(u.imm)
			}
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uJG:
			if c.flagA > c.flagB {
				c.pc = u.aux
				dst[i].Taken = true
			} else {
				c.pc = uint64(u.imm)
			}
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uJGE:
			if c.flagA >= c.flagB {
				c.pc = u.aux
				dst[i].Taken = true
			} else {
				c.pc = uint64(u.imm)
			}
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uJB:
			if uint64(c.flagA) < uint64(c.flagB) {
				c.pc = u.aux
				dst[i].Taken = true
			} else {
				c.pc = uint64(u.imm)
			}
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uJAE:
			if uint64(c.flagA) >= uint64(c.flagB) {
				c.pc = u.aux
				dst[i].Taken = true
			} else {
				c.pc = uint64(u.imm)
			}
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uCALL:
			r[RSP] -= 8
			c.Mem.Store64(r[RSP], uint64(u.imm))
			dst[i].MemAddr = r[RSP]
			c.pc = u.aux
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uCALLr:
			tgt := r[u.src]
			r[RSP] -= 8
			c.Mem.Store64(r[RSP], uint64(u.imm))
			dst[i].MemAddr = r[RSP]
			c.pc = tgt
			dst[i].Target = tgt
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uJMPr:
			c.pc = r[u.src]
			dst[i].Target = c.pc
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uRET:
			t := c.Mem.Load64(r[RSP])
			dst[i].MemAddr = r[RSP]
			r[RSP] += 8
			c.pc = t
			dst[i].Target = t
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uSYSCALL:
			c.pc = u.pc
			c.nInstr += uint64(i)
			if c.Hook == nil {
				return i, true, fmt.Errorf("cisc: syscall with no hook at pc=%#x", u.pc)
			}
			rec := &dst[i]
			c.inflight = rec
			res := c.Hook(c)
			c.inflight = nil
			c.nInstr++
			switch res {
			case isa.EcallHandled:
				c.pc = uint64(u.imm)
				return i + 1, true, nil
			case isa.EcallVector:
				rec.Target = c.pc
				rec.Taken = true
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
			return i, true, fmt.Errorf("cisc: unimplemented %s at pc=%#x", Kind(u.aux), u.pc)
		}
	}
	n := len(uops)
	c.nInstr += uint64(n)
	if n == len(b.Uops) {
		c.pc = b.End
	} else {
		c.pc = b.Uops[n].pc
	}
	return n, false, nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
