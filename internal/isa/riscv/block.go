package riscv

import (
	"fmt"
	"math/bits"

	"svbench/internal/isa"
)

func mulhu(a, b uint64) uint64 {
	hi, _ := bits.Mul64(a, b)
	return hi
}

// maxBlockLen caps a translated basic block. Long straight-line runs are
// split; the tail simply becomes another block keyed by its own entry PC.
const maxBlockLen = 32

// block is a translated basic block: a straight-line run of decoded
// instructions starting at pc, terminated by a control-flow instruction,
// an environment call, or maxBlockLen. All but the last instruction are
// guaranteed straight-line. The decoded instructions, trace templates and
// lowered uops are immutable after construction — execution copies the
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
	// monomorphic jump/return target); polymorphic successors beyond two
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
	case KindJAL, KindJALR, KindBEQ, KindBNE, KindBLT, KindBGE, KindBLTU,
		KindBGEU, KindECALL, KindEBREAK:
		return true
	}
	return false
}

// recTemplate precomputes every TraceRec field that does not depend on
// register or memory state: PC, size, class, register dependences,
// micro-op count, and the targets of direct branches and jumps. Dynamic
// fields (Taken, indirect Target, MemAddr, ecall Flags/Seq) stay zero and
// are filled at execution time.
func recTemplate(pc uint64, in Inst) isa.TraceRec {
	rec := isa.TraceRec{
		PC: pc, Size: 4, Class: isa.ClassAlu,
		Src1: isa.NoDep, Src2: isa.NoDep, Dst: isa.NoDep,
		MicroOps: 1,
	}
	switch in.Kind {
	case KindLUI, KindAUIPC:
		rec.Dst = in.Rd
	case KindJAL:
		rec.Dst = in.Rd
		rec.Taken = true
		rec.Target = pc + uint64(in.Imm)
		if in.Rd == RegRA {
			rec.Class = isa.ClassCall
		} else {
			rec.Class = isa.ClassJump
		}
	case KindJALR:
		rec.Src1, rec.Dst = in.Rs1, in.Rd
		rec.Taken = true
		switch {
		case in.Rd == RegRA:
			rec.Class = isa.ClassCall
		case in.Rd == RegZero && in.Rs1 == RegRA:
			rec.Class = isa.ClassRet
		default:
			rec.Class = isa.ClassJump
		}
	case KindBEQ, KindBNE, KindBLT, KindBGE, KindBLTU, KindBGEU:
		rec.Class = isa.ClassBranch
		rec.Src1, rec.Src2 = in.Rs1, in.Rs2
		rec.Target = pc + uint64(in.Imm)
	case KindLB, KindLBU:
		rec.Class, rec.MemSize = isa.ClassLoad, 1
		rec.Src1, rec.Dst = in.Rs1, in.Rd
	case KindLH, KindLHU:
		rec.Class, rec.MemSize = isa.ClassLoad, 2
		rec.Src1, rec.Dst = in.Rs1, in.Rd
	case KindLW, KindLWU:
		rec.Class, rec.MemSize = isa.ClassLoad, 4
		rec.Src1, rec.Dst = in.Rs1, in.Rd
	case KindLD:
		rec.Class, rec.MemSize = isa.ClassLoad, 8
		rec.Src1, rec.Dst = in.Rs1, in.Rd
	case KindSB:
		rec.Class, rec.MemSize = isa.ClassStore, 1
		rec.Src1, rec.Src2 = in.Rs1, in.Rs2
	case KindSH:
		rec.Class, rec.MemSize = isa.ClassStore, 2
		rec.Src1, rec.Src2 = in.Rs1, in.Rs2
	case KindSW:
		rec.Class, rec.MemSize = isa.ClassStore, 4
		rec.Src1, rec.Src2 = in.Rs1, in.Rs2
	case KindSD:
		rec.Class, rec.MemSize = isa.ClassStore, 8
		rec.Src1, rec.Src2 = in.Rs1, in.Rs2
	case KindADDI, KindADDIW, KindSLTI, KindSLTIU, KindXORI, KindORI,
		KindANDI, KindSLLI, KindSRLI, KindSRAI:
		rec.Src1, rec.Dst = in.Rs1, in.Rd
	case KindADD, KindSUB, KindSLL, KindSLT, KindSLTU, KindXOR, KindSRL,
		KindSRA, KindOR, KindAND:
		rec.Src1, rec.Src2, rec.Dst = in.Rs1, in.Rs2, in.Rd
	case KindMUL, KindMULHU:
		rec.Class = isa.ClassMul
		rec.Src1, rec.Src2, rec.Dst = in.Rs1, in.Rs2, in.Rd
	case KindDIV, KindDIVU, KindREM, KindREMU:
		rec.Class = isa.ClassDiv
		rec.Src1, rec.Src2, rec.Dst = in.Rs1, in.Rs2, in.Rd
	case KindECALL:
		rec.Class = isa.ClassEcall
	case KindFENCE:
		rec.Class = isa.ClassFence
	}
	return rec
}

// uop is one direct-threaded micro-operation of a translated block: a
// dense handler index plus every operand the handler needs, precomputed
// at translation time so the execution loop is a tight array walk with no
// decode-shaped work left in it. Immediates are pre-extended, constant
// results (LUI/AUIPC) and link values (pc+4) are pre-folded, direct
// branch/jump targets are absolute, and writes to x0 are lowered away
// entirely so the hot ALU handlers store unconditionally.
type uop struct {
	op  uint8
	rd  uint8
	rs1 uint8
	rs2 uint8
	imm int64  // signed immediate: SLTI compare value, JAL/JALR target/offset
	aux uint64 // precomputed: zext immediate, constant, link value, branch target
	pc  uint64 // this instruction's PC
}

// Direct-threaded handler indices. The space is dense and small so the
// execution switch compiles to a jump table.
const (
	uNOP   uint8 = iota // fence, and any x0-destination ALU result
	uCONST              // rd = aux (LUI/AUIPC folded)
	uADDI               // rd = rs1 + aux
	uADDIW
	uSLTI // rd = int64(rs1) < imm
	uSLTIU
	uXORI
	uORI
	uANDI
	uSLLI // shift amount in aux
	uSRLI
	uSRAI
	uADD
	uSUB
	uSLL
	uSLT
	uSLTU
	uXOR
	uSRL
	uSRA
	uOR
	uAND
	uMUL
	uMULHU
	uDIV
	uDIVU
	uREM
	uREMU
	uLB // sign-extending loads, addr = rs1 + aux
	uLH
	uLW
	uLD
	uLBU // zero-extending loads
	uLHU
	uLWU
	uLoadX0 // any load with rd=x0: access for the fault, discard; size in rd
	uSB     // stores, addr = rs1 + aux, value rs2
	uSH
	uSW
	uSD
	uJ    // jal x0: pc = imm
	uJAL  // rd = aux (pc+4), pc = imm
	uJR   // jalr x0: pc = (rs1+imm)&^1
	uJALR // rd = aux (pc+4), pc = (rs1+imm)&^1
	uBEQ  // taken target in aux, fall-through pc+4
	uBNE
	uBLT
	uBGE
	uBLTU
	uBGEU
	uECALL
	uEBREAK
	uBAD
)

// lowerInst translates one decoded instruction at pc into its uop. The
// lockstep differential tests pin every lowering against Core.Step.
func lowerInst(pc uint64, in Inst) uop {
	u := uop{rd: in.Rd, rs1: in.Rs1, rs2: in.Rs2, imm: in.Imm, pc: pc}
	zeroDst := in.Rd == RegZero
	switch in.Kind {
	case KindLUI:
		u.op, u.aux = uCONST, uint64(in.Imm<<12)
	case KindAUIPC:
		u.op, u.aux = uCONST, pc+uint64(in.Imm<<12)
	case KindJAL:
		u.op = uJAL
		if zeroDst {
			u.op = uJ
		}
		u.imm = int64(pc + uint64(in.Imm))
		u.aux = pc + 4
	case KindJALR:
		u.op = uJALR
		if zeroDst {
			u.op = uJR
		}
		u.aux = pc + 4
	case KindBEQ:
		u.op, u.aux = uBEQ, pc+uint64(in.Imm)
	case KindBNE:
		u.op, u.aux = uBNE, pc+uint64(in.Imm)
	case KindBLT:
		u.op, u.aux = uBLT, pc+uint64(in.Imm)
	case KindBGE:
		u.op, u.aux = uBGE, pc+uint64(in.Imm)
	case KindBLTU:
		u.op, u.aux = uBLTU, pc+uint64(in.Imm)
	case KindBGEU:
		u.op, u.aux = uBGEU, pc+uint64(in.Imm)
	case KindLB:
		u.op, u.aux = uLB, uint64(in.Imm)
	case KindLH:
		u.op, u.aux = uLH, uint64(in.Imm)
	case KindLW:
		u.op, u.aux = uLW, uint64(in.Imm)
	case KindLD:
		u.op, u.aux = uLD, uint64(in.Imm)
	case KindLBU:
		u.op, u.aux = uLBU, uint64(in.Imm)
	case KindLHU:
		u.op, u.aux = uLHU, uint64(in.Imm)
	case KindLWU:
		u.op, u.aux = uLWU, uint64(in.Imm)
	case KindSB:
		u.op, u.aux = uSB, uint64(in.Imm)
	case KindSH:
		u.op, u.aux = uSH, uint64(in.Imm)
	case KindSW:
		u.op, u.aux = uSW, uint64(in.Imm)
	case KindSD:
		u.op, u.aux = uSD, uint64(in.Imm)
	case KindADDI:
		u.op, u.aux = uADDI, uint64(in.Imm)
	case KindADDIW:
		u.op, u.aux = uADDIW, uint64(in.Imm)
	case KindSLTI:
		u.op = uSLTI
	case KindSLTIU:
		u.op, u.aux = uSLTIU, uint64(in.Imm)
	case KindXORI:
		u.op, u.aux = uXORI, uint64(in.Imm)
	case KindORI:
		u.op, u.aux = uORI, uint64(in.Imm)
	case KindANDI:
		u.op, u.aux = uANDI, uint64(in.Imm)
	case KindSLLI:
		u.op, u.aux = uSLLI, uint64(in.Imm)
	case KindSRLI:
		u.op, u.aux = uSRLI, uint64(in.Imm)
	case KindSRAI:
		u.op, u.aux = uSRAI, uint64(in.Imm)
	case KindADD:
		u.op = uADD
	case KindSUB:
		u.op = uSUB
	case KindSLL:
		u.op = uSLL
	case KindSLT:
		u.op = uSLT
	case KindSLTU:
		u.op = uSLTU
	case KindXOR:
		u.op = uXOR
	case KindSRL:
		u.op = uSRL
	case KindSRA:
		u.op = uSRA
	case KindOR:
		u.op = uOR
	case KindAND:
		u.op = uAND
	case KindMUL:
		u.op = uMUL
	case KindMULHU:
		u.op = uMULHU
	case KindDIV:
		u.op = uDIV
	case KindDIVU:
		u.op = uDIVU
	case KindREM:
		u.op = uREM
	case KindREMU:
		u.op = uREMU
	case KindECALL:
		u.op = uECALL
	case KindEBREAK:
		u.op = uEBREAK
	case KindFENCE:
		u.op = uNOP
	default:
		u.op = uBAD
	}
	// A result written to x0 is architecturally discarded; lower the whole
	// instruction to a NOP (it still retires) so the ALU handlers never
	// need an rd!=0 guard. Loads keep their memory access (it can fault);
	// jumps keep their redirect.
	if zeroDst {
		switch u.op {
		case uCONST, uADDI, uADDIW, uSLTI, uSLTIU, uXORI, uORI,
			uANDI, uSLLI, uSRLI, uSRAI, uADD, uSUB, uSLL, uSLT,
			uSLTU, uXOR, uSRL, uSRA, uOR, uAND, uMUL, uMULHU,
			uDIV, uDIVU, uREM, uREMU:
			u.op = uNOP
		case uLB, uLBU:
			u.op, u.rd = uLoadX0, 1
		case uLH, uLHU:
			u.op, u.rd = uLoadX0, 2
		case uLW, uLWU:
			u.op, u.rd = uLoadX0, 4
		case uLD:
			u.op, u.rd = uLoadX0, 8
		}
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
		if blockEnds(in.Kind) {
			break
		}
		p += 4
	}
	b.end = pc + 4*uint64(len(b.insts))
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
// after the block boundary that follows any environment call so the
// machine can poll hook-side effects with single-step granularity.
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
// records built from the block's templates. stop reports that an
// environment call was executed and control must return to the driver.
// The semantics of every case mirror Core.Step exactly; the lockstep
// differential and fuzz tests pin the equivalence.
//
// Retired-instruction accounting is batched: c.nInstr is folded once at
// each exit (and just before an ecall hook runs, which observes the
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
		case uCONST:
			r[u.rd] = u.aux
		case uADDI:
			r[u.rd] = r[u.rs1] + u.aux
		case uADDIW:
			r[u.rd] = uint64(int64(int32(r[u.rs1] + u.aux)))
		case uSLTI:
			r[u.rd] = b2u(int64(r[u.rs1]) < u.imm)
		case uSLTIU:
			r[u.rd] = b2u(r[u.rs1] < u.aux)
		case uXORI:
			r[u.rd] = r[u.rs1] ^ u.aux
		case uORI:
			r[u.rd] = r[u.rs1] | u.aux
		case uANDI:
			r[u.rd] = r[u.rs1] & u.aux
		case uSLLI:
			r[u.rd] = r[u.rs1] << u.aux
		case uSRLI:
			r[u.rd] = r[u.rs1] >> u.aux
		case uSRAI:
			r[u.rd] = uint64(int64(r[u.rs1]) >> u.aux)
		case uADD:
			r[u.rd] = r[u.rs1] + r[u.rs2]
		case uSUB:
			r[u.rd] = r[u.rs1] - r[u.rs2]
		case uSLL:
			r[u.rd] = r[u.rs1] << (r[u.rs2] & 63)
		case uSLT:
			r[u.rd] = b2u(int64(r[u.rs1]) < int64(r[u.rs2]))
		case uSLTU:
			r[u.rd] = b2u(r[u.rs1] < r[u.rs2])
		case uXOR:
			r[u.rd] = r[u.rs1] ^ r[u.rs2]
		case uSRL:
			r[u.rd] = r[u.rs1] >> (r[u.rs2] & 63)
		case uSRA:
			r[u.rd] = uint64(int64(r[u.rs1]) >> (r[u.rs2] & 63))
		case uOR:
			r[u.rd] = r[u.rs1] | r[u.rs2]
		case uAND:
			r[u.rd] = r[u.rs1] & r[u.rs2]
		case uMUL:
			r[u.rd] = r[u.rs1] * r[u.rs2]
		case uMULHU:
			r[u.rd] = mulhu(r[u.rs1], r[u.rs2])
		case uDIV:
			r[u.rd] = uint64(divS(int64(r[u.rs1]), int64(r[u.rs2])))
		case uDIVU:
			r[u.rd] = divU(r[u.rs1], r[u.rs2])
		case uREM:
			r[u.rd] = uint64(remS(int64(r[u.rs1]), int64(r[u.rs2])))
		case uREMU:
			r[u.rd] = remU(r[u.rs1], r[u.rs2])
		case uLB:
			addr := r[u.rs1] + u.aux
			r[u.rd] = isa.SignExtend(c.Mem.Load8(addr), 1)
			out[base+i].MemAddr = addr
		case uLH:
			addr := r[u.rs1] + u.aux
			r[u.rd] = isa.SignExtend(c.Mem.Load16(addr), 2)
			out[base+i].MemAddr = addr
		case uLW:
			addr := r[u.rs1] + u.aux
			r[u.rd] = isa.SignExtend(c.Mem.Load32(addr), 4)
			out[base+i].MemAddr = addr
		case uLD:
			addr := r[u.rs1] + u.aux
			r[u.rd] = c.Mem.Load64(addr)
			out[base+i].MemAddr = addr
		case uLBU:
			addr := r[u.rs1] + u.aux
			r[u.rd] = c.Mem.Load8(addr)
			out[base+i].MemAddr = addr
		case uLHU:
			addr := r[u.rs1] + u.aux
			r[u.rd] = c.Mem.Load16(addr)
			out[base+i].MemAddr = addr
		case uLWU:
			addr := r[u.rs1] + u.aux
			r[u.rd] = c.Mem.Load32(addr)
			out[base+i].MemAddr = addr
		case uLoadX0:
			addr := r[u.rs1] + u.aux
			c.Mem.Load(addr, u.rd)
			out[base+i].MemAddr = addr
		case uSB:
			addr := r[u.rs1] + u.aux
			c.Mem.Store8(addr, r[u.rs2])
			out[base+i].MemAddr = addr
		case uSH:
			addr := r[u.rs1] + u.aux
			c.Mem.Store16(addr, r[u.rs2])
			out[base+i].MemAddr = addr
		case uSW:
			addr := r[u.rs1] + u.aux
			c.Mem.Store32(addr, r[u.rs2])
			out[base+i].MemAddr = addr
		case uSD:
			addr := r[u.rs1] + u.aux
			c.Mem.Store64(addr, r[u.rs2])
			out[base+i].MemAddr = addr
		case uJ:
			c.pc = uint64(u.imm)
			c.nInstr += uint64(i + 1)
			return i + 1, out, false, nil
		case uJAL:
			r[u.rd] = u.aux
			c.pc = uint64(u.imm)
			c.nInstr += uint64(i + 1)
			return i + 1, out, false, nil
		case uJR:
			c.pc = (r[u.rs1] + uint64(u.imm)) &^ 1
			out[base+i].Target = c.pc
			c.nInstr += uint64(i + 1)
			return i + 1, out, false, nil
		case uJALR:
			t := (r[u.rs1] + uint64(u.imm)) &^ 1
			r[u.rd] = u.aux
			c.pc = t
			out[base+i].Target = t
			c.nInstr += uint64(i + 1)
			return i + 1, out, false, nil
		case uBEQ:
			if r[u.rs1] == r[u.rs2] {
				c.pc = u.aux
				out[base+i].Taken = true
			} else {
				c.pc = u.pc + 4
			}
			c.nInstr += uint64(i + 1)
			return i + 1, out, false, nil
		case uBNE:
			if r[u.rs1] != r[u.rs2] {
				c.pc = u.aux
				out[base+i].Taken = true
			} else {
				c.pc = u.pc + 4
			}
			c.nInstr += uint64(i + 1)
			return i + 1, out, false, nil
		case uBLT:
			if int64(r[u.rs1]) < int64(r[u.rs2]) {
				c.pc = u.aux
				out[base+i].Taken = true
			} else {
				c.pc = u.pc + 4
			}
			c.nInstr += uint64(i + 1)
			return i + 1, out, false, nil
		case uBGE:
			if int64(r[u.rs1]) >= int64(r[u.rs2]) {
				c.pc = u.aux
				out[base+i].Taken = true
			} else {
				c.pc = u.pc + 4
			}
			c.nInstr += uint64(i + 1)
			return i + 1, out, false, nil
		case uBLTU:
			if r[u.rs1] < r[u.rs2] {
				c.pc = u.aux
				out[base+i].Taken = true
			} else {
				c.pc = u.pc + 4
			}
			c.nInstr += uint64(i + 1)
			return i + 1, out, false, nil
		case uBGEU:
			if r[u.rs1] >= r[u.rs2] {
				c.pc = u.aux
				out[base+i].Taken = true
			} else {
				c.pc = u.pc + 4
			}
			c.nInstr += uint64(i + 1)
			return i + 1, out, false, nil
		case uECALL:
			c.pc = u.pc
			c.nInstr += uint64(i)
			if c.Hook == nil {
				return i, out[:base+i], true, fmt.Errorf("riscv: ecall with no hook at pc=%#x", u.pc)
			}
			rec := &out[base+i]
			c.inflight = rec
			res := c.Hook(c)
			c.inflight = nil
			c.nInstr++
			switch res {
			case isa.EcallHandled:
				c.pc = u.pc + 4
				return i + 1, out, true, nil
			case isa.EcallVector:
				rec.Target = c.pc
				rec.Taken = true
				return i + 1, out, true, nil
			case isa.EcallBlock:
				c.pc = u.pc + 4
				return i + 1, out, true, ErrBlock
			case isa.EcallHalt:
				c.pc = u.pc + 4
				return i + 1, out, true, ErrHalt
			}
			return i, out[:base+i], true, fmt.Errorf("riscv: bad ecall result %d", res)
		case uEBREAK:
			c.pc = u.pc
			c.nInstr += uint64(i)
			return i, out[:base+i], true, fmt.Errorf("riscv: ebreak at pc=%#x", u.pc)
		default:
			c.pc = u.pc
			c.nInstr += uint64(i)
			return i, out[:base+i], true, fmt.Errorf("riscv: unimplemented %s at pc=%#x", b.insts[i].Kind, u.pc)
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
// effects, retired counts and environment-call behavior are identical to
// stepBlockTrace (Annotate is a no-op because no record is in flight,
// matching the single-step path whose records the machine discards in this
// mode). The class census is folded from the block's static totals — one
// whole-block add in the common case, a template prefix scan when the run
// was cut short by the budget or a control transfer.
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
		case uCONST:
			r[u.rd] = u.aux
		case uADDI:
			r[u.rd] = r[u.rs1] + u.aux
		case uADDIW:
			r[u.rd] = uint64(int64(int32(r[u.rs1] + u.aux)))
		case uSLTI:
			r[u.rd] = b2u(int64(r[u.rs1]) < u.imm)
		case uSLTIU:
			r[u.rd] = b2u(r[u.rs1] < u.aux)
		case uXORI:
			r[u.rd] = r[u.rs1] ^ u.aux
		case uORI:
			r[u.rd] = r[u.rs1] | u.aux
		case uANDI:
			r[u.rd] = r[u.rs1] & u.aux
		case uSLLI:
			r[u.rd] = r[u.rs1] << u.aux
		case uSRLI:
			r[u.rd] = r[u.rs1] >> u.aux
		case uSRAI:
			r[u.rd] = uint64(int64(r[u.rs1]) >> u.aux)
		case uADD:
			r[u.rd] = r[u.rs1] + r[u.rs2]
		case uSUB:
			r[u.rd] = r[u.rs1] - r[u.rs2]
		case uSLL:
			r[u.rd] = r[u.rs1] << (r[u.rs2] & 63)
		case uSLT:
			r[u.rd] = b2u(int64(r[u.rs1]) < int64(r[u.rs2]))
		case uSLTU:
			r[u.rd] = b2u(r[u.rs1] < r[u.rs2])
		case uXOR:
			r[u.rd] = r[u.rs1] ^ r[u.rs2]
		case uSRL:
			r[u.rd] = r[u.rs1] >> (r[u.rs2] & 63)
		case uSRA:
			r[u.rd] = uint64(int64(r[u.rs1]) >> (r[u.rs2] & 63))
		case uOR:
			r[u.rd] = r[u.rs1] | r[u.rs2]
		case uAND:
			r[u.rd] = r[u.rs1] & r[u.rs2]
		case uMUL:
			r[u.rd] = r[u.rs1] * r[u.rs2]
		case uMULHU:
			r[u.rd] = mulhu(r[u.rs1], r[u.rs2])
		case uDIV:
			r[u.rd] = uint64(divS(int64(r[u.rs1]), int64(r[u.rs2])))
		case uDIVU:
			r[u.rd] = divU(r[u.rs1], r[u.rs2])
		case uREM:
			r[u.rd] = uint64(remS(int64(r[u.rs1]), int64(r[u.rs2])))
		case uREMU:
			r[u.rd] = remU(r[u.rs1], r[u.rs2])
		case uLB:
			r[u.rd] = isa.SignExtend(c.Mem.Load8(r[u.rs1]+u.aux), 1)
		case uLH:
			r[u.rd] = isa.SignExtend(c.Mem.Load16(r[u.rs1]+u.aux), 2)
		case uLW:
			r[u.rd] = isa.SignExtend(c.Mem.Load32(r[u.rs1]+u.aux), 4)
		case uLD:
			r[u.rd] = c.Mem.Load64(r[u.rs1] + u.aux)
		case uLBU:
			r[u.rd] = c.Mem.Load8(r[u.rs1] + u.aux)
		case uLHU:
			r[u.rd] = c.Mem.Load16(r[u.rs1] + u.aux)
		case uLWU:
			r[u.rd] = c.Mem.Load32(r[u.rs1] + u.aux)
		case uLoadX0:
			c.Mem.Load(r[u.rs1]+u.aux, u.rd)
		case uSB:
			c.Mem.Store8(r[u.rs1]+u.aux, r[u.rs2])
		case uSH:
			c.Mem.Store16(r[u.rs1]+u.aux, r[u.rs2])
		case uSW:
			c.Mem.Store32(r[u.rs1]+u.aux, r[u.rs2])
		case uSD:
			c.Mem.Store64(r[u.rs1]+u.aux, r[u.rs2])
		case uJ:
			c.pc = uint64(u.imm)
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uJAL:
			r[u.rd] = u.aux
			c.pc = uint64(u.imm)
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uJR:
			c.pc = (r[u.rs1] + uint64(u.imm)) &^ 1
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uJALR:
			t := (r[u.rs1] + uint64(u.imm)) &^ 1
			r[u.rd] = u.aux
			c.pc = t
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uBEQ:
			if r[u.rs1] == r[u.rs2] {
				c.pc = u.aux
			} else {
				c.pc = u.pc + 4
			}
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uBNE:
			if r[u.rs1] != r[u.rs2] {
				c.pc = u.aux
			} else {
				c.pc = u.pc + 4
			}
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uBLT:
			if int64(r[u.rs1]) < int64(r[u.rs2]) {
				c.pc = u.aux
			} else {
				c.pc = u.pc + 4
			}
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uBGE:
			if int64(r[u.rs1]) >= int64(r[u.rs2]) {
				c.pc = u.aux
			} else {
				c.pc = u.pc + 4
			}
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uBLTU:
			if r[u.rs1] < r[u.rs2] {
				c.pc = u.aux
			} else {
				c.pc = u.pc + 4
			}
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uBGEU:
			if r[u.rs1] >= r[u.rs2] {
				c.pc = u.aux
			} else {
				c.pc = u.pc + 4
			}
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uECALL:
			c.pc = u.pc
			c.nInstr += uint64(i)
			if c.Hook == nil {
				return i, true, fmt.Errorf("riscv: ecall with no hook at pc=%#x", u.pc)
			}
			res := c.Hook(c)
			c.nInstr++
			switch res {
			case isa.EcallHandled:
				c.pc = u.pc + 4
				return i + 1, true, nil
			case isa.EcallVector:
				return i + 1, true, nil
			case isa.EcallBlock:
				c.pc = u.pc + 4
				return i + 1, true, ErrBlock
			case isa.EcallHalt:
				c.pc = u.pc + 4
				return i + 1, true, ErrHalt
			}
			return i, true, fmt.Errorf("riscv: bad ecall result %d", res)
		case uEBREAK:
			c.pc = u.pc
			c.nInstr += uint64(i)
			return i, true, fmt.Errorf("riscv: ebreak at pc=%#x", u.pc)
		default:
			c.pc = u.pc
			c.nInstr += uint64(i)
			return i, true, fmt.Errorf("riscv: unimplemented %s at pc=%#x", b.insts[i].Kind, u.pc)
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
