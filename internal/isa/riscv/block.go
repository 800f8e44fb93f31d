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
	uBAD // unimplemented Kind in aux, for the error text
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
		u.op, u.aux = uBAD, uint64(in.Kind)
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
		p += 4
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
// any environment call so the machine can poll hook-side effects with
// single-step granularity. Blocks are resolved as isa.BlockCache
// describes: through the entry-PC map on entry, through link slots after
// every block that ran to completion.
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
// dynamic fields (MemAddr, Taken, indirect Target, and the ecall record
// the hook annotates) into dst, which holds the matching templates or
// scratch. stop reports that an environment call was executed and
// control must return to the driver. The semantics of every case mirror
// Core.Step exactly; the lockstep differential and fuzz tests pin the
// equivalence.
//
// Retired-instruction accounting is batched: c.nInstr is folded once at
// each exit (and just before an ecall hook runs, which observes the
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
			dst[i].MemAddr = addr
		case uLH:
			addr := r[u.rs1] + u.aux
			r[u.rd] = isa.SignExtend(c.Mem.Load16(addr), 2)
			dst[i].MemAddr = addr
		case uLW:
			addr := r[u.rs1] + u.aux
			r[u.rd] = isa.SignExtend(c.Mem.Load32(addr), 4)
			dst[i].MemAddr = addr
		case uLD:
			addr := r[u.rs1] + u.aux
			r[u.rd] = c.Mem.Load64(addr)
			dst[i].MemAddr = addr
		case uLBU:
			addr := r[u.rs1] + u.aux
			r[u.rd] = c.Mem.Load8(addr)
			dst[i].MemAddr = addr
		case uLHU:
			addr := r[u.rs1] + u.aux
			r[u.rd] = c.Mem.Load16(addr)
			dst[i].MemAddr = addr
		case uLWU:
			addr := r[u.rs1] + u.aux
			r[u.rd] = c.Mem.Load32(addr)
			dst[i].MemAddr = addr
		case uLoadX0:
			addr := r[u.rs1] + u.aux
			c.Mem.Load(addr, u.rd)
			dst[i].MemAddr = addr
		case uSB:
			addr := r[u.rs1] + u.aux
			c.Mem.Store8(addr, r[u.rs2])
			dst[i].MemAddr = addr
		case uSH:
			addr := r[u.rs1] + u.aux
			c.Mem.Store16(addr, r[u.rs2])
			dst[i].MemAddr = addr
		case uSW:
			addr := r[u.rs1] + u.aux
			c.Mem.Store32(addr, r[u.rs2])
			dst[i].MemAddr = addr
		case uSD:
			addr := r[u.rs1] + u.aux
			c.Mem.Store64(addr, r[u.rs2])
			dst[i].MemAddr = addr
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
			dst[i].Target = c.pc
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uJALR:
			t := (r[u.rs1] + uint64(u.imm)) &^ 1
			r[u.rd] = u.aux
			c.pc = t
			dst[i].Target = t
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uBEQ:
			if r[u.rs1] == r[u.rs2] {
				c.pc = u.aux
				dst[i].Taken = true
			} else {
				c.pc = u.pc + 4
			}
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uBNE:
			if r[u.rs1] != r[u.rs2] {
				c.pc = u.aux
				dst[i].Taken = true
			} else {
				c.pc = u.pc + 4
			}
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uBLT:
			if int64(r[u.rs1]) < int64(r[u.rs2]) {
				c.pc = u.aux
				dst[i].Taken = true
			} else {
				c.pc = u.pc + 4
			}
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uBGE:
			if int64(r[u.rs1]) >= int64(r[u.rs2]) {
				c.pc = u.aux
				dst[i].Taken = true
			} else {
				c.pc = u.pc + 4
			}
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uBLTU:
			if r[u.rs1] < r[u.rs2] {
				c.pc = u.aux
				dst[i].Taken = true
			} else {
				c.pc = u.pc + 4
			}
			c.nInstr += uint64(i + 1)
			return i + 1, false, nil
		case uBGEU:
			if r[u.rs1] >= r[u.rs2] {
				c.pc = u.aux
				dst[i].Taken = true
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
			rec := &dst[i]
			c.inflight = rec
			res := c.Hook(c)
			c.inflight = nil
			c.nInstr++
			switch res {
			case isa.EcallHandled:
				c.pc = u.pc + 4
				return i + 1, true, nil
			case isa.EcallVector:
				rec.Target = c.pc
				rec.Taken = true
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
			return i, true, fmt.Errorf("riscv: unimplemented %s at pc=%#x", Kind(u.aux), u.pc)
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
