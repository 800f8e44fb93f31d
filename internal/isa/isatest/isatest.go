// Package isatest provides test support for executing IR modules on the
// simulated cores of either ISA — used by the library packages (libc, rpc,
// langrt) for differential testing against their Go mirrors.
package isatest

import (
	"fmt"

	"svbench/internal/ir"
	"svbench/internal/isa"
	"svbench/internal/isa/cisc"
	"svbench/internal/isa/riscv"
)

// ExitEcall is the environment call number the runner's halt stub uses.
const ExitEcall = 255

// Runner executes functions of one compiled module on a bare core.
type Runner struct {
	Arch isa.Arch
	Prog *isa.Program
	Mem  *isa.Mem
	core isa.Core
	stub uint64
}

// NewRunner compiles m for arch into a fresh 4 MiB memory.
func NewRunner(arch isa.Arch, m *ir.Module) (*Runner, error) {
	r := &Runner{Arch: arch, Mem: isa.NewMem(4 << 20)}
	var err error
	switch arch {
	case isa.RV64:
		r.Prog, err = riscv.Compile(m, 0x10000)
	case isa.CISC64:
		r.Prog, err = cisc.Compile(m, 0x10000)
	default:
		return nil, fmt.Errorf("isatest: unknown arch %q", arch)
	}
	if err != nil {
		return nil, err
	}
	r.Prog.LoadInto(r.Mem)

	hook := func(c isa.Core) isa.EcallResult {
		if c.EcallNum() == ExitEcall {
			return isa.EcallHalt
		}
		panic(fmt.Sprintf("isatest: unexpected ecall %d", c.EcallNum()))
	}
	r.stub = 0x400
	switch arch {
	case isa.RV64:
		r.Mem.Store(r.stub, 4, uint64(riscv.Inst{Kind: riscv.KindADDI, Rd: riscv.RegA7, Rs1: riscv.RegZero, Imm: ExitEcall}.Encode()))
		r.Mem.Store(r.stub+4, 4, uint64(riscv.Inst{Kind: riscv.KindECALL}.Encode()))
		c := riscv.NewCore(r.Mem, nil)
		c.Hook = hook
		r.core = c
	case isa.CISC64:
		var sb []byte
		sb = cisc.Inst{Kind: cisc.KindMOVrr, Dst: cisc.RDI, Src: cisc.RAX}.Encode(sb)
		sb = cisc.Inst{Kind: cisc.KindMOVri32, Dst: cisc.RAX, Imm: ExitEcall}.Encode(sb)
		sb = cisc.Inst{Kind: cisc.KindSYSCALL}.Encode(sb)
		copy(r.Mem.Bytes(r.stub, uint64(len(sb))), sb)
		c := cisc.NewCore(r.Mem, nil)
		c.Hook = hook
		r.core = c
	}
	return r, nil
}

// GlobalAddr returns the address of a global in the compiled program.
func (r *Runner) GlobalAddr(name string) uint64 { return r.Prog.SymAddr(name) }

// WriteBytes copies b into simulated memory at addr.
func (r *Runner) WriteBytes(addr uint64, b []byte) { copy(r.Mem.Bytes(addr, uint64(len(b))), b) }

// ReadBytes copies n bytes from simulated memory.
func (r *Runner) ReadBytes(addr, n uint64) []byte {
	return append([]byte(nil), r.Mem.Bytes(addr, n)...)
}

// Call executes fn(args...) on the simulated core and returns its result.
func (r *Runner) Call(fn string, args ...int64) (int64, error) {
	stackTop := uint64(3 << 20)
	r.core.SetPC(r.Prog.SymAddr(fn))
	switch c := r.core.(type) {
	case *riscv.Core:
		c.SetStackPtr(stackTop)
		c.Regs[riscv.RegRA] = r.stub
	case *cisc.Core:
		c.SetStackPtr(stackTop)
		c.Regs[cisc.RSP] -= 8
		r.Mem.Store(c.Regs[cisc.RSP], 8, r.stub)
	}
	for i, a := range args {
		r.core.SetArg(i, uint64(a))
	}
	var trace []isa.TraceRec
	for steps := 0; ; steps++ {
		if steps > 50_000_000 {
			return 0, fmt.Errorf("isatest: %s did not halt", fn)
		}
		var err error
		trace, err = r.core.Step(trace[:0])
		if err == isa.ErrHalt {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("isatest: %s: %w", fn, err)
		}
	}
	switch c := r.core.(type) {
	case *riscv.Core:
		return int64(c.Regs[riscv.RegA0]), nil
	case *cisc.Core:
		return int64(c.Regs[cisc.RDI]), nil
	}
	return 0, fmt.Errorf("isatest: unknown core")
}
