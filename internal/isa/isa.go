// Package isa defines the architecture-neutral contracts shared by the two
// instruction set implementations (internal/isa/riscv and internal/isa/cisc):
// the linked program image, the flat memory model, the dynamic instruction
// trace record consumed by the timing CPU models, and the functional core
// interface the kernel drives.
package isa

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
)

// ErrHalt is returned by Core.Step when the environment hook requested
// machine halt.
var ErrHalt = errors.New("isa: halt")

// ErrBlock is returned by Core.Step when the current process blocked
// inside an environment call.
var ErrBlock = errors.New("isa: blocked")

// Arch names an instruction set architecture.
type Arch string

// Supported architectures.
const (
	RV64   Arch = "rv64"   // RISC-V RV64IM
	CISC64 Arch = "cisc64" // the x86-class CISC model
)

// Class categorizes a dynamic instruction for the timing models.
type Class uint8

// Instruction classes.
const (
	ClassAlu Class = iota
	ClassMul
	ClassDiv
	ClassLoad
	ClassStore
	ClassBranch // conditional
	ClassJump   // unconditional direct
	ClassCall
	ClassRet
	ClassEcall
	ClassFence
	ClassIdle // pseudo-record: core idle waiting for a wake sequence
)

func (c Class) String() string {
	names := [...]string{"alu", "mul", "div", "load", "store", "branch", "jump",
		"call", "ret", "ecall", "fence", "idle"}
	if int(c) < len(names) {
		return names[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// NoDep marks an absent register operand in a trace record.
const NoDep uint8 = 255

// Trace flags.
const (
	FlagSend uint8 = 1 << iota // record produces wake sequence Seq
	FlagRecv                   // record must wait for wake sequence Seq
	FlagM5Reset
	FlagM5Dump
	// FlagVector marks an ecall that vectored into a kernel handler
	// (Seq carries the handler address): the handler's terminating ret
	// balances it, which keeps profiler shadow stacks honest.
	FlagVector
)

// TraceRec is one dynamic instruction as observed by the functional core,
// replayed by the timing models.
type TraceRec struct {
	PC       uint64
	Size     uint8
	Class    Class
	Taken    bool   // branch outcome
	Target   uint64 // branch/jump/call target (actual next PC when taken)
	MemAddr  uint64
	MemSize  uint8
	Src1     uint8 // architectural source registers (NoDep if none)
	Src2     uint8
	Dst      uint8 // architectural destination register (NoDep if none)
	Flags    uint8
	Seq      uint64 // IPC coupling sequence for FlagSend/FlagRecv
	MicroOps uint8  // decoded micro-operations (>=1); CISC may expand
}

// ClassCounts is a cumulative census of retired instructions by class,
// maintained only by the no-trace StepN lane. When the machine executes
// instructions without building TraceRecs (the setup phase and the sampled
// simulation's functional fast-forward), deltas of these counters replace
// the per-record accounting that the trace queue would otherwise provide.
type ClassCounts struct {
	MicroOps uint64
	Loads    uint64
	Stores   uint64
	Branches uint64 // conditional + unconditional + call + ret
}

// Since returns the census accumulated between prev and cc, where prev is
// an earlier reading of the same monotonic counter.
func (cc ClassCounts) Since(prev ClassCounts) ClassCounts {
	return ClassCounts{
		MicroOps: cc.MicroOps - prev.MicroOps,
		Loads:    cc.Loads - prev.Loads,
		Stores:   cc.Stores - prev.Stores,
		Branches: cc.Branches - prev.Branches,
	}
}

// Add accumulates o into cc.
func (cc *ClassCounts) Add(o ClassCounts) {
	cc.MicroOps += o.MicroOps
	cc.Loads += o.Loads
	cc.Stores += o.Stores
	cc.Branches += o.Branches
}

// AddRecs accumulates the census of recs into cc. The class mapping
// mirrors the sampler's per-record accounting exactly: every record
// contributes its micro-ops, and control transfers of all four flavors
// count as branches.
func (cc *ClassCounts) AddRecs(recs []TraceRec) {
	for i := range recs {
		r := &recs[i]
		cc.MicroOps += uint64(r.MicroOps)
		switch r.Class {
		case ClassLoad:
			cc.Loads++
		case ClassStore:
			cc.Stores++
		case ClassBranch, ClassJump, ClassCall, ClassRet:
			cc.Branches++
		}
	}
}

// PageShift is log2 of PageSize.
const PageShift = 12

// PageSize is the granularity of Mem's dirty marks: 4 KiB.
const PageSize = 1 << PageShift

// Mem is the flat physical memory of a simulated machine. All functional
// cores of the machine share one Mem; the cache models only observe the
// trace, so functional accesses go straight to the backing slice.
//
// Every write goes through the accessors below (Store, Store8..Store64,
// Bytes), which set the dirty mark of each page they touch. Outside this
// package, guest memory is written only through them: a write straight
// into Data escapes the marks, and checkpoint take and restore (which
// look only at marked pages and the last image's pages) would miss it.
//
// Data is valid only while its Mem is reachable. NewMem maps it outside
// the Go heap where the platform allows and unmaps it once the Mem is
// garbage, so a slice of Data (including one returned by Bytes) must not
// be kept after the Mem is dropped: an access through it then faults
// with SIGSEGV. Copy out what must outlive the Mem.
type Mem struct {
	Data []byte
	// Dirty holds one mark per PageSize page of Data, non-zero once the
	// page may have been written since the owner last cleared the marks
	// (ClearDirty). One byte per page, set with a plain store: cheaper on
	// the interpreters' store path than a bitmap's read-modify-write.
	Dirty []byte
}

// NewMem returns size bytes of zeroed memory with every page clean.
// Data is an anonymous private mapping where the platform has one: the
// kernel zero-fills each page on first touch, so a page the guest never
// touches costs neither zeroing nor resident memory, and the Go heap
// carries none of it. A finalizer unmaps it once the Mem is unreachable
// (see Mem for the lifetime rule). Where mapping is unavailable or
// fails, and in race-detector builds (the detector checks only Go heap
// memory, so there every guest load and store stays checked), Data
// comes from the Go heap.
func NewMem(size int) *Mem {
	m := &Mem{Dirty: make([]byte, (size+PageSize-1)>>PageShift)}
	if data, err := mapAnon(size); err == nil {
		m.Data = data
		runtime.SetFinalizer(m, func(m *Mem) { unmapAnon(m.Data) })
	} else {
		m.Data = make([]byte, size)
	}
	return m
}

// ClearDirty marks every page clean.
func (m *Mem) ClearDirty() { clear(m.Dirty) }

// MemFault is the panic value of an out-of-range guest memory access.
// Machines that run guest code recover it at their run entry points and
// return it as an error; any other panic remains a simulator bug.
type MemFault struct {
	Op   string // "load", "store" or "bytes"
	Addr uint64
	Size uint64 // access width, or the length of a Bytes range
}

func (f *MemFault) Error() string {
	if f.Op == "bytes" {
		return fmt.Sprintf("isa: bytes fault addr=%#x n=%d", f.Addr, f.Size)
	}
	return fmt.Sprintf("isa: %s fault addr=%#x sz=%d", f.Op, f.Addr, f.Size)
}

// Load reads sz little-endian bytes at addr.
func (m *Mem) Load(addr uint64, sz uint8) uint64 {
	if addr+uint64(sz) > uint64(len(m.Data)) {
		m.loadFault(addr, sz)
	}
	var v uint64
	for i := uint8(0); i < sz; i++ {
		v |= uint64(m.Data[addr+uint64(i)]) << (8 * i)
	}
	return v
}

// Store writes the low sz bytes of val at addr, little-endian.
func (m *Mem) Store(addr uint64, sz uint8, val uint64) {
	if addr+uint64(sz) > uint64(len(m.Data)) {
		panic(&MemFault{Op: "store", Addr: addr, Size: uint64(sz)})
	}
	for i := uint8(0); i < sz; i++ {
		m.Dirty[(addr+uint64(i))>>PageShift] = 1
		m.Data[addr+uint64(i)] = byte(val >> (8 * i))
	}
}

// loadFault keeps the load fault panic out of the inlinable fast
// accessors below.
//
//go:noinline
func (m *Mem) loadFault(addr uint64, sz uint8) {
	panic(&MemFault{Op: "load", Addr: addr, Size: uint64(sz)})
}

// Load8..Load64 / Store8..Store64 are size-specialized, inlinable
// equivalents of Load/Store for the block interpreters' hot paths, where
// the access width is fixed at translation time. Semantics (little-endian
// order, fault condition and panic value, dirty marks) match the generic
// versions exactly; only the per-byte loop and the non-inlinable panic
// are gone. A store wider than a byte marks the page of its first and of
// its last byte, which differ when it straddles a page boundary. The
// stores raise their fault inline rather than through a helper like
// loadFault: with the marks, the call would push them past the inlining
// budget, while a panic of a composite literal costs the inliner little.

func (m *Mem) Load8(addr uint64) uint64 {
	if addr >= uint64(len(m.Data)) {
		m.loadFault(addr, 1)
	}
	return uint64(m.Data[addr])
}

func (m *Mem) Load16(addr uint64) uint64 {
	if addr+2 > uint64(len(m.Data)) {
		m.loadFault(addr, 2)
	}
	return uint64(binary.LittleEndian.Uint16(m.Data[addr:]))
}

func (m *Mem) Load32(addr uint64) uint64 {
	if addr+4 > uint64(len(m.Data)) {
		m.loadFault(addr, 4)
	}
	return uint64(binary.LittleEndian.Uint32(m.Data[addr:]))
}

func (m *Mem) Load64(addr uint64) uint64 {
	if addr+8 > uint64(len(m.Data)) {
		m.loadFault(addr, 8)
	}
	return binary.LittleEndian.Uint64(m.Data[addr:])
}

func (m *Mem) Store8(addr uint64, val uint64) {
	if addr >= uint64(len(m.Data)) {
		panic(&MemFault{Op: "store", Addr: addr, Size: 1})
	}
	m.Dirty[addr>>PageShift] = 1
	m.Data[addr] = byte(val)
}

func (m *Mem) Store16(addr uint64, val uint64) {
	if addr+2 > uint64(len(m.Data)) {
		panic(&MemFault{Op: "store", Addr: addr, Size: 2})
	}
	m.Dirty[addr>>PageShift] = 1
	m.Dirty[(addr+1)>>PageShift] = 1
	binary.LittleEndian.PutUint16(m.Data[addr:], uint16(val))
}

func (m *Mem) Store32(addr uint64, val uint64) {
	if addr+4 > uint64(len(m.Data)) {
		panic(&MemFault{Op: "store", Addr: addr, Size: 4})
	}
	m.Dirty[addr>>PageShift] = 1
	m.Dirty[(addr+3)>>PageShift] = 1
	binary.LittleEndian.PutUint32(m.Data[addr:], uint32(val))
}

func (m *Mem) Store64(addr uint64, val uint64) {
	if addr+8 > uint64(len(m.Data)) {
		panic(&MemFault{Op: "store", Addr: addr, Size: 8})
	}
	m.Dirty[addr>>PageShift] = 1
	m.Dirty[(addr+7)>>PageShift] = 1
	binary.LittleEndian.PutUint64(m.Data[addr:], val)
}

// Bytes returns the slice [addr, addr+n). The caller may write through
// it, so every page the range touches is marked dirty, reads included.
func (m *Mem) Bytes(addr, n uint64) []byte {
	if addr+n > uint64(len(m.Data)) || addr+n < addr {
		panic(&MemFault{Op: "bytes", Addr: addr, Size: n})
	}
	if n > 0 {
		for pg := addr >> PageShift; pg <= (addr+n-1)>>PageShift; pg++ {
			m.Dirty[pg] = 1
		}
	}
	return m.Data[addr : addr+n]
}

// SignExtend sign-extends the low sz bytes of v.
func SignExtend(v uint64, sz uint8) uint64 {
	switch sz {
	case 1:
		return uint64(int64(int8(v)))
	case 2:
		return uint64(int64(int16(v)))
	case 4:
		return uint64(int64(int32(v)))
	}
	return v
}

// Program is a linked machine-code image for one architecture.
type Program struct {
	Arch     Arch
	TextBase uint64
	Text     []byte
	DataBase uint64
	Data     []byte
	Entry    uint64            // address of the entry function
	Syms     map[string]uint64 // function and global symbol addresses
	FuncEnd  map[string]uint64 // end address of each function (diagnostics)
}

// SymAddr returns the address of a symbol, panicking if absent.
func (p *Program) SymAddr(name string) uint64 {
	a, ok := p.Syms[name]
	if !ok {
		panic("isa: unknown symbol " + name)
	}
	return a
}

// LoadInto copies the program image into memory.
func (p *Program) LoadInto(m *Mem) {
	copy(m.Bytes(p.TextBase, uint64(len(p.Text))), p.Text)
	copy(m.Bytes(p.DataBase, uint64(len(p.Data))), p.Data)
}

// Size returns the total image footprint in bytes.
func (p *Program) Size() int { return len(p.Text) + len(p.Data) }

// EcallResult tells a functional core how to proceed after the environment
// hook handled an ECALL.
type EcallResult int

// Ecall dispositions.
const (
	// EcallHandled: the hook performed the call; execution continues at
	// the next instruction with the return value already set.
	EcallHandled EcallResult = iota
	// EcallVector: the hook redirected the core into handler code (the
	// kernel's syscall path); the core's PC was changed by CallInto.
	EcallVector
	// EcallBlock: the current process blocked; the machine must stop
	// stepping this core until it is woken.
	EcallBlock
	// EcallHalt: the machine should stop simulating entirely.
	EcallHalt
)

// EcallHook is invoked by a functional core when it executes an ECALL
// instruction. The hook inspects/updates core state through the Core
// interface.
type EcallHook func(c Core) EcallResult

// Core is the functional (architectural) state of one hardware thread.
// Each simulated process owns a Core; the machine multiplexes them onto
// simulated CPUs.
type Core interface {
	// Step executes one instruction, appending its trace record to out,
	// and returns the possibly-grown slice.
	Step(out []TraceRec) ([]TraceRec, error)
	// StepN executes up to max instructions through the core's translated
	// basic-block cache, returning how many retired and the possibly-grown
	// trace slice. When out is nil the core takes a no-trace fast lane and
	// builds no TraceRec at all (the setup-phase path); callers that want
	// records must pass a non-nil (possibly empty) slice. StepN returns
	// early — possibly before max — at the block boundary that follows any
	// environment call, so the driver can observe hook-side effects
	// (checkpoint requests, kernel panics) with the same per-ecall
	// granularity as the single-step path. Architectural effects, retired
	// counts and trace records are bit-identical to max successive Step
	// calls.
	StepN(max int, out []TraceRec) (int, []TraceRec, error)
	PC() uint64
	SetPC(pc uint64)
	// Arg returns the i-th ecall argument register (0-based).
	Arg(i int) uint64
	// SetArg sets the i-th ecall argument register.
	SetArg(i int, v uint64)
	// EcallNum returns the pending ecall number.
	EcallNum() uint64
	// SetRet sets the ecall/function return register.
	SetRet(v uint64)
	// CallInto redirects execution into a handler at addr using the
	// architecture's calling convention, arranging for the handler's
	// return to resume at the instruction after the current ecall.
	CallInto(addr uint64)
	// Annotate sets trace flags and a coupling sequence on the
	// instruction currently executing; only valid inside an EcallHook.
	Annotate(flags uint8, seq uint64)
	// StackPtr returns the current stack pointer.
	StackPtr() uint64
	// SetStackPtr sets the stack pointer.
	SetStackPtr(v uint64)
	// Snapshot serializes architectural state (for checkpoints).
	Snapshot() []uint64
	// Restore loads architectural state saved by Snapshot.
	Restore([]uint64)
	// InstrCount reports instructions executed by this core state.
	InstrCount() uint64
	// Classes reports the cumulative per-class census of instructions
	// retired through the no-trace StepN lane (see ClassCounts). Callers
	// that interleave traced and untraced execution must difference the
	// counter around untraced stretches rather than read it absolutely.
	Classes() ClassCounts
	Arch() Arch
}

// ChainStats is a snapshot of a decode cache's superblock-chaining
// telemetry. Hits are block-to-block transitions served by an inline link
// slot; Misses are transitions (and StepN entries) that resolved through
// the entry-PC map; Breaks counts links severed by block invalidation.
// Blocks counts distinct translated blocks entered since the cache's last
// chain reset — a restore-relative "hot code footprint", deliberately
// independent of how warm the underlying block cache is so that memoized
// and freshly-booted machines report identical values. A decode cache
// shared by several machines counts all of their execution since the
// last chain reset by any of them.
type ChainStats struct {
	Blocks uint64
	Hits   uint64
	Misses uint64
	Breaks uint64
}

// MeanChainLen reports the average number of blocks executed per map
// lookup: (Hits+Misses)/Misses. With no chaining it is 1; longer is
// better.
func (s ChainStats) MeanChainLen() float64 {
	if s.Misses == 0 {
		return 0
	}
	return float64(s.Hits+s.Misses) / float64(s.Misses)
}
