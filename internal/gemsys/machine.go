package gemsys

import (
	"errors"
	"fmt"
	"hash"

	"svbench/internal/cpu"
	"svbench/internal/ir"
	"svbench/internal/isa"
	"svbench/internal/isa/cisc"
	"svbench/internal/isa/riscv"
	"svbench/internal/kernel"
	"svbench/internal/mem"
	"svbench/internal/stats"
	"svbench/internal/trace"
)

// Machine is a simulated two-core full system: flat memory, the miniature
// kernel, per-core cache hierarchies over a shared DRAM channel, and both
// execution modes of the vSwarm-u methodology — functional (atomic/KVM
// style, for setup) and detailed timing (O3 trace replay, for evaluation).
type Machine struct {
	Cfg     Config
	Mem     *isa.Mem
	K       *kernel.Kernel
	DRAM    *mem.DRAM
	Hier    []*mem.Hierarchy
	O3      []*cpu.O3
	Coupler *cpu.Coupler
	Atomic  cpu.Atomic

	decRV *riscv.DecodeCache
	decC  *cisc.DecodeCache

	cur []*kernel.Process
	rq  [][]*kernel.Process

	traces    [][]isa.TraceRec
	cursor    []int
	recording bool
	scratch   []isa.TraceRec

	nextRegion  uint64
	virtInstr   uint64
	evalRetired uint64
	halted      bool
	ckptReq     bool
	hookProc    *kernel.Process

	// The memory baseline: guest memory equalled the image of checkpoint
	// id memImage (0: none) when its dirty marks were last cleared, and
	// memPages lists that image's pages in ascending order. A fresh
	// machine's baseline is all-zero memory: no id and no page. Restore
	// uses the pair to copy only pages that can differ.
	memImage uint64
	memPages []int

	// Functional-sprint state (see Machine.sprint). While sprinting,
	// recording is off and there is no trace record to annotate, so the
	// hook parks m5 markers in m5Pending and every stepping loop polls it
	// to stop at the next block boundary. The per-core counters are the
	// sprint's substitute for per-record accounting: stepQuantum folds
	// no-trace-lane deltas into them so the sampler sees the same exact
	// architectural census it would have read off the trace.
	sprinting   bool
	m5Pending   uint8
	sprintIdle  []uint64
	sprintInsts []uint64
	sprintCnt   []isa.ClassCounts

	// stepBase is the stepping core's InstrCount at the start of the
	// in-flight Step/StepN call; syncClock folds the delta into virtInstr
	// so the kernel clock stays per-instruction accurate even while a
	// whole block executes between hook observations.
	stepBase uint64

	// SingleStep forces the per-instruction reference interpreter instead
	// of the batched block-execution fast path. The two are bit-identical
	// (pinned by the differential tests); the knob exists for those
	// tests. Deliberately not part of Config so it never enters the boot
	// fingerprint.
	SingleStep bool

	kernelProg *isa.Program
	// fph accumulates the boot fingerprint (config, kernel image, every
	// spawned program); see fingerprint.go.
	fph hash.Hash

	// Observability. The registry and symbol table always exist (stat
	// dumps project from the registry); Tracer and Prof are nil unless
	// Config.Trace.Enabled, which keeps the replay hot path event-free.
	Reg      *trace.Registry
	Syms     *trace.SymTable
	Tracer   *trace.Tracer
	Prof     *trace.Profiler
	ecallLat []*trace.Dist
}

// ErrDeadlock reports that neither core can make progress.
var ErrDeadlock = errors.New("gemsys: machine deadlocked")

// PanicError reports that simulated code raised the panic host call
// (e.g. a stack-smash detection). Info carries the kernel's PanicInfo —
// the faulting process and program counter — so simulated panics stay
// diagnosable instead of drowning in a generic budget or halt message.
type PanicError struct {
	Info string
}

func (e *PanicError) Error() string { return "gemsys: simulated panic: " + e.Info }

// panicErr returns the machine's PanicError when the kernel recorded a
// simulated panic, else nil.
func (m *Machine) panicErr() error {
	if m.K.Panicked {
		return &PanicError{Info: m.K.PanicInfo}
	}
	return nil
}

// newCouplerFor creates a coupler and routes the kernel's service-reply
// derivations into it.
func newCouplerFor(m *Machine) *cpu.Coupler {
	c := cpu.NewCoupler()
	m.K.OnDerive = func(base, derived, delay uint64) { c.Derive(base, derived, delay) }
	return c
}

// newO3For builds a detailed core for hardware thread ci using the
// machine's current coupler.
func newO3For(m *Machine, ci int) *cpu.O3 {
	return cpu.NewO3(m.Cfg.O3, m.Hier[ci], m.Coupler)
}

// New boots a machine: allocates memory, compiles and loads the kernel for
// the configured ISA, and wires the cache hierarchies.
func New(cfg Config) (*Machine, error) {
	if cfg.Cores != 2 {
		return nil, fmt.Errorf("gemsys: this system model is two-core (client+server), got %d", cfg.Cores)
	}
	// The kernel image (compiled program + pre-decoded text) is shared
	// read-only across all machines of one architecture; each machine
	// still owns a private mutable decode cache layered over it.
	kimg, err := kernelImageFor(cfg.Arch)
	if err != nil {
		return nil, fmt.Errorf("gemsys: kernel: %w", err)
	}
	m := &Machine{
		Cfg:         cfg,
		Mem:         isa.NewMem(cfg.MemBytes),
		DRAM:        mem.NewDRAM(cfg.DRAM),
		decRV:       riscv.NewDecodeCacheShared(kimg.sharedRV),
		decC:        cisc.NewDecodeCacheShared(kimg.sharedC),
		cur:         make([]*kernel.Process, cfg.Cores),
		rq:          make([][]*kernel.Process, cfg.Cores),
		traces:      make([][]isa.TraceRec, cfg.Cores),
		cursor:      make([]int, cfg.Cores),
		sprintIdle:  make([]uint64, cfg.Cores),
		sprintInsts: make([]uint64, cfg.Cores),
		sprintCnt:   make([]isa.ClassCounts, cfg.Cores),
		nextRegion:  firstProc,
	}
	m.K = kernel.New(m.Mem, slabBase, slabSize)
	m.K.Clock = func() uint64 { return m.virtInstr }
	m.K.OnWake = func(p *kernel.Process) { m.rq[p.CoreID] = append(m.rq[p.CoreID], p) }
	m.Coupler = newCouplerFor(m)
	// Native service processing advances the virtual (QEMU-mode) clock:
	// under emulation the database work executes for real.
	m.K.OnServiceTime = func(cycles uint64) { m.virtInstr += cycles }

	for i := 0; i < cfg.Cores; i++ {
		h := mem.NewHierarchy(cfg.Hier, m.DRAM)
		m.Hier = append(m.Hier, h)
	}
	m.Hier[0].SetPeer(m.Hier[1])
	m.Hier[1].SetPeer(m.Hier[0])
	for i := 0; i < cfg.Cores; i++ {
		m.O3 = append(m.O3, newO3For(m, i))
	}

	// Load the (shared, immutable) kernel image.
	prog := kimg.prog
	if end := prog.DataBase + uint64(len(prog.Data)); end > slabBase {
		return nil, fmt.Errorf("gemsys: kernel image overruns slab base (%#x)", end)
	}
	prog.LoadInto(m.Mem)
	m.kernelProg = prog
	m.fpConfig(cfg)
	m.fpProgram("kernel", prog)
	for _, num := range kernel.UserSyscalls {
		m.K.HandlerAddr[num] = prog.SymAddr(kernel.HandlerName(num))
	}
	m.K.UserExitAddr = prog.SymAddr("k_user_exit")

	// Register every component's counters into the hierarchical registry;
	// collectStats and the gem5-style text export project from it.
	m.Reg = trace.NewRegistry()
	m.Syms = trace.NewSymTable()
	m.Syms.AddProgram("kernel", prog.Syms, prog.FuncEnd)
	for ci := 0; ci < cfg.Cores; ci++ {
		prefix := fmt.Sprintf("machine.core%d", ci)
		m.O3[ci].RegisterStats(m.Reg, prefix+".o3")
		m.Hier[ci].RegisterStats(m.Reg, prefix)
	}
	m.K.RegisterStats(m.Reg, "machine.kernel")
	m.Reg.Func("machine.virtInstr", "functional-mode virtual clock (instructions)",
		func() uint64 { return m.virtInstr })
	m.Reg.Func("machine.dram.accesses", "shared-channel DRAM line fills",
		func() uint64 { return m.DRAM.Accesses })
	// Superblock-chaining telemetry of the active interpreter. Every value
	// counts execution since the last checkpoint restore (which severs all
	// links and resets the counters), so the export is identical whether
	// the block cache itself was warm or cold — the memoized and
	// non-memoized boot paths must stay byte-identical.
	m.Reg.Func("interp.blocks", "distinct translated blocks entered since restore",
		func() uint64 { return m.ChainStats().Blocks })
	m.Reg.Func("interp.chain_hits", "block transitions served by superblock links",
		func() uint64 { return m.ChainStats().Hits })
	m.Reg.Func("interp.chain_misses", "block transitions resolved through the entry-PC map",
		func() uint64 { return m.ChainStats().Misses })
	m.Reg.Func("interp.chain_breaks", "superblock links severed by block invalidation",
		func() uint64 { return m.ChainStats().Breaks })
	m.Reg.Formula("interp.chain_len_mean", "mean blocks executed per entry-PC map lookup",
		func() float64 { return m.ChainStats().MeanChainLen() })
	if cfg.Trace.Enabled {
		m.Tracer = trace.NewTracer(cfg.Trace.BufferEvents)
		period := cfg.Trace.SamplePeriod
		if period == 0 {
			period = trace.DefaultSamplePeriod
		}
		m.Prof = trace.NewProfiler(m.Syms, cfg.Cores, period)
		for ci := 0; ci < cfg.Cores; ci++ {
			d := m.Reg.NewDist(fmt.Sprintf("machine.core%d.o3.ecallLat", ci),
				"serializing ecall issue-to-commit latency")
			m.ecallLat = append(m.ecallLat, d)
			m.O3[ci].AttachTracer(m.Tracer, ci, d)
		}
	}
	return m, nil
}

func (m *Machine) compile(mod *ir.Module, base uint64) (*isa.Program, error) {
	switch m.Cfg.Arch {
	case isa.RV64:
		return riscv.Compile(mod, base)
	case isa.CISC64:
		return cisc.Compile(mod, base)
	}
	return nil, fmt.Errorf("gemsys: unknown arch %q", m.Cfg.Arch)
}

// Console returns everything simulated code wrote to the console.
func (m *Machine) Console() string { return m.K.Console.String() }

// VirtNS returns the machine's virtual clock (ns at 1 GHz, 1 CPI
// functional time) — the QEMU-mode time base.
func (m *Machine) VirtNS() uint64 { return m.virtInstr }

// Halted reports whether an m5 exit was executed.
func (m *Machine) Halted() bool { return m.halted }

// ChainStats snapshots the superblock-chaining telemetry of the active
// architecture's decode cache (see isa.ChainStats). Counters accumulate
// from the last checkpoint restore; in SingleStep mode they stay zero.
func (m *Machine) ChainStats() isa.ChainStats {
	if m.Cfg.Arch == isa.RV64 {
		return m.decRV.ChainStats()
	}
	return m.decC.ChainStats()
}

// Spawn compiles mod into a fresh region, creates a process running entry
// with args, pins it to coreID and enqueues it.
func (m *Machine) Spawn(name string, mod *ir.Module, entry string, coreID int, args []uint64) (*kernel.Process, error) {
	if coreID < 0 || coreID >= m.Cfg.Cores {
		return nil, fmt.Errorf("gemsys: bad core %d", coreID)
	}
	base := m.nextRegion
	if base+m.Cfg.RegionBytes > uint64(m.Cfg.MemBytes) {
		return nil, fmt.Errorf("gemsys: out of memory regions")
	}
	m.nextRegion += m.Cfg.RegionBytes

	prog, err := m.compile(mod, base)
	if err != nil {
		return nil, fmt.Errorf("gemsys: %s: %w", name, err)
	}
	imageEnd := prog.DataBase + uint64(len(prog.Data))
	if imageEnd > base+m.Cfg.RegionBytes {
		return nil, fmt.Errorf("gemsys: %s: image too large (%d bytes)", name, imageEnd-base)
	}
	prog.LoadInto(m.Mem)

	stackTop := base + m.Cfg.RegionBytes - 64
	p := &kernel.Process{
		Name:   name,
		CoreID: coreID,
		State:  kernel.ProcRunnable,
		Region: kernel.Region{Base: base, Size: m.Cfg.RegionBytes},
		Brk:    (imageEnd + 4095) &^ 4095,
	}

	switch m.Cfg.Arch {
	case isa.RV64:
		c := riscv.NewCore(m.Mem, m.decRV)
		c.Hook = m.hook
		c.Regs[riscv.RegRA] = m.K.UserExitAddr
		c.SetStackPtr(stackTop)
		p.Core = c
	case isa.CISC64:
		c := cisc.NewCore(m.Mem, m.decC)
		c.Hook = m.hook
		c.SetStackPtr(stackTop)
		// Push the exit stub as the entry function's return address.
		c.Regs[cisc.RSP] -= 8
		m.Mem.Store(c.Regs[cisc.RSP], 8, m.K.UserExitAddr)
		p.Core = c
	}
	p.Core.SetPC(prog.SymAddr(entry))
	for i, a := range args {
		p.Core.SetArg(i, a)
	}
	m.fpSpawn(name, coreID, prog.SymAddr(entry), args, prog)
	m.Syms.AddProgram(name, prog.Syms, prog.FuncEnd)
	m.K.AddProcess(p)
	m.rq[coreID] = append(m.rq[coreID], p)
	return p, nil
}

// syncClock folds instructions the stepping core retired since stepBase
// into the virtual clock. Called at every hook entry (so kernel code that
// reads K.Clock mid-block sees an exact per-instruction clock) and after
// every Step/StepN return.
func (m *Machine) syncClock(c isa.Core) {
	if n := c.InstrCount(); n != m.stepBase {
		m.virtInstr += n - m.stepBase
		m.stepBase = n
	}
}

// hook is the machine's environment-call dispatcher.
func (m *Machine) hook(c isa.Core) isa.EcallResult {
	m.syncClock(c)
	switch c.EcallNum() {
	case kernel.M5ResetStats:
		if m.sprinting {
			m.m5Pending |= isa.FlagM5Reset
		} else {
			c.Annotate(isa.FlagM5Reset, 0)
		}
		c.SetRet(0)
		return isa.EcallHandled
	case kernel.M5DumpStats:
		if m.sprinting {
			m.m5Pending |= isa.FlagM5Dump
		} else {
			c.Annotate(isa.FlagM5Dump, 0)
		}
		c.SetRet(0)
		return isa.EcallHandled
	case kernel.M5Checkpoint:
		m.ckptReq = true
		c.SetRet(0)
		return isa.EcallHandled
	case kernel.M5Exit:
		c.SetRet(0)
		return isa.EcallHalt
	}
	return m.K.Ecall(c, m.hookProc)
}

func (m *Machine) pickNext(ci int) *kernel.Process {
	if p := m.cur[ci]; p != nil && p.State == kernel.ProcRunnable {
		return p
	}
	prev := m.cur[ci]
	m.cur[ci] = nil
	rq := m.rq[ci]
	for len(rq) > 0 {
		p := rq[0]
		rq = rq[1:]
		if p.State == kernel.ProcRunnable {
			m.cur[ci] = p
			break
		}
	}
	m.rq[ci] = rq
	if m.Tracer != nil && m.cur[ci] != nil && m.cur[ci] != prev {
		// Functional-side event: stamped with the virtual clock, exported
		// on the scheduler track.
		m.Tracer.EmitAt(trace.EvCtxSwitch, uint8(ci), m.virtInstr, 0,
			uint64(m.cur[ci].ID), 0)
	}
	return m.cur[ci]
}

// stepQuantum runs up to Quantum instructions of core ci's current
// process through the batched block-execution fast path, reporting
// whether any instruction executed. Per-instruction concerns of the old
// loop are hoisted to block boundaries: the recording-mode branch and
// idle check run once per StepN round, and the checkpoint/panic polls
// rely on StepN returning at the block boundary after every environment
// call (the only place those flags can change).
func (m *Machine) stepQuantum(ci int) (bool, error) {
	if m.SingleStep {
		return m.stepQuantumSlow(ci)
	}
	p := m.pickNext(ci)
	if p == nil {
		return false, nil
	}
	m.hookProc = p
	ran := false
	// The recording-lane decision cannot change mid-quantum, so the
	// trace-buffer seeding is hoisted out of the superblock-exit loop
	// (nil means the no-trace lane, so the first recording round must
	// seed a real, empty slice).
	recording := m.recording
	if recording && m.traces[ci] == nil {
		m.traces[ci] = make([]isa.TraceRec, 0, m.Cfg.Quantum)
	}
	for rem := m.Cfg.Quantum; rem > 0; {
		if p.NeedsIdle {
			p.NeedsIdle = false
			if recording {
				m.traces[ci] = append(m.traces[ci], isa.TraceRec{
					Class: isa.ClassIdle, Seq: p.WakeSeq,
					Src1: isa.NoDep, Src2: isa.NoDep, Dst: isa.NoDep,
				})
			} else if m.sprinting {
				// The idle pseudo-record the recording lane would have
				// appended occupies one retired-record slot; charging it
				// against the quantum keeps the sprint's record count
				// exact so it never overshoots its target.
				m.sprintIdle[ci]++
				rem--
				if rem == 0 {
					return ran, nil
				}
			}
		}
		m.stepBase = p.Core.InstrCount()
		var n int
		var err error
		if recording {
			n, m.traces[ci], err = p.Core.StepN(rem, m.traces[ci])
		} else if m.sprinting {
			cc0 := p.Core.Classes()
			n, _, err = p.Core.StepN(rem, nil)
			if n > 0 {
				m.sprintInsts[ci] += uint64(n)
				m.sprintCnt[ci].Add(p.Core.Classes().Since(cc0))
			}
		} else {
			n, _, err = p.Core.StepN(rem, nil)
		}
		m.syncClock(p.Core)
		if n > 0 {
			ran = true
		}
		rem -= n
		if err != nil {
			switch err {
			case isa.ErrBlock:
				m.cur[ci] = nil
				return ran, nil
			case isa.ErrHalt:
				m.halted = true
				return ran, nil
			default:
				return ran, fmt.Errorf("gemsys: core %d proc %s: %w", ci, p.Name, err)
			}
		}
		if m.ckptReq || m.K.Panicked || m.m5Pending != 0 {
			return ran, nil
		}
	}
	return ran, nil
}

// stepQuantumSlow is the per-instruction reference scheduler loop, kept
// verbatim as the differential baseline for the fast path above.
func (m *Machine) stepQuantumSlow(ci int) (bool, error) {
	p := m.pickNext(ci)
	if p == nil {
		return false, nil
	}
	m.hookProc = p
	ran := false
	for i := 0; i < m.Cfg.Quantum; i++ {
		if p.NeedsIdle {
			p.NeedsIdle = false
			if m.recording {
				m.traces[ci] = append(m.traces[ci], isa.TraceRec{
					Class: isa.ClassIdle, Seq: p.WakeSeq,
					Src1: isa.NoDep, Src2: isa.NoDep, Dst: isa.NoDep,
				})
			}
		}
		m.stepBase = p.Core.InstrCount()
		var err error
		if m.recording {
			m.traces[ci], err = p.Core.Step(m.traces[ci])
		} else {
			m.scratch, err = p.Core.Step(m.scratch[:0])
		}
		m.syncClock(p.Core)
		ran = true
		if err != nil {
			switch err {
			case isa.ErrBlock:
				m.cur[ci] = nil
				return ran, nil
			case isa.ErrHalt:
				m.halted = true
				return ran, nil
			default:
				return ran, fmt.Errorf("gemsys: core %d proc %s: %w", ci, p.Name, err)
			}
		}
		if m.ckptReq || m.K.Panicked {
			return ran, nil
		}
	}
	return ran, nil
}

// recoverMemFault, deferred by every run entry point, ends a run whose
// guest code (or the kernel acting for it) accessed memory out of range:
// it turns the *isa.MemFault panic into the run's error, naming the
// process that was stepping. Any other panic is a simulator bug and
// propagates. A faulted machine's execution state is undefined until
// the next Restore.
func (m *Machine) recoverMemFault(err *error) {
	r := recover()
	if r == nil {
		return
	}
	f, ok := r.(*isa.MemFault)
	if !ok {
		panic(r)
	}
	name := "?"
	if m.hookProc != nil {
		name = m.hookProc.Name
	}
	*err = fmt.Errorf("gemsys: proc %s: guest memory fault: %w", name, f)
}

// pump advances functional execution one scheduling round.
func (m *Machine) pump() (bool, error) {
	any := false
	for ci := 0; ci < m.Cfg.Cores; ci++ {
		ran, err := m.stepQuantum(ci)
		if err != nil {
			return any, err
		}
		any = any || ran
		if m.halted || m.ckptReq || m.K.Panicked {
			break
		}
	}
	if err := m.panicErr(); err != nil {
		return any, err
	}
	return any, nil
}

// RunSetup executes functionally (the atomic-CPU setup mode) until an m5
// checkpoint is requested, the machine halts, or budget instructions run.
// Like every run entry point, it returns a guest memory fault as an error
// wrapping *isa.MemFault.
func (m *Machine) RunSetup(budget uint64) (err error) {
	defer m.recoverMemFault(&err)
	m.recording = false
	start := m.virtInstr
	for !m.halted && !m.ckptReq {
		ran, err := m.pump()
		if err != nil {
			return err
		}
		if !ran {
			return fmt.Errorf("%w (setup: all processes blocked)", ErrDeadlock)
		}
		if m.virtInstr-start > budget {
			return fmt.Errorf("gemsys: setup exceeded %d instructions", budget)
		}
	}
	if err := m.panicErr(); err != nil {
		return err
	}
	m.Atomic.Retire(m.virtInstr - start)
	return nil
}

// CheckpointPending reports whether an m5 checkpoint was requested.
func (m *Machine) CheckpointPending() bool { return m.ckptReq }

func (m *Machine) queueLen(ci int) int { return len(m.traces[ci]) - m.cursor[ci] }

// compactTrace rewinds a drained queue to its start, so recording refills
// the same small buffer, and otherwise drops the consumed prefix once it
// dominates.
func (m *Machine) compactTrace(ci int) {
	if m.cursor[ci] == len(m.traces[ci]) {
		m.traces[ci] = m.traces[ci][:0]
		m.cursor[ci] = 0
		return
	}
	if m.cursor[ci] > 1<<16 && m.cursor[ci]*2 > len(m.traces[ci]) {
		n := copy(m.traces[ci], m.traces[ci][m.cursor[ci]:])
		m.traces[ci] = m.traces[ci][:n]
		m.cursor[ci] = 0
	}
}

// coreStats projects one core's counters out of the hierarchical registry
// — the registry is the single source; CoreStats is just the shape the
// figures pipeline consumes.
func (m *Machine) coreStats(ci int) stats.CoreStats {
	p := fmt.Sprintf("machine.core%d", ci)
	return stats.CoreStats{
		Cycles:      m.Reg.U64(p + ".o3.windowCycles"),
		Insts:       m.Reg.U64(p + ".o3.insts"),
		MicroOps:    m.Reg.U64(p + ".o3.microops"),
		Loads:       m.Reg.U64(p + ".o3.loads"),
		Stores:      m.Reg.U64(p + ".o3.stores"),
		Branches:    m.Reg.U64(p + ".o3.branches"),
		Mispredicts: m.Reg.U64(p + ".o3.mispredicts"),
		L1IAccesses: m.Reg.U64(p + ".l1i.accesses"),
		L1IMisses:   m.Reg.U64(p + ".l1i.misses"),
		L1DAccesses: m.Reg.U64(p + ".l1d.accesses"),
		L1DMisses:   m.Reg.U64(p + ".l1d.misses"),
		L2Accesses:  m.Reg.U64(p + ".l2.accesses"),
		L2Misses:    m.Reg.U64(p + ".l2.misses"),
		ITLBMisses:  m.Reg.U64(p + ".itlb.misses"),
		DTLBMisses:  m.Reg.U64(p + ".dtlb.misses"),
	}
}

// collectStats projects a full-detail stats.Dump for every core.
func (m *Machine) collectStats(label string) stats.Dump {
	d := stats.Dump{Label: label}
	for ci := 0; ci < m.Cfg.Cores; ci++ {
		d.Cores = append(d.Cores, m.coreStats(ci))
	}
	return d
}

// pendingTrace reports whether any core still has unretired trace records.
func (m *Machine) pendingTrace() bool {
	for ci := range m.traces {
		if m.queueLen(ci) > 0 {
			return true
		}
	}
	return false
}

// EvalRetired returns how many trace records the last (or in-progress)
// RunEval retired — the clock the sampling phase machine and the eval
// budget are measured in.
func (m *Machine) EvalRetired() uint64 { return m.evalRetired }

// RunEval runs evaluation mode: functional execution feeds per-core
// instruction traces into the detailed O3 models; m5 reset/dump markers
// delimit stats windows. It returns one Dump per m5 dump-stats operation.
func (m *Machine) RunEval(budget uint64) ([]stats.Dump, error) {
	return m.RunEvalSampled(budget, SamplingConfig{})
}

// sprintDone is the number of retired-record slots the in-progress (or
// just-finished) sprint consumed: instructions stepped plus idle events
// that would have produced pseudo-records on the recording lane.
func (m *Machine) sprintDone() uint64 {
	var t uint64
	for ci, n := range m.sprintInsts {
		t += n + m.sprintIdle[ci]
	}
	return t
}

// sprint executes up to target retired-record slots purely functionally —
// no trace records built, no timing models touched — and reports how many
// it consumed. This is the sampled eval loop's true fast-forward lane: the
// bulk record lane still pays the recording interpreter plus a touch per
// record, while a sprint runs the no-trace interpreter flat out. The
// caller owns the consequences: it must fold the per-core census into the
// sampler, advance the retired clock, set the coupler floor (sends during
// the sprint post no commit times), and process any parked m5 marker.
// The sprint stops early at a marker, a halt, a checkpoint request, or a
// kernel panic; running out of runnable processes with slots still to
// consume is the same deadlock it would be in setup mode.
func (m *Machine) sprint(target uint64) (uint64, error) {
	m.recording = false
	m.sprinting = true
	for ci := range m.sprintCnt {
		m.sprintIdle[ci] = 0
		m.sprintInsts[ci] = 0
		m.sprintCnt[ci] = isa.ClassCounts{}
	}
	q0 := m.Cfg.Quantum
	defer func() {
		m.Cfg.Quantum = q0
		m.sprinting = false
		m.recording = true
	}()
	for {
		d0 := m.sprintDone()
		if d0 >= target || m.halted || m.ckptReq || m.K.Panicked || m.m5Pending != 0 {
			break
		}
		any := false
		for ci := 0; ci < m.Cfg.Cores; ci++ {
			d := m.sprintDone()
			if d >= target {
				break
			}
			// Narrowing the quantum to the remaining slot count makes
			// StepN (and the idle charge above) land exactly on target.
			if left := target - d; left < uint64(q0) {
				m.Cfg.Quantum = int(left)
			} else {
				m.Cfg.Quantum = q0
			}
			ran, err := m.stepQuantum(ci)
			if err != nil {
				return m.sprintDone(), err
			}
			any = any || ran
			if m.halted || m.ckptReq || m.K.Panicked || m.m5Pending != 0 {
				break
			}
		}
		if err := m.panicErr(); err != nil {
			return m.sprintDone(), err
		}
		if !any && m.sprintDone() == d0 &&
			!m.halted && !m.ckptReq && m.m5Pending == 0 {
			return d0, fmt.Errorf("%w (eval sprint: all processes blocked)", ErrDeadlock)
		}
	}
	if err := m.panicErr(); err != nil {
		return m.sprintDone(), err
	}
	return m.sprintDone(), nil
}

// RunEvalSampled is RunEval with SMARTS-style sampling: per interval of
// sc.Interval retired records, the first sc.Detail retire through the full
// O3 model, the last sc.Warmup fast-forward with functional warming of
// caches/TLBs/branch predictors, and the remainder fast-forward at one
// functional cycle per record. Dumps are extrapolated from the measured
// windows (see sampler.dump). The zero SamplingConfig is bit-identical to
// RunEval.
func (m *Machine) RunEvalSampled(budget uint64, sc SamplingConfig) (_ []stats.Dump, err error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	defer m.recoverMemFault(&err)
	m.recording = true
	for _, o := range m.O3 {
		o.ColdStart()
		o.ResetStats()
	}
	var smp *sampler
	if sc.Enabled() {
		smp = newSampler(sc, m.O3)
	}
	var dumps []stats.Dump
	var retired uint64
	m.evalRetired = 0
	order := make([]int, m.Cfg.Cores)
	times := make([]uint64, m.Cfg.Cores)
	for {
		// Exact budget bound: the (budget+1)-th record must not retire.
		if retired >= budget && m.pendingTrace() {
			return dumps, fmt.Errorf("gemsys: eval exceeded %d instructions", budget)
		}
		// Order candidate cores by local time to approximate global
		// interleaving on the shared DRAM channel.
		for ci := range times {
			times[ci] = m.O3[ci].Now()
		}
		orderCoresByTime(order, times)
		progressed := false
		for k, ci := range order {
			if m.queueLen(ci) == 0 {
				continue
			}
			// Bulk fast-forward lane: outside detailed windows, plain
			// records need none of the per-record plumbing below (tracer,
			// profiler, flag dispatch), so a whole run up to the next
			// phase boundary retires in one tight loop. Observability
			// keeps the per-record path.
			if smp != nil && (smp.phase == phaseFF || smp.phase == phaseWarm) &&
				m.Tracer == nil && m.Prof == nil {
				room := smp.bulkRoom(retired)
				if left := budget - retired; left < room {
					room = left
				}
				if room > 0 {
					recs := m.traces[ci][m.cursor[ci]:]
					if uint64(len(recs)) > room {
						recs = recs[:room]
					}
					var bc cpu.BatchCounts
					if n := m.O3[ci].FastForwardBatch(recs, smp.phase == phaseWarm, &bc); n > 0 {
						smp.accountBatch(ci, &bc)
						m.cursor[ci] += n
						m.compactTrace(ci)
						retired += uint64(n)
						m.evalRetired = retired
						smp.advance(retired)
						progressed = true
						break
					}
					// A flagged or idle record heads the queue: fall
					// through to the per-record path.
				}
			}
			// Retire a run of records from ci, choosing the core once
			// per run. The run is exactly the per-record interleave: a
			// plain record moves only ci's own clock, and another core
			// can become eligible only when a send posts to the coupler
			// or pump runs. So ci stays first until it reaches a flagged
			// or idle record, the budget, or a sampler phase change, or
			// until next, the first core after it in (time, index) order
			// with queued records, would come first. The run consumes
			// recs in place and advances the cursor once at its end.
			next := -1
			for _, cj := range order[k+1:] {
				if m.queueLen(cj) > 0 {
					next = cj
					break
				}
			}
			var phase evalPhase
			if smp != nil {
				phase = smp.phase
			}
			recs := m.traces[ci][m.cursor[ci]:]
			n := 0
			for {
				rec := &recs[n]
				var ct uint64
				var err error
				if smp == nil {
					ct, err = m.O3[ci].Retire(rec)
				} else {
					switch smp.phase {
					case phaseDetail, phaseDetailPre:
						ct, err = m.O3[ci].Retire(rec)
					case phaseWarm:
						ct, err = m.O3[ci].FastForward(rec, true)
					default:
						ct, err = m.O3[ci].FastForward(rec, false)
					}
				}
				if err == cpu.ErrWait {
					// Only a run's first record can wait: later ones
					// are plain.
					break
				}
				if err != nil {
					return dumps, err
				}
				flags := rec.Flags
				if m.Tracer != nil {
					m.Tracer.EmitAt(trace.EvInstRetire, uint8(ci), ct, rec.PC,
						uint64(rec.Class), uint64(rec.MicroOps))
					if flags&isa.FlagSend != 0 {
						m.Tracer.EmitAt(trace.EvIPCSend, uint8(ci), ct, rec.PC, rec.Seq, 0)
					}
					if flags&isa.FlagRecv != 0 {
						m.Tracer.EmitAt(trace.EvIPCRecv, uint8(ci), ct, rec.PC, rec.Seq, 0)
					}
					if flags&isa.FlagM5Reset != 0 {
						m.Tracer.EmitAt(trace.EvM5Reset, uint8(ci), ct, rec.PC, 0, 0)
					}
					if flags&isa.FlagM5Dump != 0 {
						m.Tracer.EmitAt(trace.EvM5Dump, uint8(ci), ct, rec.PC, 0, 0)
					}
				}
				if m.Prof != nil {
					switch rec.Class {
					case isa.ClassCall:
						m.Prof.OnCall(ci, rec.Target)
					case isa.ClassRet:
						m.Prof.OnRet(ci)
					case isa.ClassEcall:
						if flags&isa.FlagVector != 0 {
							// The handler's ret balances this push.
							m.Prof.OnCall(ci, rec.Seq)
						}
					}
					if rec.Class == isa.ClassIdle {
						m.Prof.SkipIdle(ci, ct)
					} else {
						m.Prof.Observe(ci, ct, rec.PC)
					}
				}
				if smp != nil {
					smp.account(ci, rec)
				}
				n++
				retired++
				m.evalRetired = retired
				if flags&(isa.FlagM5Reset|isa.FlagM5Dump) != 0 {
					dumps = m.m5Markers(flags, smp, retired, dumps)
				}
				if smp != nil {
					smp.advance(retired)
					if smp.phase != phase {
						break
					}
				}
				if flags != 0 || rec.Class == isa.ClassIdle || retired >= budget || n == len(recs) {
					break
				}
				if head := &recs[n]; head.Flags != 0 || head.Class == isa.ClassIdle {
					break
				}
				if next >= 0 {
					if t := m.O3[ci].Now(); t > times[next] || (t == times[next] && ci > next) {
						break
					}
				}
			}
			if n == 0 {
				continue
			}
			m.cursor[ci] += n
			m.compactTrace(ci)
			progressed = true
			break
		}
		if progressed {
			continue
		}
		if m.halted {
			if err := m.panicErr(); err != nil {
				return dumps, err
			}
			if !m.pendingTrace() {
				return dumps, nil
			}
			return dumps, fmt.Errorf("%w (eval: pending trace cannot retire)", ErrDeadlock)
		}
		// Nothing can retire and the grid is in the fast-forward phase:
		// sprint the functional cores to the phase boundary with recording
		// off entirely, then fold the census and let any parked m5 marker
		// replay through the same bookkeeping the per-record path uses.
		// Observability and the single-step reference keep the recorded
		// pump below.
		if smp != nil && smp.phase == phaseFF && !m.SingleStep &&
			m.Tracer == nil && m.Prof == nil {
			room := smp.bulkRoom(retired)
			if left := budget - retired; left < room {
				room = left
			}
			if room > 0 {
				n, err := m.sprint(room)
				if n > 0 {
					for ci := range m.O3 {
						smp.sprintFold(ci, m.sprintInsts[ci], m.sprintCnt[ci])
						// Advance each core's functional clock exactly as
						// the record-replay fast-forward lane would have:
						// one cycle per retired-record slot.
						m.O3[ci].SkipAhead(m.sprintInsts[ci] + m.sprintIdle[ci])
					}
					retired += n
					m.evalRetired = retired
					// Sends executed during the sprint never post commit
					// times; collapse them (and their derivations) onto the
					// modeled-time horizon so post-sprint receives resolve
					// instead of waiting forever.
					seq, _ := m.K.SnapState()
					var horizon uint64
					for _, o := range m.O3 {
						if t := o.Now(); t > horizon {
							horizon = t
						}
					}
					m.Coupler.SetFloor(seq, horizon)
				}
				if err != nil {
					return dumps, err
				}
				if pend := m.m5Pending; pend != 0 {
					m.m5Pending = 0
					dumps = m.m5Markers(pend, smp, retired, dumps)
				}
				smp.advance(retired)
				if n > 0 {
					continue
				}
			}
		}
		ran, err := m.pump()
		if err != nil {
			return dumps, err
		}
		if !ran && !m.pendingTrace() {
			return dumps, fmt.Errorf("%w (eval: all processes blocked)", ErrDeadlock)
		}
	}
}

// m5Markers applies the m5 markers in flags, met after retired records,
// wherever RunEvalSampled meets them: on a flagged record, or parked by
// the hook during a sprint. A reset zeroes the O3 and ecall-latency stats
// and restarts the sampler's measurement; a dump then appends the next
// stats dump, extrapolated when sampling (smp != nil).
func (m *Machine) m5Markers(flags uint8, smp *sampler, retired uint64, dumps []stats.Dump) []stats.Dump {
	if flags&isa.FlagM5Reset != 0 {
		for _, o := range m.O3 {
			o.ResetStats()
		}
		for _, d := range m.ecallLat {
			d.Reset()
		}
		if smp != nil {
			smp.reset(retired)
		}
	}
	if flags&isa.FlagM5Dump != 0 {
		name := fmt.Sprintf("dump%d", len(dumps)+1)
		if smp != nil {
			dumps = append(dumps, smp.dump(m, name))
		} else {
			dumps = append(dumps, m.collectStats(name))
		}
	}
	return dumps
}

// Quiescent reports whether the machine is alive but idle: not halted,
// with no runnable process on any core. This is the single halted/idle
// predicate shared by RunUntilIdle and the cluster fabric's quantum loop —
// a machine parked in a channel wait (e.g. blocked on a network message
// that has not arrived yet) is quiescent, never "halted": halting is
// exclusively the m5 exit operation. Every runnable process is reachable
// through the per-core run queues and steps at least one instruction when
// scheduled, so "no runnable process" is exactly the condition under which
// a scheduler pump would report no progress.
func (m *Machine) Quiescent() bool {
	if m.halted {
		return false
	}
	for _, p := range m.K.Procs {
		if p.State == kernel.ProcRunnable {
			return false
		}
	}
	return true
}

// RunUntilIdle executes functionally until every process is blocked or
// dead, the machine halts, or budget instructions execute. Unlike
// RunFunctional, quiescence is success, not deadlock: a host-driven
// machine (see kernel.Inject) hands control back exactly when it has
// consumed all injected work and everyone is waiting for more.
func (m *Machine) RunUntilIdle(budget uint64) (err error) {
	defer m.recoverMemFault(&err)
	m.recording = false
	start := m.virtInstr
	for !m.halted {
		if m.Quiescent() {
			return nil
		}
		if _, err := m.pump(); err != nil {
			return err
		}
		if m.virtInstr-start > budget {
			return fmt.Errorf("gemsys: host-driven run exceeded %d instructions", budget)
		}
	}
	return m.panicErr()
}

// RunQuantum advances functional execution by roughly quantum virtual
// instructions (rounded up to whole scheduling rounds), stopping early on
// quiescence or halt. It returns done=true when the machine has no more
// work — quiescent (waiting for the next injected message) or halted —
// and done=false when the quantum expired with work still runnable, in
// which case the caller (the cluster fabric) should reschedule the
// machine after giving co-simulated machines a chance to catch up in
// virtual time. RunQuantum and RunUntilIdle share the Quiescent
// predicate, so the fabric can never misreport a parked machine.
func (m *Machine) RunQuantum(quantum uint64) (_ bool, err error) {
	defer m.recoverMemFault(&err)
	m.recording = false
	start := m.virtInstr
	for !m.halted {
		if m.Quiescent() {
			return true, nil
		}
		if _, err := m.pump(); err != nil {
			return false, err
		}
		if m.virtInstr-start >= quantum {
			return m.Quiescent(), nil
		}
	}
	return true, m.panicErr()
}

// AdvanceClock raises the machine's virtual clock to at least `to`
// nanoseconds, modeling idle wall-clock time passing while the machine
// waits for external input (a network message in flight). Clocks never
// move backwards: a `to` at or below the current clock is a no-op.
func (m *Machine) AdvanceClock(to uint64) {
	if to > m.virtInstr {
		m.virtInstr = to
	}
}

// KillProcess marks the named process dead, so the scheduler never runs
// it again. The load-generation layer kills the restored client process
// and drives the surviving server host-side.
func (m *Machine) KillProcess(name string) error {
	for _, p := range m.K.Procs {
		if p.Name == name {
			p.State = kernel.ProcDead
			return nil
		}
	}
	return fmt.Errorf("gemsys: no process named %q", name)
}

// RunFunctional executes functionally until halt (QEMU mode).
func (m *Machine) RunFunctional(budget uint64) (err error) {
	defer m.recoverMemFault(&err)
	m.recording = false
	start := m.virtInstr
	for !m.halted {
		ran, err := m.pump()
		if err != nil {
			return err
		}
		if !ran {
			return fmt.Errorf("%w (functional)", ErrDeadlock)
		}
		if m.virtInstr-start > budget {
			return fmt.Errorf("gemsys: functional run exceeded %d instructions", budget)
		}
	}
	return m.panicErr()
}

// ErrKVMUnstable reports that the KVM-accelerated setup tripped the
// documented instability around m5 magic instructions (§3.4.1 of the
// thesis: frequent freezes when checkpointing under KVM).
var ErrKVMUnstable = errors.New("gemsys: KVM core froze at the checkpoint magic instruction")

// RunSetupKVM fast-forwards the setup phase using the KVM-style CPU model.
// When the checkpoint magic instruction trips KVM's instability, it
// returns ErrKVMUnstable and the machine must be rebuilt and re-run with
// the atomic core (RunSetup) — the fallback the thesis's methodology
// settled on.
func (m *Machine) RunSetupKVM(kvm *cpu.KVM, budget uint64) (err error) {
	defer m.recoverMemFault(&err)
	m.recording = false
	start := m.virtInstr
	for !m.halted && !m.ckptReq {
		ran, err := m.pump()
		if err != nil {
			return err
		}
		if !ran {
			return fmt.Errorf("%w (kvm setup: all processes blocked)", ErrDeadlock)
		}
		if m.virtInstr-start > budget {
			return fmt.Errorf("gemsys: kvm setup exceeded %d instructions", budget)
		}
	}
	kvm.Retire(m.virtInstr - start)
	if m.ckptReq && !kvm.TryCheckpoint() {
		return ErrKVMUnstable
	}
	return nil
}
