package riscv

import (
	"math/rand"
	"reflect"
	"testing"

	"svbench/internal/ir/irtest"
	"svbench/internal/isa"
)

// errText renders an error for differential comparison: the fast path
// must fail with the very same error the single-step path fails with.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// lockstep drives a reference core (per-instruction Step) and two fast
// cores (StepN trace lane, StepN no-trace lane) through the same program,
// comparing architectural snapshots, trace records, retired counts and
// errors after every batch. Batch sizes cycle through batches. It returns
// the reference core after ErrHalt.
func lockstep(t *testing.T, mk func() *Core, batches []int, maxRounds int) *Core {
	t.Helper()
	ref, fastT, fastF := mk(), mk(), mk()
	var refRecs []isa.TraceRec
	// Must start non-nil: a nil slice selects StepN's no-trace lane.
	fastRecs := make([]isa.TraceRec, 0, 256)
	for round := 0; ; round++ {
		if round > maxRounds {
			t.Fatalf("no halt after %d rounds", maxRounds)
		}
		k := batches[round%len(batches)]
		var ferr error
		n, out, ferr := fastT.StepN(k, fastRecs[:0])
		fastRecs = out
		before := fastF.Classes()
		n2, _, ferr2 := fastF.StepN(k, nil)
		if n2 != n || errText(ferr2) != errText(ferr) {
			t.Fatalf("round %d: no-trace lane diverged: n=%d err=%v vs n=%d err=%v",
				round, n2, ferr2, n, ferr)
		}
		refRecs = refRecs[:0]
		var rerr error
		for j := 0; j < n; j++ {
			refRecs, rerr = ref.Step(refRecs)
			if rerr != nil && j != n-1 {
				t.Fatalf("round %d: ref errored early at %d/%d: %v", round, j, n, rerr)
			}
		}
		if n == 0 && ferr != nil {
			// The fast path failed before retiring anything; the reference
			// must fail identically on its next instruction.
			refRecs, rerr = ref.Step(refRecs[:0])
		}
		if errText(rerr) != errText(ferr) {
			t.Fatalf("round %d: error mismatch: ref=%v fast=%v", round, rerr, ferr)
		}
		if len(refRecs) != len(fastRecs) {
			t.Fatalf("round %d: %d ref recs vs %d fast recs", round, len(refRecs), len(fastRecs))
		}
		for i := range refRecs {
			if refRecs[i] != fastRecs[i] {
				t.Fatalf("round %d rec %d:\nref  %+v\nfast %+v", round, i, refRecs[i], fastRecs[i])
			}
		}
		// The no-trace lane folds a census instead of building records; it
		// must count exactly what the reference records would.
		var census isa.ClassCounts
		census.AddRecs(refRecs)
		if got := fastF.Classes().Since(before); got != census {
			t.Fatalf("round %d: no-trace census %+v, want %+v", round, got, census)
		}
		if ct, cf := fastT.Dec.ChainStats(), fastF.Dec.ChainStats(); ct != cf {
			t.Fatalf("round %d: chain stats diverged between lanes: trace %+v, no-trace %+v", round, ct, cf)
		}
		rs, ts, fs := ref.Snapshot(), fastT.Snapshot(), fastF.Snapshot()
		if !reflect.DeepEqual(rs, ts) || !reflect.DeepEqual(rs, fs) {
			t.Fatalf("round %d: state diverged\nref   %v\ntrace %v\nfast  %v", round, rs, ts, fs)
		}
		if ref.DebugRing != nil {
			if ref.DebugPos() != fastT.DebugPos() || ref.DebugPos() != fastF.DebugPos() ||
				!reflect.DeepEqual(ref.DebugRing, fastT.DebugRing) ||
				!reflect.DeepEqual(ref.DebugRing, fastF.DebugRing) {
				t.Fatalf("round %d: debug ring diverged", round)
			}
		}
		if ferr == ErrHalt {
			return ref
		}
		if ferr != nil && ferr != ErrBlock {
			t.Fatalf("round %d: unexpected error %v", round, ferr)
		}
	}
}

// corpusCore builds a core set up exactly like the interpreter tests do:
// program loaded, exit stub at 0x100, halting hook.
func corpusCore(prog *isa.Program, fn string, args []int64, ring int) func() *Core {
	return func() *Core {
		mem := isa.NewMem(1 << 21)
		prog.LoadInto(mem)
		stub := uint64(0x100)
		mem.Store(stub, 4, uint64(Inst{Kind: KindADDI, Rd: RegA7, Rs1: RegZero, Imm: 255}.Encode()))
		mem.Store(stub+4, 4, uint64(Inst{Kind: KindECALL}.Encode()))
		core := NewCore(mem, nil)
		core.Hook = func(c isa.Core) isa.EcallResult {
			if c.EcallNum() == 255 {
				return isa.EcallHalt
			}
			return isa.EcallHandled
		}
		core.SetPC(prog.SymAddr(fn))
		core.SetStackPtr(1 << 20)
		core.Regs[RegRA] = stub
		for i, a := range args {
			core.SetArg(i, uint64(a))
		}
		if ring > 0 {
			core.DebugRing = make([]uint64, ring)
		}
		return core
	}
}

// TestStepNLockstepCorpus pins the fast path to the reference interpreter
// over the whole IR test corpus, with batch sizes from 1 to well past the
// block length cap.
func TestStepNLockstepCorpus(t *testing.T) {
	m, cases := irtest.Corpus()
	prog, err := Compile(m, 0x10000)
	if err != nil {
		t.Fatal(err)
	}
	schedules := [][]int{{1}, {2, 3}, {7}, {32}, {64, 1, 5}, {256}}
	for i, c := range cases {
		c := c
		bs := schedules[i%len(schedules)]
		t.Run(c.Name, func(t *testing.T) {
			ref := lockstep(t, corpusCore(prog, c.Fn, c.Args, 8), bs, 10_000_000)
			if got := int64(ref.Regs[RegA0]); got != c.Want {
				t.Fatalf("%s(%v) = %d, want %d", c.Fn, c.Args, got, c.Want)
			}
		})
	}
}

// TestStepNLockstepEcallVariants exercises every ecall disposition —
// handled, vectored, blocking, halting — plus Annotate through both
// execution lanes.
func TestStepNLockstepEcallVariants(t *testing.T) {
	mk := func() *Core {
		mem := isa.NewMem(1 << 16)
		emit := func(pc uint64, in Inst) {
			mem.Store(pc, 4, uint64(in.Encode()))
		}
		pc := uint64(0x1000)
		for _, num := range []int64{7, 9, 11, 255} {
			emit(pc, Inst{Kind: KindADDI, Rd: RegA7, Rs1: RegZero, Imm: num})
			emit(pc+4, Inst{Kind: KindECALL})
			pc += 8
		}
		// Vector handler: a0++; ret.
		emit(0x2000, Inst{Kind: KindADDI, Rd: RegA0, Rs1: RegA0, Imm: 1})
		emit(0x2004, Inst{Kind: KindJALR, Rd: RegZero, Rs1: RegRA})
		core := NewCore(mem, nil)
		core.Hook = func(c isa.Core) isa.EcallResult {
			switch c.EcallNum() {
			case 7:
				c.Annotate(isa.FlagSend, 77)
				c.SetRet(42)
				return isa.EcallHandled
			case 9:
				c.CallInto(0x2000)
				c.Annotate(isa.FlagVector, 0x2000)
				return isa.EcallVector
			case 11:
				c.Annotate(isa.FlagRecv, 5)
				return isa.EcallBlock
			}
			return isa.EcallHalt
		}
		core.SetPC(0x1000)
		core.SetStackPtr(0x8000)
		core.DebugRing = make([]uint64, 4)
		return core
	}
	for _, bs := range [][]int{{1}, {2}, {3}, {5}, {100}} {
		lockstep(t, mk, bs, 1000)
	}
}

// BenchmarkStepN times both StepN lanes running corpus programs to halt
// in scheduler-sized quanta on a reused core, so after the first run every
// block is translated and chained. It reports guest MIPS.
func BenchmarkStepN(b *testing.B) {
	m, cases := irtest.Corpus()
	prog, err := Compile(m, 0x10000)
	if err != nil {
		b.Fatal(err)
	}
	const quantum = 256 // the machine's default scheduling quantum
	for _, lane := range []string{"trace", "notrace"} {
		for _, c := range cases {
			if c.Name != "checksum" && c.Name != "fib-30" && c.Name != "caller" {
				continue
			}
			c := c
			b.Run(lane+"/"+c.Fn, func(b *testing.B) {
				core := corpusCore(prog, c.Fn, c.Args, 0)()
				start := core.Snapshot()
				var recs []isa.TraceRec // nil selects the no-trace lane
				if lane == "trace" {
					recs = make([]isa.TraceRec, 0, quantum)
				}
				var insts uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					core.Restore(start)
					for {
						_, out, err := core.StepN(quantum, recs)
						if recs != nil {
							recs = out[:0]
						}
						if err == ErrHalt {
							break
						}
						if err != nil {
							b.Fatal(err)
						}
					}
					insts += core.InstrCount()
				}
				b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "MIPS")
				// The result is in a0.
				if got := int64(core.Regs[RegA0]); got != c.Want {
					b.Fatalf("%s(%v) = %d, want %d", c.Fn, c.Args, got, c.Want)
				}
			})
		}
	}
}

// TestDecodeCacheSequential verifies the sequential-PC fast path serves
// exactly what a cold cache decodes, including across page boundaries.
func TestDecodeCacheSequential(t *testing.T) {
	mem := isa.NewMem(1 << 16)
	// Straight-line run crossing the 4 KiB page boundary at 0x2000.
	start, end := uint64(0x1F00), uint64(0x2100)
	i := int64(0)
	for pc := start; pc < end; pc += 4 {
		mem.Store(pc, 4, uint64(Inst{Kind: KindADDI, Rd: 5, Rs1: 6, Imm: i % 100}.Encode()))
		i++
	}
	seq := NewDecodeCache()
	for pass := 0; pass < 3; pass++ {
		for pc := start; pc < end; pc += 4 {
			cold := NewDecodeCache()
			want, err := cold.lookup(pc, mem)
			if err != nil {
				t.Fatal(err)
			}
			got, err := seq.lookup(pc, mem)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("pc=%#x pass=%d: seq %+v != cold %+v", pc, pass, got, want)
			}
		}
	}
}

// TestDebugRingWrap checks the explicit wrap-around: the cursor stays in
// range and the ring holds the most recent PCs.
func TestDebugRingWrap(t *testing.T) {
	mem := isa.NewMem(1 << 16)
	const n = 10
	for j := 0; j < n; j++ {
		mem.Store(uint64(0x1000+4*j), 4, uint64(Inst{Kind: KindADDI, Rd: 5, Rs1: 5, Imm: 1}.Encode()))
	}
	mem.Store(0x1000+4*n, 4, uint64(Inst{Kind: KindECALL}.Encode()))
	core := NewCore(mem, nil)
	core.Hook = func(c isa.Core) isa.EcallResult { return isa.EcallHalt }
	core.SetPC(0x1000)
	core.DebugRing = make([]uint64, 4)
	var err error
	for err == nil {
		_, _, err = core.StepN(3, nil)
	}
	if err != ErrHalt {
		t.Fatal(err)
	}
	if p := core.DebugPos(); p < 0 || p >= len(core.DebugRing) {
		t.Fatalf("cursor %d out of range", p)
	}
	// 11 pushes into a 4-entry ring: ring[i] holds the latest pc with
	// push index ≡ i (mod 4).
	want := []uint64{0x1000 + 4*8, 0x1000 + 4*9, 0x1000 + 4*10, 0x1000 + 4*7}
	if !reflect.DeepEqual(core.DebugRing, want) {
		t.Fatalf("ring = %#x, want %#x", core.DebugRing, want)
	}
	if core.DebugPos() != 11%4 {
		t.Fatalf("cursor = %d, want %d", core.DebugPos(), 11%4)
	}
}

// TestInvalidateBlocks drops the block cache mid-run and checks execution
// continues bit-identically.
func TestInvalidateBlocks(t *testing.T) {
	m, cases := irtest.Corpus()
	prog, err := Compile(m, 0x10000)
	if err != nil {
		t.Fatal(err)
	}
	c := cases[0]
	ref := corpusCore(prog, c.Fn, c.Args, 0)()
	fast := corpusCore(prog, c.Fn, c.Args, 0)()
	var ferr error
	rounds := 0
	for ferr == nil {
		var n int
		n, _, ferr = fast.StepN(50, nil)
		if rounds == 2 {
			// Without a ResetChains every translated block has been
			// entered exactly once, so Blocks counts the cache. What
			// Invalidate leaves behind is checked in internal/isa.
			if fast.Dec.ChainStats().Blocks == 0 {
				t.Fatal("no blocks cached after 3 rounds")
			}
			fast.Dec.InvalidateBlocks()
		}
		for j := 0; j < n; j++ {
			if _, rerr := ref.Step(nil); rerr != nil && rerr != ferr {
				t.Fatal(rerr)
			}
		}
		rounds++
	}
	if ferr != ErrHalt {
		t.Fatal(ferr)
	}
	if !reflect.DeepEqual(ref.Snapshot(), fast.Snapshot()) {
		t.Fatal("state diverged after invalidation")
	}
}

// fuzzProgram synthesizes a random valid instruction stream from fuzz
// bytes: straight-line ALU/memory work, forward-only branches, ending in
// a halting ecall. x3 is reserved as the memory base register so every
// access stays inside [0x8000, 0x8800).
func fuzzProgram(data []byte) []Inst {
	r := rand.New(rand.NewSource(int64(len(data)) * 2654435761))
	byteAt := func(i int) int {
		if len(data) == 0 {
			return 0
		}
		return int(data[i%len(data)])
	}
	nInst := 8 + byteAt(0)%120
	var prog []Inst
	prog = append(prog, Inst{Kind: KindLUI, Rd: 3, Imm: 8}) // x3 = 0x8000
	reg := func(i int) uint8 {
		rd := uint8(byteAt(i) % 32)
		if rd == 3 {
			rd = 30
		}
		return rd
	}
	aluReg := []Kind{KindADD, KindSUB, KindSLL, KindSLT, KindSLTU, KindXOR,
		KindSRL, KindSRA, KindOR, KindAND, KindMUL, KindMULHU, KindDIV,
		KindDIVU, KindREM, KindREMU}
	aluImm := []Kind{KindADDI, KindADDIW, KindSLTI, KindSLTIU, KindXORI,
		KindORI, KindANDI}
	shImm := []Kind{KindSLLI, KindSRLI, KindSRAI}
	loads := []Kind{KindLB, KindLH, KindLW, KindLD, KindLBU, KindLHU, KindLWU}
	stores := []Kind{KindSB, KindSH, KindSW, KindSD}
	branches := []Kind{KindBEQ, KindBNE, KindBLT, KindBGE, KindBLTU, KindBGEU}
	type patch struct{ at, skip int }
	var patches []patch
	for i := 1; i < nInst; i++ {
		b := byteAt(i) ^ byteAt(i+17)<<3 ^ r.Int()
		sel := b % 100
		switch {
		case sel < 35:
			k := aluReg[b/100%len(aluReg)]
			prog = append(prog, Inst{Kind: k, Rd: reg(i), Rs1: uint8(byteAt(i+1) % 32), Rs2: uint8(byteAt(i+2) % 32)})
		case sel < 55:
			k := aluImm[b/100%len(aluImm)]
			prog = append(prog, Inst{Kind: k, Rd: reg(i), Rs1: uint8(byteAt(i+1) % 32),
				Imm: int64(byteAt(i+3)<<4 - 2048)})
		case sel < 62:
			k := shImm[b/100%len(shImm)]
			prog = append(prog, Inst{Kind: k, Rd: reg(i), Rs1: uint8(byteAt(i+1) % 32),
				Imm: int64(byteAt(i+3) % 64)})
		case sel < 72:
			k := loads[b/100%len(loads)]
			prog = append(prog, Inst{Kind: k, Rd: reg(i), Rs1: 3,
				Imm: int64(byteAt(i+3)*8) % 2041})
		case sel < 82:
			k := stores[b/100%len(stores)]
			prog = append(prog, Inst{Kind: k, Rs1: 3, Rs2: uint8(byteAt(i+2) % 32),
				Imm: int64(byteAt(i+3)*8) % 2041})
		case sel < 90:
			k := branches[b/100%len(branches)]
			// Forward-only skip of 1..4 instructions; the immediate is
			// patched once final layout is known.
			patches = append(patches, patch{at: len(prog), skip: 1 + byteAt(i+3)%4})
			prog = append(prog, Inst{Kind: k, Rs1: uint8(byteAt(i+1) % 32), Rs2: uint8(byteAt(i+2) % 32)})
		case sel < 93:
			prog = append(prog, Inst{Kind: KindLUI, Rd: reg(i), Imm: int64(byteAt(i+3) - 128)})
		case sel < 96:
			prog = append(prog, Inst{Kind: KindAUIPC, Rd: reg(i), Imm: int64(byteAt(i + 3))})
		case sel < 98:
			// Bounded backward loop: x29 = k; { x29--; } while x29 != 0.
			// Backward branches re-enter the just-executed block, so these
			// exercise link patching and chain-following — including chains
			// cut mid-loop by small StepN batches at quantum boundaries.
			// The ANDI mask bounds the trip count even when a forward
			// branch jumps into the middle of the loop with an arbitrary
			// value already in x29.
			k := 1 + byteAt(i+3)%7
			prog = append(prog,
				Inst{Kind: KindADDI, Rd: 29, Rs1: RegZero, Imm: int64(k)},
				Inst{Kind: KindADDI, Rd: 29, Rs1: 29, Imm: -1},
				Inst{Kind: KindANDI, Rd: 29, Rs1: 29, Imm: 7},
				Inst{Kind: KindBNE, Rs1: 29, Rs2: RegZero, Imm: -8})
		default:
			prog = append(prog, Inst{Kind: KindFENCE})
		}
	}
	prog = append(prog,
		Inst{Kind: KindADDI, Rd: RegA7, Rs1: RegZero, Imm: 255},
		Inst{Kind: KindECALL})
	for _, p := range patches {
		skip := p.skip
		// Clamp so no branch can skip the a7=255 setup and reach the
		// final ecall with a bogus number.
		if p.at+1+skip > len(prog)-2 {
			skip = len(prog) - 2 - (p.at + 1)
		}
		prog[p.at].Imm = int64(4 * (1 + skip))
	}
	return prog
}

// FuzzStepN feeds random (but valid, forward-branching, memory-safe)
// instruction streams through the reference interpreter and both StepN
// lanes in lockstep.
func FuzzStepN(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{0xFF, 0x80, 0x42, 0x13, 0x37, 0x99, 0xAA, 0x55, 0x00, 0x01, 0x23})
	// Branch-heavy seeds (several bounded backward loops each) so chained
	// execution is exercised from the seed corpus, not just mutations.
	f.Add([]byte("hotloop42"))
	f.Add([]byte("backward!"))
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := fuzzProgram(data)
		mk := func() *Core {
			mem := isa.NewMem(1 << 16)
			pc := uint64(0x1000)
			for _, in := range prog {
				mem.Store(pc, 4, uint64(in.Encode()))
				pc += 4
			}
			core := NewCore(mem, nil)
			core.Hook = func(c isa.Core) isa.EcallResult {
				if c.EcallNum() == 255 {
					return isa.EcallHalt
				}
				c.SetRet(c.EcallNum() * 3)
				return isa.EcallHandled
			}
			core.SetPC(0x1000)
			core.SetStackPtr(0xF000)
			core.DebugRing = make([]uint64, 8)
			return core
		}
		batch := 1
		if len(data) > 0 {
			batch = 1 + int(data[0])%70
		}
		lockstep(t, mk, []int{batch, 1, 33}, len(prog)*4+16)
	})
}
