package cisc

import (
	"math/rand"
	"reflect"
	"testing"

	"svbench/internal/ir/irtest"
	"svbench/internal/isa"
)

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// lockstep drives a reference core (per-instruction Step) and two fast
// cores (StepN trace lane, StepN no-trace lane) through the same program,
// comparing architectural snapshots, trace records, retired counts and
// errors after every batch. It returns the reference core after ErrHalt.
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
// program loaded, exit stub at 0x100 pushed as the return address.
func corpusCore(prog *isa.Program, fn string, args []int64, ring int) func() *Core {
	return func() *Core {
		mem := isa.NewMem(1 << 21)
		prog.LoadInto(mem)
		stub := uint64(0x100)
		var sb []byte
		sb = Inst{Kind: KindMOVrr, Dst: RDI, Src: RAX}.Encode(sb)
		sb = Inst{Kind: KindMOVri32, Dst: RAX, Imm: 255}.Encode(sb)
		sb = Inst{Kind: KindSYSCALL}.Encode(sb)
		copy(mem.Data[stub:], sb)
		core := NewCore(mem, nil)
		core.Hook = func(c isa.Core) isa.EcallResult {
			if c.EcallNum() == 255 {
				return isa.EcallHalt
			}
			return isa.EcallHandled
		}
		core.SetPC(prog.SymAddr(fn))
		core.SetStackPtr(1 << 20)
		core.Regs[RSP] -= 8
		mem.Store(core.Regs[RSP], 8, stub)
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
// over the whole IR test corpus.
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
			// The exit stub moved the result to RDI.
			if got := int64(ref.Regs[RDI]); got != c.Want {
				t.Fatalf("%s(%v) = %d, want %d", c.Fn, c.Args, got, c.Want)
			}
		})
	}
}

// TestStepNLockstepEcallVariants exercises every ecall disposition plus
// Annotate through both execution lanes.
func TestStepNLockstepEcallVariants(t *testing.T) {
	mk := func() *Core {
		mem := isa.NewMem(1 << 16)
		var code []byte
		for _, num := range []int64{7, 9, 11, 255} {
			code = Inst{Kind: KindMOVri32, Dst: RAX, Imm: num}.Encode(code)
			code = Inst{Kind: KindSYSCALL}.Encode(code)
		}
		copy(mem.Data[0x1000:], code)
		// Vector handler: rsi += 5; ret.
		var h []byte
		h = Inst{Kind: KindADDri32, Dst: RSI, Imm: 5}.Encode(h)
		h = Inst{Kind: KindRET}.Encode(h)
		copy(mem.Data[0x2000:], h)
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
				// The result is in RDI, where the exit stub moved it.
				if got := int64(core.Regs[RDI]); got != c.Want {
					b.Fatalf("%s(%v) = %d, want %d", c.Fn, c.Args, got, c.Want)
				}
			})
		}
	}
}

// TestDecodeCacheSequential verifies the variable-width sequential-PC
// fast path serves exactly what a cold cache decodes, including across
// the 4 KiB page boundary.
func TestDecodeCacheSequential(t *testing.T) {
	mem := isa.NewMem(1 << 16)
	// Mixed-size straight-line run crossing the page boundary at 0x2000.
	start := uint64(0x1F00)
	kinds := []Inst{
		{Kind: KindADDri32, Dst: 1, Imm: 7},
		{Kind: KindMOVrr, Dst: 2, Src: 1},
		{Kind: KindNOP},
		{Kind: KindSHLri8, Dst: 1, Imm: 3},
		{Kind: KindMOVri, Dst: 3, Imm: 1 << 40},
	}
	var pcs []uint64
	pc := start
	var code []byte
	for i := 0; i < 120; i++ {
		in := kinds[i%len(kinds)]
		pcs = append(pcs, pc)
		code = in.Encode(code)
		pc = start + uint64(len(code))
	}
	copy(mem.Data[start:], code)
	seq := NewDecodeCache()
	for pass := 0; pass < 3; pass++ {
		for _, p := range pcs {
			cold := NewDecodeCache()
			want, err := cold.lookup(p, mem)
			if err != nil {
				t.Fatal(err)
			}
			got, err := seq.lookup(p, mem)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("pc=%#x pass=%d: seq %+v != cold %+v", p, pass, got, want)
			}
		}
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

// fuzzProgram synthesizes a random valid CISC64 instruction stream from
// fuzz bytes: ALU and memory work, stack pushes/pops, SET/CMP flag use,
// forward-only branches, ending in a halting syscall. R15 is reserved as
// the memory base register so loads and stores stay inside
// [0x8000, 0x8800); the stack starts at 0x10000 with bounded drift.
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
	prog = append(prog, Inst{Kind: KindMOVri32, Dst: R15, Imm: 0x8000})
	reg := func(i int) uint8 {
		rd := uint8(byteAt(i) % 16)
		if rd == R15 || rd == RSP {
			rd = R14
		}
		return rd
	}
	aluRR := []Kind{KindMOVrr, KindADD, KindSUB, KindMUL, KindDIV, KindREM,
		KindDIVU, KindREMU, KindAND, KindOR, KindXOR, KindSHL, KindSHR, KindSAR}
	aluRI := []Kind{KindADDri32, KindANDri32, KindORri32, KindXORri32, KindMULri32}
	shRI := []Kind{KindSHLri8, KindSHRri8, KindSARri8}
	loads := []Kind{KindLDB, KindLDBU, KindLDH, KindLDHU, KindLDW, KindLDWU, KindLDQ}
	stores := []Kind{KindSTB, KindSTH, KindSTW, KindSTQ}
	branches := []Kind{KindJE, KindJNE, KindJL, KindJLE, KindJG, KindJGE, KindJB, KindJAE}
	sets := []Kind{KindSETE, KindSETNE, KindSETL, KindSETLE, KindSETG, KindSETGE, KindSETB, KindSETAE}
	type patch struct{ at, skip int }
	var patches []patch
	for i := 1; i < nInst; i++ {
		b := byteAt(i) ^ byteAt(i+17)<<3 ^ r.Int()
		sel := b % 100
		switch {
		case sel < 28:
			k := aluRR[b/100%len(aluRR)]
			prog = append(prog, Inst{Kind: k, Dst: reg(i), Src: uint8(byteAt(i+1) % 16)})
		case sel < 42:
			k := aluRI[b/100%len(aluRI)]
			prog = append(prog, Inst{Kind: k, Dst: reg(i), Imm: int64(int32(byteAt(i+3)<<8 - 20000))})
		case sel < 48:
			k := shRI[b/100%len(shRI)]
			prog = append(prog, Inst{Kind: k, Dst: reg(i), Imm: int64(byteAt(i+3) % 256)})
		case sel < 56:
			k := loads[b/100%len(loads)]
			prog = append(prog, Inst{Kind: k, Dst: reg(i), Src: R15, Imm: int64(byteAt(i+3)*8) % 2041})
		case sel < 64:
			k := stores[b/100%len(stores)]
			prog = append(prog, Inst{Kind: k, Dst: R15, Src: uint8(byteAt(i+1) % 16), Imm: int64(byteAt(i+3)*8) % 2041})
		case sel < 70:
			if b/7%2 == 0 {
				prog = append(prog, Inst{Kind: KindCMPrr, Dst: uint8(byteAt(i+1) % 16), Src: uint8(byteAt(i+2) % 16)})
			} else {
				prog = append(prog, Inst{Kind: KindCMPri32, Dst: uint8(byteAt(i+1) % 16), Imm: int64(byteAt(i+3) - 128)})
			}
		case sel < 76:
			k := sets[b/100%len(sets)]
			prog = append(prog, Inst{Kind: k, Dst: reg(i)})
		case sel < 84:
			k := branches[b/100%len(branches)]
			patches = append(patches, patch{at: len(prog), skip: 1 + byteAt(i+3)%4})
			prog = append(prog, Inst{Kind: k})
		case sel < 87:
			patches = append(patches, patch{at: len(prog), skip: 1 + byteAt(i+3)%3})
			prog = append(prog, Inst{Kind: KindJMP})
		case sel < 91:
			prog = append(prog, Inst{Kind: KindPUSH, Dst: uint8(byteAt(i+1) % 16)})
		case sel < 94:
			prog = append(prog, Inst{Kind: KindPOP, Dst: reg(i)})
		case sel < 97:
			prog = append(prog, Inst{Kind: KindLEA, Dst: reg(i), Src: uint8(byteAt(i+1) % 16), Imm: int64(byteAt(i + 3))})
		case sel < 99:
			// Bounded backward loop: R13 = k; { R13--; } while R13 != 0.
			// Backward branches re-enter the just-executed block, so these
			// exercise link patching and chain-following — including chains
			// cut mid-loop by small StepN batches at quantum boundaries.
			// rel32 is relative to the end of the JNE, so the backward
			// offset spans the decrement, the compare and the jump itself.
			// The AND mask bounds the trip count even when a forward
			// branch jumps into the middle of the loop with an arbitrary
			// value already in R13.
			k := 1 + byteAt(i+3)%7
			back := -(int64(Size(KindADDri32)) + int64(Size(KindANDri32)) +
				int64(Size(KindCMPri32)) + int64(Size(KindJNE)))
			prog = append(prog,
				Inst{Kind: KindMOVri32, Dst: R13, Imm: int64(k)},
				Inst{Kind: KindADDri32, Dst: R13, Imm: -1},
				Inst{Kind: KindANDri32, Dst: R13, Imm: 7},
				Inst{Kind: KindCMPri32, Dst: R13, Imm: 0},
				Inst{Kind: KindJNE, Imm: back})
		default:
			prog = append(prog, Inst{Kind: KindNOP})
		}
	}
	prog = append(prog,
		Inst{Kind: KindMOVri32, Dst: RAX, Imm: 255},
		Inst{Kind: KindSYSCALL})
	for _, p := range patches {
		skip := p.skip
		// Clamp so no branch can skip the rax=255 setup and reach the
		// final syscall with a bogus number.
		if p.at+1+skip > len(prog)-2 {
			skip = len(prog) - 2 - (p.at + 1)
		}
		// rel32 is relative to the end of the branch: sum the encoded
		// sizes of the skipped instructions.
		var off int64
		for j := p.at + 1; j < p.at+1+skip; j++ {
			off += int64(Size(prog[j].Kind))
		}
		prog[p.at].Imm = off
	}
	return prog
}

// FuzzStepN feeds random valid CISC64 instruction streams through the
// reference interpreter and both StepN lanes in lockstep.
func FuzzStepN(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{0xFF, 0x80, 0x42, 0x13, 0x37, 0x99, 0xAA, 0x55, 0x00, 0x01, 0x23})
	// Branch-heavy seeds (several bounded backward loops each) so chained
	// execution is exercised from the seed corpus, not just mutations.
	f.Add([]byte("chain#7"))
	f.Add([]byte("qqqq"))
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := fuzzProgram(data)
		mk := func() *Core {
			mem := isa.NewMem(1 << 17)
			var code []byte
			for _, in := range prog {
				code = in.Encode(code)
			}
			copy(mem.Data[0x1000:], code)
			core := NewCore(mem, nil)
			core.Hook = func(c isa.Core) isa.EcallResult {
				if c.EcallNum() == 255 {
					return isa.EcallHalt
				}
				c.SetRet(c.EcallNum() * 3)
				return isa.EcallHandled
			}
			core.SetPC(0x1000)
			core.SetStackPtr(0x10000)
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
