package cisc

import (
	"testing"

	"svbench/internal/ir/irtest"
	"svbench/internal/isa"
)

// chainLoopCore builds a two-block infinite loop designed to patch both
// link slots immediately:
//
//	A @ 0x1000: ADDri32 R8,1 ; JMP -> B
//	B @ 0x2000: ADDri32 R9,2 ; JMP -> A
//
// JMP rel32 is relative to the end of the jump.
func chainLoopCore() *Core {
	mem := isa.NewMem(1 << 16)
	emit := func(pc uint64, ins ...Inst) uint64 {
		var code []byte
		for _, in := range ins {
			code = in.Encode(code)
		}
		copy(mem.Data[pc:], code)
		return pc + uint64(len(code))
	}
	endA := emit(0x1000, Inst{Kind: KindADDri32, Dst: R8, Imm: 1}, Inst{Kind: KindJMP})
	endB := emit(0x2000, Inst{Kind: KindADDri32, Dst: R9, Imm: 2}, Inst{Kind: KindJMP})
	// Patch the jumps now that both layouts are known.
	emit(0x1000, Inst{Kind: KindADDri32, Dst: R8, Imm: 1}, Inst{Kind: KindJMP, Imm: 0x2000 - int64(endA)})
	emit(0x2000, Inst{Kind: KindADDri32, Dst: R9, Imm: 2}, Inst{Kind: KindJMP, Imm: 0x1000 - int64(endB)})
	core := NewCore(mem, nil)
	core.SetPC(0x1000)
	core.SetStackPtr(0x8000)
	return core
}

// TestChainInvalidationContract pins the self-modifying-code contract of
// the superblock chain: a plain store to already-translated text is NOT
// observed (translated blocks and their links keep executing the old
// code), while InvalidateBlocks severs every link, counts each severed
// slot as a chain break, and forces redecoding so the new text runs.
func TestChainInvalidationContract(t *testing.T) {
	cases := []struct {
		name       string
		invalidate bool
	}{
		{"invalidate-executes-new-text", true},
		{"plain-store-keeps-old-translation", false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			core := chainLoopCore()
			if _, _, err := core.StepN(400, nil); err != nil {
				t.Fatal(err)
			}
			d := core.Dec
			st := d.ChainStats()
			// 3 map misses: the initial entry plus one first-transition
			// per link; the rest link-followed.
			if st.Blocks != 2 || st.Misses != 3 {
				t.Fatalf("warmup stats = %+v, want Blocks=2 Misses=3", st)
			}
			if st.Hits < 190 {
				t.Fatalf("only %d chain hits after 400 steps", st.Hits)
			}
			// Mutually linked loop blocks resolve only the StepN entry
			// through the map (the link fields are checked in
			// internal/isa).
			if _, _, err := core.StepN(400, nil); err != nil {
				t.Fatal(err)
			}
			if st2 := d.ChainStats(); st2.Misses != st.Misses+1 {
				t.Fatalf("loop blocks not mutually linked: misses %d -> %d", st.Misses, st2.Misses)
			}
			st = d.ChainStats()
			// Self-modify B's body: R9 += 2 becomes R10 += 3.
			var patched []byte
			patched = Inst{Kind: KindADDri32, Dst: R10, Imm: 3}.Encode(patched)
			copy(core.Mem.Data[0x2000:], patched)
			if tc.invalidate {
				d.InvalidateBlocks()
				if got := d.ChainStats().Breaks; got != st.Breaks+2 {
					t.Fatalf("Breaks = %d, want %d (two severed links)", got, st.Breaks+2)
				}
			}
			r9, r10 := core.Regs[R9], core.Regs[R10]
			if _, _, err := core.StepN(400, nil); err != nil {
				t.Fatal(err)
			}
			ranNew := core.Regs[R10] > r10
			ranOld := core.Regs[R9] > r9
			if tc.invalidate {
				if !ranNew || ranOld {
					t.Fatalf("after invalidation: new code ran=%v, old code ran=%v (want true,false)", ranNew, ranOld)
				}
				if st2 := d.ChainStats(); st2.Hits <= st.Hits {
					t.Fatalf("chain did not re-form: hits %d -> %d", st.Hits, st2.Hits)
				}
			} else if ranNew || !ranOld {
				t.Fatalf("without invalidation: new code ran=%v, old code ran=%v (want false,true)", ranNew, ranOld)
			}
		})
	}
}

// TestResetChains checks the checkpoint-restore primitive: links and
// telemetry are dropped while translated blocks survive, and the
// counters start a fresh distinct-block generation.
func TestResetChains(t *testing.T) {
	core := chainLoopCore()
	if _, _, err := core.StepN(300, nil); err != nil {
		t.Fatal(err)
	}
	d := core.Dec
	st := d.ChainStats()
	if st.Blocks == 0 || st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("no chain activity after 300 steps: %+v", st)
	}
	d.ResetChains()
	if st2 := d.ChainStats(); st2 != (isa.ChainStats{}) {
		t.Fatalf("ResetChains left telemetry behind: %+v", st2)
	}
	// Execution continues on the link-less (but still warm) cache: the
	// new generation re-counts entered blocks and re-patches links.
	if _, _, err := core.StepN(300, nil); err != nil {
		t.Fatal(err)
	}
	// Severed links send both first transitions back through the map:
	// the entry plus two misses. That the blocks themselves survive is
	// checked in internal/isa.
	if st3 := d.ChainStats(); st3.Blocks != 2 || st3.Hits == 0 || st3.Misses != 3 {
		t.Fatalf("chain did not restart after ResetChains: %+v", st3)
	}
}

// TestResetChainsMidRun calls ResetChains in the middle of a real corpus
// program and checks execution still completes with the right answer.
func TestResetChainsMidRun(t *testing.T) {
	m, cases := irtest.Corpus()
	prog, err := Compile(m, 0x10000)
	if err != nil {
		t.Fatal(err)
	}
	c := cases[0]
	core := corpusCore(prog, c.Fn, c.Args, 0)()
	var ferr error
	for rounds := 0; ferr == nil; rounds++ {
		_, _, ferr = core.StepN(40, nil)
		if rounds%3 == 2 {
			core.Dec.ResetChains()
		}
	}
	if ferr != ErrHalt {
		t.Fatal(ferr)
	}
	// The exit stub moved the result to RDI.
	if got := int64(core.Regs[RDI]); got != c.Want {
		t.Fatalf("%s(%v) = %d, want %d", c.Fn, c.Args, got, c.Want)
	}
}

// TestStepNLockstepLoops drives a backward-branching nested loop through
// the reference interpreter and both StepN lanes. Small batch sizes cut
// quanta inside the loop body, so link patching, link following and
// budget-truncated (unchained) exits all interleave.
func TestStepNLockstepLoops(t *testing.T) {
	mk := func() *Core {
		mem := isa.NewMem(1 << 16)
		// R10 = sum over 6 outer iterations of (5+4+3+2+1) = 90.
		prog := []Inst{
			{Kind: KindMOVri32, Dst: R8, Imm: 6},
			{Kind: KindMOVri32, Dst: R9, Imm: 5}, // outer:
			{Kind: KindADD, Dst: R10, Src: R9},   // inner:
			{Kind: KindADDri32, Dst: R9, Imm: -1},
			{Kind: KindCMPri32, Dst: R9, Imm: 0},
			{Kind: KindJNE}, // -> inner
			{Kind: KindADDri32, Dst: R8, Imm: -1},
			{Kind: KindCMPri32, Dst: R8, Imm: 0},
			{Kind: KindJNE}, // -> outer
			{Kind: KindMOVri32, Dst: RAX, Imm: 255},
			{Kind: KindSYSCALL},
		}
		// rel32 targets are relative to the end of the jump: sum encoded
		// sizes backward over the loop bodies (including the jump itself).
		prog[5].Imm = -(int64(Size(KindADD)) + int64(Size(KindADDri32)) +
			int64(Size(KindCMPri32)) + int64(Size(KindJNE)))
		prog[8].Imm = -(int64(Size(KindMOVri32)) + int64(Size(KindADD)) +
			2*int64(Size(KindADDri32)) + 2*int64(Size(KindCMPri32)) + 2*int64(Size(KindJNE)))
		var code []byte
		for _, in := range prog {
			code = in.Encode(code)
		}
		copy(mem.Data[0x1000:], code)
		core := NewCore(mem, nil)
		core.Hook = func(c isa.Core) isa.EcallResult { return isa.EcallHalt }
		core.SetPC(0x1000)
		core.SetStackPtr(0x8000)
		core.DebugRing = make([]uint64, 4)
		return core
	}
	for _, bs := range [][]int{{1}, {2}, {3}, {5, 1}, {7}, {64}, {1000}} {
		ref := lockstep(t, mk, bs, 10_000)
		if got := ref.Regs[R10]; got != 90 {
			t.Fatalf("R10 = %d, want 90", got)
		}
	}
	// The chained fast path must actually be chaining here: the nested
	// loop re-enters its blocks dozens of times.
	core := mk()
	var err error
	for err == nil {
		_, _, err = core.StepN(512, nil)
	}
	if err != ErrHalt {
		t.Fatal(err)
	}
	if st := core.Dec.ChainStats(); st.Hits == 0 {
		t.Fatalf("no chain hits on a loop workload: %+v", st)
	}
}

// TestChainStatsMeanLen sanity-checks the derived metric on a tight
// two-block loop: nearly every transition is a link follow.
func TestChainStatsMeanLen(t *testing.T) {
	core := chainLoopCore()
	if _, _, err := core.StepN(1000, nil); err != nil {
		t.Fatal(err)
	}
	if got := core.Dec.ChainStats().MeanChainLen(); got < 100 {
		t.Fatalf("tight loop mean chain length = %v, want long chains", got)
	}
}
