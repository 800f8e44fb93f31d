package riscv

import (
	"testing"

	"svbench/internal/ir/irtest"
	"svbench/internal/isa"
)

// chainLoopCore builds a two-block infinite loop designed to patch both
// link slots immediately:
//
//	A @ 0x1000: ADDI x5,x5,1 ; JAL -> B
//	B @ 0x2000: ADDI x6,x6,2 ; JAL -> A
func chainLoopCore() *Core {
	mem := isa.NewMem(1 << 16)
	emit := func(pc uint64, in Inst) {
		mem.Store(pc, 4, uint64(in.Encode()))
	}
	emit(0x1000, Inst{Kind: KindADDI, Rd: 5, Rs1: 5, Imm: 1})
	emit(0x1004, Inst{Kind: KindJAL, Rd: RegZero, Imm: 0x2000 - 0x1004})
	emit(0x2000, Inst{Kind: KindADDI, Rd: 6, Rs1: 6, Imm: 2})
	emit(0x2004, Inst{Kind: KindJAL, Rd: RegZero, Imm: 0x1000 - 0x2004})
	core := NewCore(mem, nil)
	core.SetPC(0x1000)
	return core
}

// TestChainInvalidationContract pins the self-modifying-code contract of
// the superblock chain: a plain store to already-translated text is NOT
// observed (translated blocks and their links keep executing the old
// code), while InvalidateBlocks severs every link, counts each severed
// slot as a chain break, and forces retranslation so the new text runs.
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
			// 400 steps over a 2-block loop: 3 map misses (the initial
			// entry plus one first-transition per link), the rest
			// link-followed.
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
			// Self-modify B's body: x6 += 2 becomes x7 += 3.
			core.Mem.Store(0x2000, 4, uint64(Inst{Kind: KindADDI, Rd: 7, Rs1: 7, Imm: 3}.Encode()))
			if tc.invalidate {
				d.InvalidateBlocks()
				if got := d.ChainStats().Breaks; got != st.Breaks+2 {
					t.Fatalf("Breaks = %d, want %d (two severed links)", got, st.Breaks+2)
				}
			}
			x6, x7 := core.Regs[6], core.Regs[7]
			if _, _, err := core.StepN(400, nil); err != nil {
				t.Fatal(err)
			}
			ranNew := core.Regs[7] > x7
			ranOld := core.Regs[6] > x6
			if tc.invalidate {
				if !ranNew || ranOld {
					t.Fatalf("after invalidation: new code ran=%v, old code ran=%v (want true,false)", ranNew, ranOld)
				}
				// The chain must re-form on the retranslated blocks.
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
// telemetry are dropped while translated blocks survive, and the counters
// start a fresh distinct-block generation.
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
	if got := int64(core.Regs[RegA0]); got != c.Want {
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
		emit := func(pc uint64, in Inst) {
			mem.Store(pc, 4, uint64(in.Encode()))
		}
		// x7 = sum over 6 outer iterations of (5+4+3+2+1) = 90.
		emit(0x1000, Inst{Kind: KindADDI, Rd: 5, Rs1: RegZero, Imm: 6})
		emit(0x1004, Inst{Kind: KindADDI, Rd: 6, Rs1: RegZero, Imm: 5}) // outer:
		emit(0x1008, Inst{Kind: KindADD, Rd: 7, Rs1: 7, Rs2: 6})        // inner:
		emit(0x100C, Inst{Kind: KindADDI, Rd: 6, Rs1: 6, Imm: -1})
		emit(0x1010, Inst{Kind: KindBNE, Rs1: 6, Rs2: RegZero, Imm: 0x1008 - 0x1010})
		emit(0x1014, Inst{Kind: KindADDI, Rd: 5, Rs1: 5, Imm: -1})
		emit(0x1018, Inst{Kind: KindBNE, Rs1: 5, Rs2: RegZero, Imm: 0x1004 - 0x1018})
		emit(0x101C, Inst{Kind: KindADDI, Rd: RegA7, Rs1: RegZero, Imm: 255})
		emit(0x1020, Inst{Kind: KindECALL})
		core := NewCore(mem, nil)
		core.Hook = func(c isa.Core) isa.EcallResult { return isa.EcallHalt }
		core.SetPC(0x1000)
		core.DebugRing = make([]uint64, 4)
		return core
	}
	for _, bs := range [][]int{{1}, {2}, {3}, {5, 1}, {7}, {64}, {1000}} {
		ref := lockstep(t, mk, bs, 10_000)
		if got := ref.Regs[7]; got != 90 {
			t.Fatalf("x7 = %d, want 90", got)
		}
	}
	// The chained fast path must actually be chaining here: the whole
	// nested loop re-enters two blocks thousands of times.
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

// TestChainLinksAcrossQuantumBoundary: a block truncated by the step
// budget must not patch or follow links (the resumed entry goes through
// the map), and resuming mid-block must stay bit-exact with the
// reference. Batch size 3 cuts every iteration of a 4-instruction loop.
func TestChainLinksAcrossQuantumBoundary(t *testing.T) {
	mk := func() *Core {
		mem := isa.NewMem(1 << 16)
		emit := func(pc uint64, in Inst) {
			mem.Store(pc, 4, uint64(in.Encode()))
		}
		emit(0x1000, Inst{Kind: KindADDI, Rd: 5, Rs1: RegZero, Imm: 100})
		emit(0x1004, Inst{Kind: KindADDI, Rd: 6, Rs1: 6, Imm: 7}) // loop:
		emit(0x1008, Inst{Kind: KindXOR, Rd: 7, Rs1: 7, Rs2: 6})
		emit(0x100C, Inst{Kind: KindADDI, Rd: 5, Rs1: 5, Imm: -1})
		emit(0x1010, Inst{Kind: KindBNE, Rs1: 5, Rs2: RegZero, Imm: 0x1004 - 0x1010})
		emit(0x1014, Inst{Kind: KindADDI, Rd: RegA7, Rs1: RegZero, Imm: 255})
		emit(0x1018, Inst{Kind: KindECALL})
		core := NewCore(mem, nil)
		core.Hook = func(c isa.Core) isa.EcallResult { return isa.EcallHalt }
		core.SetPC(0x1000)
		return core
	}
	lockstep(t, mk, []int{3}, 10_000)
}

// TestChainStatsMeanLen sanity-checks the derived metric.
func TestChainStatsMeanLen(t *testing.T) {
	if got := (isa.ChainStats{}).MeanChainLen(); got != 0 {
		t.Fatalf("empty MeanChainLen = %v, want 0", got)
	}
	st := isa.ChainStats{Hits: 9, Misses: 3}
	if got := st.MeanChainLen(); got != 4 {
		t.Fatalf("MeanChainLen = %v, want 4 ((9+3)/3)", got)
	}
	core := chainLoopCore()
	if _, _, err := core.StepN(1000, nil); err != nil {
		t.Fatal(err)
	}
	if got := core.Dec.ChainStats().MeanChainLen(); got < 100 {
		t.Fatalf("tight loop mean chain length = %v, want long chains", got)
	}
}
