package gemsys

import (
	"fmt"
	"math/rand"
	"testing"

	"svbench/internal/cpu"
	"svbench/internal/isa"
	"svbench/internal/mem"
)

// runOrderTraces builds one random record stream per core: dependent ALU
// work, branches, and loads/stores over a range both cores share (so the
// shared DRAM channel and write-invalidate coherence make the result
// depend on the interleave), with a send on core 0 that a receive and an
// idle record on core 1 wait for.
func runOrderTraces(rnd *rand.Rand, n int) [][]isa.TraceRec {
	traces := make([][]isa.TraceRec, 2)
	for ci := range traces {
		pc := uint64(0x10000 * (ci + 1))
		for i := 0; i < n; i++ {
			rec := isa.TraceRec{PC: pc, Size: 4, Class: isa.ClassAlu, MicroOps: 1,
				Src1: uint8(rnd.Intn(8)), Src2: isa.NoDep, Dst: uint8(rnd.Intn(8))}
			switch r := rnd.Intn(10); {
			case r < 3:
				rec.Class = isa.ClassLoad
				rec.MemAddr, rec.MemSize = uint64(rnd.Intn(1<<20))&^7, 8
			case r < 5:
				rec.Class = isa.ClassStore
				rec.MemAddr, rec.MemSize = uint64(rnd.Intn(1<<20))&^7, 8
				rec.Dst = isa.NoDep
			case r < 6:
				rec.Class = isa.ClassBranch
				rec.Taken, rec.Target = rnd.Intn(2) == 0, pc+64
				rec.Dst = isa.NoDep
			}
			traces[ci] = append(traces[ci], rec)
			pc += 4
		}
	}
	traces[0][n/4].Flags |= isa.FlagSend
	traces[0][n/4].Seq = 1
	traces[0][n/2].Flags |= isa.FlagSend
	traces[0][n/2].Seq = 2
	traces[1][n/8].Flags |= isa.FlagRecv
	traces[1][n/8].Seq = 1
	traces[1][3*n/4] = isa.TraceRec{Class: isa.ClassIdle, Seq: 2,
		Src1: isa.NoDep, Src2: isa.NoDep, Dst: isa.NoDep}
	return traces
}

// refInterleave is the per-record reference for RunEvalSampled's core
// choice: before every record, order the cores by (local time, index) and
// retire from the first one whose head record does not wait. With
// sampling on, outside detailed windows the first non-empty core instead
// fast-forwards a whole batch of plain records up to the phase boundary.
func refInterleave(t *testing.T, o3 []*cpu.O3, traces [][]isa.TraceRec, sc SamplingConfig) {
	t.Helper()
	var smp *sampler
	if sc.Enabled() {
		smp = newSampler(sc, o3)
	}
	var retired uint64
	cursor := make([]int, len(o3))
	order := make([]int, len(o3))
	times := make([]uint64, len(o3))
	for {
		for ci, o := range o3 {
			times[ci] = o.Now()
		}
		orderCoresByTime(order, times)
		progressed := false
		for _, ci := range order {
			if cursor[ci] == len(traces[ci]) {
				continue
			}
			if smp != nil && (smp.phase == phaseFF || smp.phase == phaseWarm) {
				recs := traces[ci][cursor[ci]:]
				if room := smp.bulkRoom(retired); uint64(len(recs)) > room {
					recs = recs[:room]
				}
				var cc isa.ClassCounts
				if n := o3[ci].FastForwardBatch(recs, smp.phase == phaseWarm, &cc); n > 0 {
					smp.fold(ci, uint64(n), cc)
					cursor[ci] += n
					retired += uint64(n)
					smp.advance(retired)
					progressed = true
					break
				}
			}
			rec := &traces[ci][cursor[ci]]
			var err error
			switch {
			case smp == nil || smp.phase == phaseDetail || smp.phase == phaseDetailPre:
				_, err = o3[ci].Retire(rec)
			default:
				_, err = o3[ci].FastForward(rec, smp.phase == phaseWarm)
			}
			if err == cpu.ErrWait {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if smp != nil {
				smp.account(ci, rec)
			}
			cursor[ci]++
			retired++
			if smp != nil {
				smp.advance(retired)
			}
			progressed = true
			break
		}
		if !progressed {
			for ci := range cursor {
				if cursor[ci] != len(traces[ci]) {
					t.Fatalf("reference deadlocked on core %d at record %d", ci, cursor[ci])
				}
			}
			return
		}
	}
}

// coreState renders what the interleave decides: each core's clock,
// window stats and hierarchy counters, plus the shared DRAM channel.
func coreState(o3 []*cpu.O3, hier []*mem.Hierarchy, dram *mem.DRAM) string {
	s := fmt.Sprintf("dram=%d", dram.Accesses)
	for ci, o := range o3 {
		h := hier[ci]
		s += fmt.Sprintf("\ncore%d now=%d stats=%+v l1d=%+v l2=%+v dtlb=%d inval=%d",
			ci, o.Now(), o.Stats, h.L1D.Stats, h.L2.Stats, h.DTLB.Misses, h.CoherenceInvals)
	}
	return s
}

// TestRunEvalCoreChoiceMatchesReference: choosing a core once per run of
// records retires exactly the sequence the per-record choice does, in
// full detail and across sampling phase changes.
func TestRunEvalCoreChoiceMatchesReference(t *testing.T) {
	for _, sc := range []SamplingConfig{{}, {Interval: 500, Warmup: 100, Detail: 100}} {
		for seed := int64(1); seed <= 4; seed++ {
			traces := runOrderTraces(rand.New(rand.NewSource(seed)), 3000)

			cfg := DefaultConfig(isa.RV64)
			dram := mem.NewDRAM(cfg.DRAM)
			hier := []*mem.Hierarchy{mem.NewHierarchy(cfg.Hier, dram), mem.NewHierarchy(cfg.Hier, dram)}
			hier[0].SetPeer(hier[1])
			hier[1].SetPeer(hier[0])
			coupler := cpu.NewCoupler()
			ref := []*cpu.O3{cpu.NewO3(cfg.O3, hier[0], coupler), cpu.NewO3(cfg.O3, hier[1], coupler)}
			refInterleave(t, ref, traces, sc)
			want := coreState(ref, hier, dram)

			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for ci := range traces {
				m.traces[ci] = append([]isa.TraceRec(nil), traces[ci]...)
			}
			// Halted with full queues: the eval loop replays them and
			// returns without running the functional side.
			m.halted = true
			if _, err := m.RunEvalSampled(1<<20, sc); err != nil {
				t.Fatal(err)
			}
			if m.EvalRetired() != uint64(len(traces[0])+len(traces[1])) {
				t.Fatalf("%s seed %d: retired %d records", sc, seed, m.EvalRetired())
			}
			if got := coreState(m.O3, m.Hier, m.DRAM); got != want {
				t.Errorf("%s seed %d: run-of-records replay differs from per-record reference:\n got %s\nwant %s",
					sc, seed, got, want)
			}
		}
	}
}
