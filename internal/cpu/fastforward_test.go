package cpu

import (
	"testing"

	"svbench/internal/isa"
)

// warmOrderTrace is seven loads whose warming order shows in L2. L2 is
// 4-way with 128 KiB between addresses of one set, and every data line
// here, plus the fetch line of the fourth load, maps to L2 set 0. Three
// loads fill three ways; the fourth load's fetch line (0x480000) and data
// line (0x260000) both miss L1 and take the last way and the first
// eviction, in warming order; three more loads then evict the three
// oldest lines. So L2 keeps whichever of the two lines was warmed second.
func warmOrderTrace() []isa.TraceRec {
	const way = 128 << 10
	load := func(pc, addr uint64) isa.TraceRec {
		return isa.TraceRec{PC: pc, Size: 4, Class: isa.ClassLoad, MicroOps: 1,
			Src1: isa.NoDep, Src2: isa.NoDep, Dst: 1, MemAddr: addr, MemSize: 8}
	}
	var recs []isa.TraceRec
	for k := uint64(0); k < 3; k++ {
		recs = append(recs, load(0x10000+4*k, 0x200000+k*way))
	}
	recs = append(recs, load(0x480000, 0x260000))
	for k := uint64(5); k < 8; k++ {
		recs = append(recs, load(0x10000+4*k, 0x200000+k*way))
	}
	return recs
}

// TestFastForwardBatchMatchesPerRecord is FastForwardBatch's reference
// model: fast-forwarding a trace as one batch must leave fresh cores in
// the state calling FastForward on each record does, with and without
// warming: the same L1 and L2 residency for every line the trace
// touches, the same clock, and the class census of the records.
func TestFastForwardBatchMatchesPerRecord(t *testing.T) {
	recs := warmOrderTrace()
	var lines []uint64
	for _, r := range recs {
		lines = append(lines, r.PC, r.MemAddr)
	}
	var want isa.ClassCounts
	for _, r := range recs {
		want.MicroOps += uint64(r.MicroOps)
		want.Loads++
	}
	for _, warm := range []bool{false, true} {
		batch, ref := newTestO3(), newTestO3()
		var got isa.ClassCounts
		if n := batch.FastForwardBatch(recs, warm, &got); n != len(recs) {
			t.Fatalf("warm=%v: batch consumed %d of %d records", warm, n, len(recs))
		}
		for i := range recs {
			if _, err := ref.FastForward(&recs[i], warm); err != nil {
				t.Fatal(err)
			}
		}
		if got != want {
			t.Errorf("warm=%v: batch census %+v, want %+v", warm, got, want)
		}
		if batch.Now() != ref.Now() {
			t.Errorf("warm=%v: batch clock %d, per-record %d", warm, batch.Now(), ref.Now())
		}
		for _, a := range lines {
			for _, c := range []struct {
				name     string
				got, ref bool
			}{
				{"l1i", batch.Hier.L1I.Probe(a), ref.Hier.L1I.Probe(a)},
				{"l1d", batch.Hier.L1D.Probe(a), ref.Hier.L1D.Probe(a)},
				{"l2", batch.Hier.L2.Probe(a), ref.Hier.L2.Probe(a)},
			} {
				if c.got != c.ref {
					t.Errorf("warm=%v: %s holds %#x after the batch: %v, after per-record calls: %v",
						warm, c.name, a, c.got, c.ref)
				}
			}
		}
	}
}
