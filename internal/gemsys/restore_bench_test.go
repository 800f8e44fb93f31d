package gemsys

import (
	"testing"

	"svbench/internal/isa"
)

// BenchmarkRestore times Restore of a post-setup checkpoint of the fib
// client/server pair. "recycled" restores a machine whose memory last
// equalled the checkpoint and has run since, as a fleet re-acquires a
// reclaimed instance; "fresh" restores into a newly booted machine, a
// cold start's first restore. "cold" times the whole cold start of a
// fleet's fresh instance: New, both spawns and that first restore, with
// the allocations they make.
func BenchmarkRestore(b *testing.B) {
	for _, arch := range []isa.Arch{isa.RV64, isa.CISC64} {
		m := bootClientServer(b, arch, 1000)
		if err := m.RunSetup(50_000_000); err != nil {
			b.Fatal(err)
		}
		ck := m.TakeCheckpoint()
		b.Run(string(arch)+"/recycled", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if _, err := m.RunQuantum(20_000); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := m.Restore(ck); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(string(arch)+"/fresh", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f := bootClientServer(b, arch, 1000)
				b.StartTimer()
				if err := f.Restore(ck); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(string(arch)+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f := bootClientServer(b, arch, 1000)
				if err := f.Restore(ck); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ckSink receives each benchmarked checkpoint, so the compiler cannot
// drop the call that makes it.
var ckSink *Checkpoint

// BenchmarkTakeCheckpoint times TakeCheckpoint of the fib client/server
// pair's post-setup state. Before each take the machine's page marks and
// baseline are put back as RunSetup left them.
func BenchmarkTakeCheckpoint(b *testing.B) {
	for _, arch := range []isa.Arch{isa.RV64, isa.CISC64} {
		m := bootClientServer(b, arch, 1000)
		if err := m.RunSetup(50_000_000); err != nil {
			b.Fatal(err)
		}
		dirty := append([]byte(nil), m.Mem.Dirty...)
		b.Run(string(arch)+"/take", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(m.Mem.Dirty, dirty)
				m.memImage, m.memPages = 0, nil
				b.StartTimer()
				ckSink = m.TakeCheckpoint()
			}
		})
	}
}

// BenchmarkRunEval times full-detail O3 replay: each iteration restores
// the fib client/server pair's post-setup checkpoint with the timer
// stopped and runs RunEval to the end. rec/s is the eval layer's rate in
// retired trace records per second.
func BenchmarkRunEval(b *testing.B) {
	for _, arch := range []isa.Arch{isa.RV64, isa.CISC64} {
		m := bootClientServer(b, arch, 200)
		if err := m.RunSetup(50_000_000); err != nil {
			b.Fatal(err)
		}
		ck := m.TakeCheckpoint()
		b.Run(string(arch), func(b *testing.B) {
			b.ReportAllocs()
			var recs uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := m.Restore(ck); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := m.RunEval(100_000_000); err != nil {
					b.Fatal(err)
				}
				recs += m.EvalRetired()
			}
			b.ReportMetric(float64(recs)/b.Elapsed().Seconds(), "rec/s")
		})
	}
}

// BenchmarkRunEvalSampled times the sampled eval loop over all three of
// its lanes (per-record detail, bulk fast-forward and the functional
// sprint): each iteration restores the fib(4000) client/server pair's
// post-setup checkpoint with the timer stopped and runs RunEvalSampled
// to the end. Each request is tens of kilo-instructions, so both stats
// windows span many sampling intervals. rec/s counts every retired
// record, whichever lane retired it.
func BenchmarkRunEvalSampled(b *testing.B) {
	sc := SamplingConfig{Interval: 2_000, Warmup: 400, Detail: 400}
	for _, arch := range []isa.Arch{isa.RV64, isa.CISC64} {
		m, ck := prepPipeline(b, DefaultConfig(arch), 10, 4000)
		b.Run(string(arch), func(b *testing.B) {
			b.ReportAllocs()
			var recs uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := m.Restore(ck); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := m.RunEvalSampled(100_000_000, sc); err != nil {
					b.Fatal(err)
				}
				recs += m.EvalRetired()
			}
			b.ReportMetric(float64(recs)/b.Elapsed().Seconds(), "rec/s")
		})
	}
}
