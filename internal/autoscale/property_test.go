package autoscale

import (
	"sort"
	"testing"

	"svbench/internal/faults"
	"svbench/internal/loadgen"
	"svbench/internal/trace"
)

// TestRandomConfigInvariants runs randomized configs (policy, arrival
// process, nodes, tick and keep-alive) and checks the engine's
// invariants on each: every arrival is exactly one invocation, served
// once and completed after it arrived, and no instance serves two
// invocations at once. The event queue's clock check makes every run a
// check that time never runs backwards, too.
func TestRandomConfigInvariants(t *testing.T) {
	rng := faults.NewPRNG(17)
	pick := func(n int) int { return int(rng.Uint64() % uint64(n)) }
	pols := Policies()
	for run := 0; run < 16; run++ {
		cfg := testConfig(t)
		cfg.Seed = rng.Uint64()
		cfg.Policy = pols[pick(len(pols))]
		cfg.Arrival = loadgen.Process(pick(2))
		cfg.Burst = 1 + pick(6)
		cfg.RPS = float64(2000 + pick(10_000))
		cfg.Duration = 3_000_000
		cfg.Nodes = 1 + pick(3)
		cfg.NodeCores = 1 + pick(4)
		cfg.TickNS = uint64(5_000 + pick(100_000))
		cfg.KeepAlive = []uint64{0, 20_000, 500_000, 1 << 40}[pick(4)]
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if rep.TraceDropped != 0 {
			t.Fatalf("run %d: trace dropped %d events; shrink the run", run, rep.TraceDropped)
		}
		arrivals := loadgen.Arrivals(loadgen.Config{
			RPS: cfg.RPS, Duration: cfg.Duration, Seed: cfg.Seed, Arrival: cfg.Arrival, Burst: cfg.Burst,
		})
		if len(rep.Invocations) != len(arrivals) {
			t.Fatalf("run %d: %d invocations for %d arrivals", run, len(rep.Invocations), len(arrivals))
		}
		for i, iv := range rep.Invocations {
			if iv.ID != i || iv.Arrive != arrivals[i] || iv.Start < iv.Arrive || iv.Done < iv.Start {
				t.Fatalf("run %d: invocation %d: %+v (arrival at %d)", run, i, iv, arrivals[i])
			}
		}
		type span struct{ start, end uint64 }
		runs := map[int][]span{}
		done := make([]int, len(rep.Invocations))
		for _, ev := range rep.Events {
			switch ev.Kind {
			case trace.EvInvokeDone:
				done[ev.Arg]++
			case trace.EvInvokeRun:
				inst := rep.Invocations[ev.Arg].Instance
				runs[inst] = append(runs[inst], span{ev.Cycle, ev.Cycle + ev.Arg2})
			}
		}
		for i, n := range done {
			if n != 1 {
				t.Fatalf("run %d: invocation %d completed %d times", run, i, n)
			}
		}
		for inst, spans := range runs {
			sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
			for i := 1; i < len(spans); i++ {
				if spans[i].start < spans[i-1].end {
					t.Fatalf("run %d: instance %d serves [%d,%d) and [%d,%d) at once", run, inst,
						spans[i-1].start, spans[i-1].end, spans[i].start, spans[i].end)
				}
			}
		}
	}
}
