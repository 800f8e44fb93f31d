package loadgen

import (
	"sort"
	"testing"

	"svbench/internal/faults"
	"svbench/internal/trace"
)

// seededFaults draws each attempt's faults from a seeded PRNG. The engine
// consults it once per attempt in event order, so a run stays a pure
// function of its config.
type seededFaults struct{ rng *faults.PRNG }

func (h *seededFaults) Attempt(inv, attempt int, now uint64) faults.AttemptFault {
	var f faults.AttemptFault
	switch h.rng.Uint64() % 8 {
	case 0:
		f.DropRequest = true
	case 1:
		f.DropResponse = true
	case 2:
		f.ErrorReply = true
	case 3:
		f.BadReply = true
	case 4:
		f.DelayNS = h.rng.Uint64() % 200_000
	case 5:
		f.ServiceMult = 2 + h.rng.Uint64()%3
	}
	return f
}

// TestRandomConfigInvariants runs randomized configs (pool cap,
// keep-alive, arrival process, retry policy and per-attempt faults) and
// checks the engine's invariants on each: every arrival is exactly one
// invocation with one final outcome, attempts add up, and no instance
// runs two attempts at once. The event queue's clock check makes every
// run a check that time never runs backwards, too.
func TestRandomConfigInvariants(t *testing.T) {
	rng := faults.NewPRNG(17)
	pick := func(n int) int { return int(rng.Uint64() % uint64(n)) }
	for run := 0; run < 24; run++ {
		cfg := testConfig(t)
		cfg.Seed = rng.Uint64()
		cfg.Arrival = Process(pick(2))
		cfg.Burst = 1 + pick(6)
		cfg.RPS = float64(2000 + pick(18_000))
		cfg.Duration = 2_000_000
		cfg.MaxInstances = 1 + pick(4)
		cfg.KeepAlive = []uint64{0, 50_000, 1_000_000, 1 << 40}[pick(4)]
		if pick(4) > 0 {
			cfg.Retry = &faults.Retry{
				MaxAttempts: 1 + pick(4),
				Backoff:     uint64(pick(50_000)),
				Deadline:    uint64(20_000 + pick(200_000)),
			}
		}
		if pick(4) > 0 {
			cfg.Chaos = &seededFaults{rng: faults.NewPRNG(rng.Uint64())}
		}
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		checkInvariants(t, run, cfg, rep)
	}
}

func checkInvariants(t *testing.T, run int, cfg Config, rep *Report) {
	t.Helper()
	if rep.TraceDropped != 0 || rep.ColdStarts >= 256 {
		t.Fatalf("run %d: trace dropped %d events over %d instances; shrink the run",
			run, rep.TraceDropped, rep.ColdStarts)
	}
	arrivals := genArrivals(cfg)
	if len(rep.Invocations) != len(arrivals) {
		t.Fatalf("run %d: %d invocations for %d arrivals", run, len(rep.Invocations), len(arrivals))
	}
	for i, iv := range rep.Invocations {
		if iv.ID != i || iv.Arrive != arrivals[i] || iv.Done < iv.Arrive || iv.Attempts < 1 {
			t.Fatalf("run %d: invocation %d: %+v (arrival at %d)", run, i, iv, arrivals[i])
		}
	}
	if rep.Attempts != uint64(len(rep.Invocations))+rep.Retries {
		t.Fatalf("run %d: attempts %d != invocations %d + retries %d",
			run, rep.Attempts, len(rep.Invocations), rep.Retries)
	}
	outcomes := make([]int, len(rep.Invocations))
	type span struct{ start, end uint64 }
	runs := map[uint8][]span{}
	for _, ev := range rep.Events {
		switch ev.Kind {
		case trace.EvInvokeDone, trace.EvInvokeFail:
			outcomes[ev.Arg]++
		case trace.EvInvokeRun:
			runs[ev.Core] = append(runs[ev.Core], span{ev.Cycle, ev.Cycle + ev.Arg2})
		}
	}
	for i, n := range outcomes {
		if n != 1 {
			t.Fatalf("run %d: invocation %d has %d final outcomes", run, i, n)
		}
	}
	for inst, spans := range runs {
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		for i := 1; i < len(spans); i++ {
			if spans[i].start < spans[i-1].end {
				t.Fatalf("run %d: instance %d runs [%d,%d) and [%d,%d) at once", run, inst,
					spans[i-1].start, spans[i-1].end, spans[i].start, spans[i].end)
			}
		}
	}
}
