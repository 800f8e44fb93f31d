package loadgen

import (
	"math"

	"svbench/internal/faults"
)

// Process selects the arrival process the generator replays.
type Process int

const (
	// Poisson draws exponential interarrival gaps — the memoryless
	// open-loop traffic model serverless platforms are usually sized
	// against.
	Poisson Process = iota
	// Bursty groups arrivals into back-to-back batches at the same mean
	// rate — the trace-shaped worst case for queueing and cold starts.
	Bursty
)

// String names the process for report headers.
func (p Process) String() string {
	switch p {
	case Poisson:
		return "poisson"
	case Bursty:
		return "bursty"
	}
	return "unknown"
}

// DefaultBurst is the arrivals-per-batch of the Bursty process when
// Config.Burst is zero.
const DefaultBurst = 8

// Arrivals materializes the seeded arrival process of cfg (only RPS,
// Duration, Seed, Arrival and Burst are read) — exported so other
// schedulers (internal/autoscale) replay the exact same invocation
// streams the keep-alive pool sees.
func Arrivals(cfg Config) []uint64 { return genArrivals(cfg) }

// genArrivals materializes the seeded arrival process: virtual-ns
// timestamps, nondecreasing, all strictly below cfg.Duration. The stream
// is a pure function of (seed, process, rate, duration), which is the
// root of the engine's determinism guarantee — replaying it against the
// same pool policy reproduces every queueing decision bit-for-bit.
func genArrivals(cfg Config) []uint64 {
	if !(cfg.RPS > 0) || math.IsInf(cfg.RPS, 1) || cfg.Duration == 0 {
		return nil
	}
	rng := faults.NewPRNG(cfg.Seed)
	meanGapNS := 1e9 / cfg.RPS
	var out []uint64
	switch cfg.Arrival {
	case Bursty:
		burst := cfg.Burst
		if burst <= 0 {
			burst = DefaultBurst
		}
		// Batches of `burst` simultaneous arrivals, exponentially spaced
		// so the long-run rate still matches RPS.
		t := 0.0
		for {
			t += rng.Exp(meanGapNS * float64(burst))
			if uint64(t) >= cfg.Duration {
				return out
			}
			for i := 0; i < burst; i++ {
				out = append(out, uint64(t))
			}
		}
	default: // Poisson
		t := 0.0
		for {
			t += rng.Exp(meanGapNS)
			if uint64(t) >= cfg.Duration {
				return out
			}
			out = append(out, uint64(t))
		}
	}
}
