package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"svbench/internal/ir"
	"svbench/internal/isa"
	"svbench/internal/vswarm"
)

// raceDetector is set in race builds (race_test.go).
var raceDetector bool

// runRecovered runs cfg, turning a panic into an error so a regression
// fails the test instead of killing the test binary.
func runRecovered(cfg Config) (rep *Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return Run(cfg)
}

// TestGuestMemoryFaultEndsRun: a function whose handler loads one byte
// past guest memory ends the fabric run with an error that wraps
// *isa.MemFault and names the faulting service.
func TestGuestMemoryFaultEndsRun(t *testing.T) {
	top := miniTopology()
	top.Services[1].Fn = func([]ChanPair) *ir.Module {
		m := ir.NewModule("faulter")
		b := ir.NewFunc(vswarm.Handler, 3)
		b.Ret(b.Load(b.Const(32<<20), 0, 1))
		m.AddFunc(b.Build())
		return m
	}
	for _, arch := range []isa.Arch{isa.RV64, isa.CISC64} {
		cfg := testConfig(top, 2)
		cfg.Arch = arch
		_, err := runRecovered(cfg)
		var f *isa.MemFault
		if !errors.As(err, &f) {
			t.Fatalf("%s: error %v does not wrap *isa.MemFault", arch, err)
		}
		if !strings.HasPrefix(err.Error(), "cluster: fib: ") || f.Addr != 32<<20 {
			t.Fatalf("%s: error %q", arch, err)
		}
	}
}

// TestHotelReservationOverloadCompletes is the regression test at the
// point that used to crash, and later ended in a guest memory fault:
// hotel-reservation on cisc64 at 200 requests and 2000 rps overloads the
// frontend, and its ingress backlog stays queued while the kernel's
// message slab wraps. The slab used to hand out slots over queued
// messages, and the frontend then read a length header from overwritten
// bytes. Both seeds must now complete with every reply. A run takes
// about 5 s, and minutes under the race detector, so short mode and race
// builds skip it; the kernel's TestQueuedMessageSurvivesSlabWrap covers
// the allocator itself.
func TestHotelReservationOverloadCompletes(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("about 5 s per seed, minutes under the race detector")
	}
	for _, seed := range []uint64{1, 2} {
		cfg := testConfig(HotelReservation(), 200)
		cfg.Arch = isa.CISC64
		cfg.Seed = seed
		rep, err := runRecovered(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(rep.Latencies) != 200 {
			t.Fatalf("seed %d: %d latencies, want 200", seed, len(rep.Latencies))
		}
		for id, lat := range rep.Latencies {
			if lat == 0 {
				t.Fatalf("seed %d: request %d has no latency", seed, id)
			}
		}
	}
}
