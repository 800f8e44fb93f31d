package autoscale

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"svbench/internal/gemsys"
	"svbench/internal/harness"
	"svbench/internal/isa"
	"svbench/internal/loadgen"
)

func specByName(t *testing.T, name string) harness.Spec {
	t.Helper()
	for _, sp := range harness.AllSpecs() {
		if sp.Name == name {
			return sp
		}
	}
	t.Fatalf("no spec %q in catalog", name)
	return harness.Spec{}
}

// testConfig is the baseline autoscale point: fibonacci-go on rv64 at
// 2000 rps over a 20 ms window under the concurrency-target policy.
func testConfig(t *testing.T) Config {
	return Config{
		Cfg:       gemsys.DefaultConfig(isa.RV64),
		Spec:      specByName(t, "fibonacci-go"),
		RPS:       2000,
		Duration:  20_000_000,
		Seed:      7,
		KeepAlive: 10_000_000,
	}
}

func TestRunBasics(t *testing.T) {
	rep, err := Run(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Invocations) == 0 {
		t.Fatal("no invocations")
	}
	for i := range rep.Invocations {
		iv := &rep.Invocations[i]
		if iv.Done < iv.Start || iv.Start < iv.Arrive {
			t.Fatalf("invocation %d time-travels: arrive %d start %d done %d", i, iv.Arrive, iv.Start, iv.Done)
		}
		if iv.Latency != iv.Wait+iv.Service {
			t.Fatalf("invocation %d: latency %d != wait %d + service %d", i, iv.Latency, iv.Wait, iv.Service)
		}
		if iv.Node < 0 || iv.Node >= len(rep.Nodes) {
			t.Fatalf("invocation %d served on out-of-range node %d", i, iv.Node)
		}
	}
	if rep.ScaleUps == 0 || rep.PeakInstances == 0 {
		t.Fatalf("autoscaler never scaled up: %d ups, peak %d", rep.ScaleUps, rep.PeakInstances)
	}
	if rep.PeakInstances > uint64(rep.Cfg.Capacity()) {
		t.Fatalf("peak %d exceeds cluster capacity %d", rep.PeakInstances, rep.Cfg.Capacity())
	}
	var placed, busy uint64
	for _, n := range rep.Nodes {
		placed += n.Placed
		busy += n.BusyNS
	}
	if placed != rep.ScaleUps {
		t.Fatalf("node placements %d != scale-ups %d", placed, rep.ScaleUps)
	}
	if busy == 0 || rep.MeanUtilization <= 0 {
		t.Fatal("no node busy time accounted")
	}
	if rep.SLOAttainment < 0 || rep.SLOAttainment > 1 {
		t.Fatalf("SLO attainment %g out of range", rep.SLOAttainment)
	}
	t.Logf("\n%s", rep.Table())
}

// TestScaleToZeroThenBurst pins cold-start amplification under
// scale-to-zero: a long arrival gap past the keep-alive lease must shed
// every instance, and the burst after the gap pays fresh cold starts
// (churn) instead of finding a warm fleet.
func TestScaleToZeroThenBurst(t *testing.T) {
	cfg := testConfig(t)
	cfg.Policy = Concurrency{Label: "scale-to-zero", Target: DefaultTarget, Min: 0}
	cfg.KeepAlive = 2_000_000
	// Batches separated by silences much longer than the lease: the
	// bursty process emits simultaneous batches, and the window is wide
	// enough (mean batch gap 10 ms vs a 2 ms lease) for several.
	cfg.Arrival = loadgen.Bursty
	cfg.Burst = 8
	cfg.RPS = 800
	cfg.Duration = 80_000_000
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ScaleDowns == 0 {
		t.Fatalf("scale-to-zero never reclaimed an instance (%d ups)", rep.ScaleUps)
	}
	if rep.ChurnColdStarts == 0 {
		t.Fatal("refill after scale-to-zero booked no churn cold starts")
	}
	if rep.ScaleUps <= rep.PeakInstances {
		t.Fatalf("cold amplification not visible: %d ups vs peak %d", rep.ScaleUps, rep.PeakInstances)
	}
	if rep.ColdAmplification <= 1 {
		t.Fatalf("ColdAmplification = %g, want > 1 under churn", rep.ColdAmplification)
	}
}

// TestPanicHysteresis drives the panic scaler directly through a demand
// spike and pins entry at the 2× threshold, the no-scale-down floor
// while panicking, and exit only after the full calm window.
func TestPanicHysteresis(t *testing.T) {
	s := Panic{Target: 2, Min: 1, ExitTicks: 3}.New()
	p := s.(Panicker)

	// Calm: demand 2 against 1 ready instance stays stable-mode.
	if d := s.Desired(Observation{Ready: 1, Busy: 1, Queued: 1}); d != 1 || p.InPanic() {
		t.Fatalf("calm tick: desired %d inPanic %v", d, p.InPanic())
	}
	// Spike: demand 8 >= 2 × (target 2 × ready 1) → panic, one instance
	// per in-flight invocation.
	if d := s.Desired(Observation{Ready: 1, Busy: 1, Queued: 7}); d != 8 || !p.InPanic() {
		t.Fatalf("spike tick: desired %d inPanic %v", d, p.InPanic())
	}
	// Demand fades, but panic holds the floor: no scale-down yet.
	for i := 0; i < 2; i++ {
		if d := s.Desired(Observation{Ready: 8, Busy: 1, Queued: 0}); d != 8 || !p.InPanic() {
			t.Fatalf("calm tick %d during panic: desired %d inPanic %v", i+1, d, p.InPanic())
		}
	}
	// Third consecutive calm tick completes the window: panic exits and
	// the stable desire applies again.
	if d := s.Desired(Observation{Ready: 8, Busy: 1, Queued: 0}); d != 1 || p.InPanic() {
		t.Fatalf("exit tick: desired %d inPanic %v", d, p.InPanic())
	}
}

// TestPanicReentryResetsWindow pins that a fresh spike inside the calm
// window restarts the hysteresis count.
func TestPanicReentryResetsWindow(t *testing.T) {
	s := Panic{Target: 1, Min: 1, ExitTicks: 2}.New()
	p := s.(Panicker)
	s.Desired(Observation{Ready: 1, Busy: 1, Queued: 3}) // enter panic
	s.Desired(Observation{Ready: 4, Busy: 1, Queued: 0}) // calm 1 of 2
	s.Desired(Observation{Ready: 1, Busy: 1, Queued: 3}) // re-spike: reset
	s.Desired(Observation{Ready: 4, Busy: 1, Queued: 0}) // calm 1 of 2
	if !p.InPanic() {
		t.Fatal("panic exited before the calm window refilled after a re-spike")
	}
	s.Desired(Observation{Ready: 4, Busy: 1, Queued: 0}) // calm 2 of 2
	if p.InPanic() {
		t.Fatal("panic held past the completed calm window")
	}
}

// TestPanicModeEndToEnd runs the panic policy through the engine against
// a bursty arrival process and checks the transition counters pair up.
func TestPanicModeEndToEnd(t *testing.T) {
	cfg := testConfig(t)
	cfg.Policy = Panic{Label: "panic", Target: DefaultTarget, Min: 1}
	cfg.Arrival = loadgen.Bursty
	cfg.Burst = 12
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PanicEntries == 0 {
		t.Fatal("bursty load never entered panic mode")
	}
	if rep.PanicExits > rep.PanicEntries {
		t.Fatalf("%d panic exits exceed %d entries", rep.PanicExits, rep.PanicEntries)
	}
}

// TestPlacerBestFit pins the bin-packer's order: fill the most-loaded
// fitting node first (ties by index), respect both core and memory
// limits, and reject on a full cluster.
func TestPlacerBestFit(t *testing.T) {
	nodes := []node{
		{cores: 2, memMB: 1024},
		{cores: 2, memMB: 1024, usedCores: 1, usedMemMB: 512},
	}
	// Best fit: node 1 has fewer free cores.
	if got := place(nodes, 512); got != 1 {
		t.Fatalf("best-fit picked node %d, want 1", got)
	}
	nodes[1].usedCores, nodes[1].usedMemMB = 2, 1024
	// Node 1 full: only node 0 fits.
	if got := place(nodes, 512); got != 0 {
		t.Fatalf("full-node fallback picked node %d, want 0", got)
	}
	// Memory can reject a node whose cores are free.
	nodes[0].usedMemMB = 768
	if got := place(nodes, 512); got != -1 {
		t.Fatalf("memory-full cluster placed on node %d, want rejection", got)
	}
	// Equal free cores tie-breaks on lowest index.
	tie := []node{{cores: 4, memMB: 2048}, {cores: 4, memMB: 2048}}
	if got := place(tie, 512); got != 0 {
		t.Fatalf("tie broke to node %d, want 0", got)
	}
}

// TestFullClusterQueuesFIFO saturates a one-node cluster and pins that
// overflow arrivals queue FIFO (completion order follows arrival order)
// and that the placer's rejections are counted.
func TestFullClusterQueuesFIFO(t *testing.T) {
	cfg := testConfig(t)
	cfg.Nodes = 1
	cfg.NodeCores = 4
	cfg.InstMemMB = 512
	cfg.NodeMemMB = 1024 // memory binds first: 2 instances, not 4
	cfg.RPS = 20000      // interarrivals inside the boot penalty and cold serves
	cfg.Duration = 2_000_000
	cfg.Policy = Fixed{} // demand the whole core capacity: memory rejects half
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeakInstances != 2 {
		t.Fatalf("peak %d, want the capacity 2", rep.PeakInstances)
	}
	if rep.MaxQueueDepth == 0 {
		t.Fatal("saturated cluster never queued")
	}
	if rep.RejectedPlaces == 0 {
		t.Fatal("fixed-cap policy against a tiny cluster never hit the placer limit")
	}
	last := uint64(0)
	for i := range rep.Invocations {
		iv := &rep.Invocations[i]
		if iv.Start < last {
			t.Fatalf("invocation %d started at %d before its predecessor at %d: FIFO violated", i, iv.Start, last)
		}
		last = iv.Start
	}
}

// TestDeterminismAcrossJobsAndMemo is the sweep identity contract: a
// policy × RPS grid must produce byte-identical tables, stats text and
// trace JSON for -j 1 vs -j N, and an unmemoizable... (memoization is
// exercised by sharing one cache vs none; the bytes must not move).
func TestDeterminismAcrossJobsAndMemo(t *testing.T) {
	grid := func() []Config {
		var cfgs []Config
		for _, pol := range []Policy{Fixed{}, Concurrency{Label: "concurrency", Target: DefaultTarget, Min: 1}, Panic{Label: "panic", Target: DefaultTarget, Min: 1}} {
			for _, rps := range []float64{1000, 4000} {
				c := testConfig(t)
				c.Policy = pol
				c.RPS = rps
				c.Duration = 10_000_000
				cfgs = append(cfgs, c)
			}
		}
		return cfgs
	}

	seq, errs := RunMany(grid(), 1)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	par, errs := RunMany(grid(), 4)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Memoization off: every run boots its own master (private caches).
	solo := make([]*Report, len(seq))
	for i, c := range grid() {
		c.Cache = harness.NewBootCache()
		r, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = r
	}
	for i := range seq {
		if seq[i].Table() != par[i].Table() {
			t.Fatalf("point %d: -j1 and -j4 tables differ:\n%s\nvs\n%s", i, seq[i].Table(), par[i].Table())
		}
		if seq[i].StatsText != par[i].StatsText {
			t.Fatalf("point %d: stats text differs across job counts", i)
		}
		if !bytes.Equal(seq[i].TraceJSON, par[i].TraceJSON) {
			t.Fatalf("point %d: trace JSON differs across job counts", i)
		}
		if seq[i].Table() != solo[i].Table() || seq[i].StatsText != solo[i].StatsText {
			t.Fatalf("point %d: memoized sweep differs from cold solo run", i)
		}
	}
}

func TestRunRejectsBadRPS(t *testing.T) {
	for _, rps := range []float64{0, math.NaN(), math.Inf(1)} {
		cfg := testConfig(t)
		cfg.RPS = rps
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "RPS") {
			t.Errorf("RPS %g: err = %v, want an RPS error", rps, err)
		}
	}
}

// TestConfigDefaults pins the zero-value resolution every renderer and
// the engine rely on.
func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.NodeCount() != DefaultNodes || c.CoresPerNode() != DefaultNodeCores {
		t.Fatalf("node defaults: %d x %d", c.NodeCount(), c.CoresPerNode())
	}
	if c.Capacity() != DefaultNodes*DefaultNodeCores {
		t.Fatalf("capacity %d, want %d", c.Capacity(), DefaultNodes*DefaultNodeCores)
	}
	if c.Tick() != DefaultTickNS || c.Objective() != DefaultSLO {
		t.Fatalf("tick/SLO defaults: %d / %d", c.Tick(), c.Objective())
	}
	if c.ScalePolicy().Name() != "concurrency" {
		t.Fatalf("default policy %q", c.ScalePolicy().Name())
	}
	// Memory can be the binding constraint.
	c.NodeMemMB = 1024
	c.InstMemMB = 512
	if c.Capacity() != DefaultNodes*2 {
		t.Fatalf("memory-bound capacity %d, want %d", c.Capacity(), DefaultNodes*2)
	}
}

func TestPolicyCatalog(t *testing.T) {
	for _, p := range Policies() {
		got, err := PolicyByName(p.Name())
		if err != nil {
			t.Fatal(err)
		}
		if got.Name() != p.Name() {
			t.Fatalf("catalog round-trip: %q != %q", got.Name(), p.Name())
		}
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Fatal("unknown policy name did not error")
	}
}
