package loadgen

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"svbench/internal/faults"
	"svbench/internal/gemsys"
	"svbench/internal/harness"
	"svbench/internal/isa"
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

// image expands ck's memory image to MemSize bytes.
func image(ck *gemsys.Checkpoint) []byte {
	mem := make([]byte, ck.MemSize)
	for _, pg := range ck.Pages {
		copy(mem[pg.Index<<isa.PageShift:], pg.Data)
	}
	return mem
}

// testConfig is the acceptance-criteria load point: fibonacci-go on rv64,
// 200 rps over a 50 ms window, seed 7.
func testConfig(t *testing.T) Config {
	return Config{
		Cfg:       gemsys.DefaultConfig(isa.RV64),
		Spec:      specByName(t, "fibonacci-go"),
		RPS:       200,
		Duration:  50_000_000,
		Seed:      7,
		KeepAlive: 10_000_000,
	}
}

func TestArrivalsAreSeededAndBounded(t *testing.T) {
	cfg := testConfig(t)
	a := genArrivals(cfg)
	b := genArrivals(cfg)
	if len(a) == 0 {
		t.Fatal("no arrivals generated")
	}
	if len(a) != len(b) {
		t.Fatalf("same config, different arrival counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %d vs %d", i, a[i], b[i])
		}
		if a[i] >= cfg.Duration {
			t.Fatalf("arrival %d at %d >= duration %d", i, a[i], cfg.Duration)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrivals not monotone at %d: %d < %d", i, a[i], a[i-1])
		}
	}

	cfg.Seed = 8
	c := genArrivals(cfg)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical arrival streams")
	}

	cfg.Arrival = Bursty
	cfg.Burst = 4
	d := genArrivals(cfg)
	if len(d)%4 != 0 {
		t.Fatalf("bursty arrivals not batch-aligned: %d", len(d))
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	for _, rps := range []float64{0, math.NaN(), math.Inf(1)} {
		cfg := testConfig(t)
		cfg.RPS = rps
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "RPS") {
			t.Fatalf("RPS %g: err = %v, want an RPS error", rps, err)
		}
	}
	cfg := testConfig(t)
	cfg.Duration = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero duration accepted")
	}
	cfg = testConfig(t)
	cfg.MaxInstances = -1
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative pool cap accepted")
	}
}

// TestRunBasics exercises one full run: every invocation completes with a
// consistent lifecycle and the warmup cold starts match the pool growth.
func TestRunBasics(t *testing.T) {
	rep, err := Run(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Invocations) == 0 {
		t.Fatal("no invocations")
	}
	if rep.CheckFailures != 0 {
		t.Fatalf("%d check failures", rep.CheckFailures)
	}
	if rep.ColdStarts == 0 {
		t.Fatal("first invocation must cold-start")
	}
	if rep.ColdStarts+rep.WarmStarts != uint64(len(rep.Invocations)) {
		t.Fatalf("cold %d + warm %d != invocations %d",
			rep.ColdStarts, rep.WarmStarts, len(rep.Invocations))
	}
	for i, inv := range rep.Invocations {
		if inv.ID != i {
			t.Fatalf("invocation %d has ID %d", i, inv.ID)
		}
		if inv.Done != inv.Start+inv.Service {
			t.Fatalf("invocation %d: done %d != start %d + service %d", i, inv.Done, inv.Start, inv.Service)
		}
		if inv.Latency != inv.QueueDelay+inv.ColdPenalty+inv.Service {
			t.Fatalf("invocation %d: latency %d != queue %d + cold %d + service %d",
				i, inv.Latency, inv.QueueDelay, inv.ColdPenalty, inv.Service)
		}
		if !inv.Cold && inv.ColdPenalty != 0 {
			t.Fatalf("warm invocation %d has cold penalty %d", i, inv.ColdPenalty)
		}
		if inv.Cold && inv.ColdPenalty == 0 {
			t.Fatalf("cold invocation %d has no penalty", i)
		}
		if inv.Service == 0 {
			t.Fatalf("invocation %d has zero service time", i)
		}
	}
	if rep.Latency.P99 < rep.Latency.P50 || rep.Latency.Max < rep.Latency.P99 {
		t.Fatalf("percentiles not ordered: %+v", rep.Latency)
	}
	if rep.Makespan == 0 || rep.Throughput <= 0 {
		t.Fatalf("missing makespan/throughput: %d %g", rep.Makespan, rep.Throughput)
	}
}

// TestKeepAliveControlsColdStarts pins the acceptance criterion: a short
// keep-alive churns cold starts, a keep-alive beyond the run leaves only
// the warmup ones.
func TestKeepAliveControlsColdStarts(t *testing.T) {
	cfg := testConfig(t)
	cfg.KeepAlive = 0 // reclaim the instant an instance idles
	churny, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if churny.ChurnColdStarts == 0 {
		t.Fatalf("keep-alive 0 produced no churn cold starts (cold %d)", churny.ColdStarts)
	}
	if churny.Reclaims == 0 {
		t.Fatal("keep-alive 0 reclaimed nothing")
	}

	cfg.KeepAlive = 10 * cfg.Duration
	warm, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.ChurnColdStarts != 0 {
		t.Fatalf("infinite keep-alive still churned %d cold starts", warm.ChurnColdStarts)
	}
	if warm.ColdStarts != warm.PeakInstances {
		t.Fatalf("warmup cold starts %d != peak instances %d", warm.ColdStarts, warm.PeakInstances)
	}
	if warm.Reclaims != 0 {
		t.Fatalf("infinite keep-alive reclaimed %d instances", warm.Reclaims)
	}
	if warm.Latency.P99 > churny.Latency.Max && churny.ChurnColdStarts > 0 &&
		warm.ColdStarts > churny.ColdStarts {
		t.Fatal("longer keep-alive should not increase cold starts")
	}
}

// TestBurstyQueuesAtPoolCap drives batch arrivals into a small pool and
// expects FIFO backlog.
func TestBurstyQueuesAtPoolCap(t *testing.T) {
	cfg := testConfig(t)
	cfg.Arrival = Bursty
	cfg.Burst = 6
	// Batches arrive every burst/RPS seconds on average; keep the rate
	// high enough that several batches land inside the window.
	cfg.RPS = 600
	cfg.MaxInstances = 2
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeakInstances != 2 {
		t.Fatalf("peak %d, want pool cap 2", rep.PeakInstances)
	}
	if rep.MaxQueueDepth == 0 {
		t.Fatal("burst of 6 into a pool of 2 never queued")
	}
	if rep.QueueDelay.Max == 0 {
		t.Fatal("queueing produced no queue delay")
	}
}

// TestDeterminismAcrossJobs is the loadgen determinism gate: the same
// sweep of configs run with -j 1 and -j 4 yields byte-identical latency
// tables, stats-registry dumps and trace JSON for every point — and a
// solo Run matches both.
func TestDeterminismAcrossJobs(t *testing.T) {
	mkCfgs := func() []Config {
		base := testConfig(t)
		short := base
		short.KeepAlive = 1_000_000
		bursty := base
		bursty.Arrival = Bursty
		bursty.RPS = 600
		bursty.MaxInstances = 2
		return []Config{base, short, bursty}
	}

	seq, errs1 := RunMany(mkCfgs(), 1)
	for i, err := range errs1 {
		if err != nil {
			t.Fatalf("point %d (-j 1): %v", i, err)
		}
	}
	par, errs4 := RunMany(mkCfgs(), 4)
	for i, err := range errs4 {
		if err != nil {
			t.Fatalf("point %d (-j 4): %v", i, err)
		}
	}

	solo, err := Run(mkCfgs()[0])
	if err != nil {
		t.Fatal(err)
	}

	for i := range seq {
		if a, b := seq[i].Table(), par[i].Table(); a != b {
			t.Errorf("point %d: latency table differs between -j 1 and -j 4:\n--- j1\n%s--- j4\n%s", i, a, b)
		}
		if a, b := seq[i].StatsText, par[i].StatsText; a != b {
			t.Errorf("point %d: stats text differs between -j 1 and -j 4", i)
		}
		if !bytes.Equal(seq[i].TraceJSON, par[i].TraceJSON) {
			t.Errorf("point %d: trace JSON differs between -j 1 and -j 4", i)
		}
	}
	if a, b := seq[0].Table(), solo.Table(); a != b {
		t.Errorf("solo run table differs from swept run:\n--- sweep\n%s--- solo\n%s", a, b)
	}
	if !bytes.Equal(seq[0].TraceJSON, solo.TraceJSON) {
		t.Error("solo run trace differs from swept run")
	}
	if seq[0].StatsText != solo.StatsText {
		t.Error("solo run stats text differs from swept run")
	}
}

// TestReclaimDispatchTieBreak pins the ordering contract at identical
// virtual timestamps: dispatch reclaims before placement, and an idle
// instance whose keep-alive lease ends exactly at the dispatch instant is
// reclaimed (the arrival cold-starts). Flipping the tie-break would
// silently shift cold/warm accounting in scenario phase buckets. The
// cases drive reclaimExpired/leaseEnd/takeWarm directly on fabricated
// pool state — no machines are involved, so instances carry no Boot.
func TestReclaimDispatchTieBreak(t *testing.T) {
	cases := []struct {
		name      string
		keepAlive uint64
		idleSince uint64
		now       uint64
		reclaimed bool
	}{
		{"lease ends exactly at dispatch: reclaim wins", 10_000, 90_000, 100_000, true},
		{"lease ends one tick after dispatch: instance stays warm", 10_000, 90_001, 100_000, false},
		{"lease ended well before dispatch", 10_000, 10_000, 100_000, true},
		{"keep-alive zero reclaims at the idling instant", 0, 100_000, 100_000, true},
		{"huge keep-alive never expires (overflow-safe)", ^uint64(0) - 5, 100_000, ^uint64(0) - 1, false},
	}
	for _, tc := range cases {
		e := &engine{cfg: Config{KeepAlive: tc.keepAlive}, live: 1}
		inst := &Instance{ID: 0, IdleSince: tc.idleSince}
		e.idle = []*Instance{inst}
		e.reclaimExpired(tc.now)
		gotReclaimed := len(e.idle) == 0
		if gotReclaimed != tc.reclaimed {
			t.Errorf("%s: reclaimed=%v, want %v (leaseEnd %d, now %d)",
				tc.name, gotReclaimed, tc.reclaimed, e.leaseEnd(inst), tc.now)
			continue
		}
		if tc.reclaimed {
			if e.reclaims != 1 || e.live != 0 {
				t.Errorf("%s: reclaims=%d live=%d, want 1/0", tc.name, e.reclaims, e.live)
			}
			if w := e.takeWarm(); w != nil {
				t.Errorf("%s: takeWarm returned instance %d after reclaim", tc.name, w.ID)
			}
		} else {
			if w := e.takeWarm(); w != inst {
				t.Errorf("%s: takeWarm lost the surviving instance", tc.name)
			}
		}
	}
}

// timedFault returns a fixed AttemptFault inside a window and nothing
// outside — a minimal deterministic AttemptHook for engine tests.
type timedFault struct {
	start, end uint64
	f          faults.AttemptFault
	calls      int
}

func (h *timedFault) Attempt(inv, attempt int, now uint64) faults.AttemptFault {
	h.calls++
	if now >= h.start && now < h.end {
		return h.f
	}
	return faults.AttemptFault{}
}

// TestRetryRecoversErrorReplies pins the engine-level retry path: error
// replies inside a fault window are retried with backoff, invocations
// recover once the window closes or attempts land outside it, and the
// chaos counters reconcile.
func TestRetryRecoversErrorReplies(t *testing.T) {
	cfg := testConfig(t)
	cfg.Retry = &faults.Retry{MaxAttempts: 4, Backoff: 2_000_000, Deadline: 20_000_000}
	hook := &timedFault{start: 10_000_000, end: 25_000_000, f: faults.AttemptFault{ErrorReply: true}}
	cfg.Chaos = hook
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hook.calls == 0 || uint64(hook.calls) != rep.Attempts {
		t.Fatalf("hook consulted %d times, %d attempts booked", hook.calls, rep.Attempts)
	}
	if rep.Retries == 0 || rep.ErrorReplies == 0 {
		t.Fatalf("window injected nothing: retries=%d errorReplies=%d", rep.Retries, rep.ErrorReplies)
	}
	if rep.Recovered == 0 {
		t.Fatal("no invocation recovered via retry")
	}
	if rep.Attempts != uint64(len(rep.Invocations))+rep.Retries {
		t.Fatalf("attempts %d != invocations %d + retries %d", rep.Attempts, len(rep.Invocations), rep.Retries)
	}
	var failed, recovered uint64
	for _, inv := range rep.Invocations {
		if inv.Failed {
			failed++
			if inv.Attempts != 4 {
				t.Fatalf("invocation %d failed after %d attempts, want MaxAttempts=4", inv.ID, inv.Attempts)
			}
		} else if inv.Attempts > 1 {
			recovered++
		}
		if inv.Done < inv.Arrive {
			t.Fatalf("invocation %d: done %d before arrive %d", inv.ID, inv.Done, inv.Arrive)
		}
	}
	if failed != rep.Failed || recovered != rep.Recovered {
		t.Fatalf("per-invocation failed/recovered %d/%d != counters %d/%d",
			failed, recovered, rep.Failed, rep.Recovered)
	}
}

// TestDroppedRequestTimesOut pins the lost-message path: a dropped
// request touches no instance and surfaces at the reply deadline; without
// a retry policy the invocation fails with the default deadline as its
// latency.
func TestDroppedRequestTimesOut(t *testing.T) {
	cfg := testConfig(t)
	cfg.RPS = 100
	cfg.Duration = 20_000_000
	hook := &timedFault{start: 0, end: ^uint64(0), f: faults.AttemptFault{DropRequest: true}}
	cfg.Chaos = hook
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ColdStarts != 0 || rep.WarmStarts != 0 {
		t.Fatalf("dropped requests still reached the pool: cold=%d warm=%d", rep.ColdStarts, rep.WarmStarts)
	}
	if rep.Timeouts != uint64(len(rep.Invocations)) || rep.Failed != uint64(len(rep.Invocations)) {
		t.Fatalf("timeouts=%d failed=%d, want all %d", rep.Timeouts, rep.Failed, len(rep.Invocations))
	}
	deadline := faults.DefaultRetry().Deadline
	for _, inv := range rep.Invocations {
		if !inv.Failed || inv.Latency != deadline {
			t.Fatalf("invocation %d: failed=%v latency=%d, want failure at default deadline %d",
				inv.ID, inv.Failed, inv.Latency, deadline)
		}
	}
}

// TestChaosDeterminism re-runs a chaos+retry config solo and through
// RunMany at different job counts, expecting byte-identical outputs.
func TestChaosDeterminism(t *testing.T) {
	mk := func() Config {
		cfg := testConfig(t)
		cfg.Retry = &faults.Retry{MaxAttempts: 3, Backoff: 1_000_000, Deadline: 10_000_000}
		cfg.Chaos = &timedFault{start: 5_000_000, end: 30_000_000, f: faults.AttemptFault{ErrorReply: true}}
		return cfg
	}
	a, errs := RunMany([]Config{mk(), mk()}, 1)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	b, errs := RunMany([]Config{mk(), mk()}, 4)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	solo, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Table() != b[i].Table() || a[i].StatsText != b[i].StatsText ||
			!bytes.Equal(a[i].TraceJSON, b[i].TraceJSON) {
			t.Fatalf("chaos point %d differs between -j 1 and -j 4", i)
		}
	}
	if solo.Table() != a[0].Table() || !bytes.Equal(solo.TraceJSON, a[0].TraceJSON) {
		t.Fatal("solo chaos run differs from swept run")
	}
}

// TestOnInstanceExposesBindings pins the fault-layer hook: every booted
// instance reports its guest→service bindings (engine-named channel
// pairs), and binding-free workloads report an empty set.
func TestOnInstanceExposesBindings(t *testing.T) {
	cfg := testConfig(t)
	cfg.Spec = specByName(t, "geo")
	cfg.RPS = 100
	cfg.Duration = 20_000_000
	got := map[int][]harness.ServiceBinding{}
	cfg.OnInstance = func(id int, bs []harness.ServiceBinding) {
		got[id] = append([]harness.ServiceBinding(nil), bs...)
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("OnInstance never called")
	}
	if uint64(len(got)) != rep.ColdStarts {
		t.Fatalf("OnInstance calls %d != cold starts %d", len(got), rep.ColdStarts)
	}
	for id, bs := range got {
		if len(bs) != 2 || bs[0].Name != "cassandra" || bs[1].Name != "memcached" {
			t.Fatalf("instance %d bindings = %+v", id, bs)
		}
	}

	cfg = testConfig(t)
	calls := 0
	cfg.OnInstance = func(id int, bs []harness.ServiceBinding) {
		calls++
		if len(bs) != 0 {
			t.Errorf("fibonacci-go instance %d has bindings %+v", id, bs)
		}
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("OnInstance never called for fibonacci-go")
	}
}

// TestAcquiredMemoryEqualsMaster: every instance the fleet hands out,
// freshly booted or recycled after serving, starts from guest memory
// byte-identical to the master checkpoint's image, whichever pages the
// restore chose to copy.
func TestAcquiredMemoryEqualsMaster(t *testing.T) {
	for _, arch := range []isa.Arch{isa.RV64, isa.CISC64} {
		t.Run(string(arch), func(t *testing.T) {
			f, err := NewFleet(gemsys.DefaultConfig(arch), specByName(t, "fibonacci-go"), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !f.Memoizable() {
				t.Fatal("fibonacci-go fleet is not memoizable")
			}
			master := image(f.masterCk)
			inv := 0
			for round := 0; round < 3; round++ {
				var insts []*Instance
				for i := 0; i < 3; i++ {
					inst, err := f.Acquire()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(inst.b.M.Mem.Data, master) {
						t.Fatalf("round %d: instance %d memory differs from the master checkpoint", round, inst.ID)
					}
					insts = append(insts, inst)
				}
				// Serve a different number of invocations on each so the
				// recycled machines come back with different dirty pages.
				for i, inst := range insts {
					for n := 0; n <= i; n++ {
						if _, _, err := f.Serve(inst, inv); err != nil {
							t.Fatal(err)
						}
						inv++
					}
					f.Release(inst)
				}
			}
		})
	}
}
