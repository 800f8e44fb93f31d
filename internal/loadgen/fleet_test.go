package loadgen

import (
	"bytes"
	"testing"

	"svbench/internal/gemsys"
	"svbench/internal/harness"
	"svbench/internal/ir"
	"svbench/internal/isa"
	"svbench/internal/kernel"
)

// countingService replies to every request with how many it has served:
// host-side state a checkpoint cannot carry.
type countingService struct{ n byte }

func (c *countingService) Handle([]byte) ([]byte, uint64) {
	c.n++
	return []byte{c.n}, 5000
}

// warmedSpec is fib-go with a setup that calls a service: its Build binds
// a countingService and spawns a warmer process that sends it one
// request during setup and waits for the reply. Setup then leaves
// host-side service state behind, so the boot is not memoizable. Each
// Build appends the service it binds to *svcs.
func warmedSpec(t *testing.T, svcs *[]*countingService) harness.Spec {
	sp := specByName(t, "fibonacci-go")
	build := sp.Build
	sp.Build = func(env *harness.Env) (*ir.Module, error) {
		svc := &countingService{}
		*svcs = append(*svcs, svc)
		reqCh, respCh := env.NewService(svc)
		m := ir.NewModule("warmer")
		m.AddGlobal(&ir.Global{Name: "warm_buf", Data: []byte("warm")})
		b := ir.NewFunc("main", 2)
		buf := b.Global("warm_buf", 0)
		b.EcallV(kernel.SysSend, b.Param(0), buf, b.Const(4))
		b.EcallV(kernel.SysRecv, b.Param(1), buf, b.Const(4))
		b.Ret0()
		m.AddFunc(b.Build())
		if _, err := env.M.Spawn("warmer", m, "main", 0, []uint64{uint64(reqCh), uint64(respCh)}); err != nil {
			return nil, err
		}
		return build(env)
	}
	return sp
}

// TestNonMemoizableTwinsRunOwnSetup: a fleet of a spec whose setup calls
// a service cannot share a checkpoint. Each fresh instance is still a
// twin of the master (its images, its decode caches), runs its own Build
// and setup against its own services, and must then serve exactly like
// a machine BootSpec assembled and set up on its own: the same penalty,
// the same service times and the same guest memory after every
// invocation.
func TestNonMemoizableTwinsRunOwnSetup(t *testing.T) {
	var svcs []*countingService
	cfg, spec := gemsys.DefaultConfig(isa.RV64), warmedSpec(t, &svcs)
	f, err := NewFleet(cfg, spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Memoizable() {
		t.Fatal("the warmed fleet is memoizable, though its setup calls a service")
	}
	req := spec.Request()
	inv := 0
	for i := 0; i < 2; i++ {
		inst, err := f.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		if n := len(svcs); n != 2+2*i || svcs[n-1].n != 1 {
			t.Fatalf("instance %d: its setup did not call a service of its own", inst.ID)
		}
		ref, err := harness.BootSpec(cfg, f.spec)
		if err != nil {
			t.Fatal(err)
		}
		ck, err := ref.Setup()
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.M.Restore(ck); err != nil {
			t.Fatal(err)
		}
		if err := ref.M.KillProcess("client"); err != nil {
			t.Fatal(err)
		}
		if inst.Penalty != ref.SetupInsts() {
			t.Fatalf("instance %d: penalty %d, want its own setup's %d", inst.ID, inst.Penalty, ref.SetupInsts())
		}
		reqCh, respCh := ref.ClientChans()
		for n := 0; n < 2; n++ {
			svc, checkFailed, err := f.Serve(inst, inv)
			if err != nil {
				t.Fatal(err)
			}
			inv++
			t0 := ref.M.VirtNS()
			if err := ref.M.K.Inject(reqCh, req); err != nil {
				t.Fatal(err)
			}
			if err := ref.M.RunUntilIdle(invokeBudget); err != nil {
				t.Fatal(err)
			}
			if _, ok := ref.M.K.TakeMessage(respCh); !ok {
				t.Fatal("BootSpec machine produced no reply")
			}
			if want := ref.M.VirtNS() - t0; svc != want || checkFailed {
				t.Fatalf("instance %d, invocation %d: %d ns (check failed: %v), want %d ns", inst.ID, n, svc, checkFailed, want)
			}
			if !bytes.Equal(inst.b.M.Mem.Data, ref.M.Mem.Data) {
				t.Fatalf("instance %d, invocation %d: guest memory differs from the BootSpec machine's", inst.ID, n)
			}
		}
	}
}

// TestRunManyOneFingerprint runs two configs of one boot fingerprint on
// two workers: their fleets restore one cached checkpoint, while each
// keeps its images and decode caches to itself. Under the race detector
// this checks that no mutable cache crosses fleets; either way each
// report must equal a solo run of its config.
func TestRunManyOneFingerprint(t *testing.T) {
	mk := func() []Config {
		a := testConfig(t)
		a.Duration = 20_000_000
		b := a
		b.Seed = 8
		b.KeepAlive = 0
		return []Config{a, b}
	}
	reps, errs := RunMany(mk(), 2)
	for i, c := range mk() {
		if errs[i] != nil {
			t.Fatalf("config %d: %v", i, errs[i])
		}
		solo, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if reps[i].Table() != solo.Table() || reps[i].StatsText != solo.StatsText ||
			!bytes.Equal(traceJSON(t, reps[i]), traceJSON(t, solo)) {
			t.Fatalf("config %d: the swept report differs from a solo run", i)
		}
	}
}

// BenchmarkFleetAcquire times a cold start on a fleet whose master is
// booted: a fresh instance's Acquire (a twin of the master restoring the
// master checkpoint) and its first Serve. Instances are dropped, not
// released, so every Acquire boots a fresh one.
func BenchmarkFleetAcquire(b *testing.B) {
	for _, arch := range []isa.Arch{isa.RV64, isa.CISC64} {
		b.Run(string(arch), func(b *testing.B) {
			var spec harness.Spec
			for _, sp := range harness.StandaloneSpecs() {
				if sp.Name == "fibonacci-go" {
					spec = sp
				}
			}
			f, err := NewFleet(gemsys.DefaultConfig(arch), spec, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst, err := f.Acquire()
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := f.Serve(inst, i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
