package gemsys

import (
	"bytes"
	"reflect"
	"testing"

	"svbench/internal/isa"
	"svbench/internal/stats"
	"svbench/internal/trace"
)

// TestRestoreTwiceIsIdentical: restoring the same checkpoint twice and
// re-running evaluation must produce bit-identical statistics — the
// property gem5 checkpoints exist for, and the foundation of every
// A/B comparison in the evaluation. Three restores are compared, with
// tracing on so every trace event's cycle stamp is compared too: the
// first on a machine that never ran a detailed evaluation, the second
// after one (the next evaluation must reset the pipelines, caches and
// predictors the first left behind), and one onto a freshly booted
// machine.
func TestRestoreTwiceIsIdentical(t *testing.T) {
	for _, arch := range []isa.Arch{isa.RV64, isa.CISC64} {
		t.Run(string(arch), func(t *testing.T) {
			boot := func() *Machine {
				cfg := DefaultConfig(arch)
				cfg.Trace = trace.Options{Enabled: true}
				mach, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				req := mach.K.NewChannel()
				resp := mach.K.NewChannel()
				if _, err := mach.Spawn("server", serverMod(), "main", 1, []uint64{uint64(req), uint64(resp)}); err != nil {
					t.Fatal(err)
				}
				if _, err := mach.Spawn("client", clientMod(6, 15), "main", 0, []uint64{uint64(req), uint64(resp)}); err != nil {
					t.Fatal(err)
				}
				return mach
			}
			mach := boot()
			if err := mach.RunSetup(50_000_000); err != nil {
				t.Fatal(err)
			}
			ck := mach.TakeCheckpoint()

			type result struct {
				dumps   []stats.Dump
				text    string
				json    []byte
				console string
			}
			run := func(m *Machine) result {
				if err := m.Restore(ck); err != nil {
					t.Fatal(err)
				}
				m.K.Console.Reset()
				dumps, err := m.RunEval(100_000_000)
				if err != nil {
					t.Fatal(err)
				}
				js, err := m.TraceJSON()
				if err != nil {
					t.Fatal(err)
				}
				return result{dumps, m.StatsText("eval"), js, m.Console()}
			}
			same := func(what string, a, b result) {
				t.Helper()
				if !reflect.DeepEqual(a.dumps, b.dumps) {
					t.Fatalf("%s: stats dumps differ:\n%+v\n%+v", what, a.dumps, b.dumps)
				}
				if a.text != b.text {
					t.Fatalf("%s: stats text differs", what)
				}
				if !bytes.Equal(a.json, b.json) {
					t.Fatalf("%s: trace JSON differs", what)
				}
				if a.console != b.console {
					t.Fatalf("%s: functional output differs", what)
				}
			}
			first := run(mach)
			if len(first.dumps) < 2 || first.dumps[0].Server().Cycles == 0 {
				t.Fatalf("eval produced no measured window: %+v", first.dumps)
			}
			same("restore after an eval vs first restore", run(mach), first)
			same("fresh machine vs first restore", run(boot()), first)
			// The checkpoint bytes must be unchanged by the runs (no
			// aliasing of live machine memory).
			mach.TakeCheckpoint()
			same("restore after a take vs first restore", run(mach), first)
		})
	}
}

// TestTraceExportsDeterministic: with the tracer and profiler on,
// restoring the same checkpoint twice must yield byte-identical Chrome
// trace JSON, stats text, and profile tables — observability must not
// perturb (or be perturbed by) the simulation.
func TestTraceExportsDeterministic(t *testing.T) {
	cfg := DefaultConfig(isa.RV64)
	cfg.Trace = trace.Options{Enabled: true}
	mach, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := mach.K.NewChannel()
	resp := mach.K.NewChannel()
	if _, err := mach.Spawn("server", serverMod(), "main", 1, []uint64{uint64(req), uint64(resp)}); err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Spawn("client", clientMod(6, 15), "main", 0, []uint64{uint64(req), uint64(resp)}); err != nil {
		t.Fatal(err)
	}
	if err := mach.RunSetup(50_000_000); err != nil {
		t.Fatal(err)
	}
	ck := mach.TakeCheckpoint()

	run := func() ([]byte, string, string) {
		if err := mach.Restore(ck); err != nil {
			t.Fatal(err)
		}
		mach.K.Console.Reset()
		if _, err := mach.RunEval(100_000_000); err != nil {
			t.Fatal(err)
		}
		js, err := mach.TraceJSON()
		if err != nil {
			t.Fatal(err)
		}
		return js, mach.StatsText("eval"), mach.Profile().Table()
	}
	js1, st1, pr1 := run()
	js2, st2, pr2 := run()
	if !bytes.Equal(js1, js2) {
		t.Fatal("same checkpoint, different trace JSON bytes")
	}
	if st1 != st2 {
		t.Fatal("same checkpoint, different stats text")
	}
	if pr1 != pr2 {
		t.Fatal("same checkpoint, different profile tables")
	}
	if len(js1) == 0 || st1 == "" || pr1 == "" {
		t.Fatalf("empty export: json=%d stats=%d profile=%d", len(js1), len(st1), len(pr1))
	}
}
