package gemsys

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"sync"
	"testing"

	"svbench/internal/isa"
	"svbench/internal/stats"
)

func gobBytes(t *testing.T, ck *Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSharedCheckpointIsolation is the memoizer's safety regression: one
// checkpoint, restored by reference into several machines on several
// goroutines, must be immune to anything those machines do. Four
// identically booted machines restore the same TakeCheckpoint result at
// once, run the full evaluation (it changes registers, memory, channels,
// run queues and stats counters), then poke their memory and registers
// directly, the way an aliasing bug would leak. The checkpoint's encoding
// must not change, all four must measure the same, and a restore after
// the pokes must measure the same again.
func TestSharedCheckpointIsolation(t *testing.T) {
	const n = 4
	machines := make([]*Machine, n)
	for i := range machines {
		machines[i] = bootClientServer(t, isa.RV64, 6)
	}
	if err := machines[0].RunSetup(50_000_000); err != nil {
		t.Fatal(err)
	}
	ck := machines[0].TakeCheckpoint()
	want := gobBytes(t, ck)

	dumps := make([][]stats.Dump, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, m := range machines {
		wg.Add(1)
		go func(i int, m *Machine) {
			defer wg.Done()
			if errs[i] = m.Restore(ck); errs[i] != nil {
				return
			}
			if dumps[i], errs[i] = m.RunEval(100_000_000); errs[i] != nil {
				return
			}
			guest := m.Mem.Bytes(0, uint64(len(m.Mem.Data)))
			for j := range guest {
				guest[j] ^= 0xA5
			}
			for _, p := range m.K.Procs {
				s := p.Core.Snapshot()
				for j := range s {
					s[j] = ^s[j]
				}
				p.Core.Restore(s)
			}
		}(i, m)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("machine %d: %v", i, err)
		}
	}
	if got := gobBytes(t, ck); !bytes.Equal(got, want) {
		t.Fatal("shared checkpoint changed under the machines that restored it")
	}
	if len(dumps[0]) != 2 {
		t.Fatalf("got %d dumps, want 2", len(dumps[0]))
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(dumps[i], dumps[0]) {
			t.Errorf("machine %d measured differently from machine 0:\n%+v\n%+v", i, dumps[i], dumps[0])
		}
	}

	m := machines[n-1]
	if err := m.Restore(ck); err != nil {
		t.Fatal(err)
	}
	again, err := m.RunEval(100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, dumps[0]) {
		t.Fatalf("restore after the pokes measured differently:\n%+v\n%+v", again, dumps[0])
	}
}

// TestCrossMachineRestore: a checkpoint taken on one machine restores
// onto a second machine with an equal boot fingerprint and evaluates to
// identical statistics and console output — the property the sweep
// memoizer depends on.
func TestCrossMachineRestore(t *testing.T) {
	boot := func() *Machine {
		m, err := New(DefaultConfig(isa.RV64))
		if err != nil {
			t.Fatal(err)
		}
		req := m.K.NewChannel()
		resp := m.K.NewChannel()
		if _, err := m.Spawn("server", serverMod(), "main", 1, []uint64{uint64(req), uint64(resp)}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Spawn("client", clientMod(6, 15), "main", 0, []uint64{uint64(req), uint64(resp)}); err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1, m2 := boot(), boot()
	if m1.BootFingerprint() != m2.BootFingerprint() {
		t.Fatal("identically-booted machines have different fingerprints")
	}
	if err := m1.RunSetup(50_000_000); err != nil {
		t.Fatal(err)
	}
	ck := m1.TakeCheckpoint()

	eval := func(m *Machine, c *Checkpoint) (uint64, uint64, string) {
		if err := m.Restore(c); err != nil {
			t.Fatal(err)
		}
		dumps, err := m.RunEval(100_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return dumps[0].Server().Cycles, dumps[1].Server().Cycles, m.Console()
	}
	c1, w1, out1 := eval(m1, ck)
	c2, w2, out2 := eval(m2, ck)
	if c1 != c2 || w1 != w2 {
		t.Fatalf("cross-machine restore: stats differ (%d,%d) vs (%d,%d)", c1, w1, c2, w2)
	}
	if out1 != out2 {
		t.Fatalf("cross-machine restore: console differs:\n%q\n%q", out1, out2)
	}
}

// TestFingerprintSensitivity: the fingerprint must change when boot
// inputs change and stay equal when only excluded knobs (trace options,
// cosmetic labels) change.
func TestFingerprintSensitivity(t *testing.T) {
	fp := func(mut func(*Config), args []uint64) string {
		cfg := DefaultConfig(isa.RV64)
		if mut != nil {
			mut(&cfg)
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.K.NewChannel()
		m.K.NewChannel()
		if _, err := m.Spawn("server", serverMod(), "main", 1, args); err != nil {
			t.Fatal(err)
		}
		return m.BootFingerprint()
	}
	args := []uint64{1, 2}
	base := fp(nil, args)
	if fp(nil, args) != base {
		t.Error("fingerprint not reproducible for identical boots")
	}
	if fp(nil, []uint64{1, 3}) == base {
		t.Error("fingerprint ignores spawn arguments")
	}
	if fp(func(c *Config) { c.O3.ROBSize += 16 }, args) == base {
		t.Error("fingerprint ignores O3 configuration")
	}
	if fp(func(c *Config) { c.Hier.L1D.Size *= 2 }, args) == base {
		t.Error("fingerprint ignores cache configuration")
	}
	if fp(func(c *Config) { c.OSLabel = "other-os" }, args) != base {
		t.Error("fingerprint depends on a cosmetic label")
	}
	if fp(func(c *Config) { c.Trace.Enabled = true }, args) != base {
		t.Error("fingerprint depends on trace options")
	}
}
