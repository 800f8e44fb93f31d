package gemsys

import (
	"bytes"
	"encoding/gob"
	"testing"

	"svbench/internal/isa"
)

func gobBytes(t *testing.T, ck *Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCloneIsolation is the memoizer's safety regression: a cached
// checkpoint handed out as clones must be immune to anything the
// restored machines do. We mutate a machine restored from one clone —
// registers, memory pages, kernel channel state, stats counters all
// change during evaluation, plus direct pokes — and assert the cached
// checkpoint and a second clone are byte-for-byte unaffected.
func TestCloneIsolation(t *testing.T) {
	mach, err := New(DefaultConfig(isa.RV64))
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
	cached := mach.TakeCheckpoint().Clone()
	want := gobBytes(t, cached)

	// Restore from a clone and mutate everything reachable: run the full
	// evaluation (dirties registers, memory, channels, run queues, stats
	// counters) ...
	clone1 := cached.Clone()
	if err := mach.Restore(clone1); err != nil {
		t.Fatal(err)
	}
	dumps, err := mach.RunEval(100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 2 {
		t.Fatalf("got %d dumps, want 2", len(dumps))
	}
	cycles1 := dumps[0].Server().Cycles
	// ... then poke the machine and the restored-from clone directly, the
	// way an aliasing bug would leak.
	guest := mach.Mem.Bytes(0, uint64(len(mach.Mem.Data)))
	for i := range guest {
		guest[i] ^= 0xA5
	}
	for _, p := range mach.K.Procs {
		s := p.Core.Snapshot()
		for i := range s {
			s[i] = ^s[i]
		}
		p.Core.Restore(s)
	}
	for _, pg := range clone1.Pages {
		for i := range pg.Data {
			pg.Data[i] = 0xFF
		}
	}
	clone1.Pages[0].Index++
	for i := range clone1.Procs {
		for j := range clone1.Procs[i].CoreState {
			clone1.Procs[i].CoreState[j] = 0xDEAD
		}
	}
	for i := range clone1.Chans {
		clone1.Chans[i].Msgs = nil
		clone1.Chans[i].Waiters = append(clone1.Chans[i].Waiters, 99)
	}
	clone1.Console = append(clone1.Console, "garbage"...)
	clone1.Cur[0] = 42

	if got := gobBytes(t, cached); !bytes.Equal(got, want) {
		t.Fatal("cached checkpoint mutated by a restored machine or a sibling clone")
	}

	// A second clone taken now must behave exactly like the first did
	// before the mutations: same evaluation statistics.
	clone2 := cached.Clone()
	if got := gobBytes(t, clone2); !bytes.Equal(got, want) {
		t.Fatal("second clone differs from the cached checkpoint")
	}
	if err := mach.Restore(clone2); err != nil {
		t.Fatal(err)
	}
	dumps2, err := mach.RunEval(100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if c := dumps2[0].Server().Cycles; c != cycles1 {
		t.Fatalf("second clone evaluated differently: %d vs %d cycles", c, cycles1)
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
	c2, w2, out2 := eval(m2, ck.Clone())
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
