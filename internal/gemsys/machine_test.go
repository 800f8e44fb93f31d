package gemsys

import (
	"strings"
	"testing"

	"svbench/internal/ir"
	"svbench/internal/isa"
	"svbench/internal/kernel"
)

func exitModule() *ir.Module {
	m := ir.NewModule("exit")
	b := ir.NewFunc("main", 0)
	b.EcallV(kernel.M5Exit)
	m.AddFunc(b.Build())
	return m
}

func TestRejectsNonTwoCoreConfig(t *testing.T) {
	cfg := DefaultConfig(isa.RV64)
	cfg.Cores = 4
	if _, err := New(cfg); err == nil {
		t.Fatal("4-core config accepted")
	}
}

// TestRejectsMemoryBelowOneProcess: a guest memory too small for the
// kernel's area plus one process region is a config error naming the
// field, not a panic inside New.
func TestRejectsMemoryBelowOneProcess(t *testing.T) {
	for _, c := range []struct {
		memBytes    int
		regionBytes uint64
	}{
		{-1, 4 << 20},
		{0, 4 << 20},
		{1 << 20, 4 << 20},
		{firstProc, 4 << 20},
		{firstProc + 4<<20 - 1, 4 << 20},
		{32 << 20, 32 << 20},
	} {
		cfg := DefaultConfig(isa.RV64)
		cfg.MemBytes, cfg.RegionBytes = c.memBytes, c.regionBytes
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "MemBytes") {
			t.Errorf("MemBytes %d, RegionBytes %d: error %v, want one naming MemBytes", c.memBytes, c.regionBytes, err)
		}
	}
	cfg := DefaultConfig(isa.RV64)
	cfg.MemBytes = firstProc + 4<<20
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("smallest memory that holds one process: %v", err)
	}
	if _, err := m.Spawn("p", exitModule(), "main", 0, nil); err != nil {
		t.Fatalf("smallest memory that holds one process: %v", err)
	}
}

func TestSpawnBadCore(t *testing.T) {
	m, err := New(DefaultConfig(isa.RV64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Spawn("p", exitModule(), "main", 7, nil); err == nil {
		t.Fatal("bad core accepted")
	}
}

func TestSpawnOutOfRegions(t *testing.T) {
	cfg := DefaultConfig(isa.RV64)
	cfg.MemBytes = 16 << 20
	cfg.RegionBytes = 4 << 20
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var spawnErr error
	for i := 0; i < 8; i++ {
		if _, spawnErr = m.Spawn("p", exitModule(), "main", 0, nil); spawnErr != nil {
			break
		}
	}
	if spawnErr == nil || !strings.Contains(spawnErr.Error(), "out of memory regions") {
		t.Fatalf("region exhaustion not reported: %v", spawnErr)
	}
}

func TestSpawnImageTooLarge(t *testing.T) {
	cfg := DefaultConfig(isa.RV64)
	cfg.RegionBytes = 64 << 10
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	big := ir.NewModule("big")
	big.AddGlobal(&ir.Global{Name: "blob", Data: make([]byte, 128<<10)})
	b := ir.NewFunc("main", 0)
	b.EcallV(kernel.M5Exit)
	big.AddFunc(b.Build())
	if _, err := m.Spawn("big", big, "main", 0, nil); err == nil {
		t.Fatal("oversized image accepted")
	}
}

// TestSpawnImageChecksItsRegion: an image compiled ahead of its spawn
// loads only into the region it was linked for, on a machine of its
// architecture; and decode caches are shared only between machines of
// one architecture, before the first spawn.
func TestSpawnImageChecksItsRegion(t *testing.T) {
	rv, err := New(DefaultConfig(isa.RV64))
	if err != nil {
		t.Fatal(err)
	}
	cisc, err := New(DefaultConfig(isa.CISC64))
	if err != nil {
		t.Fatal(err)
	}
	second, err := rv.Compile(exitModule(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rv.SpawnImage("p", second, "main", 0, nil); err == nil {
		t.Fatal("an image linked for the second region spawned into the first")
	}
	first, err := rv.Compile(exitModule(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cisc.SpawnImage("p", first, "main", 0, nil); err == nil {
		t.Fatal("an rv64 image spawned into a cisc64 machine")
	}
	if err := cisc.ShareDecodeCaches(rv); err == nil {
		t.Fatal("a cisc64 machine shared an rv64 machine's decode caches")
	}
	twin, err := New(DefaultConfig(isa.RV64))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Machine{rv, twin} {
		if _, err := m.SpawnImage("p", first, "main", 0, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := m.SpawnImage("q", second, "main", 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := twin.ShareDecodeCaches(rv); err == nil {
		t.Fatal("decode caches shared after a spawn")
	}
}

func TestFunctionalDeadlockDetected(t *testing.T) {
	m, err := New(DefaultConfig(isa.RV64))
	if err != nil {
		t.Fatal(err)
	}
	mod := ir.NewModule("blocker")
	mod.AddGlobal(&ir.Global{Name: "buf", Data: make([]byte, 64)})
	b := ir.NewFunc("main", 1)
	buf := b.Global("buf", 0)
	b.EcallV(kernel.SysRecv, b.Param(0), buf, b.Const(64)) // never satisfied
	b.EcallV(kernel.M5Exit)
	mod.AddFunc(b.Build())
	ch := m.K.NewChannel()
	if _, err := m.Spawn("blocker", mod, "main", 0, []uint64{uint64(ch)}); err != nil {
		t.Fatal(err)
	}
	err = m.RunFunctional(10_000_000)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("deadlock not detected: %v", err)
	}
}

func TestSetupBudgetEnforced(t *testing.T) {
	m, err := New(DefaultConfig(isa.RV64))
	if err != nil {
		t.Fatal(err)
	}
	mod := ir.NewModule("spin")
	b := ir.NewFunc("main", 0)
	l := b.NewLabel("l")
	b.Label(l)
	b.Jmp(l)
	mod.AddFunc(b.Build())
	if _, err := m.Spawn("spin", mod, "main", 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.RunSetup(100_000); err == nil {
		t.Fatal("runaway setup not bounded")
	}
}

func TestConsoleAndClock(t *testing.T) {
	m, err := New(DefaultConfig(isa.CISC64))
	if err != nil {
		t.Fatal(err)
	}
	mod := ir.NewModule("hello")
	mod.AddGlobal(&ir.Global{Name: "msg", Data: []byte("hi from cisc")})
	b := ir.NewFunc("main", 0)
	msg := b.Global("msg", 0)
	b.EcallV(kernel.SysWrite, msg, b.Const(12))
	t0 := b.Ecall(kernel.SysClock)
	_ = t0
	b.EcallV(kernel.M5Exit)
	mod.AddFunc(b.Build())
	if _, err := m.Spawn("hello", mod, "main", 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.RunFunctional(1_000_000); err != nil {
		t.Fatal(err)
	}
	if m.Console() != "hi from cisc" {
		t.Fatalf("console %q", m.Console())
	}
	if m.VirtNS() == 0 {
		t.Fatal("virtual clock did not advance")
	}
	if !m.Halted() {
		t.Fatal("machine should have halted")
	}
}

func TestSimulatedPanicSurfacesAsError(t *testing.T) {
	m, err := New(DefaultConfig(isa.RV64))
	if err != nil {
		t.Fatal(err)
	}
	mod := ir.NewModule("boom")
	b := ir.NewFunc("main", 0)
	b.EcallV(kernel.HPanic)
	mod.AddFunc(b.Build())
	if _, err := m.Spawn("boom", mod, "main", 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.RunFunctional(1_000_000); err == nil ||
		!strings.Contains(err.Error(), "panic") {
		t.Fatalf("simulated panic not surfaced: %v", err)
	}
}
