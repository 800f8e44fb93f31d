package gemsys

import (
	"bytes"
	"testing"

	"svbench/internal/ir"
	"svbench/internal/isa"
	"svbench/internal/kernel"
)

// serverMod builds a module whose main(reqCh, respCh) first announces
// readiness, then serves fib(n) requests forever.
func serverMod() *ir.Module {
	m := ir.NewModule("server")
	b := ir.NewFunc("main", 2)
	req, resp := b.Param(0), b.Param(1)
	buf := b.Frame(b.Buf("buf", 64), 0)

	// Ready handshake.
	b.Store(buf, 0, b.Const(1), 8)
	b.EcallV(kernel.SysSend, resp, buf, b.Const(8))

	loop := b.NewLabel("serve")
	b.Label(loop)
	b.EcallV(kernel.SysRecv, req, buf, b.Const(64))
	n := b.Load(buf, 0, 8)
	// fib(n)
	x := b.Const(0)
	y := b.Const(1)
	i := b.Const(0)
	floop, fdone := b.NewLabel("floop"), b.NewLabel("fdone")
	b.Label(floop)
	b.Br(ir.Ge, i, n, fdone)
	t := b.Add(x, y)
	b.MovInto(x, y)
	b.MovInto(y, t)
	b.AddIInto(i, i, 1)
	b.Jmp(floop)
	b.Label(fdone)
	b.Store(buf, 0, x, 8)
	b.EcallV(kernel.SysSend, resp, buf, b.Const(8))
	b.Jmp(loop)
	m.AddFunc(b.Build())
	return m
}

// clientMod builds the load generator: wait for ready, checkpoint, then
// issue nreq requests with m5 reset/dump around the first and last.
func clientMod(nreq int64, fibN int64) *ir.Module {
	m := ir.NewModule("client")
	b := ir.NewFunc("main", 2)
	req, resp := b.Param(0), b.Param(1)
	buf := b.Frame(b.Buf("buf", 64), 0)

	b.EcallV(kernel.SysRecv, resp, buf, b.Const(64)) // ready handshake
	b.EcallV(kernel.M5Checkpoint)

	i := b.Const(1)
	loop, done := b.NewLabel("loop"), b.NewLabel("done")
	skipR1, skipR2, skipD1, skipD2 := b.NewLabel("sr1"), b.NewLabel("sr2"), b.NewLabel("sd1"), b.NewLabel("sd2")
	b.Label(loop)
	b.BrI(ir.Gt, i, nreq, done)
	// m5 reset before the first and last request.
	b.BrI(ir.Eq, i, 1, skipR1)
	b.Jmp(skipR2)
	b.Label(skipR1)
	b.EcallV(kernel.M5ResetStats)
	b.Label(skipR2)
	b.BrI(ir.Ne, i, nreq, skipD1)
	b.EcallV(kernel.M5ResetStats)
	b.Label(skipD1)

	b.Store(buf, 0, b.Const(fibN), 8)
	b.EcallV(kernel.SysSend, req, buf, b.Const(8))
	b.EcallV(kernel.SysRecv, resp, buf, b.Const(64))

	// m5 dump after the first and last reply.
	b.BrI(ir.Ne, i, 1, skipD2)
	b.EcallV(kernel.M5DumpStats)
	b.Label(skipD2)
	last := b.NewLabel("last")
	b.BrI(ir.Ne, i, nreq, last)
	b.EcallV(kernel.M5DumpStats)
	b.Label(last)
	b.AddIInto(i, i, 1)
	b.Jmp(loop)
	b.Label(done)
	// Print the final response for functional verification.
	b.EcallV(kernel.SysWrite, buf, b.Const(8))
	b.EcallV(kernel.M5Exit)
	m.AddFunc(b.Build())
	return m
}

func runPipeline(t *testing.T, arch isa.Arch) (cold, warm uint64, m *Machine) {
	t.Helper()
	mach, err := New(DefaultConfig(arch))
	if err != nil {
		t.Fatal(err)
	}
	req := mach.K.NewChannel()
	resp := mach.K.NewChannel()
	if _, err := mach.Spawn("server", serverMod(), "main", 1, []uint64{uint64(req), uint64(resp)}); err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Spawn("client", clientMod(10, 20), "main", 0, []uint64{uint64(req), uint64(resp)}); err != nil {
		t.Fatal(err)
	}
	if err := mach.RunSetup(50_000_000); err != nil {
		t.Fatalf("setup: %v", err)
	}
	if !mach.CheckpointPending() {
		t.Fatal("setup ended without a checkpoint request")
	}
	ck := mach.TakeCheckpoint()
	if err := mach.Restore(ck); err != nil {
		t.Fatalf("restore: %v", err)
	}
	dumps, err := mach.RunEval(100_000_000)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if len(dumps) != 2 {
		t.Fatalf("got %d stat dumps, want 2 (cold+warm)", len(dumps))
	}
	// fib(20) = 6765, little-endian in the console.
	want := []byte{0x6D, 0x1A, 0, 0, 0, 0, 0, 0}
	if got := mach.K.Console.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("console = %x, want %x (fib(20)=6765)", got, want)
	}
	return dumps[0].Server().Cycles, dumps[1].Server().Cycles, mach
}

func TestFullPipelineRV64(t *testing.T) {
	cold, warm, m := runPipeline(t, isa.RV64)
	if cold == 0 || warm == 0 {
		t.Fatalf("empty windows: cold=%d warm=%d", cold, warm)
	}
	if cold <= warm {
		t.Fatalf("cold (%d cycles) must exceed warm (%d cycles)", cold, warm)
	}
	if cold < 2*warm {
		t.Errorf("cold/warm ratio %.2f: expected a pronounced cold penalty", float64(cold)/float64(warm))
	}
	t.Logf("rv64: cold=%d warm=%d ratio=%.2f setupInstrs=%d",
		cold, warm, float64(cold)/float64(warm), m.Atomic.Insts)
}

func TestFullPipelineCISC64(t *testing.T) {
	cold, warm, _ := runPipeline(t, isa.CISC64)
	if cold <= warm {
		t.Fatalf("cold (%d) must exceed warm (%d)", cold, warm)
	}
	t.Logf("cisc64: cold=%d warm=%d ratio=%.2f", cold, warm, float64(cold)/float64(warm))
}

func TestISAComparison(t *testing.T) {
	rvCold, rvWarm, _ := runPipeline(t, isa.RV64)
	xCold, xWarm, _ := runPipeline(t, isa.CISC64)
	// The thesis's headline shape: the RISC-V stack is faster in both
	// phases (fewer executed instructions).
	if rvCold >= xCold {
		t.Errorf("rv64 cold (%d) should beat cisc64 cold (%d)", rvCold, xCold)
	}
	if rvWarm >= xWarm {
		t.Errorf("rv64 warm (%d) should beat cisc64 warm (%d)", rvWarm, xWarm)
	}
	t.Logf("cold rv=%d x86=%d | warm rv=%d x86=%d", rvCold, xCold, rvWarm, xWarm)
}

func TestDeterministicReplay(t *testing.T) {
	c1, w1, _ := runPipeline(t, isa.RV64)
	c2, w2, _ := runPipeline(t, isa.RV64)
	if c1 != c2 || w1 != w2 {
		t.Fatalf("nondeterministic: run1=(%d,%d) run2=(%d,%d)", c1, w1, c2, w2)
	}
}
