package container

import (
	"bytes"
	"compress/gzip"
	"testing"

	"svbench/internal/gemsys"
	"svbench/internal/ir"
	"svbench/internal/isa"
	"svbench/internal/kernel"
	"svbench/internal/langrt"
	"svbench/internal/libc"
)

func trivialModule() *ir.Module {
	m := ir.NewModule("trivial")
	b := ir.NewFunc("main", 2)
	b.EcallV(kernel.SysExit, b.Const(0))
	b.Ret0()
	m.AddFunc(b.Build())
	return m
}

func TestImageSizesDeterministic(t *testing.T) {
	mod, err := langrt.BuildServer(langrt.GoRT, libc.Fast, fibWorkload(), "handler")
	if err != nil {
		t.Fatal(err)
	}
	a, err := BuildImage("fib", langrt.GoRT, isa.RV64, mod, ImageOpts{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildImage("fib", langrt.GoRT, isa.RV64, mod, ImageOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if a.CompressedSize() != b.CompressedSize() || a.Size() != b.Size() {
		t.Fatal("image build is nondeterministic")
	}
}

// TestCompressedSizeMatchesFreshWriter: the pooled, byte-counting
// compressor reports exactly the length a fresh gzip writer produces,
// across repeated use of the pool.
func TestCompressedSizeMatchesFreshWriter(t *testing.T) {
	for _, rt := range []langrt.Runtime{langrt.GoRT, langrt.PyRT, langrt.NodeRT} {
		mod, err := langrt.BuildServer(rt, libc.Fast, fibWorkload(), "handler")
		if err != nil {
			t.Fatal(err)
		}
		for _, arch := range []isa.Arch{isa.RV64, isa.CISC64} {
			img, err := BuildImage("fib", rt, arch, mod, ImageOpts{})
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for _, l := range img.Layers {
				var buf bytes.Buffer
				zw, _ := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
				zw.Write(l.Data)
				if err := zw.Close(); err != nil {
					t.Fatal(err)
				}
				want += buf.Len()
			}
			if got := img.CompressedSize(); got != want {
				t.Errorf("%s/%s: compressed size %d, fresh writers give %d", rt, arch, got, want)
			}
		}
	}
}

func fibWorkload() *ir.Module {
	m := ir.NewModule("w")
	h := ir.NewFunc("handler", 3)
	resp := h.Param(2)
	h.CallV("mbuf_reset", resp)
	h.CallV("mbuf_put_int", resp, h.Const(55))
	h.Ret(h.Call("mbuf_len", resp))
	m.AddFunc(h.Build())
	return m
}

func TestRegistryPushPull(t *testing.T) {
	reg := NewRegistry()
	img, err := BuildImage("x", langrt.GoRT, isa.RV64, nil, ImageOpts{})
	if err != nil {
		t.Fatal(err)
	}
	reg.Push(img)
	got, err := reg.Pull("x", isa.RV64)
	if err != nil || got != img {
		t.Fatalf("pull: %v", err)
	}
	if _, err := reg.Pull("x", isa.CISC64); err == nil {
		t.Fatal("pull of missing arch variant succeeded")
	}
	if _, err := reg.Pull("nope", isa.RV64); err == nil {
		t.Fatal("pull of missing image succeeded")
	}
	if l := reg.List(); len(l) != 1 || l[0] != "x" {
		t.Fatalf("list %v", l)
	}
}

func TestEngineLifecycle(t *testing.T) {
	m, err := gemsys.New(gemsys.DefaultConfig(isa.RV64))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	img, err := BuildImage("svc", langrt.GoRT, isa.RV64, trivialModule(), ImageOpts{})
	if err != nil {
		t.Fatal(err)
	}
	reg.Push(img)
	eng := NewEngine(reg, m)

	c, err := eng.Create("svc")
	if err != nil {
		t.Fatal(err)
	}
	if c.State != Dead {
		t.Fatalf("fresh container state %v", c.State)
	}
	if err := eng.Start(c, 1, nil); err != nil {
		t.Fatal(err)
	}
	if c.State != Running || c.Proc == nil || c.Starts != 1 {
		t.Fatalf("after start: %+v", c)
	}
	if err := eng.Start(c, 1, nil); err == nil {
		t.Fatal("double start accepted")
	}
	if err := eng.Pause(c); err != nil {
		t.Fatal(err)
	}
	if c.State != Waiting {
		t.Fatalf("after pause: %v", c.State)
	}
	// Warm start: no new process.
	if err := eng.Start(c, 1, nil); err != nil {
		t.Fatal(err)
	}
	if c.Starts != 1 {
		t.Fatal("warm start must not cold-start")
	}
	if len(eng.Containers()) != 1 {
		t.Fatal("container list")
	}
	// The spawned process must actually run to completion.
	if err := m.RunFunctional(1_000_000); err == nil {
		t.Fatal("machine with only an exiting process should deadlock-report, not halt")
	}
}

func TestStateString(t *testing.T) {
	if Dead.String() != "dead" || Waiting.String() != "waiting" || Running.String() != "running" {
		t.Fatal("state names")
	}
}

func TestProfilesDiffer(t *testing.T) {
	mod, err := langrt.BuildServer(langrt.PyRT, libc.Fast, fibWorkload(), "handler")
	if err != nil {
		t.Fatal(err)
	}
	ours, err := BuildImage("py", langrt.PyRT, isa.RV64, mod, ImageOpts{Profile: GPourProfile})
	if err != nil {
		t.Fatal(err)
	}
	prior, err := BuildImage("py", langrt.PyRT, isa.RV64, mod, ImageOpts{Profile: NatheesanProfile})
	if err != nil {
		t.Fatal(err)
	}
	if prior.CompressedSize() <= ours.CompressedSize() {
		t.Fatal("the prior-port python lineage must be larger")
	}
}
