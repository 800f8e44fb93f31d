// Package qemu implements the functional-emulation execution mode the
// thesis falls back to where gem5 cannot run a component (§4.2.4): the
// whole system executes functionally (no pipeline model) under a virtual
// clock of one nanosecond per instruction plus native service time. It is
// the methodology behind the MongoDB-vs-Cassandra comparison of Fig. 4.20.
package qemu

import (
	"fmt"

	"svbench/internal/gemsys"
	"svbench/internal/harness"
	"svbench/internal/ir"
	"svbench/internal/isa"
	"svbench/internal/kernel"
	"svbench/internal/langrt"
	"svbench/internal/libc"
	"svbench/internal/vswarm"
)

// Latency is one request's measured wall time under emulation.
type Latency struct {
	Request int
	NS      uint64
}

// Run executes spec under functional emulation, issuing nreq requests and
// measuring each request's latency with the guest clock — exactly how one
// times requests inside a QEMU guest. nreq must be at least 1.
func Run(arch isa.Arch, spec harness.Spec, nreq int) ([]Latency, error) {
	if nreq < 1 {
		return nil, fmt.Errorf("qemu: request count must be >= 1, got %d", nreq)
	}
	if spec.Build == nil {
		return nil, fmt.Errorf("qemu: spec %q has no Build function", spec.Name)
	}
	if spec.Request == nil {
		return nil, fmt.Errorf("qemu: spec %q has no Request function", spec.Name)
	}
	cfg := gemsys.DefaultConfig(arch)
	m, err := gemsys.New(cfg)
	if err != nil {
		return nil, err
	}
	env := &harness.Env{M: m}
	workload, err := spec.Build(env)
	if err != nil {
		return nil, err
	}
	server, err := langrt.BuildServer(spec.Runtime, libc.ForArch(string(arch)), workload, vswarm.Handler)
	if err != nil {
		return nil, err
	}
	reqCh := m.K.NewChannel()
	respCh := m.K.NewChannel()
	if _, err := m.Spawn("server", server, "main", 1, []uint64{uint64(reqCh), uint64(respCh)}); err != nil {
		return nil, err
	}
	client := buildTimingClient(spec.Request(), int64(nreq))
	if _, err := m.Spawn("client", client, "main", 0, []uint64{uint64(reqCh), uint64(respCh)}); err != nil {
		return nil, err
	}
	if err := m.RunFunctional(2_000_000_000); err != nil {
		return nil, err
	}
	// The client wrote nreq little-endian uint64 latencies to the console.
	out := m.K.Console.Bytes()
	if len(out) < nreq*8 {
		return nil, fmt.Errorf("qemu: expected %d latency records, got %d bytes", nreq, len(out))
	}
	var res []Latency
	for i := 0; i < nreq; i++ {
		var v uint64
		for k := 0; k < 8; k++ {
			v |= uint64(out[i*8+k]) << (8 * k)
		}
		res = append(res, Latency{Request: i + 1, NS: v})
	}
	return res, nil
}

// buildTimingClient builds the QEMU-mode load generator: it wraps each
// request in guest clock reads and dumps the latency table at the end.
func buildTimingClient(request []byte, nreq int64) *ir.Module {
	m := ir.NewModule("qemu-client")
	m.AddGlobal(&ir.Global{Name: "cli_req", Data: request})
	m.AddGlobal(&ir.Global{Name: "cli_rbuf", Data: make([]byte, langrt.WBufSize)})
	m.AddGlobal(&ir.Global{Name: "cli_lat", Data: make([]byte, nreq*8)})

	b := ir.NewFunc("main", 2)
	req, resp := b.Param(0), b.Param(1)
	rbuf := b.Global("cli_rbuf", 0)
	lat := b.Global("cli_lat", 0)
	b.EcallV(kernel.SysRecv, resp, rbuf, b.Const(langrt.WBufSize)) // ready

	reqG := b.Global("cli_req", 0)
	reqLen := b.Const(int64(len(request)))
	i := b.Const(0)
	loop, done := b.NewLabel("loop"), b.NewLabel("done")
	b.Label(loop)
	b.BrI(ir.Ge, i, nreq, done)
	t0 := b.Ecall(kernel.SysClock)
	b.EcallV(kernel.SysSend, req, reqG, reqLen)
	b.EcallV(kernel.SysRecv, resp, rbuf, b.Const(langrt.WBufSize))
	t1 := b.Ecall(kernel.SysClock)
	d := b.Sub(t1, t0)
	b.Store(b.Add(lat, b.ShlI(i, 3)), 0, d, 8)
	b.AddIInto(i, i, 1)
	b.Jmp(loop)
	b.Label(done)
	b.EcallV(kernel.SysWrite, lat, b.Const(nreq*8))
	b.EcallV(kernel.M5Exit)
	m.AddFunc(b.Build())
	return m
}
