// Package harness implements the vSwarm-u experiment methodology on the
// simulated machine (Fig. 4.1 of the thesis): boot the system and the
// function container in functional (atomic) setup mode, take a checkpoint
// right before the first request, restore into the detailed out-of-order
// CPU with cold microarchitectural state, replay ten requests, and dump
// statistics around the first (cold) and tenth (warm) request. The client
// is pinned to core 0 and the function server to core 1; all reported
// statistics come from core 1.
//
// A Spec may additionally carry a fault-injection plan and a retry
// policy (see internal/faults and docs/faults.md): the plan degrades the
// IPC and service layers deterministically, the retry policy is compiled
// into the IR load generator, and the run's Result reports the fault
// ledger alongside the cold/warm measurements.
package harness

import (
	"fmt"
	"slices"

	"svbench/internal/faults"
	"svbench/internal/gemsys"
	"svbench/internal/ir"
	"svbench/internal/isa"
	"svbench/internal/kernel"
	"svbench/internal/langrt"
	"svbench/internal/libc"
	"svbench/internal/rpc"
	"svbench/internal/stats"
	"svbench/internal/trace"
	"svbench/internal/vswarm"
)

// Env gives a workload builder access to machine facilities (native
// services, channels) while the experiment is assembled.
type Env struct {
	M *gemsys.Machine
	// Inj is the run's fault injector; nil when the spec has no plan.
	Inj *faults.Injector

	bindings []ServiceBinding
}

// ServiceBinding records one guest→service channel wiring made through
// Env.NewService: which engine (by its faults.NamedService name, "" for
// anonymous services) sits behind which request/response channel pair.
// The fault layer consumes these to target per-service rules at a
// specific instance's channels instead of matching engine names globally.
type ServiceBinding struct {
	Name   string
	ReqCh  int
	RespCh int
}

// NewService creates a request/response channel pair and binds a native
// service (a database or cache engine) to it. The returned ids are baked
// into the workload module's configuration globals. When a fault plan is
// active, the service is wrapped per its service rules.
func (e *Env) NewService(svc kernel.Service) (reqCh, respCh int) {
	reqCh = e.M.K.NewChannel()
	respCh = e.M.K.NewChannel()
	e.M.K.Bind(reqCh, respCh, e.Inj.WrapService(svc))
	name := ""
	if n, ok := svc.(faults.NamedService); ok {
		name = n.ServiceName()
	}
	e.bindings = append(e.bindings, ServiceBinding{Name: name, ReqCh: reqCh, RespCh: respCh})
	return reqCh, respCh
}

// Spec describes one function experiment.
type Spec struct {
	Name    string
	Runtime langrt.Runtime
	// Build constructs the workload module (creating services first when
	// the function depends on them). Required.
	Build func(env *Env) (*ir.Module, error)
	// Request returns the encoded request message. Required.
	Request func() []byte
	// Requests is the invocation count (default 10: request 1 is the
	// cold execution, request Requests the warm one). It must be at
	// least 2 — the cold and warm stat windows need distinct requests.
	Requests int
	// Check validates the functional response (optional). With a Retry
	// policy it doubles as the per-reply health check: replies failing
	// it are retried.
	Check func(resp *rpc.Reader) error
	// Flavor overrides the libc flavor (ablation studies); nil selects
	// the architecture's default software stack.
	Flavor *libc.Flavor

	// Trace, when enabled, turns on the machine's observability layer:
	// the Result then carries the event trace (Chrome JSON), the
	// gem5-style stats text, and the sampled guest profile.
	Trace trace.Options

	// Sampling, when enabled, runs the evaluation phase in SMARTS-style
	// sampled-detailed mode (gemsys.Machine.RunEvalSampled): functional
	// fast-forward with functional warming between periodic detailed O3
	// windows, stats extrapolated from the measured windows. The zero
	// value is full detail, bit-identical to not setting it. Sampling is
	// an eval-phase knob only: it never enters the boot fingerprint, so
	// sampled and full-detail runs share memoized boot checkpoints.
	Sampling gemsys.SamplingConfig

	// Faults, when set, injects the plan's deterministic fault schedule
	// into the run (armed after the checkpoint restore, so setup is
	// never faulted).
	Faults *faults.Plan
	// Retry, when set, compiles a recovery loop into the load
	// generator: per-attempt deadlines, bounded attempts, exponential
	// backoff in virtual cycles.
	Retry *faults.Retry
}

// Result is one experiment's outcome.
type Result struct {
	Name       string
	Runtime    langrt.Runtime
	Arch       isa.Arch
	Cold, Warm stats.CoreStats
	// SampleCold/SampleWarm describe the extrapolation quality of the
	// server core's cold/warm windows when Spec.Sampling was enabled;
	// nil for full-detail runs.
	SampleCold, SampleWarm *stats.SampleMeta
	SetupInsts             uint64
	Response               []byte
	// FaultReport is the run's fault ledger; nil without a fault plan.
	FaultReport *faults.Report

	// Observability artifacts, populated when Spec.Trace.Enabled:
	// the sampled guest profile, the Chrome trace_event JSON export,
	// the gem5-style stats.txt text, and the raw buffered events with
	// the symbol table that resolves their PCs.
	Profile   *trace.Profile
	TraceJSON []byte
	StatsText string
	Events    []trace.Event
	Syms      *trace.SymTable
}

// Budgets for the two phases.
const (
	setupBudget = 600_000_000
	evalBudget  = 600_000_000
)

// Run executes the full methodology for one function on one ISA.
func Run(arch isa.Arch, spec Spec) (*Result, error) {
	cfg := gemsys.DefaultConfig(arch)
	return RunWith(cfg, spec)
}

// RunWith executes the methodology with an explicit machine configuration
// (used by the design-space exploration tooling). Every failure is
// returned as a *ExperimentError carrying the phase, fault counters and
// any partial measurements, so sweep drivers can degrade gracefully.
func RunWith(cfg gemsys.Config, spec Spec) (*Result, error) {
	return RunCached(cfg, spec, nil)
}

// Boot is a machine assembled for one experiment but not yet executed:
// the methodology's boot-to-checkpoint and checkpoint-to-measurement
// phases run separately on it (Setup, Measure), which is what lets the
// sweep engine's memoizer skip Setup for runs whose boot fingerprint it
// has already simulated.
type Boot struct {
	M    *gemsys.Machine
	cfg  gemsys.Config
	spec Spec
	inj  *faults.Injector
	nreq int
	// reqCh/respCh are the load generator's channel pair, recorded so
	// host-side drivers (internal/loadgen) can inject requests and drain
	// replies without a simulated client.
	reqCh, respCh int
	// setupInsts, setupSvcReqs and setupFaulted are recorded by Setup.
	setupInsts   uint64
	setupSvcReqs uint64
	setupFaulted bool
	// bindings are the guest→service channel wirings the spec's Build
	// made through Env.NewService.
	bindings []ServiceBinding
	// server and client are the processes' compiled images, linked for
	// their regions. Nothing writes to them, so a boot's twins spawn the
	// same ones.
	server, client *isa.Program
}

// ClientChans returns the client-side request and response channel ids
// wired by BootSpec. Host-side load drivers inject requests into reqCh
// and collect replies from respCh.
func (b *Boot) ClientChans() (reqCh, respCh int) { return b.reqCh, b.respCh }

// ServiceBindings returns the machine's guest→service channel wirings in
// creation order (a copy; safe to retain). The load generator forwards
// these to the fault layer so per-service rules can target one pool
// instance's concrete channels.
func (b *Boot) ServiceBindings() []ServiceBinding {
	return append([]ServiceBinding(nil), b.bindings...)
}

func (b *Boot) fail(phase string, partial *Result, err error) (*Result, error) {
	ee := &ExperimentError{Spec: b.spec.Name, Arch: b.cfg.Arch, Phase: phase, Partial: partial, Err: err}
	if b.inj != nil {
		rep := b.inj.Report
		ee.Faults = &rep
	}
	return nil, ee
}

// failErr is fail for the phases that measured nothing.
func (b *Boot) failErr(phase string, err error) error {
	_, e := b.fail(phase, nil, err)
	return e
}

// BootSpec assembles the machine for one experiment: it compiles the
// workload and client, spawns both processes, and wires fault and trace
// hooks — everything up to (but excluding) the functional setup phase.
func BootSpec(cfg gemsys.Config, spec Spec) (*Boot, error) {
	b, err := newBoot(cfg, spec)
	if err != nil {
		return nil, err
	}
	workload, err := b.build()
	if err != nil {
		return nil, err
	}
	if err := b.compile(workload); err != nil {
		return nil, err
	}
	if err := b.spawn(); err != nil {
		return nil, err
	}
	return b, nil
}

// Twin boots a fresh machine as b's twin: assembled exactly as BootSpec
// assembles b, except that it runs on b's decode caches (see
// gemsys.Machine.ShareDecodeCaches) and spawns b's compiled images
// instead of compiling its own. The spec's Build still runs on the twin,
// for its own services and bindings; the workload module it returns is
// not used. A twin and b have equal boot fingerprints, so a twin can
// restore b's post-boot checkpoint, or run its own Setup.
//
// A twin shares mutable caches with b and with b's other twins, so all
// of them must run on one goroutine, and their interp.* counters count
// the execution of all of them since the last Restore of any (no report
// reads those counters off a twin).
func (b *Boot) Twin() (*Boot, error) {
	t, err := newBoot(b.cfg, b.spec)
	if err != nil {
		return nil, err
	}
	if err := t.M.ShareDecodeCaches(b.M); err != nil {
		return nil, t.failErr("boot", err)
	}
	if _, err := t.build(); err != nil {
		return nil, err
	}
	// The images bake in the service channel ids b's Build allocated.
	if !slices.Equal(t.bindings, b.bindings) {
		return nil, t.failErr("build", fmt.Errorf("twin's services are bound to %v, its master's to %v", t.bindings, b.bindings))
	}
	t.server, t.client = b.server, b.client
	if err := t.spawn(); err != nil {
		return nil, err
	}
	return t, nil
}

// newBoot validates spec and assembles a machine for it: gemsys.New, the
// fault injector and the trace hooks.
func newBoot(cfg gemsys.Config, spec Spec) (*Boot, error) {
	b := &Boot{cfg: cfg, spec: spec}
	b.nreq = spec.Requests
	if b.nreq == 0 {
		b.nreq = 10
	}
	if b.nreq < 2 {
		return nil, b.failErr("spec", fmt.Errorf(
			"Requests must be >= 2, got %d: the cold and warm m5 reset/dump markers need distinct requests", b.nreq))
	}
	if spec.Build == nil {
		return nil, b.failErr("spec", fmt.Errorf("spec has no Build function"))
	}
	if spec.Request == nil {
		return nil, b.failErr("spec", fmt.Errorf("spec has no Request function"))
	}
	if err := spec.Sampling.Validate(); err != nil {
		return nil, b.failErr("spec", err)
	}

	if spec.Trace.Enabled {
		cfg.Trace = spec.Trace
		b.cfg = cfg
	}
	m, err := gemsys.New(cfg)
	if err != nil {
		return nil, b.failErr("boot", err)
	}
	b.M = m
	if spec.Faults != nil {
		b.inj = faults.NewInjector(*spec.Faults)
		m.K.IPCFault = b.inj.IPCFault
		m.K.OnFault = b.inj.Note
	}
	if m.Tracer != nil {
		// Chain the fault-note hook so injected faults also land on the
		// event trace's fault track.
		prev := m.K.OnFault
		m.K.OnFault = func(ev uint64) {
			if prev != nil {
				prev(ev)
			}
			m.EmitFault(ev)
		}
	}
	return b, nil
}

// build runs the spec's Build on b's machine, which creates the
// workload's services, and returns the workload module.
func (b *Boot) build() (*ir.Module, error) {
	env := &Env{M: b.M, Inj: b.inj}
	workload, err := b.spec.Build(env)
	if err != nil {
		return nil, b.failErr("build", fmt.Errorf("build workload: %w", err))
	}
	b.bindings = env.bindings
	return workload, nil
}

// compile builds the server around workload and the client, and links
// them for the next two regions, where spawn loads them.
func (b *Boot) compile(workload *ir.Module) error {
	flavor := libc.ForArch(string(b.cfg.Arch))
	if b.spec.Flavor != nil {
		flavor = *b.spec.Flavor
	}
	server, err := langrt.BuildServer(b.spec.Runtime, flavor, workload, vswarm.Handler)
	if err != nil {
		return b.failErr("build", fmt.Errorf("build server: %w", err))
	}
	if b.server, err = b.M.Compile(server, 0); err != nil {
		return b.failErr("build", fmt.Errorf("compile server: %w", err))
	}
	client := BuildClient(b.spec.Request(), int64(b.nreq), b.spec.Retry)
	if b.client, err = b.M.Compile(client, 1); err != nil {
		return b.failErr("build", fmt.Errorf("compile client: %w", err))
	}
	return nil
}

// spawn wires the client channels and starts the server and client
// processes from b's images: the server in the next region, on core 1,
// and the client in the one after, on core 0.
func (b *Boot) spawn() error {
	m, spec := b.M, b.spec
	b.reqCh, b.respCh = m.K.NewChannel(), m.K.NewChannel()
	if b.inj != nil {
		b.inj.BindClientChans(b.reqCh, b.respCh)
	}
	args := []uint64{uint64(b.reqCh), uint64(b.respCh)}
	if _, err := m.SpawnImage("server", b.server, "main", 1, args); err != nil {
		return b.failErr("build", fmt.Errorf("spawn server: %w", err))
	}
	if _, err := m.SpawnImage("client", b.client, "main", 0, args); err != nil {
		return b.failErr("build", fmt.Errorf("spawn client: %w", err))
	}
	if spec.Retry != nil {
		check := spec.Check
		m.K.ReplyCheck = func(resp []byte) bool {
			return check == nil || check(rpc.NewReader(resp)) == nil
		}
	}
	return nil
}

// Setup runs the functional (atomic CPU) boot-and-container-setup phase
// up to the m5 checkpoint before request 1, and captures that checkpoint.
func (b *Boot) Setup() (*gemsys.Checkpoint, error) {
	m := b.M
	if err := m.RunSetup(setupBudget); err != nil {
		_, e := b.fail("setup", nil, err)
		return nil, e
	}
	if !m.CheckpointPending() {
		_, e := b.fail("checkpoint", nil, fmt.Errorf("setup finished without checkpoint"))
		return nil, e
	}
	b.setupInsts = m.Atomic.Insts
	b.setupSvcReqs = m.K.Counts.ServiceReqs
	b.setupFaulted = b.inj.WasArmed()
	return m.TakeCheckpoint(), nil
}

// SetupInsts returns the instruction count of the completed setup phase.
func (b *Boot) SetupInsts() uint64 { return b.setupInsts }

// Memoizable reports whether the completed setup phase left the machine
// in a state another identically-booted run may reuse. Setup that
// performed native service round trips is not memoizable: service engines
// live host-side, outside the checkpoint, so their post-setup state
// cannot be reproduced by restoring guest memory alone. Setup that ran
// while the fault injector was armed is not memoizable either — the
// boot fingerprint deliberately excludes fault plans, so a checkpoint
// with injected corruption baked in could otherwise be served to clean
// runs of the same fingerprint.
func (b *Boot) Memoizable() bool { return b.setupSvcReqs == 0 && !b.setupFaulted }

// Measure restores the post-boot checkpoint into the detailed O3 CPU with
// cold microarchitectural state, arms fault injection, replays the
// request stream and projects the cold/warm statistics. ck may come from
// this Boot's own Setup or be a cached checkpoint taken on a machine with
// an equal boot fingerprint, shared with other runs (Restore only reads
// it); setupInsts is the setup phase's instruction count (reported in
// the Result even when this machine skipped setup).
func (b *Boot) Measure(ck *gemsys.Checkpoint, setupInsts uint64) (*Result, error) {
	m, spec := b.M, b.spec
	if err := m.Restore(ck); err != nil {
		return b.fail("restore", nil, err)
	}
	// Faults target steady-state traffic: arm only now, so boot and the
	// readiness handshake replay cleanly and the post-arm schedule is a
	// pure function of the seed and the request stream.
	if b.inj != nil {
		b.inj.Arm()
	}

	// Evaluation mode (detailed O3 CPU, optionally sampled).
	dumps, err := m.RunEvalSampled(evalBudget, spec.Sampling)
	res := partialResult(spec, b.cfg.Arch, m, dumps, b.inj, setupInsts)
	if err != nil {
		return b.fail("eval", res, err)
	}
	if len(dumps) != 2 {
		return b.fail("shape", res, fmt.Errorf("got %d stat dumps, want 2", len(dumps)))
	}
	if m.Tracer != nil {
		res.Profile = m.Profile()
		res.StatsText = m.StatsText(spec.Name)
		res.Events = m.Tracer.Events()
		res.Syms = m.Syms
		tj, terr := m.TraceJSON()
		if terr != nil {
			return b.fail("trace", res, terr)
		}
		res.TraceJSON = tj
	}
	if spec.Check != nil {
		if err := spec.Check(rpc.NewReader(res.Response)); err != nil {
			return b.fail("check", res, fmt.Errorf("response check: %w", err))
		}
	}
	return res, nil
}

// partialResult builds the Result of what an evaluation measured: the
// cold window if it closed, the warm one too if both did, so it is the
// whole Result of a run that closed both and the salvage of a failed one.
func partialResult(spec Spec, arch isa.Arch, m *gemsys.Machine, dumps []stats.Dump, inj *faults.Injector, setupInsts uint64) *Result {
	if len(dumps) == 0 {
		return nil
	}
	r := &Result{
		Name:       spec.Name,
		Runtime:    spec.Runtime,
		Arch:       arch,
		Cold:       dumps[0].Server(),
		SampleCold: dumps[0].ServerSampling(),
		SetupInsts: setupInsts,
		Response:   append([]byte(nil), m.K.Console.Bytes()...),
	}
	if len(dumps) > 1 {
		r.Warm = dumps[1].Server()
		r.SampleWarm = dumps[1].ServerSampling()
	}
	if inj != nil {
		rep := inj.Report
		r.FaultReport = &rep
	}
	return r
}

// BuildClient builds the load-generator module: it performs the readiness
// handshake, requests the checkpoint, then issues nreq identical requests
// with m5 reset/dump around the first and last, finally writing the last
// response to the console and exiting the simulation.
//
// With a nil retry policy each request is one blocking send/recv — the
// exact baseline instruction stream. With a policy, each request becomes
// a bounded-attempt loop: send, poll the response channel against a
// virtual-cycle deadline, classify arrived replies host-side (HReplyOK),
// and back off exponentially between attempts; the loop reports timeout/
// bad-reply/retry/recovery events through HFaultNote. Requests are
// identical, so at-least-once delivery is safe: a late reply to an
// earlier attempt is indistinguishable from the retried one.
func BuildClient(request []byte, nreq int64, retry *faults.Retry) *ir.Module {
	m := ir.NewModule("client")
	m.AddGlobal(&ir.Global{Name: "cli_req", Data: request})
	m.AddGlobal(&ir.Global{Name: "cli_rbuf", Data: make([]byte, langrt.WBufSize)})

	b := ir.NewFunc("main", 2)
	req, resp := b.Param(0), b.Param(1)
	rbuf := b.Global("cli_rbuf", 0)
	b.EcallV(kernel.SysRecv, resp, rbuf, b.Const(langrt.WBufSize)) // ready
	b.EcallV(kernel.M5Checkpoint)

	reqG := b.Global("cli_req", 0)
	reqLen := b.Const(int64(len(request)))
	n := b.Const(0)

	i := b.Const(1)
	loop, done := b.NewLabel("loop"), b.NewLabel("done")
	b.Label(loop)
	b.BrI(ir.Gt, i, nreq, done)
	notFirst := b.NewLabel("nf")
	b.BrI(ir.Ne, i, 1, notFirst)
	b.EcallV(kernel.M5ResetStats)
	b.Label(notFirst)
	notLast := b.NewLabel("nl")
	b.BrI(ir.Ne, i, nreq, notLast)
	b.EcallV(kernel.M5ResetStats)
	b.Label(notLast)

	if retry == nil {
		b.EcallV(kernel.SysSend, req, reqG, reqLen)
		rn := b.Ecall(kernel.SysRecv, resp, rbuf, b.Const(langrt.WBufSize))
		b.MovInto(n, rn)
	} else {
		emitRetryRequest(b, req, resp, reqG, reqLen, rbuf, n, retry)
	}

	noDump1 := b.NewLabel("nd1")
	b.BrI(ir.Ne, i, 1, noDump1)
	b.EcallV(kernel.M5DumpStats)
	b.Label(noDump1)
	noDump2 := b.NewLabel("nd2")
	b.BrI(ir.Ne, i, nreq, noDump2)
	b.EcallV(kernel.M5DumpStats)
	b.Label(noDump2)

	b.AddIInto(i, i, 1)
	b.Jmp(loop)
	b.Label(done)
	b.EcallV(kernel.SysWrite, rbuf, n)
	b.EcallV(kernel.M5Exit)
	m.AddFunc(b.Build())
	return m
}

// emitRetryRequest emits one request's bounded-attempt loop into the
// client body. On success n holds the reply length; on exhaustion n is 0
// (nothing valid to report).
func emitRetryRequest(b *ir.Builder, req, resp, reqG, reqLen, rbuf, n ir.Reg, retry *faults.Retry) {
	maxAttempts := retry.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	deadline := retry.Deadline
	if deadline == 0 {
		// A dropped message would block a deadline-less poll loop
		// forever; fall back to the default.
		deadline = faults.DefaultRetry().Deadline
	}
	bufMax := b.Const(langrt.WBufSize)
	attempt := b.Const(0)

	attemptL := b.NewLabel("attempt")
	waitL := b.NewLabel("wait")
	gotL := b.NewLabel("got")
	timeoutL := b.NewLabel("tmo")
	maybeRetryL := b.NewLabel("mretry")
	reqDone := b.NewLabel("reqdone")

	b.Label(attemptL)
	b.AddIInto(attempt, attempt, 1)
	b.EcallV(kernel.SysSend, req, reqG, reqLen)
	t0 := b.Ecall(kernel.SysClock)
	dl := b.AddI(t0, int64(deadline))

	b.Label(waitL)
	rn := b.Ecall(kernel.SysTryRecv, resp, rbuf, bufMax)
	b.BrI(ir.Ne, rn, -1, gotL)
	now := b.Ecall(kernel.SysClock)
	b.Br(ir.Gt, now, dl, timeoutL)
	b.EcallV(kernel.SysYield)
	b.Jmp(waitL)

	b.Label(timeoutL)
	b.EcallV(kernel.HFaultNote, b.Const(int64(faults.EvTimeout)))
	b.Jmp(maybeRetryL)

	b.Label(gotL)
	b.MovInto(n, rn)
	ok := b.Ecall(kernel.HReplyOK, rbuf, rn)
	okL := b.NewLabel("ok")
	b.BrI(ir.Ne, ok, 0, okL)
	b.EcallV(kernel.HFaultNote, b.Const(int64(faults.EvBadReply)))
	b.Jmp(maybeRetryL)
	b.Label(okL)
	firstTry := b.NewLabel("ft")
	b.BrI(ir.Le, attempt, 1, firstTry)
	b.EcallV(kernel.HFaultNote, b.Const(int64(faults.EvRecovered)))
	b.Label(firstTry)
	b.Jmp(reqDone)

	b.Label(maybeRetryL)
	canRetry := b.NewLabel("cr")
	b.BrI(ir.Lt, attempt, int64(maxAttempts), canRetry)
	b.EcallV(kernel.HFaultNote, b.Const(int64(faults.EvExhausted)))
	b.ConstInto(n, 0)
	b.Jmp(reqDone)
	b.Label(canRetry)
	b.EcallV(kernel.HFaultNote, b.Const(int64(faults.EvRetry)))
	if retry.Backoff > 0 {
		// Exponential backoff: Backoff << (attempt-1) virtual cycles.
		sh := b.AddI(attempt, -1)
		wait := b.Shl(b.Const(int64(retry.Backoff)), sh)
		until := b.Add(b.Ecall(kernel.SysClock), wait)
		backL, backDone := b.NewLabel("backoff"), b.NewLabel("bdone")
		b.Label(backL)
		t := b.Ecall(kernel.SysClock)
		b.Br(ir.Ge, t, until, backDone)
		b.EcallV(kernel.SysYield)
		b.Jmp(backL)
		b.Label(backDone)
	}
	b.Jmp(attemptL)

	b.Label(reqDone)
}
