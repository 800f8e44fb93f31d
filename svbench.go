// Package svbench is the public API of the serverless/RISC-V benchmarking
// infrastructure: a from-scratch, stdlib-only reproduction of
// "Benchmarking Support for RISC-V CPUs in Serverless Computing"
// (Pournaras, 2024). See DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-versus-measured record.
//
// The three entry points most users need:
//
//   - RunFunction executes one serverless function experiment (setup →
//     checkpoint → detailed cold/warm evaluation) on a chosen ISA.
//   - CollectFigures sweeps the full catalog and projects every figure of
//     the thesis's evaluation.
//   - NewMachine builds a bare simulated machine for custom programs
//     written against the ir package's builder.
package svbench

import (
	"svbench/internal/cluster"
	"svbench/internal/faults"
	"svbench/internal/figures"
	"svbench/internal/gemsys"
	"svbench/internal/harness"
	"svbench/internal/isa"
	"svbench/internal/langrt"
	"svbench/internal/loadgen"
	"svbench/internal/qemu"
	"svbench/internal/scenario"
	"svbench/internal/stats"
	"svbench/internal/trace"
)

// Re-exported architecture identifiers.
const (
	RV64   = isa.RV64   // the RISC-V target
	CISC64 = isa.CISC64 // the x86-class comparison target
)

// Core types, aliased from the implementation packages so downstream code
// can name them.
type (
	// Arch selects an instruction set architecture.
	Arch = isa.Arch
	// Spec describes one function experiment.
	Spec = harness.Spec
	// Result is a cold/warm measurement for one function.
	Result = harness.Result
	// Env gives workload builders access to machine services.
	Env = harness.Env
	// Config is the simulated system configuration (Table 4.1).
	Config = gemsys.Config
	// Machine is a simulated two-core full system.
	Machine = gemsys.Machine
	// CoreStats is one stats window's counters.
	CoreStats = stats.CoreStats
	// Runtime names a language runtime model.
	Runtime = langrt.Runtime
	// FigureData is a rendered figure/table.
	FigureData = figures.Data
	// Results caches a full experiment sweep.
	Results = figures.Results
	// Latency is a QEMU-mode request measurement.
	Latency = qemu.Latency
	// HotelEngine selects the Hotel application's database backend.
	HotelEngine = harness.HotelEngine
	// LukewarmResult compares solo-warm against interleaved execution.
	LukewarmResult = harness.LukewarmResult
	// SamplingConfig selects SMARTS-style sampled detailed simulation for
	// the evaluation phase (Spec.Sampling); the zero value is full detail.
	// See docs/perf.md.
	SamplingConfig = gemsys.SamplingConfig
	// SampleMeta reports a sampled window's extrapolation quality
	// (measured windows, coverage, CPI confidence proxy).
	SampleMeta = stats.SampleMeta
	// FaultPlan is a deterministic, seed-driven fault-injection plan.
	FaultPlan = faults.Plan
	// FaultRule is one probabilistic fault rule of a plan.
	FaultRule = faults.Rule
	// FaultReport is the fault/recovery ledger of one run.
	FaultReport = faults.Report
	// Retry is the load generator's recovery policy.
	Retry = faults.Retry
	// ExperimentError is the structured failure one experiment returns.
	ExperimentError = harness.ExperimentError
	// TraceOptions configures the observability layer (event tracing,
	// profiling) of a run; see docs/tracing.md.
	TraceOptions = trace.Options
	// Profile is a sampled guest hot-function profile.
	Profile = trace.Profile
	// ProfileEntry is one function's flat/cumulative sample counts.
	ProfileEntry = trace.ProfileEntry
	// TraceEvent is one typed event of the machine's trace ring.
	TraceEvent = trace.Event
	// StatsRegistry is the machine's hierarchical statistics registry.
	StatsRegistry = trace.Registry
	// LoadConfig describes one open-loop load run (internal/loadgen).
	LoadConfig = loadgen.Config
	// LoadReport is one load run's complete result: invocation records,
	// latency percentiles, cold/warm mix, stats text and trace JSON.
	LoadReport = loadgen.Report
	// LoadProcess selects the arrival process of a load run.
	LoadProcess = loadgen.Process
	// LoadInvocation is one request's lifecycle through the pool.
	LoadInvocation = loadgen.Invocation
	// FaultWindow is a half-open [Start, End) activation window in
	// virtual time; the zero window means "always active".
	FaultWindow = faults.Window
	// Scenario is a declarative chaos scenario: a load shape plus timed
	// fault phases, an SLO and a recovery deadline (internal/scenario).
	Scenario = scenario.Scenario
	// ScenarioPhase is one timed fault window of a scenario.
	ScenarioPhase = scenario.Phase
	// ScenarioSLO is the latency/error objective a scenario is judged by.
	ScenarioSLO = scenario.SLO
	// ScenarioConfig binds a scenario to a function, system config and seed.
	ScenarioConfig = scenario.Config
	// ScenarioResult is one scenario run's phase-bucketed verdict.
	ScenarioResult = scenario.Result
	// ScenarioBucket is the per-phase (pre/during/post) latency summary.
	ScenarioBucket = scenario.Bucket
	// ClusterTopology is a multi-machine service graph (internal/cluster).
	ClusterTopology = cluster.Topology
	// ClusterConfig binds a topology to an ISA, load and seed.
	ClusterConfig = cluster.Config
	// ClusterReport is one fabric run's result: per-request latencies,
	// network traffic, the deterministic event log and trace export.
	ClusterReport = cluster.Report
)

// Arrival processes for LoadConfig.Arrival.
const (
	LoadPoisson = loadgen.Poisson
	LoadBursty  = loadgen.Bursty
)

// Runtime models.
const (
	GoRT   = langrt.GoRT
	PyRT   = langrt.PyRT
	NodeRT = langrt.NodeRT
)

// Hotel database backends.
const (
	EngineCassandra = harness.EngineCassandra
	EngineMongo     = harness.EngineMongo
	EngineMariaDB   = harness.EngineMariaDB
)

// Fault kinds for custom FaultPlan rules (internal/faults is not
// importable from outside the module).
const (
	FaultDropMsg      = faults.DropMsg
	FaultCorruptMsg   = faults.CorruptMsg
	FaultDelayMsg     = faults.DelayMsg
	FaultErrorReply   = faults.ErrorReply
	FaultLatencySpike = faults.LatencySpike
	FaultOutage       = faults.Outage
)

// Symbolic channel targets for IPC fault rules.
const (
	FaultAnyChannel = faults.AnyChannel
	FaultClientReq  = faults.ClientReq
	FaultClientResp = faults.ClientResp
)

// DefaultConfig returns the thesis's simulated system configuration for
// the given ISA (Tables 4.1–4.3).
func DefaultConfig(arch Arch) Config { return gemsys.DefaultConfig(arch) }

// NewMachine boots a bare simulated machine.
func NewMachine(cfg Config) (*Machine, error) { return gemsys.New(cfg) }

// RunFunction executes one experiment with the default configuration.
func RunFunction(arch Arch, spec Spec) (*Result, error) { return harness.Run(arch, spec) }

// RunFunctionWith executes one experiment with an explicit configuration
// (design-space exploration).
func RunFunctionWith(cfg Config, spec Spec) (*Result, error) { return harness.RunWith(cfg, spec) }

// RunEmulated executes one experiment under functional (QEMU-style)
// emulation, returning per-request latencies.
func RunEmulated(arch Arch, spec Spec, requests int) ([]Latency, error) {
	return qemu.Run(arch, spec, requests)
}

// StandaloneSpecs returns the nine standalone function experiments.
func StandaloneSpecs() []Spec { return harness.StandaloneSpecs() }

// ShopSpecs returns the six Online Shop experiments.
func ShopSpecs() []Spec { return harness.ShopSpecs() }

// HotelSpecs returns the six Hotel experiments on the given backend.
func HotelSpecs(engine HotelEngine) []Spec { return harness.HotelSpecs(engine) }

// HotelSpec returns one Hotel experiment.
func HotelSpec(fn string, engine HotelEngine) Spec { return harness.HotelSpec(fn, engine) }

// AllSpecs returns the complete experiment catalog.
func AllSpecs() []Spec { return harness.AllSpecs() }

// CollectFigures sweeps every experiment on both ISAs; log (optional)
// receives one progress line per experiment. Failed experiments are
// recorded in Results.Failures; the sweep continues past them.
func CollectFigures(log func(string)) (*Results, error) { return figures.Collect(log) }

// SweepOpts configures how CollectFiguresWith executes the experiment
// matrix (worker count, checkpoint memoization, progress log). The
// returned Results is identical for every setting.
type SweepOpts = figures.SweepOpts

// CollectFiguresWith is CollectFigures with explicit execution options:
// opt.Jobs workers (0 = GOMAXPROCS) with memoized boot checkpoints
// unless opt.DisableMemo is set.
func CollectFiguresWith(opt SweepOpts) (*Results, error) { return figures.CollectWith(opt) }

// DefaultSamplingConfig returns the tuned sampling default used by the
// figures sampling table and perfbench's sampled-eval workload.
func DefaultSamplingConfig() SamplingConfig { return gemsys.DefaultSamplingConfig() }

// ParseSamplingConfig parses "uU-wW-dD" or "U,W,D" into a validated
// SamplingConfig ("" or "full-detail" turn sampling off).
func ParseSamplingConfig(s string) (SamplingConfig, error) { return gemsys.ParseSamplingConfig(s) }

// DefaultFaultPlan returns the standard chaos-testing plan for a seed:
// client-path message drops, delays and response corruption plus service
// error replies and latency spikes. The same seed always reproduces the
// same fault schedule (see docs/faults.md).
func DefaultFaultPlan(seed uint64) *FaultPlan { return faults.DefaultPlan(seed) }

// DefaultRetry returns the standard recovery policy for the load
// generator: bounded attempts with exponential backoff and a per-attempt
// deadline, all in virtual time.
func DefaultRetry() *Retry { return faults.DefaultRetry() }

// RunLoad replays cfg's seeded open-loop arrival process against a pool
// of function instances with keep-alive idle reclamation and returns the
// tail-latency/cold-start report. The report is a pure function of cfg
// (see docs/loadgen.md).
func RunLoad(cfg LoadConfig) (*LoadReport, error) { return loadgen.Run(cfg) }

// RunLoadMany executes one load run per config across a worker pool with
// a shared boot cache; each report is byte-identical to a solo RunLoad.
func RunLoadMany(cfgs []LoadConfig, jobs int) ([]*LoadReport, []error) {
	return loadgen.RunMany(cfgs, jobs)
}

// ScenarioCatalog returns the library of named chaos scenarios, sorted
// by name (see docs/scenarios.md).
func ScenarioCatalog() []Scenario { return scenario.Catalog() }

// ScenarioNames returns the catalog's scenario names, sorted.
func ScenarioNames() []string { return scenario.Names() }

// ScenarioByName looks a scenario up in the catalog.
func ScenarioByName(name string) (Scenario, error) { return scenario.ByName(name) }

// RunScenario executes one chaos scenario: it arms the scenario's timed
// fault plan against an open-loop load run and returns the
// phase-bucketed report with the SLO verdict and recovery time. The
// result is a pure function of cfg.
func RunScenario(cfg ScenarioConfig) (*ScenarioResult, error) { return scenario.Run(cfg) }

// RunScenarioMany executes one scenario run per config across a worker
// pool with a shared boot cache; each result is byte-identical to a
// solo RunScenario.
func RunScenarioMany(cfgs []ScenarioConfig, jobs int) ([]*ScenarioResult, []error) {
	return scenario.RunMany(cfgs, jobs)
}

// ClusterTopologies returns the shipped multi-machine topologies
// (hotel-reservation and social-network; see DESIGN.md §4d).
func ClusterTopologies() []ClusterTopology { return cluster.Topologies() }

// RunCluster executes one multi-machine fabric run: the topology's
// machines advance under a single global clock, exchanging RPCs over
// the modeled network. Same config ⇒ byte-identical report.
func RunCluster(cfg ClusterConfig) (*ClusterReport, error) { return cluster.Run(cfg) }

// RunClusterMany executes independent fabric runs across a worker pool;
// each result is byte-identical to a solo RunCluster.
func RunClusterMany(cfgs []ClusterConfig, jobs int) ([]*ClusterReport, error) {
	return cluster.RunMany(cfgs, jobs)
}

// RunLukewarm interleaves two functions on the measured core and reports
// how much of spec's warm state survives (the §2.1 lukewarm effect).
func RunLukewarm(arch Arch, spec, other Spec) (*LukewarmResult, error) {
	return harness.RunLukewarm(arch, spec, other)
}
