// Command svbench runs a single serverless function experiment through the
// full methodology (setup → checkpoint → detailed cold/warm evaluation) and
// prints the measured statistics, or — with -emulate — times requests under
// functional (QEMU-style) emulation. With -all it sweeps every experiment
// on the chosen ISA across a worker pool (-j) with memoized boot
// checkpoints; the sweep output is identical for every -j value.
//
// Usage:
//
//	svbench -list
//	svbench -fn fibonacci-go [-arch rv64|cisc64] [-engine cassandra|mongodb|mariadb]
//	svbench -all [-arch rv64] [-j 8]
//	svbench -fn profile -emulate -requests 10
//	svbench -fn geo -chaos -seed 7
//	svbench -fn fibonacci-go -trace trace.json -profile -stats-txt stats.txt
//	svbench -fn aes-python -sample default
//	svbench -load -rps 200 -duration 50ms -keepalive 10ms -seed 7 -j 4
//	svbench -scenario retry-storm -arch rv64 -seed 7 -trace storm.json
//	svbench -scenario list
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"svbench"
	"svbench/internal/gemsys"
	"svbench/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("svbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fn       = fs.String("fn", "", "experiment name (see -list)")
		arch     = fs.String("arch", "rv64", "target ISA: rv64 or cisc64")
		engine   = fs.String("engine", "cassandra", "hotel database backend")
		emulate  = fs.Bool("emulate", false, "functional (QEMU-style) emulation instead of detailed simulation")
		requests = fs.Int("requests", 10, "requests to issue under -emulate")
		list     = fs.Bool("list", false, "list experiment names")
		all      = fs.Bool("all", false, "run every experiment on the chosen ISA (parallel sweep, see -j)")
		jobs     = fs.Int("j", sweep.DefaultJobs(),
			"sweep worker count for -all, >= 1 (results are identical for every value; default GOMAXPROCS)")
		chaos    = fs.Bool("chaos", false, "inject the default fault plan and compile the retry policy into the client")
		seed     = fs.Uint64("seed", 1, "fault-injection / load-arrival seed (same seed = same schedule)")
		load     = fs.Bool("load", false, "open-loop load run: replay a seeded arrival process against an instance pool")
		scenName = fs.String("scenario", "", "run a named chaos scenario under load (\"list\" to enumerate)")
		rps      = fs.Float64("rps", 200, "load: mean arrival rate, invocations per virtual second")
		duration = fs.Duration("duration", 50*time.Millisecond, "load: arrival window in virtual time")
		keepal   = fs.Duration("keepalive", 10*time.Millisecond, "load: idle-instance keep-alive in virtual time")
		arrival  = fs.String("arrival", "poisson", "load: arrival process, poisson or bursty")
		burst    = fs.Int("burst", 0, "load: bursty batch size (0 = default)")
		maxInst  = fs.Int("instances", 0, "load: instance pool cap (0 = default)")
		sample   = fs.String("sample", "", "SMARTS-style sampled evaluation: \"default\", \"uU-wW-dD\" or \"U,W,D\" "+
			"(units: retired records; see docs/perf.md)")
		traceOut = fs.String("trace", "", "write a Chrome trace_event JSON (Perfetto-loadable) to this file")
		profile  = fs.Bool("profile", false, "print the sampled guest hot-function profile")
		statsTxt = fs.String("stats-txt", "", "write the gem5-style stats.txt dump to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := sweep.ValidateJobs(*jobs); err != nil {
		fmt.Fprintln(stderr, "svbench: -j:", err)
		return 2
	}
	if *requests < 1 {
		fmt.Fprintf(stderr, "svbench: -requests must be >= 1, got %d\n", *requests)
		return 2
	}

	if *list {
		for _, sp := range svbench.AllSpecs() {
			fmt.Fprintln(stdout, sp.Name)
		}
		return 0
	}

	if *scenName == "list" {
		for _, s := range svbench.ScenarioCatalog() {
			fmt.Fprintf(stdout, "%-24s %s\n", s.Name, s.Description)
		}
		return 0
	}

	a := svbench.Arch(*arch)
	if a != svbench.RV64 && a != svbench.CISC64 {
		fmt.Fprintf(stderr, "svbench: unknown arch %q\n", *arch)
		return 2
	}

	specs := append(append(svbench.StandaloneSpecs(), svbench.ShopSpecs()...),
		svbench.HotelSpecs(svbench.HotelEngine(*engine))...)

	if *all {
		return runAll(specs, a, *jobs, stdout, stderr)
	}

	if *scenName != "" {
		s, err := svbench.ScenarioByName(*scenName)
		if err != nil {
			fmt.Fprintln(stderr, "svbench:", err)
			return 2
		}
		name := *fn
		if name == "" {
			name = "fibonacci-go"
		}
		var spec *svbench.Spec
		for _, sp := range specs {
			if sp.Name == name {
				sp := sp
				spec = &sp
				break
			}
		}
		if spec == nil {
			fmt.Fprintf(stderr, "svbench: unknown experiment %q (try -list)\n", name)
			return 2
		}
		cfg := svbench.ScenarioConfig{
			Scenario: s,
			Cfg:      gemsys.DefaultConfig(a),
			Spec:     *spec,
			Seed:     *seed,
		}
		return runScenario(cfg, *jobs, *traceOut, *statsTxt, stdout, stderr)
	}

	if *load {
		name := *fn
		if name == "" {
			name = "fibonacci-go"
		}
		var spec *svbench.Spec
		for _, sp := range specs {
			if sp.Name == name {
				sp := sp
				spec = &sp
				break
			}
		}
		if spec == nil {
			fmt.Fprintf(stderr, "svbench: unknown experiment %q (try -list)\n", name)
			return 2
		}
		proc := svbench.LoadPoisson
		switch *arrival {
		case "poisson":
		case "bursty":
			proc = svbench.LoadBursty
		default:
			fmt.Fprintf(stderr, "svbench: unknown arrival process %q (poisson or bursty)\n", *arrival)
			return 2
		}
		cfg := svbench.LoadConfig{
			Cfg:          gemsys.DefaultConfig(a),
			Spec:         *spec,
			RPS:          *rps,
			Duration:     uint64(duration.Nanoseconds()),
			Seed:         *seed,
			Arrival:      proc,
			Burst:        *burst,
			KeepAlive:    uint64(keepal.Nanoseconds()),
			MaxInstances: *maxInst,
		}
		return runLoad(cfg, *jobs, *traceOut, *statsTxt, stdout, stderr)
	}

	if *fn == "" {
		fmt.Fprintln(stderr, "svbench: -fn is required (try -list, or -all)")
		return 2
	}
	var spec *svbench.Spec
	for _, sp := range specs {
		if sp.Name == *fn {
			sp := sp
			spec = &sp
			break
		}
	}
	if spec == nil {
		fmt.Fprintf(stderr, "svbench: unknown experiment %q (try -list)\n", *fn)
		return 2
	}

	if *chaos {
		spec.Faults = svbench.DefaultFaultPlan(*seed)
		spec.Retry = svbench.DefaultRetry()
	}
	if *sample != "" {
		sc, err := parseSample(*sample)
		if err != nil {
			fmt.Fprintln(stderr, "svbench:", err)
			return 2
		}
		spec.Sampling = sc
	}
	if *traceOut != "" || *profile || *statsTxt != "" {
		spec.Trace = svbench.TraceOptions{Enabled: true}
	}

	if *emulate {
		lats, err := svbench.RunEmulated(a, *spec, *requests)
		if err != nil {
			fmt.Fprintln(stderr, "svbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s on %s under emulation (%s backend):\n", spec.Name, a, *engine)
		for _, l := range lats {
			fmt.Fprintf(stdout, "  request %2d: %8d ns\n", l.Request, l.NS)
		}
		return 0
	}

	res, err := svbench.RunFunction(a, *spec)
	if err != nil {
		fmt.Fprintln(stderr, "svbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s on %s (server core, detailed O3 model):\n", res.Name, res.Arch)
	row := func(label string, s svbench.CoreStats) {
		fmt.Fprintf(stdout, "  %-5s cycles=%-10d insts=%-10d cpi=%-5.2f l1i=%-7d l1d=%-7d l2=%-6d mispred=%d\n",
			label, s.Cycles, s.Insts, s.CPI(), s.L1IMisses, s.L1DMisses, s.L2Misses, s.Mispredicts)
	}
	row("cold", res.Cold)
	row("warm", res.Warm)
	fmt.Fprintf(stdout, "  cold/warm ratio: %.2fx   setup instructions: %d\n",
		float64(res.Cold.Cycles)/float64(res.Warm.Cycles), res.SetupInsts)
	if res.SampleWarm != nil {
		sm := func(label string, m *svbench.SampleMeta) {
			fmt.Fprintf(stdout, "  sampled %-5s windows=%-4d coverage=%.3f cpi=%.3f±%.3f\n",
				label, m.Windows, m.Coverage(), m.CPIMean, m.CPIStdErr)
		}
		sm("cold", res.SampleCold)
		sm("warm", res.SampleWarm)
	}
	if rep := res.FaultReport; rep != nil {
		fmt.Fprintf(stdout, "  faults (seed %d): injected=%d dropped=%d corrupted=%d delayed=%d errors=%d spikes=%d outages=%d\n",
			*seed, rep.Injected, rep.Dropped, rep.Corrupted, rep.Delayed,
			rep.ErrorReplies, rep.Spikes, rep.Outages)
		fmt.Fprintf(stdout, "  recovery: surfaced=%d timeouts=%d badreplies=%d retried=%d recovered=%d exhausted=%d\n",
			rep.Surfaced, rep.Timeouts, rep.BadReplies, rep.Retried, rep.Recovered, rep.Exhausted)
	}
	if *traceOut != "" {
		if err := os.WriteFile(*traceOut, res.TraceJSON, 0o644); err != nil {
			fmt.Fprintln(stderr, "svbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "  trace: %d events -> %s (load in Perfetto or chrome://tracing)\n",
			len(res.Events), *traceOut)
	}
	if *statsTxt != "" {
		if err := os.WriteFile(*statsTxt, []byte(res.StatsText), 0o644); err != nil {
			fmt.Fprintln(stderr, "svbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "  stats: %s\n", *statsTxt)
	}
	if *profile {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, res.Profile.Table())
	}
	return 0
}

// parseSample resolves the -sample flag value: "default" selects the tuned
// default config, anything else parses as uU-wW-dD or U,W,D.
func parseSample(s string) (svbench.SamplingConfig, error) {
	if s == "default" {
		return svbench.DefaultSamplingConfig(), nil
	}
	return svbench.ParseSamplingConfig(s)
}

// runLoad executes one open-loop load run and prints its deterministic
// artifacts: the latency table, the stats-registry dump, and a digest of
// the trace JSON. The worker pool only matters for multi-point sweeps; a
// single run's output is byte-identical for every -j value.
func runLoad(cfg svbench.LoadConfig, jobs int, traceOut, statsTxt string, stdout, stderr io.Writer) int {
	reps, errs := svbench.RunLoadMany([]svbench.LoadConfig{cfg}, jobs)
	if errs[0] != nil {
		fmt.Fprintln(stderr, "svbench:", errs[0])
		return 1
	}
	rep := reps[0]
	tj, err := rep.TraceJSON()
	if err != nil {
		fmt.Fprintln(stderr, "svbench:", err)
		return 1
	}
	fmt.Fprint(stdout, rep.Table())
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, rep.StatsText)
	fmt.Fprintf(stdout, "trace: %d bytes, sha256 %x\n", len(tj), sha256.Sum256(tj))
	if traceOut != "" {
		if err := os.WriteFile(traceOut, tj, 0o644); err != nil {
			fmt.Fprintln(stderr, "svbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace written to %s (load in Perfetto or chrome://tracing)\n", traceOut)
	}
	if statsTxt != "" {
		if err := os.WriteFile(statsTxt, []byte(rep.StatsText), 0o644); err != nil {
			fmt.Fprintln(stderr, "svbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "stats written to %s\n", statsTxt)
	}
	return 0
}

// runScenario executes one chaos scenario and prints its deterministic
// artifacts: the phase-bucketed report, the stats-registry dump, and a
// digest of the trace JSON. As with -load, one point's output is
// byte-identical for every -j value.
func runScenario(cfg svbench.ScenarioConfig, jobs int, traceOut, statsTxt string, stdout, stderr io.Writer) int {
	results, errs := svbench.RunScenarioMany([]svbench.ScenarioConfig{cfg}, jobs)
	if errs[0] != nil {
		fmt.Fprintln(stderr, "svbench:", errs[0])
		return 1
	}
	res := results[0]
	fmt.Fprint(stdout, res.Table())
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, res.StatsText)
	fmt.Fprintf(stdout, "trace: %d bytes, sha256 %x\n", len(res.TraceJSON), sha256.Sum256(res.TraceJSON))
	if traceOut != "" {
		if err := os.WriteFile(traceOut, res.TraceJSON, 0o644); err != nil {
			fmt.Fprintln(stderr, "svbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace written to %s (load in Perfetto or chrome://tracing)\n", traceOut)
	}
	if statsTxt != "" {
		if err := os.WriteFile(statsTxt, []byte(res.StatsText), 0o644); err != nil {
			fmt.Fprintln(stderr, "svbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "stats written to %s\n", statsTxt)
	}
	return 0
}

// runAll sweeps every spec on one ISA across the worker pool and prints
// one summary row per experiment, in catalog order.
func runAll(specs []svbench.Spec, a svbench.Arch, jobs int, stdout, stderr io.Writer) int {
	cfg := gemsys.DefaultConfig(a)
	var tasks []sweep.Task
	for _, sp := range specs {
		tasks = append(tasks, sweep.Task{Cfg: cfg, Spec: sp})
	}
	out := sweep.Run(tasks, sweep.Options{Jobs: jobs})
	fmt.Fprintf(stdout, "%d experiments on %s (-j %d):\n", len(out), a, jobs)
	failed := 0
	for _, o := range out {
		if o.Err != nil {
			failed++
			fmt.Fprintf(stdout, "  %-24s FAILED: %v\n", o.Task.Spec.Name, o.Err)
			continue
		}
		fmt.Fprintf(stdout, "  %-24s cold=%-10d warm=%-10d ratio=%.2fx\n",
			o.Task.Spec.Name, o.Result.Cold.Cycles, o.Result.Warm.Cycles,
			float64(o.Result.Cold.Cycles)/float64(o.Result.Warm.Cycles))
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "svbench: %d experiment(s) failed\n", failed)
		return 1
	}
	return 0
}
