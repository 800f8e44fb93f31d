package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"strings"
	"time"

	"svbench/internal/autoscale"
	"svbench/internal/cluster"
	"svbench/internal/figures"
	"svbench/internal/gemsys"
	"svbench/internal/harness"
	"svbench/internal/isa"
	"svbench/internal/loadgen"
	"svbench/internal/rpc"
	"svbench/internal/stats"
	"svbench/internal/sweep"
)

const (
	// phaseBudget is the instruction bound the harness gives its setup and
	// eval phases; the replay passes the same bound.
	phaseBudget = 600_000_000
	// emulationRequests is the Fig. 4.20 request count of the default
	// experiments run.
	emulationRequests = 6
)

var arches = []isa.Arch{isa.RV64, isa.CISC64}

// params are one run's inputs: the seed, the worker count, the committed
// reference, and the workload sizes, which tests shrink.
type params struct {
	seed uint64
	jobs int
	ref  *reference

	sampledRequests int // sampled-eval: requests per task
	churnPerArch    int // cold-churn: invocations per ISA
	burstPerPolicy  int // autoscale-burst: invocations per policy
	clusterRequests int // cluster-fabric: requests per topology × ISA
}

func defaultParams(seed uint64, jobs int, ref *reference) params {
	return params{
		seed: seed, jobs: jobs, ref: ref,
		sampledRequests: 64,
		churnPerArch:    400,
		burstPerPolicy:  6144,
		clusterRequests: 100,
	}
}

// outcome is what one trial produced.
type outcome struct {
	ops, failed int
	// digest is the sha256 of the trial's deterministic outputs.
	digest string
	// problems describes every failed op and every broken invariant.
	problems []string
	// cpiErr is sampled-eval's largest |sampled − full-detail| CPI error,
	// in percent of the committed full-detail CPI.
	cpiErr float64
	// paper and results keep paper-report's and sampled-eval's results
	// for the traced replay's cross-check.
	paper   *figures.Results
	results []*harness.Result
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// failedOps books n failed ops of the run named by format and args.
func (o *outcome) failedOps(n int, format string, args ...any) {
	if n > 0 {
		o.failed += n
		o.problem("%s: %d failed ops", fmt.Sprintf(format, args...), n)
	}
}

// workload is one named benchmark input (BENCHMARK.json and README.md
// give the reason for each). trial runs it through the program's public
// entry points; traced runs the same work again with spans around each
// layer call and checks it against last, an untraced trial's outcome.
type workload struct {
	name string
	// seeded is false when the seed does not enter the inputs.
	seeded bool
	// pinned marks a workload whose digest reference.json commits: at the
	// reference seed (at any seed when unseeded) the digest must match.
	pinned bool
	trial  func(p params) outcome
	traced func(p params, rec *recorder, last outcome) outcome
}

func workloads() []*workload {
	return []*workload{
		{name: "paper-report", pinned: true, trial: paperTrial, traced: paperTraced},
		{name: "sampled-eval", trial: sampledTrial, traced: sampledTraced},
		{name: "cold-churn", seeded: true, pinned: true, trial: churnTrial, traced: churnTraced},
		{name: "autoscale-burst", seeded: true, pinned: true, trial: burstTrial, traced: burstTraced},
		{name: "cluster-fabric", seeded: true, pinned: true, trial: clusterTrial, traced: clusterTraced},
	}
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func taskName(t sweep.Task) string { return t.Spec.Name + "/" + string(t.Cfg.Arch) }

func digestOf(write func(h hash.Hash)) string {
	h := sha256.New()
	write(h)
	return hex.EncodeToString(h.Sum(nil))
}

func fibSpec() harness.Spec {
	for _, sp := range harness.StandaloneSpecs() {
		if sp.Name == "fibonacci-go" {
			return sp
		}
	}
	panic("perfbench: fibonacci-go missing from the harness catalog")
}

// ---- paper-report ----

// paperTasks is CollectWith's experiment matrix in its canonical order —
// per ISA the standalone and shop specs, then the Cassandra hotel specs —
// with hotel[i] marking the hotel tasks.
func paperTasks() (tasks []sweep.Task, hotel []bool) {
	for _, arch := range arches {
		cfg := gemsys.DefaultConfig(arch)
		for _, sp := range append(harness.StandaloneSpecs(), harness.ShopSpecs()...) {
			tasks = append(tasks, sweep.Task{Cfg: cfg, Spec: sp})
			hotel = append(hotel, false)
		}
		for _, sp := range harness.HotelSpecs(harness.EngineCassandra) {
			tasks = append(tasks, sweep.Task{Cfg: cfg, Spec: sp})
			hotel = append(hotel, true)
		}
	}
	return tasks, hotel
}

func paperTrial(p params) outcome {
	res, err := figures.CollectWith(figures.SweepOpts{Jobs: p.jobs})
	if err != nil {
		return paperOutcome(nil, nil, err)
	}
	all, err := figures.ReportData(res, figures.ReportOpts{Requests: emulationRequests})
	return paperOutcome(res, all, err)
}

// paperOutcome counts one op per experiment plus one for the report
// (emulation study and tables) and digests the rendered report.
func paperOutcome(res *figures.Results, all []figures.Data, err error) outcome {
	tasks, _ := paperTasks()
	o := outcome{ops: len(tasks) + 1, paper: res}
	if res == nil {
		o.failed = o.ops
		o.problem("sweep: %v", err)
		return o
	}
	o.failed = len(res.Failures)
	for _, f := range res.Failures {
		o.problem("%v", f)
	}
	if err != nil {
		o.failed++
		o.problem("report: %v", err)
		return o
	}
	o.digest = digestOf(func(h hash.Hash) { io.WriteString(h, figures.Render(res, all)) })
	return o
}

// paperTraced replays the sweep task by task through the harness's phase
// calls, checks every task's cold/warm stats against last's CollectWith
// results, then runs the emulation study and renders the report from
// those results.
func paperTraced(p params, rec *recorder, last outcome) outcome {
	if last.paper == nil {
		return outcome{ops: 1, failed: 1, problems: []string{"no untraced sweep to check the replay against"}}
	}
	tasks, hotel := paperTasks()
	root, got, errs := replay(tasks, p.jobs, rec)
	var f420 figures.Data
	var all []figures.Data
	var text string
	var err error
	rec.within("emulate", 0, root, func() { f420, err = figures.Fig420(emulationRequests) })
	if err == nil {
		rec.within("report", 0, root, func() {
			all, err = figures.ReportData(last.paper, figures.ReportOpts{SkipEmulation: true})
		})
	}
	if err == nil {
		// ReportData places Fig. 4.20 just before the two container-size
		// tables that end the default report.
		n := len(all)
		all = append(all[:n-2:n-2], append([]figures.Data{f420}, all[n-2:]...)...)
		rec.within("render", 0, root, func() { text = figures.Render(last.paper, all) })
	}
	rec.end(root)

	o := outcome{ops: len(tasks) + 1}
	want := make([]*harness.Result, len(tasks))
	for i, t := range tasks {
		m := last.paper.Fn
		if hotel[i] {
			m = last.paper.Hotel
		}
		want[i] = m[t.Cfg.Arch][t.Spec.Name]
	}
	for i, e := range errs {
		if e != nil {
			o.failed++
			o.problem("%s: %v", taskName(tasks[i]), e)
		}
	}
	if e := crossCheck(tasks, got, want); e != nil {
		o.problem("%v", e)
	}
	if err != nil {
		o.failed++
		o.problem("report: %v", err)
		return o
	}
	o.digest = digestOf(func(h hash.Hash) { io.WriteString(h, text) })
	return o
}

// crossCheck reports every task whose replayed cold/warm stats differ
// from the untraced run's: equal stats show the replay ran the same
// program.
func crossCheck(tasks []sweep.Task, got, want []*harness.Result) error {
	var bad []string
	for i, t := range tasks {
		g, w := got[i], want[i]
		switch {
		case g == nil && w == nil:
		case g == nil || w == nil:
			bad = append(bad, taskName(t)+" completed in only one run")
		case g.Cold != w.Cold || g.Warm != w.Warm:
			bad = append(bad, taskName(t)+" cold/warm stats differ")
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("replay differs from the untraced run: %s", strings.Join(bad, "; "))
	}
	return nil
}

// replay runs each task through the harness's public phase calls on
// sweep.Each with jobs workers, one span per call. It returns the trial
// span still open.
func replay(tasks []sweep.Task, jobs int, rec *recorder) (root int, got []*harness.Result, errs []error) {
	got = make([]*harness.Result, len(tasks))
	errs = make([]error, len(tasks))
	root = rec.trialSweep(len(tasks), jobs, func(i int) string { return taskName(tasks[i]) },
		func(i, track, task int) { got[i], errs[i] = replayTask(tasks[i], rec, track, task) })
	return root, got, errs
}

// replayTask is harness.RunCached without a boot cache, split into its
// phase calls: BootSpec, RunSetup, TakeCheckpoint, Restore,
// RunEvalSampled and the spec's Check.
func replayTask(t sweep.Task, rec *recorder, track, parent int) (*harness.Result, error) {
	in := func(name string, fn func()) { rec.within(name, track, parent, fn) }
	var b *harness.Boot
	var err error
	if in("compile", func() { b, err = harness.BootSpec(t.Cfg, t.Spec) }); err != nil {
		return nil, err
	}
	rec.add("compile.calls", 1)
	m := b.M
	if in("setup", func() { err = m.RunSetup(phaseBudget) }); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if !m.CheckpointPending() {
		return nil, errors.New("setup finished without checkpoint")
	}
	rec.add("setup.insts", float64(m.Atomic.Insts))
	var ck *gemsys.Checkpoint
	in("ckpt.take", func() { ck = m.TakeCheckpoint() })
	if in("ckpt.restore", func() { err = m.Restore(ck) }); err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	var dumps []stats.Dump
	if in("eval", func() { dumps, err = m.RunEvalSampled(phaseBudget, t.Spec.Sampling) }); err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	rec.add("eval.records", float64(m.EvalRetired()))
	if len(dumps) != 2 {
		return nil, fmt.Errorf("got %d stat dumps, want 2", len(dumps))
	}
	res := &harness.Result{
		Cold: dumps[0].Server(), Warm: dumps[1].Server(),
		SampleCold: dumps[0].ServerSampling(), SampleWarm: dumps[1].ServerSampling(),
	}
	for _, sm := range []*stats.SampleMeta{res.SampleCold, res.SampleWarm} {
		if sm != nil {
			rec.add("eval.windows", float64(sm.Windows))
			rec.add("eval.sampled_insts", float64(sm.SampledInsts))
			rec.add("eval.total_insts", float64(sm.TotalInsts))
		}
	}
	if t.Spec.Check != nil {
		if in("check", func() { err = t.Spec.Check(rpc.NewReader(m.K.Console.Bytes())) }); err != nil {
			return nil, fmt.Errorf("response check: %w", err)
		}
	}
	return res, nil
}

// ---- sampled-eval ----

func sampledTasks(p params) []sweep.Task {
	var tasks []sweep.Task
	for _, arch := range arches {
		for _, sp := range figures.SamplingSpecs() {
			sp.Requests = p.sampledRequests
			sp.Sampling = gemsys.DefaultSamplingConfig()
			tasks = append(tasks, sweep.Task{Cfg: gemsys.DefaultConfig(arch), Spec: sp})
		}
	}
	return tasks
}

func sampledTrial(p params) outcome {
	tasks := sampledTasks(p)
	results, errs := split(sweep.Run(tasks, sweep.Options{Jobs: p.jobs}))
	return sampledOutcome(p, tasks, results, errs)
}

func split(outs []sweep.Outcome) ([]*harness.Result, []error) {
	results := make([]*harness.Result, len(outs))
	errs := make([]error, len(outs))
	for i, o := range outs {
		results[i], errs[i] = o.Result, o.Err
	}
	return results, errs
}

// sampledOutcome counts one op per task (a failed run or Check is a
// failed op), digests the extrapolated stats and measures the CPI error
// against the committed full-detail CPIs.
func sampledOutcome(p params, tasks []sweep.Task, results []*harness.Result, errs []error) outcome {
	o := outcome{ops: len(tasks), results: results}
	full := map[string]taskCPI{}
	for _, c := range p.ref.Sampled.FullCPI {
		full[c.Task] = c
	}
	meta := func(m *stats.SampleMeta) string {
		if m == nil {
			return "full-detail"
		}
		return fmt.Sprintf("%+v", *m)
	}
	o.digest = digestOf(func(h hash.Hash) {
		for i, t := range tasks {
			if errs[i] != nil {
				o.failed++
				o.problem("%s: %v", taskName(t), errs[i])
				continue
			}
			r := results[i]
			fmt.Fprintf(h, "%s %+v %+v %s %s\n", taskName(t), r.Cold, r.Warm, meta(r.SampleCold), meta(r.SampleWarm))
			ref, ok := full[taskName(t)]
			if !ok {
				o.problem("%s: no committed full-detail CPI", taskName(t))
				continue
			}
			o.cpiErr = math.Max(o.cpiErr, math.Max(pctErr(r.Cold.CPI(), ref.Cold), pctErr(r.Warm.CPI(), ref.Warm)))
		}
	})
	return o
}

func pctErr(got, want float64) float64 { return 100 * math.Abs(got-want) / want }

func sampledTraced(p params, rec *recorder, last outcome) outcome {
	tasks := sampledTasks(p)
	root, got, errs := replay(tasks, p.jobs, rec)
	rec.end(root)
	o := sampledOutcome(p, tasks, got, errs)
	if err := crossCheck(tasks, got, last.results); err != nil {
		o.problem("%v", err)
	}
	return o
}

// ---- cold-churn and autoscale-burst ----

// window returns the arrival window holding exactly n arrivals of c's
// seeded process, so every seed replays the same invocation count.
func window(c loadgen.Config, n int) uint64 {
	c.Duration = uint64(float64(n) * 1e9 / c.RPS)
	for {
		c.Duration *= 2
		if a := loadgen.Arrivals(c); len(a) >= n {
			return a[n-1] + 1
		}
	}
}

func churnConfigs(p params) []loadgen.Config {
	var cfgs []loadgen.Config
	for _, arch := range arches {
		c := loadgen.Config{Cfg: gemsys.DefaultConfig(arch), Spec: fibSpec(), RPS: 20000,
			Seed: p.seed, KeepAlive: 0, MaxInstances: 16}
		c.Duration = window(c, p.churnPerArch)
		cfgs = append(cfgs, c)
	}
	return cfgs
}

func churnTrial(p params) outcome {
	reps, errs := loadgen.RunMany(churnConfigs(p), p.jobs)
	return churnOutcome(p, reps, errs)
}

// churnOutcome counts one op per invocation; an invocation that failed
// or whose reply failed the spec's check is a failed op.
func churnOutcome(p params, reps []*loadgen.Report, errs []error) outcome {
	var o outcome
	o.digest = digestOf(func(h hash.Hash) {
		for i, r := range reps {
			o.ops += p.churnPerArch
			if errs[i] != nil {
				o.failed += p.churnPerArch
				o.problem("load run %d: %v", i, errs[i])
				continue
			}
			if len(r.Invocations) != p.churnPerArch || r.ColdStarts+r.WarmStarts != uint64(len(r.Invocations)) {
				o.problem("load run %d: %d invocations, %d cold + %d warm starts, want %d",
					i, len(r.Invocations), r.ColdStarts, r.WarmStarts, p.churnPerArch)
			}
			bad := 0
			for _, iv := range r.Invocations {
				if iv.Failed || iv.CheckFailed {
					bad++
				}
			}
			o.failedOps(bad, "load run %d", i)
			io.WriteString(h, r.Table())
			io.WriteString(h, r.StatsText)
		}
	})
	return o
}

func churnTraced(p params, rec *recorder, last outcome) outcome {
	cfgs := churnConfigs(p)
	reps := make([]*loadgen.Report, len(cfgs))
	errs := make([]error, len(cfgs))
	// RunMany's shape: runs share one boot cache.
	cache := harness.NewBootCache()
	label := func(i int) string { return "load " + string(cfgs[i].Cfg.Arch) }
	rec.end(rec.trialSweep(len(cfgs), p.jobs, label, func(i, track, task int) {
		c := cfgs[i]
		c.Cache = cache
		rec.within("load.run", track, task, func() { reps[i], errs[i] = loadgen.Run(c) })
	}))
	o := churnOutcome(p, reps, errs)
	ops := make([]fleetOps, len(cfgs))
	for i, r := range reps {
		ops[i] = fleetOps{cfg: cfgs[i].Cfg, spec: cfgs[i].Spec}
		if r != nil {
			ops[i].acquires, ops[i].serves = int(r.ColdStarts), len(r.Invocations)
		}
	}
	probeFleets(ops, p.jobs, rec, &o)
	return o
}

func burstConfigs(p params) []autoscale.Config {
	var cfgs []autoscale.Config
	for _, pol := range autoscale.Policies() {
		c := autoscale.Config{Cfg: gemsys.DefaultConfig(isa.RV64), Spec: fibSpec(), RPS: 20000,
			Seed: p.seed, Arrival: loadgen.Bursty, Burst: 8, KeepAlive: 2_000_000, Policy: pol, Nodes: 2}
		c.Duration = window(loadgen.Config{RPS: c.RPS, Seed: c.Seed, Arrival: c.Arrival, Burst: c.Burst}, p.burstPerPolicy)
		cfgs = append(cfgs, c)
	}
	return cfgs
}

func burstTrial(p params) outcome {
	reps, errs := autoscale.RunMany(burstConfigs(p), p.jobs)
	return burstOutcome(p, reps, errs)
}

func burstOutcome(p params, reps []*autoscale.Report, errs []error) outcome {
	var o outcome
	o.digest = digestOf(func(h hash.Hash) {
		for i, r := range reps {
			o.ops += p.burstPerPolicy
			if errs[i] != nil {
				o.failed += p.burstPerPolicy
				o.problem("autoscale run %d: %v", i, errs[i])
				continue
			}
			if len(r.Invocations) != p.burstPerPolicy {
				o.problem("autoscale run %d: %d invocations, want %d", i, len(r.Invocations), p.burstPerPolicy)
			}
			bad := 0
			for _, iv := range r.Invocations {
				if iv.CheckFailed || iv.Done < iv.Arrive {
					bad++
				}
			}
			o.failedOps(bad, "autoscale run %d", i)
			io.WriteString(h, r.Table())
			io.WriteString(h, r.StatsText)
		}
	})
	return o
}

func burstTraced(p params, rec *recorder, last outcome) outcome {
	cfgs := burstConfigs(p)
	reps := make([]*autoscale.Report, len(cfgs))
	errs := make([]error, len(cfgs))
	cache := harness.NewBootCache()
	label := func(i int) string { return "autoscale " + cfgs[i].Policy.Name() }
	rec.end(rec.trialSweep(len(cfgs), p.jobs, label, func(i, track, task int) {
		c := cfgs[i]
		c.Cache = cache
		rec.within("load.run", track, task, func() { reps[i], errs[i] = autoscale.Run(c) })
	}))
	o := burstOutcome(p, reps, errs)
	ops := make([]fleetOps, len(cfgs))
	for i, r := range reps {
		ops[i] = fleetOps{cfg: cfgs[i].Cfg, spec: cfgs[i].Spec}
		if r != nil {
			ops[i].acquires, ops[i].serves = int(r.ScaleUps), len(r.Invocations)
		}
	}
	probeFleets(ops, p.jobs, rec, &o)
	return o
}

// fleetOps is one load run's fleet work: its machine and function, and
// how many cold starts and invocations the run reported.
type fleetOps struct {
	cfg              gemsys.Config
	spec             harness.Spec
	acquires, serves int
}

// probeFleets repeats each run's fleet operations outside its event loop
// — NewFleet, then as many Acquire (each followed by a cold Serve and,
// before the next Acquire, a Release) and warm Serve calls as the run
// reported — so the fleet's share of the run can be estimated and the
// rest attributed to the DES engine. The probe boots one fresh instance
// and recycles it; the run boots up to its pool peak fresh.
func probeFleets(ops []fleetOps, jobs int, rec *recorder, o *outcome) {
	root := rec.begin("probe", 0, -1)
	probeErrs := make([]error, len(ops))
	rec.each(len(ops), jobs, root, func(i int) string { return "fleet.probe" },
		func(i, track, task int) { probeErrs[i] = probeFleet(ops[i], rec) })
	rec.end(root)
	for i, err := range probeErrs {
		if err != nil {
			o.problem("fleet probe %d: %v", i, err)
		}
	}
}

func probeFleet(op fleetOps, rec *recorder) error {
	var boot, acquire, serve time.Duration
	var acquires, serves int
	defer func() {
		rec.add("fleet.boot_ns", float64(boot))
		rec.add("fleet.acquire_ns", float64(acquire))
		rec.add("fleet.serve_ns", float64(serve))
		rec.add("fleet.acquires", float64(acquires))
		rec.add("fleet.serves", float64(serves))
	}()
	t := time.Now()
	f, err := loadgen.NewFleet(op.cfg, op.spec, nil, nil)
	boot = time.Since(t)
	if err != nil {
		return err
	}
	var inst *loadgen.Instance
	for i := 0; i < max(op.acquires, op.serves); i++ {
		if i < op.acquires {
			if inst != nil {
				f.Release(inst)
			}
			t = time.Now()
			inst, err = f.Acquire()
			acquire += time.Since(t)
			if err != nil {
				return err
			}
			acquires++
		}
		if i < op.serves {
			t = time.Now()
			_, _, err = f.Serve(inst, i)
			serve += time.Since(t)
			if err != nil {
				return err
			}
			serves++
		}
	}
	return nil
}

// ---- cluster-fabric ----

func clusterConfigs(p params) []cluster.Config {
	var cfgs []cluster.Config
	for _, top := range cluster.Topologies() {
		for _, arch := range arches {
			cfgs = append(cfgs, cluster.Config{Topology: top, Arch: arch,
				Requests: p.clusterRequests, RPS: 2000, Seed: p.seed})
		}
	}
	return cfgs
}

func clusterTrial(p params) outcome {
	cfgs := clusterConfigs(p)
	reps, err := cluster.RunMany(cfgs, p.jobs)
	errs := make([]error, len(cfgs))
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
	}
	return clusterOutcome(cfgs, reps, errs)
}

// clusterOutcome counts one op per client request. RunMany reports only
// its first error, so an error fails every request of the trial.
func clusterOutcome(cfgs []cluster.Config, reps []*cluster.Report, errs []error) outcome {
	var o outcome
	o.digest = digestOf(func(h hash.Hash) {
		for i, c := range cfgs {
			o.ops += c.Requests
			if errs[i] != nil || reps == nil || reps[i] == nil {
				o.failed += c.Requests
				o.problem("cluster run %d: %v", i, errs[i])
				continue
			}
			r := reps[i]
			if len(r.Latencies) != c.Requests {
				o.problem("cluster run %d: %d latencies, want %d", i, len(r.Latencies), c.Requests)
			}
			bad := 0
			for _, l := range r.Latencies {
				if l == 0 {
					bad++
				}
			}
			o.failedOps(bad, "cluster run %d", i)
			io.WriteString(h, r.EventLog)
			io.WriteString(h, r.Table())
			io.WriteString(h, r.StatsText)
		}
	})
	return o
}

func clusterTraced(p params, rec *recorder, last outcome) outcome {
	cfgs := clusterConfigs(p)
	reps := make([]*cluster.Report, len(cfgs))
	errs := make([]error, len(cfgs))
	label := func(i int) string { return cfgs[i].Topology.Name + "/" + string(cfgs[i].Arch) }
	root := rec.trialSweep(len(cfgs), p.jobs, label, func(i, track, task int) {
		var f *cluster.Fabric
		rec.within("fabric.boot", track, task, func() { f, errs[i] = cluster.NewFabric(cfgs[i]) })
		if errs[i] != nil {
			return
		}
		rec.within("fabric.run", track, task, func() { reps[i], errs[i] = f.Run() })
		if reps[i] != nil {
			rec.add("fabric.insts", float64(reps[i].Instructions))
			rec.add("fabric.msgs", float64(reps[i].NetMsgs))
		}
	})
	rec.end(root)
	return clusterOutcome(cfgs, reps, errs)
}
