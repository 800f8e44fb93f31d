package figures

import (
	"fmt"
	"strings"

	"svbench/internal/isa"
	"svbench/internal/sweep"
)

// ReportOpts selects which optional studies join the evaluation report.
type ReportOpts struct {
	// Jobs is the worker count of every study ReportData runs in
	// parallel: Fig. 4.20's emulation runs, the image builds of Tables
	// 4.4 and 4.5, and the load, scenario, cluster and autoscale
	// studies. 0 means sweep.DefaultJobs(), as for SweepOpts.Jobs; the
	// report is identical for every value.
	Jobs int
	// Requests per function in the emulation study (fig 4.20); 0 means 6.
	Requests int
	// SkipEmulation leaves out fig 4.20 (the slowest study).
	SkipEmulation bool
	// Chaos adds the fault-injection/recovery table, driven by ChaosSeed.
	Chaos     bool
	ChaosSeed uint64
	// Load adds the open-loop load study (throughput-vs-tail-latency
	// curve and cold-start-vs-keep-alive table), driven by LoadSeed.
	Load     bool
	LoadSeed uint64
	// Scenarios adds the chaos-scenario SLO matrix (scenario × arch),
	// driven by ScenarioSeed.
	Scenarios    bool
	ScenarioSeed uint64
	// Cluster adds the multi-machine fabric table (topology × arch),
	// driven by ClusterSeed.
	Cluster     bool
	ClusterSeed uint64
	// Autoscale adds the cluster-autoscaling policy × RPS matrix, driven
	// by AutoscaleSeed.
	Autoscale     bool
	AutoscaleSeed uint64
	// Sampling adds the sampled-vs-full CPI error table (SMARTS-style
	// sampled detailed simulation, docs/perf.md).
	Sampling bool
	// Log receives progress lines from the chaos study; may be nil.
	Log func(string)
}

// ReportData assembles the full ordered list of figures and tables for
// the evaluation report: the sweep projections from res plus the
// static/emulation tables selected by opt.
func ReportData(res *Results, opt ReportOpts) ([]Data, error) {
	if opt.Jobs != 0 {
		if err := sweep.ValidateJobs(opt.Jobs); err != nil {
			return nil, fmt.Errorf("figures: %w", err)
		}
	}
	all := []Data{Table41(),
		res.Fig44(), res.Fig45(), res.Fig46(), res.Fig47(), res.Fig48(), res.Fig49(),
		res.Fig410(), res.Fig411(), res.Fig412(), res.Fig413(), res.Fig414(),
		res.Fig415(), res.Fig416(), res.Fig417(), res.Fig418(), res.Fig419(),
		res.TableMPKI()}
	if !opt.SkipEmulation {
		nreq := opt.Requests
		if nreq == 0 {
			nreq = 6
		}
		f420, err := fig420(nreq, opt.Jobs)
		if err != nil {
			return nil, err
		}
		all = append(all, f420)
	}
	t44, err := table44(opt.Jobs)
	if err != nil {
		return nil, err
	}
	t45, err := table45(opt.Jobs)
	if err != nil {
		return nil, err
	}
	all = append(all, t44, t45)
	if opt.Chaos {
		tc, err := TableChaos(opt.ChaosSeed, opt.Log)
		if err != nil {
			return nil, err
		}
		all = append(all, tc)
	}
	if opt.Load {
		curve, err := LoadCurve(isa.RV64, opt.LoadSeed, opt.Jobs)
		if err != nil {
			return nil, err
		}
		ka, err := LoadKeepAlive(isa.RV64, opt.LoadSeed, opt.Jobs)
		if err != nil {
			return nil, err
		}
		all = append(all, curve, ka)
	}
	if opt.Scenarios {
		ts, err := TableScenarios([]isa.Arch{isa.RV64, isa.CISC64}, opt.ScenarioSeed, opt.Jobs, opt.Log)
		if err != nil {
			return nil, err
		}
		all = append(all, ts)
	}
	if opt.Cluster {
		tc, err := TableCluster([]isa.Arch{isa.RV64, isa.CISC64}, opt.ClusterSeed, opt.Jobs, opt.Log)
		if err != nil {
			return nil, err
		}
		all = append(all, tc)
	}
	if opt.Autoscale {
		ta, err := TableAutoscale(isa.RV64, opt.AutoscaleSeed, opt.Jobs, opt.Log)
		if err != nil {
			return nil, err
		}
		all = append(all, ta)
	}
	if opt.Sampling {
		ts, err := TableSampling([]isa.Arch{isa.RV64, isa.CISC64}, opt.Log)
		if err != nil {
			return nil, err
		}
		all = append(all, ts)
	}
	return all, nil
}

// Render produces the markdown evaluation report from an assembled data
// list, appending the failure section when the sweep recorded failures.
// Its output is a pure function of res and all: byte-identical across
// worker counts and memoization settings.
func Render(res *Results, all []Data) string {
	var sb strings.Builder
	sb.WriteString("# Evaluation figures and tables (regenerated)\n\n")
	sb.WriteString("Cache-miss rates (MPKI) and all per-core counters come from the\n" +
		"tracing and stats subsystem — see [docs/tracing.md](tracing.md).\n\n")
	for _, d := range all {
		sb.WriteString(d.Markdown())
		sb.WriteString("\n")
	}
	if len(res.Failures) > 0 {
		sb.WriteString("## Failed experiments\n\n")
		for _, f := range res.Failures {
			fmt.Fprintf(&sb, "- %v\n", f)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
