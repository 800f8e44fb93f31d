package autoscale

import (
	"fmt"
	"strings"

	"svbench/internal/loadgen"
	"svbench/internal/trace"
)

// Invocation is one request's lifecycle through the cluster. All times
// are virtual nanoseconds; Latency = Wait + Service, where Wait covers
// FIFO queueing plus any cold-start boot the request waited out.
type Invocation struct {
	ID          int
	Node        int    // node of the serving instance
	Instance    int    // fleet id of the serving instance
	Arrive      uint64 // entered the system
	Start       uint64 // began executing
	Done        uint64 // completed
	Wait        uint64 // Start - Arrive (queueing + boot readiness)
	Service     uint64 // on-instance execution time
	Latency     uint64 // Done - Arrive
	Cold        bool   // first invocation served after a cold start
	ColdPenalty uint64 // that cold start's boot penalty
	CheckFailed bool   // reply failed the spec's check
	SLOOk       bool   // Latency within the configured objective
}

// NodeStats is one simulated worker's lifetime accounting.
type NodeStats struct {
	// Placed counts instances ever placed on the node.
	Placed uint64
	// BusyNS is the integral of serving time across its instances.
	BusyNS uint64
	// Utilization is BusyNS over the node's core-time (cores × makespan).
	Utilization float64
}

// Report is one autoscaled run's complete result. Every field —
// including the rendered table, stats text and trace JSON — is a pure
// function of the run's Config.
type Report struct {
	Cfg         Config
	Invocations []Invocation
	Nodes       []NodeStats

	ScaleUps        uint64 // instances the autoscaler started (= cold starts)
	ScaleDowns      uint64 // idle instances reclaimed
	ChurnColdStarts uint64 // post-peak scale-ups refilling reclaimed capacity
	RejectedPlaces  uint64 // scale-up decisions the full cluster could not place
	PeakInstances   uint64
	MaxQueueDepth   uint64
	PanicEntries    uint64
	PanicExits      uint64
	Ticks           uint64 // reconcile invocations (periodic + activator kicks)
	CheckFailures   uint64

	Latency loadgen.Pcts
	Wait    loadgen.Pcts
	Service loadgen.Pcts

	// SLOAttainment is the fraction of invocations finishing within the
	// objective; ColdAmplification is scale-ups per peak instance — how
	// many cold starts the policy paid for each instance of capacity it
	// ever held (1.0 = every instance booted exactly once); ChurnColdRate
	// is the fraction of scale-ups that merely refilled reclaimed
	// capacity; MeanUtilization is cluster-wide busy time over total
	// core-time.
	SLOAttainment     float64
	ColdAmplification float64
	ChurnColdRate     float64
	MeanUtilization   float64

	// Makespan is the last completion's timestamp; Throughput is
	// completions per virtual second over it.
	Makespan   uint64
	Throughput float64

	// StatsText is the run's stats-registry dump. Events holds the trace
	// records, scale-up/scale-down/panic events on the autoscaler track
	// included, which TraceJSON renders; TraceDropped counts ring
	// overwrites.
	StatsText    string
	Events       []trace.Event
	TraceDropped uint64
}

// TraceJSON renders the run's events as a Chrome/Perfetto trace.
func (r *Report) TraceJSON() ([]byte, error) {
	return trace.ChromeJSON(r.Events, nil, r.TraceDropped)
}

// report assembles the Report after the event loop drains.
func (e *engine) report() *Report {
	label := fmt.Sprintf("%s autoscale (%s)", e.cfg.Spec.Name, e.cfg.Cfg.Arch)
	r := &Report{
		Cfg:             e.cfg,
		Invocations:     e.invs,
		ScaleUps:        e.scaleUps,
		ScaleDowns:      e.scaleDowns,
		ChurnColdStarts: e.churnColds,
		RejectedPlaces:  e.rejected,
		PeakInstances:   e.peak,
		MaxQueueDepth:   e.maxQueue,
		PanicEntries:    e.panicEntries,
		PanicExits:      e.panicExits,
		Ticks:           e.ticks,
		CheckFailures:   e.checkFailures,
		StatsText:       e.reg.Text(label),
		Events:          e.tracer.Events(),
		TraceDropped:    e.tracer.Dropped,
	}

	lat := make([]uint64, 0, len(e.invs))
	wait := make([]uint64, 0, len(e.invs))
	svc := make([]uint64, 0, len(e.invs))
	sloOK := 0
	for i := range e.invs {
		iv := &e.invs[i]
		lat = append(lat, iv.Latency)
		wait = append(wait, iv.Wait)
		svc = append(svc, iv.Service)
		if iv.SLOOk {
			sloOK++
		}
		if iv.Done > r.Makespan {
			r.Makespan = iv.Done
		}
	}
	r.Latency = loadgen.Percentiles(lat)
	r.Wait = loadgen.Percentiles(wait)
	r.Service = loadgen.Percentiles(svc)
	if n := len(e.invs); n > 0 {
		r.SLOAttainment = float64(sloOK) / float64(n)
	}
	if e.scaleUps > 0 {
		r.ChurnColdRate = float64(e.churnColds) / float64(e.scaleUps)
	}
	if e.peak > 0 {
		r.ColdAmplification = float64(e.scaleUps) / float64(e.peak)
	}
	if r.Makespan > 0 {
		r.Throughput = float64(len(e.invs)) * 1e9 / float64(r.Makespan)
		var busy, coreTime uint64
		r.Nodes = make([]NodeStats, len(e.nodes))
		for i := range e.nodes {
			n := &e.nodes[i]
			r.Nodes[i] = NodeStats{Placed: n.placed, BusyNS: n.busyNS}
			ct := uint64(n.cores) * r.Makespan
			if ct > 0 {
				r.Nodes[i].Utilization = float64(n.busyNS) / float64(ct)
			}
			busy += n.busyNS
			coreTime += ct
		}
		if coreTime > 0 {
			r.MeanUtilization = float64(busy) / float64(coreTime)
		}
	}
	return r
}

// Table renders the run's deterministic summary: configuration echo,
// scaling activity, SLO attainment, per-node utilization, and a
// percentile row per metric. Same config, same bytes.
func (r *Report) Table() string {
	var sb strings.Builder
	c := r.Cfg
	fmt.Fprintf(&sb, "== autoscale: %s on %s, policy %s ==\n", c.Spec.Name, c.Cfg.Arch, c.ScalePolicy().Name())
	fmt.Fprintf(&sb, "arrival      %s, %.1f rps over %.3f ms window (seed %d", c.Arrival, c.RPS, float64(c.Duration)/1e6, c.Seed)
	if c.Arrival == loadgen.Bursty {
		burst := c.Burst
		if burst <= 0 {
			burst = loadgen.DefaultBurst
		}
		fmt.Fprintf(&sb, ", burst %d", burst)
	}
	sb.WriteString(")\n")
	fmt.Fprintf(&sb, "cluster      %d nodes x %d cores, %d MB each; %d MB instances (capacity %d)\n",
		c.NodeCount(), c.CoresPerNode(), c.MemPerNode(), c.MemPerInstance(), c.Capacity())
	fmt.Fprintf(&sb, "autoscaler   tick %.3f ms, keep-alive %.3f ms, SLO %.3f ms\n",
		float64(c.Tick())/1e6, float64(c.KeepAlive)/1e6, float64(c.Objective())/1e6)
	fmt.Fprintf(&sb, "invocations  %d (%d check failures)\n", len(r.Invocations), r.CheckFailures)
	fmt.Fprintf(&sb, "scaling      %d ups (%d churn), %d downs, %d rejected; peak %d instances, max queue %d, %d ticks\n",
		r.ScaleUps, r.ChurnColdStarts, r.ScaleDowns, r.RejectedPlaces, r.PeakInstances, r.MaxQueueDepth, r.Ticks)
	if r.PanicEntries > 0 || r.PanicExits > 0 {
		fmt.Fprintf(&sb, "panic        %d entries, %d exits\n", r.PanicEntries, r.PanicExits)
	}
	fmt.Fprintf(&sb, "slo          %.2f%% within objective, cold amplification %.2f, churn cold rate %.2f\n",
		100*r.SLOAttainment, r.ColdAmplification, r.ChurnColdRate)
	for i, n := range r.Nodes {
		fmt.Fprintf(&sb, "node%-8d placed %d, busy %.3f ms, util %.1f%%\n", i, n.Placed, float64(n.BusyNS)/1e6, 100*n.Utilization)
	}
	fmt.Fprintf(&sb, "makespan     %.3f ms virtual, throughput %.1f rps, mean util %.1f%%\n",
		float64(r.Makespan)/1e6, r.Throughput, 100*r.MeanUtilization)
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "%-13s %12s %12s %12s %14s %12s\n", "metric (ns)", "p50", "p95", "p99", "mean", "max")
	row := func(name string, p loadgen.Pcts) {
		fmt.Fprintf(&sb, "%-13s %12d %12d %12d %14.1f %12d\n", name, p.P50, p.P95, p.P99, p.Mean, p.Max)
	}
	row("latency", r.Latency)
	row("wait", r.Wait)
	row("service", r.Service)
	return sb.String()
}
