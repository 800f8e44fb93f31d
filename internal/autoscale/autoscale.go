// Package autoscale is the cluster-scale scheduling layer above the
// loadgen engine: a deterministic discrete-event simulation of N worker
// nodes with finite cores and memory, a best-fit bin-packing placer for
// function instances, and pluggable autoscaling policies (fixed fleet,
// Knative-style concurrency target, scale-to-zero, panic mode with
// hysteresis) reacting to the same seeded arrival processes loadgen
// replays.
//
// Every instance is still a real simulated machine — cold starts restore
// private clones of the memoized post-boot checkpoint through
// loadgen.Fleet, and service times are measured on the machine's virtual
// clock — but unlike loadgen's single keep-alive pool, capacity here is
// owned by the autoscaler: a reconcile loop observes in-flight plus
// queued concurrency at a fixed tick and scales the fleet toward the
// policy's desired count, placing new instances onto nodes with a
// best-fit packer and reclaiming idle ones whose keep-alive lease
// lapsed.
//
// Determinism is the same contract as loadgen and sweep: one run is a
// sequential DES whose every decision is a pure function of (config,
// seed). The event order at equal timestamps is completion, then
// instance-ready, then reconcile tick, then arrival — a freeing or
// booting instance can absorb work at the same instant, and the
// autoscaler observes the cluster before a same-tick arrival lands.
// RunMany parallelizes only across sweep points, so policy × RPS grids
// are byte-identical for any worker count. See docs/autoscale.md.
package autoscale

import (
	"fmt"
	"math"

	"svbench/internal/gemsys"
	"svbench/internal/harness"
	"svbench/internal/loadgen"
	"svbench/internal/sweep"
	"svbench/internal/trace"
)

// Defaults for zero-valued Config fields.
const (
	// DefaultNodes is the simulated worker-node count.
	DefaultNodes = 4
	// DefaultNodeCores is each node's core count; one running instance
	// occupies one core.
	DefaultNodeCores = 4
	// DefaultNodeMemMB is each node's memory in MB.
	DefaultNodeMemMB = 4096
	// DefaultInstMemMB is one instance's memory footprint in MB.
	DefaultInstMemMB = 512
	// DefaultTickNS is the reconcile period on the virtual clock: 50 µs,
	// a few warm service times — fine enough that a burst is observed
	// while its queue is still draining (a tick coarser than the drain
	// time would never see demand), far finer than keep-alive leases.
	DefaultTickNS = 50_000
	// DefaultSLO is the latency objective reports grade attainment
	// against: 100 µs virtual — generous for a warm fleet (tens of warm
	// service times) but unreachable for a request that waits out a full
	// cold-start boot, so a policy's churn shows up directly as misses.
	DefaultSLO = 100_000
	// DefaultKeepAlive is the idle lease before an instance becomes a
	// scale-down candidate (10 ms virtual, matching loadgen's default
	// keep-alive experiments).
	DefaultKeepAlive = 10_000_000
)

// Config describes one autoscaled cluster run.
type Config struct {
	// Cfg is the simulated machine configuration every instance boots
	// with (gemsys.DefaultConfig of an ISA).
	Cfg gemsys.Config
	// Spec is the function under load (harness catalog entry).
	Spec harness.Spec
	// RPS is the mean arrival rate in invocations per virtual second.
	RPS float64
	// Duration is the arrival window in virtual nanoseconds; completions
	// drain past it (open loop).
	Duration uint64
	// Seed drives the arrival process PRNG.
	Seed uint64
	// Arrival selects the arrival process (Poisson default).
	Arrival loadgen.Process
	// Burst is the Bursty process's batch size (0 = loadgen.DefaultBurst).
	Burst int

	// Nodes is the simulated worker-node count (0 = DefaultNodes).
	Nodes int
	// NodeCores is each node's core count (0 = DefaultNodeCores); one
	// running instance occupies one core.
	NodeCores int
	// NodeMemMB is each node's memory in MB (0 = DefaultNodeMemMB).
	NodeMemMB int
	// InstMemMB is one instance's memory footprint in MB
	// (0 = DefaultInstMemMB).
	InstMemMB int

	// Policy is the autoscaling strategy (nil = the concurrency-target
	// policy from the catalog).
	Policy Policy
	// TickNS is the reconcile period in virtual nanoseconds
	// (0 = DefaultTickNS).
	TickNS uint64
	// KeepAlive is the idle lease in virtual nanoseconds before an
	// instance becomes a scale-down candidate. Zero is meaningful (idle
	// instances are immediately reclaimable), so no default is resolved;
	// sweep builders wanting one use DefaultKeepAlive explicitly.
	KeepAlive uint64
	// SLO is the end-to-end latency objective in virtual nanoseconds
	// reports grade attainment against (0 = DefaultSLO).
	SLO uint64

	// Cache, when non-nil, memoizes post-boot checkpoints across runs
	// (RunMany shares one cache over all points of a sweep).
	Cache *harness.BootCache
}

// NodeCount is the effective worker-node count.
func (c Config) NodeCount() int {
	if c.Nodes <= 0 {
		return DefaultNodes
	}
	return c.Nodes
}

// CoresPerNode is the effective per-node core count.
func (c Config) CoresPerNode() int {
	if c.NodeCores <= 0 {
		return DefaultNodeCores
	}
	return c.NodeCores
}

// MemPerNode is the effective per-node memory in MB.
func (c Config) MemPerNode() int {
	if c.NodeMemMB <= 0 {
		return DefaultNodeMemMB
	}
	return c.NodeMemMB
}

// MemPerInstance is the effective per-instance memory footprint in MB.
func (c Config) MemPerInstance() int {
	if c.InstMemMB <= 0 {
		return DefaultInstMemMB
	}
	return c.InstMemMB
}

// Capacity is the cluster's instance capacity: per node, the smaller of
// core count and memory slots, summed over nodes.
func (c Config) Capacity() int {
	per := c.CoresPerNode()
	if slots := c.MemPerNode() / c.MemPerInstance(); slots < per {
		per = slots
	}
	return c.NodeCount() * per
}

// Tick is the effective reconcile period.
func (c Config) Tick() uint64 {
	if c.TickNS == 0 {
		return DefaultTickNS
	}
	return c.TickNS
}

// Objective is the effective latency SLO.
func (c Config) Objective() uint64 {
	if c.SLO == 0 {
		return DefaultSLO
	}
	return c.SLO
}

// ScalePolicy is the effective policy (the catalog's concurrency-target
// autoscaler when none is set).
func (c Config) ScalePolicy() Policy {
	if c.Policy == nil {
		return Concurrency{Label: "concurrency", Target: DefaultTarget, Min: 1}
	}
	return c.Policy
}

// node is one simulated worker's finite resources plus its lifetime
// accounting.
type node struct {
	cores     int
	memMB     int
	usedCores int
	usedMemMB int
	placed    uint64 // instances ever placed here
	busyNS    uint64 // integral of serving time across its instances
}

// place returns the best-fit node for an instance consuming one core and
// memMB of memory: among nodes it fits on, the one with the fewest free
// cores (ties: least free memory, then lowest index), or -1 when the
// cluster is full. Best-fit packs instances densely, so whole nodes
// drain to idle and utilization concentrates — the bin-packing shape
// real schedulers aim for.
func place(nodes []node, memMB int) int {
	best := -1
	for i := range nodes {
		n := &nodes[i]
		if n.usedCores+1 > n.cores || n.usedMemMB+memMB > n.memMB {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := &nodes[best]
		fc, fb := n.cores-n.usedCores, b.cores-b.usedCores
		if fc < fb || (fc == fb && n.memMB-n.usedMemMB < b.memMB-b.usedMemMB) {
			best = i
		}
	}
	return best
}

// Slot states: an instance is paying its cold-start boot, waiting warm,
// or serving.
const (
	stStarting = iota
	stIdle
	stBusy
)

// slot is one live instance's scheduling state.
type slot struct {
	inst      *loadgen.Instance
	node      int
	state     int
	readyAt   uint64 // starting: when the boot penalty has elapsed
	idleSince uint64 // idle: when it last went idle
	inv       int    // busy: invocation being served
	done      uint64 // busy: when the instance frees
	served    uint64 // invocations this slot has served
}

type engine struct {
	cfg Config
	// coreCap is the autoscaler's clamp: the core capacity it knows about
	// (nodes × cores). Memory pressure is the placer's to discover — a
	// desired count that fits core-wise but not memory-wise surfaces as
	// rejected placements, the way a real scheduler learns a cluster is
	// full.
	coreCap int
	tick    uint64
	slo     uint64

	fleet   *loadgen.Fleet
	scaler  Scaler
	nodes   []node
	slots   []*slot
	arrives []uint64
	invs    []Invocation
	queue   []int // invocation ids, FIFO

	tickIdx uint64
	inPanic bool

	// Counters registered into the stats registry.
	scaleUps      uint64
	scaleDowns    uint64
	churnColds    uint64
	rejected      uint64
	peak          uint64
	live          uint64
	maxQueue      uint64
	panicEntries  uint64
	panicExits    uint64
	ticks         uint64
	sloViolations uint64
	checkFailures uint64

	tracer *trace.Tracer
	reg    *trace.Registry
	latD   *trace.Dist
	waitD  *trace.Dist
	svcD   *trace.Dist
	coldD  *trace.Dist
}

// Run executes one autoscaled cluster run. The returned Report is a pure
// function of cfg: rerunning with the same config reproduces it
// byte-for-byte.
func Run(cfg Config) (*Report, error) {
	if cfg.Spec.Build == nil || cfg.Spec.Request == nil {
		return nil, fmt.Errorf("autoscale: config has no function spec")
	}
	// NaN fails every comparison, so test for the valid range.
	if !(cfg.RPS > 0) || math.IsInf(cfg.RPS, 1) {
		return nil, fmt.Errorf("autoscale: RPS must be positive and finite, got %g", cfg.RPS)
	}
	if cfg.Duration == 0 {
		return nil, fmt.Errorf("autoscale: duration must be positive")
	}
	if cfg.Nodes < 0 || cfg.NodeCores < 0 || cfg.NodeMemMB < 0 || cfg.InstMemMB < 0 {
		return nil, fmt.Errorf("autoscale: cluster dimensions must be >= 0")
	}
	if cfg.MemPerInstance() > cfg.MemPerNode() {
		return nil, fmt.Errorf("autoscale: instance memory %d MB exceeds node memory %d MB",
			cfg.MemPerInstance(), cfg.MemPerNode())
	}

	e := &engine{
		cfg:     cfg,
		coreCap: cfg.NodeCount() * cfg.CoresPerNode(),
		tick:    cfg.Tick(),
		slo:     cfg.Objective(),
		scaler:  cfg.ScalePolicy().New(),
	}
	e.nodes = make([]node, cfg.NodeCount())
	for i := range e.nodes {
		e.nodes[i] = node{cores: cfg.CoresPerNode(), memMB: cfg.MemPerNode()}
	}
	e.arrives = loadgen.Arrivals(loadgen.Config{
		RPS: cfg.RPS, Duration: cfg.Duration, Seed: cfg.Seed,
		Arrival: cfg.Arrival, Burst: cfg.Burst,
	})
	e.invs = make([]Invocation, len(e.arrives))
	// Arrive/run/done plus scale and panic markers; ticks add at most one
	// panic transition each, so size for the worst case.
	e.tracer = trace.NewTracer(8*len(e.arrives) + 4096)
	e.initRegistry()

	f, err := loadgen.NewFleet(cfg.Cfg, cfg.Spec, cfg.Cache, nil)
	if err != nil {
		return nil, err
	}
	e.fleet = f
	if err := e.simulate(); err != nil {
		return nil, err
	}
	return e.report()
}

// RunMany executes one run per config across a worker pool of jobs
// workers (0 = sweep.DefaultJobs()); configs without their own Cache
// share one, so all points of a policy × RPS sweep boot each fingerprint
// once. Reports come back in config order and each is byte-identical to
// a solo Run of the same config.
func RunMany(cfgs []Config, jobs int) ([]*Report, []error) {
	shared := harness.NewBootCache()
	reports := make([]*Report, len(cfgs))
	errs := make([]error, len(cfgs))
	sweep.Each(len(cfgs), jobs, func(i int) {
		c := cfgs[i]
		if c.Cache == nil {
			c.Cache = shared
		}
		reports[i], errs[i] = Run(c)
	})
	return reports, errs
}

func (e *engine) initRegistry() {
	r := trace.NewRegistry()
	e.reg = r
	e.latD = r.NewDist("autoscale.latencyNS", "end-to-end invocation latency (virtual ns)")
	e.waitD = r.NewDist("autoscale.waitNS", "arrival-to-service wait (queueing + boot readiness, virtual ns)")
	e.svcD = r.NewDist("autoscale.serviceNS", "on-instance service time (virtual ns)")
	e.coldD = r.NewDist("autoscale.coldPenaltyNS", "cold-start boot penalty (virtual ns)")
	r.Counter("autoscale.scaleUps", "instances the autoscaler started", &e.scaleUps)
	r.Counter("autoscale.scaleDowns", "idle instances the autoscaler reclaimed", &e.scaleDowns)
	r.Counter("autoscale.churnColdStarts", "post-peak scale-ups refilling reclaimed capacity", &e.churnColds)
	r.Counter("autoscale.rejectedScaleUps", "scale-up decisions the full cluster could not place", &e.rejected)
	r.Counter("autoscale.peakInstances", "fleet high-water mark", &e.peak)
	r.Counter("autoscale.maxQueueDepth", "deepest FIFO backlog awaiting capacity", &e.maxQueue)
	r.Counter("autoscale.panicEntries", "panic-mode entries", &e.panicEntries)
	r.Counter("autoscale.panicExits", "panic-mode exits", &e.panicExits)
	r.Counter("autoscale.ticks", "reconcile invocations (periodic + activator kicks)", &e.ticks)
	r.Counter("autoscale.sloViolations", "invocations finishing beyond the SLO", &e.sloViolations)
	r.Counter("autoscale.checkFailures", "responses failing the spec's check", &e.checkFailures)
	r.Func("autoscale.invocations", "arrivals replayed against the cluster", func() uint64 {
		return uint64(len(e.arrives))
	})
	r.Func("autoscale.capacity", "cluster instance capacity", func() uint64 {
		return uint64(e.cfg.Capacity())
	})
}

// counts tallies slots by state.
func (e *engine) counts() (starting, idle, busy int) {
	for _, s := range e.slots {
		switch s.state {
		case stStarting:
			starting++
		case stIdle:
			idle++
		case stBusy:
			busy++
		}
	}
	return
}

// simulate runs the discrete-event loop. The tie-break at equal
// timestamps is completions first (a freeing instance can absorb work at
// the same instant), then instance-ready (a booted instance can too),
// then reconcile ticks (the autoscaler observes the cluster before a
// same-instant arrival lands), then arrivals.
func (e *engine) simulate() error {
	next := 0
	for {
		starting, _, busy := e.counts()
		if next >= len(e.arrives) && starting == 0 && busy == 0 && len(e.queue) == 0 {
			return nil
		}
		inf := ^uint64(0)
		ct, rt, at := inf, inf, inf
		ci, ri := -1, -1
		for i, s := range e.slots {
			switch s.state {
			case stBusy:
				if ci < 0 || s.done < ct || (s.done == ct && s.inv < e.slots[ci].inv) {
					ci, ct = i, s.done
				}
			case stStarting:
				if ri < 0 || s.readyAt < rt || (s.readyAt == rt && s.inst.ID < e.slots[ri].inst.ID) {
					ri, rt = i, s.readyAt
				}
			}
		}
		tt := e.tickIdx * e.tick
		if next < len(e.arrives) {
			at = e.arrives[next]
		}
		switch {
		case ci >= 0 && ct <= rt && ct <= tt && ct <= at:
			if err := e.complete(e.slots[ci], ct); err != nil {
				return err
			}
		case ri >= 0 && rt <= tt && rt <= at:
			if err := e.ready(e.slots[ri], rt); err != nil {
				return err
			}
		case tt <= at:
			e.tickIdx++
			if err := e.reconcile(tt); err != nil {
				return err
			}
		default:
			id := next
			next++
			if err := e.arrive(id, at); err != nil {
				return err
			}
		}
	}
}

// arrive admits one invocation: served immediately on a warm instance
// when one is idle, otherwise queued FIFO — and if nothing is live or
// booting, the queued arrival kicks an immediate reconcile (the
// activator path that wakes a scaled-to-zero fleet).
func (e *engine) arrive(id int, now uint64) error {
	e.invs[id].ID = id
	e.invs[id].Arrive = now
	e.tracer.EmitAt(trace.EvInvokeArrive, 0, now, 0, uint64(id), 0)
	if s := e.takeIdle(); s != nil {
		return e.serve(s, id, now)
	}
	e.queue = append(e.queue, id)
	if uint64(len(e.queue)) > e.maxQueue {
		e.maxQueue = uint64(len(e.queue))
	}
	if len(e.slots) == 0 {
		return e.reconcile(now)
	}
	return nil
}

// takeIdle returns the idle slot that went idle most recently (ties:
// lowest instance id) — MRU, the same warm-pool policy loadgen applies —
// or nil when none is idle. The caller flips it busy via serve.
func (e *engine) takeIdle() *slot {
	var best *slot
	for _, s := range e.slots {
		if s.state != stIdle {
			continue
		}
		if best == nil || s.idleSince > best.idleSince ||
			(s.idleSince == best.idleSince && s.inst.ID < best.inst.ID) {
			best = s
		}
	}
	return best
}

// serve drives invocation id through s's machine starting at now.
func (e *engine) serve(s *slot, id int, now uint64) error {
	svc, checkFailed, err := e.fleet.Serve(s.inst, id)
	if err != nil {
		return err
	}
	iv := &e.invs[id]
	iv.Node = s.node
	iv.Instance = s.inst.ID
	iv.Start = now
	iv.Wait = now - iv.Arrive
	iv.Service = svc
	if checkFailed {
		iv.CheckFailed = true
		e.checkFailures++
	}
	if s.served == 0 {
		// First serve after the cold start: the boot penalty this
		// invocation (or the scaler, when it booted ahead of demand)
		// waited out.
		iv.Cold = true
		iv.ColdPenalty = s.inst.Penalty
	}
	s.served++
	s.state = stBusy
	s.inv = id
	s.done = now + svc
	e.nodes[s.node].busyNS += svc
	e.tracer.EmitAt(trace.EvInvokeRun, uint8(s.inst.ID), now, 0, uint64(id), svc)
	return nil
}

// complete retires one invocation: the instance idles from the
// completion instant and immediately absorbs the queue head, if any.
func (e *engine) complete(s *slot, now uint64) error {
	iv := &e.invs[s.inv]
	iv.Done = now
	iv.Latency = now - iv.Arrive
	e.observe(iv)
	e.tracer.EmitAt(trace.EvInvokeDone, 0, now, 0, uint64(iv.ID), iv.Latency)
	s.state = stIdle
	s.idleSince = now
	if len(e.queue) > 0 {
		id := e.queue[0]
		e.queue = e.queue[1:]
		return e.serve(s, id, now)
	}
	return nil
}

// ready transitions a booted instance to idle and immediately absorbs
// the queue head, if any.
func (e *engine) ready(s *slot, now uint64) error {
	s.state = stIdle
	s.idleSince = now
	if len(e.queue) > 0 {
		id := e.queue[0]
		e.queue = e.queue[1:]
		return e.serve(s, id, now)
	}
	return nil
}

// observe records one invocation's final metrics.
func (e *engine) observe(iv *Invocation) {
	e.latD.Observe(iv.Latency)
	e.waitD.Observe(iv.Wait)
	e.svcD.Observe(iv.Service)
	if iv.Cold {
		e.coldD.Observe(iv.ColdPenalty)
	}
	if iv.Latency > e.slo {
		e.sloViolations++
	} else {
		iv.SLOOk = true
	}
}

// reconcile is one autoscaler invocation: observe the cluster, ask the
// policy for a desired count, and scale toward it — up through the
// bin-packing placer, down by reclaiming lease-expired idle instances.
func (e *engine) reconcile(now uint64) error {
	e.ticks++
	starting, idle, busy := e.counts()
	obs := Observation{
		Now: now, Ready: idle + busy, Starting: starting,
		Busy: busy, Queued: len(e.queue),
	}
	desired := e.scaler.Desired(obs)
	if p, ok := e.scaler.(Panicker); ok {
		if in := p.InPanic(); in != e.inPanic {
			e.inPanic = in
			if in {
				e.panicEntries++
				e.tracer.EmitAt(trace.EvPanicMode, 0, now, 0, 1, 0)
			} else {
				e.panicExits++
				e.tracer.EmitAt(trace.EvPanicMode, 0, now, 0, 0, 0)
			}
		}
	}
	if desired < 0 {
		desired = 0
	}
	if obs.Demand() > 0 && desired < 1 {
		// Liveness floor: pending work must always pull at least one
		// instance, whatever the policy says.
		desired = 1
	}
	if desired > e.coreCap {
		desired = e.coreCap
	}
	live := len(e.slots)
	if desired > live {
		return e.scaleUp(desired-live, now)
	}
	if desired < live {
		e.scaleDown(live-desired, now)
	}
	return nil
}

// scaleUp cold-starts n instances: each is placed best-fit onto a node,
// restored from the master checkpoint, and becomes ready once its boot
// penalty elapses. A full cluster rejects the remainder (counted, not
// queued — the demand stays visible to the next tick).
func (e *engine) scaleUp(n int, now uint64) error {
	for i := 0; i < n; i++ {
		nd := place(e.nodes, e.cfg.MemPerInstance())
		if nd < 0 {
			e.rejected += uint64(n - i)
			return nil
		}
		inst, err := e.fleet.Acquire()
		if err != nil {
			return err
		}
		e.nodes[nd].usedCores++
		e.nodes[nd].usedMemMB += e.cfg.MemPerInstance()
		e.nodes[nd].placed++
		s := &slot{inst: inst, node: nd, state: stStarting, readyAt: now + inst.Penalty}
		e.slots = append(e.slots, s)
		e.scaleUps++
		e.live++
		if e.live > e.peak {
			e.peak = e.live
		} else {
			// Refilling capacity a scale-down reclaimed earlier: churn.
			e.churnColds++
		}
		e.tracer.EmitAt(trace.EvColdStart, uint8(inst.ID), now, 0, uint64(inst.ID), inst.Penalty)
		e.tracer.EmitAt(trace.EvScaleUp, uint8(nd), now, 0, uint64(inst.ID), uint64(nd))
	}
	return nil
}

// leaseEnd is when an idle slot becomes a scale-down candidate
// (overflow-safe: a huge keep-alive never expires).
func (e *engine) leaseEnd(s *slot) uint64 {
	end := s.idleSince + e.cfg.KeepAlive
	if end < s.idleSince {
		return ^uint64(0)
	}
	return end
}

// scaleDown reclaims up to n idle instances whose keep-alive lease ended
// at or before now, longest-idle first (ties: lowest instance id).
// Busy and starting slots are never torn down.
func (e *engine) scaleDown(n int, now uint64) {
	for ; n > 0; n-- {
		victim := -1
		for i, s := range e.slots {
			if s.state != stIdle || e.leaseEnd(s) > now {
				continue
			}
			if victim < 0 || s.idleSince < e.slots[victim].idleSince ||
				(s.idleSince == e.slots[victim].idleSince && s.inst.ID < e.slots[victim].inst.ID) {
				victim = i
			}
		}
		if victim < 0 {
			return
		}
		s := e.slots[victim]
		e.slots = append(e.slots[:victim], e.slots[victim+1:]...)
		e.nodes[s.node].usedCores--
		e.nodes[s.node].usedMemMB -= e.cfg.MemPerInstance()
		e.scaleDowns++
		e.live--
		e.fleet.Release(s.inst)
		e.tracer.EmitAt(trace.EvInstReclaim, uint8(s.inst.ID), now, 0, uint64(s.inst.ID), 0)
		e.tracer.EmitAt(trace.EvScaleDown, uint8(s.node), now, 0, uint64(s.inst.ID), uint64(s.node))
	}
}
