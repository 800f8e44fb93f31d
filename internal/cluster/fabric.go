package cluster

import (
	"fmt"
	"math"
	"strings"

	"svbench/internal/db"
	"svbench/internal/des"
	"svbench/internal/faults"
	"svbench/internal/gemsys"
	"svbench/internal/ir"
	"svbench/internal/isa"
	"svbench/internal/langrt"
	"svbench/internal/libc"
	"svbench/internal/trace"
	"svbench/internal/vswarm"
)

// Config parameterizes one fabric run.
type Config struct {
	Topology Topology
	Arch     isa.Arch
	// Requests is the number of client requests to drive through the
	// frontend; RPS their Poisson arrival rate.
	Requests int
	RPS      float64
	Seed     uint64
	// QuantumNS bounds how far one machine runs ahead of the global
	// clock in a single scheduling step (0 = DefaultQuantumNS).
	QuantumNS uint64
	// TraceEvents sizes the fabric's event ring (0 = derived from
	// Requests).
	TraceEvents int
}

// DefaultQuantumNS is the fabric scheduling quantum: the same order of
// magnitude as a link latency, so a machine never runs further ahead of
// its peers than one network hop hides.
const DefaultQuantumNS = 20_000

// bootBudget bounds each machine's host-driven boot (runtime init up to
// the ready handshake); runBudgetPerReq scales the whole-run instruction
// guard with the request count.
const (
	bootBudget      = 600_000_000
	runBudgetBase   = 2_000_000_000
	runBudgetPerReq = 200_000_000
)

// evKind discriminates fabric events.
type evKind uint8

const (
	evArrive  evKind = iota // client request enters the fabric
	evDeliver               // message reaches its destination machine
	evResume                // a machine's expired quantum continues
)

// event is one entry of the global DES queue. Every event is pushed with
// one class and id, so ties on time break by push order, making pop
// order fully deterministic.
type event struct {
	kind    evKind
	src     int // sending node; -1 = client
	dst     int // destination node; -1 = client
	ch      int // destination channel on dst (deliver into a node)
	respTo  int // requests: resp channel back on src; -1 otherwise
	reqID   int // client request id; -1 otherwise
	payload []byte
	msgID   uint64
	netNS   uint64 // queue + tx + latency the message spent in flight
}

// dep is one resolved remote dependency of a node: the target node and
// the local request/response channel pair bound to it.
type dep struct {
	target    int
	req, resp int
}

// caller is one pending request a node owes a reply to, in arrival
// order. Replies drain this queue FIFO — matching the serial serve loop
// of every guest server.
type caller struct {
	src    int // -1 = client
	respTo int
	reqID  int
}

// outMsg is one message a guest committed to a remote-bound channel
// during its last run, stamped with the machine-local commit time.
type outMsg struct {
	ch      int
	payload []byte
	stamp   uint64 // machine-local VirtNS at commit
	delay   uint64 // fault-injection delay carried from the kernel
}

// node is one booted machine of the fabric.
type node struct {
	idx     int
	spec    ServiceSpec
	m       *gemsys.Machine
	ingress int
	egress  int
	deps    []dep
	byReqCh map[int]dep
	epoch   uint64 // machine-local VirtNS at global time zero
	parked  bool   // quantum expired with runnable work; resume queued
	callers []caller
	outbox  []outMsg
}

type linkKey struct{ src, dst int }

type linkState struct {
	Link
	busyUntil uint64
}

// Fabric couples the machines of one topology under a single global
// virtual clock. All methods are single-goroutine; determinism comes
// from the (time, sequence)-ordered event queue and per-link FIFO state.
type Fabric struct {
	cfg       Config
	top       Topology
	quantum   uint64
	nodes     []*node
	frontend  int
	links     map[linkKey]*linkState
	overrides map[linkKey]Link

	events des.Queue[event]
	msgSeq uint64

	arrivals []uint64
	started  []uint64
	lats     []uint64
	done     int

	booting   bool
	bootReady int

	log    strings.Builder
	tracer *trace.Tracer
	reg    *trace.Registry

	// registered counters
	nMsgs, nBytes, nDeliveries, nDone, instr uint64
	latD, queueD, transitD                   *trace.Dist
}

func newStore(engine string) (db.Store, error) {
	switch engine {
	case "mongodb":
		return db.NewMongo(), nil
	case "mariadb":
		return db.NewMariaDB(), nil
	case "cassandra":
		return db.NewCassandra(db.CassandraConfig{}), nil
	case "memcached":
		return db.NewMemcached(db.MemcachedConfig{}), nil
	}
	return nil, fmt.Errorf("cluster: unknown datastore engine %q", engine)
}

// NewFabric validates the topology, boots every machine to its ready
// state, and aligns the machines' local clocks on global time zero.
func NewFabric(cfg Config) (*Fabric, error) {
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("cluster: Requests must be positive")
	}
	// NaN fails every comparison, so test for the valid range.
	if !(cfg.RPS > 0) || math.IsInf(cfg.RPS, 1) {
		return nil, fmt.Errorf("cluster: RPS must be positive and finite, got %g", cfg.RPS)
	}
	f := &Fabric{
		cfg:       cfg,
		top:       cfg.Topology,
		quantum:   cfg.QuantumNS,
		frontend:  cfg.Topology.service(cfg.Topology.Frontend),
		links:     map[linkKey]*linkState{},
		overrides: map[linkKey]Link{},
	}
	if f.quantum == 0 {
		f.quantum = DefaultQuantumNS
	}
	capEvents := cfg.TraceEvents
	if capEvents == 0 {
		capEvents = 4096 + 256*cfg.Requests
	}
	f.tracer = trace.NewTracer(capEvents)
	f.reg = trace.NewRegistry()
	f.reg.Counter("cluster.net.msgs", "messages committed to fabric links", &f.nMsgs)
	f.reg.Counter("cluster.net.bytes", "payload bytes across fabric links", &f.nBytes)
	f.reg.Counter("cluster.net.deliveries", "messages delivered to machines", &f.nDeliveries)
	f.reg.Counter("cluster.requests.done", "client requests completed", &f.nDone)
	f.reg.Counter("cluster.instructions", "guest instructions executed across all machines", &f.instr)
	f.latD = f.reg.NewDist("cluster.latencyNS", "end-to-end client request latency")
	f.queueD = f.reg.NewDist("cluster.net.queueNS", "per-message link queueing delay")
	f.transitD = f.reg.NewDist("cluster.net.transitNS", "per-message queue+tx+latency time in flight")
	for _, l := range f.top.Links {
		f.overrides[linkKey{f.endpoint(l.Src), f.endpoint(l.Dst)}] = l.Link
	}
	if err := f.build(); err != nil {
		return nil, err
	}
	if err := f.boot(); err != nil {
		return nil, err
	}
	f.arrivals = genArrivals(cfg.Requests, cfg.RPS, cfg.Seed)
	f.started = make([]uint64, cfg.Requests)
	f.lats = make([]uint64, cfg.Requests)
	return f, nil
}

func (f *Fabric) endpoint(name string) int {
	if name == Client {
		return -1
	}
	return f.top.service(name)
}

// build constructs every machine: channels first (a fixed, documented
// order — ingress, egress, then one req/resp pair per dependency, then
// any datastore-local pair — so channel ids are deterministic), then the
// guest programs.
func (f *Fabric) build() error {
	flavor := libc.ForArch(string(f.cfg.Arch))
	for i := range f.top.Services {
		spec := f.top.Services[i]
		mcfg := gemsys.DefaultConfig(f.cfg.Arch)
		m, err := gemsys.New(mcfg)
		if err != nil {
			return fmt.Errorf("cluster: %s: %w", spec.Name, err)
		}
		n := &node{idx: i, spec: spec, m: m, byReqCh: map[int]dep{}}
		n.ingress = m.K.NewChannel()
		n.egress = m.K.NewChannel()
		m.K.BindRemote(n.egress)

		var depNames []string
		switch spec.Kind {
		case Function:
			depNames = spec.Deps
		case Orchestrator:
			seen := map[string]bool{}
			for _, stage := range spec.Stages {
				for _, c := range stage {
					if !seen[c.Service] {
						seen[c.Service] = true
						depNames = append(depNames, c.Service)
					}
				}
			}
		}
		pairs := make([]ChanPair, 0, len(depNames))
		chanByName := map[string]ChanPair{}
		for _, dn := range depNames {
			req := m.K.NewChannel()
			resp := m.K.NewChannel()
			m.K.BindRemote(req)
			d := dep{target: f.top.service(dn), req: req, resp: resp}
			n.deps = append(n.deps, d)
			n.byReqCh[req] = d
			pairs = append(pairs, ChanPair{Req: req, Resp: resp})
			chanByName[dn] = ChanPair{Req: req, Resp: resp}
		}

		idx := i
		m.K.OnEgress = func(ch int, payload []byte, delay uint64) {
			f.onEgress(idx, ch, payload, delay)
		}

		switch spec.Kind {
		case Function, Orchestrator:
			rt := spec.Runtime
			if rt == "" {
				rt = langrt.GoRT
			}
			var wmod *ir.Module
			if spec.Kind == Function {
				wmod = spec.Fn(pairs)
			} else {
				wmod = orchestratorModule(spec.Name, spec.Stages, chanByName)
			}
			server, err := langrt.BuildServer(rt, flavor, wmod, vswarm.Handler)
			if err != nil {
				return fmt.Errorf("cluster: %s: build server: %w", spec.Name, err)
			}
			if _, err := m.Spawn("server", server, "main", 1,
				[]uint64{uint64(n.ingress), uint64(n.egress)}); err != nil {
				return fmt.Errorf("cluster: %s: spawn: %w", spec.Name, err)
			}
		case Datastore:
			store, err := newStore(spec.Engine)
			if err != nil {
				return fmt.Errorf("cluster: %s: %w", spec.Name, err)
			}
			if spec.Seed != nil {
				spec.Seed(store)
			}
			lreq := m.K.NewChannel()
			lresp := m.K.NewChannel()
			m.K.Bind(lreq, lresp, db.NewService(store))
			relay := relayModule(n.ingress, lreq, lresp, n.egress)
			if _, err := m.Spawn("relay", relay, "main", 1, nil); err != nil {
				return fmt.Errorf("cluster: %s: spawn relay: %w", spec.Name, err)
			}
		}
		f.nodes = append(f.nodes, n)
	}
	return nil
}

// boot runs every machine to its post-init quiescent state (language
// runtimes initialized, servers blocked on their first receive) and
// records each machine's local clock as its epoch: global time T maps to
// machine-local time epoch+T from here on. The ready handshake every
// langrt server sends on its egress channel is consumed here.
func (f *Fabric) boot() error {
	f.booting = true
	defer func() { f.booting = false }()
	servers := 0
	for _, n := range f.nodes {
		if n.spec.Kind != Datastore {
			servers++
		}
		if err := n.m.RunUntilIdle(bootBudget); err != nil {
			return fmt.Errorf("cluster: boot %s: %w", n.spec.Name, err)
		}
		n.epoch = n.m.VirtNS()
	}
	if f.bootReady != servers {
		return fmt.Errorf("cluster: %d of %d servers signalled ready at boot",
			f.bootReady, servers)
	}
	return nil
}

// onEgress receives every message a guest commits to a remote-bound
// channel. During boot it consumes the ready handshakes; afterwards it
// queues the message on the node's outbox, stamped with the commit time.
func (f *Fabric) onEgress(nodeIdx, ch int, payload []byte, delay uint64) {
	if f.booting {
		f.bootReady++
		return
	}
	n := f.nodes[nodeIdx]
	n.outbox = append(n.outbox, outMsg{ch: ch, payload: payload, stamp: n.m.VirtNS(), delay: delay})
}

// genArrivals returns Poisson arrival times (virtual ns) for n requests
// at the given rate, from the shared deterministic PRNG family.
func genArrivals(n int, rps float64, seed uint64) []uint64 {
	rng := faults.NewPRNG(seed)
	mean := 1e9 / rps
	t := 0.0
	out := make([]uint64, n)
	for i := range out {
		t += rng.Exp(mean)
		out[i] = uint64(t)
	}
	return out
}

func (f *Fabric) push(at uint64, ev event) { f.events.Push(at, 0, 0, ev) }

func (f *Fabric) endpointName(i int) string {
	if i < 0 {
		return Client
	}
	return f.top.Services[i].Name
}

func (f *Fabric) linkFor(src, dst int) *linkState {
	k := linkKey{src, dst}
	l, ok := f.links[k]
	if !ok {
		base := f.top.DefaultLink
		if base.LatencyNS == 0 && base.GbitPS == 0 {
			base = Link{LatencyNS: DefaultLatencyNS, GbitPS: DefaultGbitPS}
		}
		if ov, has := f.overrides[k]; has {
			base = ov
		}
		l = &linkState{Link: base}
		f.links[k] = l
	}
	return l
}

// send commits a message to the (src,dst) link at global time t: it
// queues behind the link's busy time, pays serialization and propagation
// delay, and schedules the delivery event. Each directed link has a
// single sender whose commit stamps are monotonic, so FIFO per link is
// exact.
func (f *Fabric) send(src, dst, ch, respTo, reqID int, payload []byte, t, extraDelay uint64) {
	l := f.linkFor(src, dst)
	start := t
	if l.busyUntil > start {
		start = l.busyUntil
	}
	tx := l.TxNS(len(payload))
	l.busyUntil = start + tx
	netNS := (start - t) + tx + l.LatencyNS + extraDelay
	f.msgSeq++
	id := f.msgSeq
	f.nMsgs++
	f.nBytes += uint64(len(payload))
	f.queueD.Observe(start - t)
	f.transitD.Observe(netNS)
	fmt.Fprintf(&f.log, "%d send %s->%s msg=%d bytes=%d q=%d\n",
		t, f.endpointName(src), f.endpointName(dst), id, len(payload), start-t)
	f.tracer.EmitAt(trace.EvNetSend, coreByte(src), t, 0, id, uint64(len(payload)))
	f.push(t+netNS, event{
		kind: evDeliver, src: src, dst: dst, ch: ch,
		respTo: respTo, reqID: reqID, payload: payload, msgID: id, netNS: netNS,
	})
}

func coreByte(endpoint int) uint8 {
	if endpoint < 0 {
		return 255
	}
	return uint8(endpoint)
}

// Run drives the DES to completion: all arrivals delivered, all
// machines quiescent, all replies back at the client.
func (f *Fabric) Run() (*Report, error) {
	budget := uint64(runBudgetBase) + uint64(runBudgetPerReq)*uint64(f.cfg.Requests)
	for i, at := range f.arrivals {
		f.push(at, event{kind: evArrive, src: -1, dst: f.frontend, reqID: i, respTo: -1})
	}
	for f.events.Len() > 0 {
		at, ev := f.events.Pop()
		var err error
		switch ev.kind {
		case evArrive:
			f.started[ev.reqID] = at
			fmt.Fprintf(&f.log, "%d arrive req=%d\n", at, ev.reqID)
			f.tracer.EmitAt(trace.EvClusterArrive, 255, at, 0, uint64(ev.reqID), 0)
			f.send(-1, f.frontend, f.nodes[f.frontend].ingress, -1, ev.reqID,
				append([]byte(nil), f.top.Request...), at, 0)
		case evDeliver:
			err = f.deliver(ev, at)
		case evResume:
			err = f.runNode(f.nodes[ev.dst], at, true)
		}
		if err != nil {
			return nil, err
		}
		if f.instr > budget {
			return nil, fmt.Errorf("cluster: %s run exceeded %d instructions", f.top.Name, budget)
		}
	}
	if f.done != f.cfg.Requests {
		return nil, fmt.Errorf("cluster: %s deadlocked: %d of %d requests completed",
			f.top.Name, f.done, f.cfg.Requests)
	}
	return f.report(), nil
}

// deliver hands a message to its destination at time at. A reply to the
// client completes its request; a message into a node is injected into
// the destination channel (recording the caller for ingress requests)
// and the node runs unless it is parked on an expired quantum.
func (f *Fabric) deliver(ev event, at uint64) error {
	if ev.dst < 0 {
		lat := at - f.started[ev.reqID]
		f.lats[ev.reqID] = lat
		f.done++
		f.nDone++
		f.latD.Observe(lat)
		fmt.Fprintf(&f.log, "%d done req=%d lat=%d\n", at, ev.reqID, lat)
		f.tracer.EmitAt(trace.EvClusterDone, 255, at, 0, uint64(ev.reqID), lat)
		return nil
	}
	n := f.nodes[ev.dst]
	f.nDeliveries++
	fmt.Fprintf(&f.log, "%d deliver %s msg=%d net=%d\n",
		at, n.spec.Name, ev.msgID, ev.netNS)
	f.tracer.EmitAt(trace.EvNetDeliver, coreByte(ev.dst), at, 0, ev.msgID, ev.netNS)
	if ev.ch == n.ingress {
		n.callers = append(n.callers, caller{src: ev.src, respTo: ev.respTo, reqID: ev.reqID})
	}
	n.m.AdvanceClock(n.epoch + at)
	if err := n.m.K.Inject(ev.ch, ev.payload); err != nil {
		return fmt.Errorf("cluster: %s: %w", n.spec.Name, err)
	}
	if n.parked {
		return nil
	}
	return f.runNode(n, at, false)
}

// runNode advances one machine by at most a quantum, then routes
// everything it sent. If the quantum expired with work remaining the
// node parks and a resume event is queued at the machine's own clock.
func (f *Fabric) runNode(n *node, t uint64, isResume bool) error {
	if isResume {
		n.parked = false
	}
	before := n.m.VirtNS()
	done, err := n.m.RunQuantum(f.quantum)
	f.instr += n.m.VirtNS() - before
	if err != nil {
		return fmt.Errorf("cluster: %s: %w", n.spec.Name, err)
	}
	out := n.outbox
	n.outbox = n.outbox[:0]
	for _, om := range out {
		gt := om.stamp - n.epoch
		if om.ch == n.egress {
			if len(n.callers) == 0 {
				return fmt.Errorf("cluster: %s replied with no pending caller", n.spec.Name)
			}
			c := n.callers[0]
			n.callers = n.callers[1:]
			if c.src < 0 {
				f.send(n.idx, -1, 0, -1, c.reqID, om.payload, gt, om.delay)
			} else {
				f.send(n.idx, c.src, c.respTo, -1, -1, om.payload, gt, om.delay)
			}
			continue
		}
		d, ok := n.byReqCh[om.ch]
		if !ok {
			return fmt.Errorf("cluster: %s sent on unrouted channel %d", n.spec.Name, om.ch)
		}
		f.send(n.idx, d.target, f.nodes[d.target].ingress, d.resp, -1, om.payload, gt, om.delay)
	}
	if !done {
		n.parked = true
		f.push(n.m.VirtNS()-n.epoch, event{kind: evResume, src: n.idx, dst: n.idx, respTo: -1, reqID: -1})
	}
	return nil
}
