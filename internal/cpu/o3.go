package cpu

import (
	"fmt"

	"svbench/internal/isa"
	"svbench/internal/mem"
	"svbench/internal/trace"
)

// O3Config parameterizes the detailed out-of-order model. Defaults mirror
// Table 4.1 of the thesis.
type O3Config struct {
	RenameWidth int // front-end width (fetch/decode/rename per cycle)
	IssueWidth  int
	CommitWidth int
	ROBSize     int
	LQSize      int
	SQSize      int
	MulDivUnits int
	LoadPorts   int
	StorePorts  int

	MulLat            uint64
	DivLat            uint64
	EcallLat          uint64 // privilege-switch overhead on top of serialization
	MispredictPenalty uint64
	WakeLat           uint64 // cross-core wakeup latency after an IPC send

	BPred BPredConfig
}

// DefaultO3Config returns the thesis configuration: 192-entry ROB,
// 32-entry load and store queues, 4-wide front end.
func DefaultO3Config() O3Config {
	return O3Config{
		RenameWidth: 4, IssueWidth: 8, CommitWidth: 4,
		ROBSize: 192, LQSize: 32, SQSize: 32,
		MulDivUnits: 1, LoadPorts: 2, StorePorts: 1,
		MulLat: 3, DivLat: 16, EcallLat: 24,
		MispredictPenalty: 12, WakeLat: 60,
		BPred: DefaultBPredConfig(),
	}
}

// WindowStats accumulates per-core statistics within one m5 stats window.
type WindowStats struct {
	Insts       uint64
	MicroOps    uint64
	Loads       uint64
	Stores      uint64
	Branches    uint64
	Mispredicts uint64
	StartCycle  uint64
}

// Coupler carries cross-core IPC ordering: commit times of FlagSend
// records, consumed by FlagRecv/idle records on the other core. Derived
// sequences model native services (the databases): their reply commits a
// fixed service latency after the request's commit.
type Coupler struct {
	commitAt map[uint64]uint64
	derived  map[uint64][]derivation // base seq -> dependents

	// floorSeq/floorTime summarize sends that happened during a purely
	// functional stretch (the sampled simulation's fast-forward): every
	// sequence at or below floorSeq is deemed committed no later than
	// floorTime. Kernel sequences are globally monotonic, so a single
	// high-water mark covers all of them.
	floorSeq  uint64
	floorTime uint64
}

type derivation struct {
	seq   uint64
	delay uint64
}

// NewCoupler returns an empty coupler.
func NewCoupler() *Coupler {
	return &Coupler{
		commitAt: map[uint64]uint64{},
		derived:  map[uint64][]derivation{},
	}
}

// Derive declares that sequence derived becomes ready delay cycles after
// base commits.
func (c *Coupler) Derive(base, derived, delay uint64) {
	if t, ok := c.commitAt[base]; ok {
		c.post(derived, t+delay)
		return
	}
	c.derived[base] = append(c.derived[base], derivation{seq: derived, delay: delay})
}

// post records that send sequence seq committed at cycle t, resolving any
// derived sequences transitively.
func (c *Coupler) post(seq, t uint64) {
	c.commitAt[seq] = t
	if deps, ok := c.derived[seq]; ok {
		delete(c.derived, seq)
		for _, d := range deps {
			c.post(d.seq, t+d.delay)
		}
	}
}

// ready returns the commit time of seq, if posted.
func (c *Coupler) ready(seq uint64) (uint64, bool) {
	if t, ok := c.commitAt[seq]; ok {
		return t, ok
	}
	if seq != 0 && seq <= c.floorSeq {
		return c.floorTime, true
	}
	return 0, false
}

// SetFloor marks every sequence at or below seq as committed by cycle t.
// The machine calls this after a functional fast-forward: sends executed
// during the sprint produced no timed records, so their (and their
// derivations') commit times collapse onto the sprint's end-of-time
// horizon. Pending derivations rooted at or below the floor resolve
// immediately; without this a post-sprint receive would wait forever on a
// base sequence that will never be posted.
func (c *Coupler) SetFloor(seq, t uint64) {
	if seq > c.floorSeq {
		c.floorSeq = seq
	}
	if t > c.floorTime {
		c.floorTime = t
	}
	for base := range c.derived {
		if base != 0 && base <= c.floorSeq {
			c.post(base, c.floorTime)
		}
	}
}

const ringWindow = 8192

type slotRing struct {
	cycle [ringWindow]uint64
	used  [ringWindow]uint8
	cap   uint8
}

func (r *slotRing) reserve(t uint64) uint64 {
	for {
		i := t % ringWindow
		if r.cycle[i] != t {
			r.cycle[i] = t
			r.used[i] = 0
		}
		if r.used[i] < r.cap {
			r.used[i]++
			return t
		}
		t++
	}
}

// O3 is the per-core detailed timing model. It replays the functional
// trace through an analytical out-of-order pipeline: in-order rename
// bounded by ROB/LQ/SQ occupancy and front-end width, dataflow-scheduled
// issue bounded by functional-unit ports, cache-timed memory operations,
// branch-predictor-driven fetch redirects, and in-order commit.
type O3 struct {
	Cfg     O3Config
	Hier    *mem.Hierarchy
	BP      *BPred
	coupler *Coupler

	// Front-end cursors.
	now          uint64 // cycle at which the next instruction renames
	renameCount  int    // instructions renamed at cycle `now`
	curFetchLine uint64
	lineReady    uint64

	// Register scoreboard: architectural reg -> value-ready cycle.
	regReady [34]uint64

	// Occupancy rings (commit times of the last N entries).
	robRing   []uint64
	robHead   int
	loadRing  []uint64
	loadHead  int
	storeRing []uint64
	storeHead int

	// Commit cursors.
	lastCommit     uint64
	commitCycle    uint64
	commitsAtCycle int

	// Execution ports.
	issueRing  slotRing
	mulDivRing slotRing
	loadPorts  slotRing
	storePorts slotRing

	// Store-to-load forwarding horizon: 8-byte-granule address ->
	// completion time of the most recent store.
	storeDone storeTable

	Stats WindowStats

	// Observability (nil when tracing is disabled: the hot path then
	// pays only untaken nil-check branches).
	tr       *trace.Tracer
	core     uint8
	ecallLat *trace.Dist
}

// NewO3 builds a detailed core over a cache hierarchy.
func NewO3(cfg O3Config, hier *mem.Hierarchy, coupler *Coupler) *O3 {
	o := &O3{
		Cfg:       cfg,
		Hier:      hier,
		BP:        NewBPred(cfg.BPred),
		coupler:   coupler,
		robRing:   make([]uint64, cfg.ROBSize),
		loadRing:  make([]uint64, cfg.LQSize),
		storeRing: make([]uint64, cfg.SQSize),
		now:       1,
	}
	o.issueRing.cap = uint8(cfg.IssueWidth)
	o.mulDivRing.cap = uint8(cfg.MulDivUnits)
	o.loadPorts.cap = uint8(cfg.LoadPorts)
	o.storePorts.cap = uint8(cfg.StorePorts)
	o.storeDone.clear()
	return o
}

// Now returns the core's committed-time cursor.
func (o *O3) Now() uint64 { return o.lastCommit }

// AttachTracer enables event emission from the pipeline: branch
// mispredict redirects, cache/TLB misses (via the attached hierarchy),
// and syscall enter/exit pairs observed into ecallLat (may be nil).
func (o *O3) AttachTracer(tr *trace.Tracer, core int, ecallLat *trace.Dist) {
	o.tr = tr
	o.core = uint8(core)
	o.ecallLat = ecallLat
	o.Hier.AttachTracer(tr, core)
}

// RegisterStats registers the core's counters and formulas under prefix
// (e.g. "machine.core1.o3") in the hierarchical registry. Counters are
// live pointers into the window stats; the registry reads them at dump
// time, so registration adds nothing to the replay hot path.
func (o *O3) RegisterStats(r *trace.Registry, prefix string) {
	r.Counter(prefix+".insts", "instructions committed this stats window", &o.Stats.Insts)
	r.Counter(prefix+".microops", "micro-operations committed this stats window", &o.Stats.MicroOps)
	r.Counter(prefix+".loads", "load instructions committed", &o.Stats.Loads)
	r.Counter(prefix+".stores", "store instructions committed", &o.Stats.Stores)
	r.Counter(prefix+".branches", "control-flow instructions committed", &o.Stats.Branches)
	r.Counter(prefix+".mispredicts", "branch mispredict redirects", &o.Stats.Mispredicts)
	r.Counter(prefix+".bpred.lookups", "branch predictor lookups", &o.BP.Lookups)
	r.Func(prefix+".windowCycles", "cycles elapsed in the current stats window", o.WindowCycles)
	r.Formula(prefix+".cpi", "cycles per committed instruction", func() float64 {
		if o.Stats.Insts == 0 {
			return 0
		}
		return float64(o.WindowCycles()) / float64(o.Stats.Insts)
	})
	r.Formula(prefix+".bpred.mispredictRate", "mispredicts per predictor lookup", func() float64 {
		if o.BP.Lookups == 0 {
			return 0
		}
		return float64(o.BP.Mispredicts) / float64(o.BP.Lookups)
	})
}

// ResetPipeline returns the core to its just-built state over a fresh
// coupler — the in-place equivalent of NewO3, so statistics registered
// against this core's counters stay valid from one detailed run to the
// next.
func (o *O3) ResetPipeline(coupler *Coupler) {
	o.coupler = coupler
	o.now = 1
	o.renameCount = 0
	o.curFetchLine = 0
	o.lineReady = 0
	o.regReady = [34]uint64{}
	for i := range o.robRing {
		o.robRing[i] = 0
	}
	o.robHead = 0
	for i := range o.loadRing {
		o.loadRing[i] = 0
	}
	o.loadHead = 0
	for i := range o.storeRing {
		o.storeRing[i] = 0
	}
	o.storeHead = 0
	o.lastCommit = 0
	o.commitCycle = 0
	o.commitsAtCycle = 0
	o.issueRing = slotRing{cap: o.issueRing.cap}
	o.mulDivRing = slotRing{cap: o.mulDivRing.cap}
	o.loadPorts = slotRing{cap: o.loadPorts.cap}
	o.storePorts = slotRing{cap: o.storePorts.cap}
	o.storeDone.clear()
	o.BP.Flush()
	o.BP.ResetStats()
	o.Stats = WindowStats{}
}

// ErrWait is a sentinel: the record needs a coupling sequence that has not
// committed on the other core yet.
var ErrWait = fmt.Errorf("cpu: waiting for peer send")

// advanceFrontEnd accounts rename bandwidth: at most RenameWidth
// instructions enter the ROB per cycle.
func (o *O3) advanceFrontEnd() {
	o.renameCount++
	if o.renameCount >= o.Cfg.RenameWidth {
		o.now++
		o.renameCount = 0
	}
}

func (o *O3) bump(t uint64) {
	if t > o.now {
		o.now = t
		o.renameCount = 0
	}
}

// Retire replays one trace record, returning its commit cycle.
// It returns ErrWait when the record waits on a peer send that has not
// been replayed yet.
func (o *O3) Retire(rec *isa.TraceRec) (uint64, error) {
	// Idle pseudo-record: the core sleeps until the wake arrives.
	if rec.Class == isa.ClassIdle {
		t, ok := o.coupler.ready(rec.Seq)
		if !ok {
			return 0, ErrWait
		}
		o.bump(t + o.Cfg.WakeLat)
		if o.lastCommit < o.now {
			o.lastCommit = o.now
		}
		return o.now, nil
	}
	if rec.Flags&isa.FlagRecv != 0 {
		// The receiving ecall cannot complete before the sender commits.
		t, ok := o.coupler.ready(rec.Seq)
		if !ok {
			return 0, ErrWait
		}
		o.bump(t + o.Cfg.WakeLat)
	}

	// --- Fetch: instruction cache access per line. ---
	line := rec.PC >> 6
	if line != o.curFetchLine {
		o.curFetchLine = line
		o.lineReady = o.Hier.FetchI(o.now, rec.PC)
	}
	renameAt := o.now
	if o.lineReady > renameAt {
		o.bump(o.lineReady)
		renameAt = o.now
	}

	// --- Structural occupancy: ROB and LSQ entries must be free. ---
	if t := o.robRing[o.robHead]; t > renameAt {
		o.bump(t)
		renameAt = o.now
	}
	isLoad := rec.Class == isa.ClassLoad
	isStore := rec.Class == isa.ClassStore
	if isLoad {
		if t := o.loadRing[o.loadHead]; t > renameAt {
			o.bump(t)
			renameAt = o.now
		}
	}
	if isStore {
		if t := o.storeRing[o.storeHead]; t > renameAt {
			o.bump(t)
			renameAt = o.now
		}
	}

	// --- Schedule: dataflow readiness. ---
	ready := renameAt + 1 // rename-to-issue minimum
	if rec.Src1 != isa.NoDep {
		if t := o.regReady[rec.Src1]; t > ready {
			ready = t
		}
	}
	if rec.Src2 != isa.NoDep {
		if t := o.regReady[rec.Src2]; t > ready {
			ready = t
		}
	}

	var complete uint64
	var ecallIssue uint64
	serialize := false
	switch rec.Class {
	case isa.ClassAlu, isa.ClassJump, isa.ClassCall, isa.ClassRet, isa.ClassBranch:
		issue := o.issueRing.reserve(ready)
		complete = issue + 1
	case isa.ClassMul:
		issue := o.issueRing.reserve(o.mulDivRing.reserve(ready))
		complete = issue + o.Cfg.MulLat
	case isa.ClassDiv:
		issue := o.issueRing.reserve(o.mulDivRing.reserve(ready))
		complete = issue + o.Cfg.DivLat
	case isa.ClassLoad:
		issue := o.issueRing.reserve(o.loadPorts.reserve(ready))
		// Store-to-load dependency on the same granule.
		if t, ok := o.storeDone.get(rec.MemAddr >> 3); ok && t > issue {
			issue = t
		}
		complete = o.Hier.AccessD(issue, rec.MemAddr, false)
		o.Stats.Loads++
	case isa.ClassStore:
		issue := o.issueRing.reserve(o.storePorts.reserve(ready))
		complete = o.Hier.AccessD(issue, rec.MemAddr, true)
		o.storeDone.put(rec.MemAddr>>3, complete)
		o.Stats.Stores++
	case isa.ClassEcall, isa.ClassFence:
		// Serializing: waits for every older instruction to commit.
		if o.lastCommit+1 > ready {
			ready = o.lastCommit + 1
		}
		issue := o.issueRing.reserve(ready)
		complete = issue + o.Cfg.EcallLat
		ecallIssue = issue
		serialize = true
	default:
		issue := o.issueRing.reserve(ready)
		complete = issue + 1
	}

	// --- Branch prediction / fetch redirects. ---
	switch rec.Class {
	case isa.ClassBranch, isa.ClassJump, isa.ClassCall, isa.ClassRet:
		o.Stats.Branches++
		if o.BP.Mispredicted(rec) {
			o.Stats.Mispredicts++
			if o.tr != nil {
				o.tr.EmitAt(trace.EvBranchMiss, o.core, complete, rec.PC, 0, 0)
			}
			o.bump(complete + o.Cfg.MispredictPenalty)
			o.curFetchLine = 0 // refetch after redirect
		}
	case isa.ClassEcall:
		// Trap entry redirects the front end.
		o.bump(complete + o.Cfg.MispredictPenalty)
		o.curFetchLine = 0
	}

	// --- Writeback: destination becomes ready. ---
	if rec.Dst != isa.NoDep {
		o.regReady[rec.Dst] = complete
	}

	// --- In-order commit with width limit. ---
	ct := complete
	if ct <= o.lastCommit {
		ct = o.lastCommit
	}
	if ct == o.commitCycle {
		o.commitsAtCycle++
		if o.commitsAtCycle >= o.Cfg.CommitWidth {
			ct++
			o.commitCycle = ct
			o.commitsAtCycle = 0
		}
	} else {
		o.commitCycle = ct
		o.commitsAtCycle = 1
	}
	o.lastCommit = ct
	if serialize {
		// Nothing younger may rename before a serializing op commits.
		o.bump(ct)
	}

	// Record occupancy releases.
	o.robRing[o.robHead] = ct
	o.robHead = (o.robHead + 1) % len(o.robRing)
	if isLoad {
		o.loadRing[o.loadHead] = ct
		o.loadHead = (o.loadHead + 1) % len(o.loadRing)
	}
	if isStore {
		o.storeRing[o.storeHead] = ct
		o.storeHead = (o.storeHead + 1) % len(o.storeRing)
	}

	o.Stats.Insts++
	o.Stats.MicroOps += uint64(rec.MicroOps)
	if o.tr != nil && rec.Class == isa.ClassEcall {
		// The privilege-switch window: issue-to-commit of the
		// serializing ecall.
		o.tr.EmitAt(trace.EvSyscallEnter, o.core, ecallIssue, rec.PC, 0, 0)
		o.tr.EmitAt(trace.EvSyscallExit, o.core, ct, rec.PC, 0, 0)
		o.ecallLat.Observe(ct - ecallIssue)
	}
	o.advanceFrontEnd()

	if rec.Flags&isa.FlagSend != 0 {
		o.coupler.post(rec.Seq, ct)
	}
	return ct, nil
}

// FastForward advances the core past one trace record without modeling
// the pipeline: the record "commits" one functional cycle after the
// previous one, no statistics move, and no structural or dataflow hazards
// are evaluated. Cross-core coupling stays exact — idle/recv records still
// wait for their peer send (returning ErrWait when it has not been
// replayed) and send records still post commit times — so interleaving
// decisions made while fast-forwarding remain deterministic and deadlock-
// free. With warm set, caches, TLBs and the branch predictor receive
// functional-warming updates (tags/LRU/counters, zero modeled latency) so
// the next detailed sample window starts with realistic state.
func (o *O3) FastForward(rec *isa.TraceRec, warm bool) (uint64, error) {
	if rec.Class == isa.ClassIdle {
		t, ok := o.coupler.ready(rec.Seq)
		if !ok {
			return 0, ErrWait
		}
		o.bump(t + o.Cfg.WakeLat)
		if o.lastCommit < o.now {
			o.lastCommit = o.now
		}
		return o.now, nil
	}
	if rec.Flags&isa.FlagRecv != 0 {
		t, ok := o.coupler.ready(rec.Seq)
		if !ok {
			return 0, ErrWait
		}
		o.bump(t + o.Cfg.WakeLat)
	}
	if warm {
		if line := rec.PC >> 6; line != o.curFetchLine {
			o.curFetchLine = line
			o.Hier.WarmFetchI(rec.PC)
		}
		switch rec.Class {
		case isa.ClassLoad:
			o.Hier.WarmAccessD(rec.MemAddr, false)
		case isa.ClassStore:
			o.Hier.WarmAccessD(rec.MemAddr, true)
		case isa.ClassBranch, isa.ClassJump, isa.ClassCall, isa.ClassRet:
			o.BP.Warm(rec)
		}
	}
	// One functional cycle per record keeps per-core clocks monotone and
	// cross-core coupling timestamps ordered without pipeline modeling.
	ct := o.lastCommit + 1
	if o.now > ct {
		ct = o.now
	}
	o.lastCommit = ct
	o.now = ct
	o.renameCount = 0
	if rec.Flags&isa.FlagSend != 0 {
		o.coupler.post(rec.Seq, ct)
	}
	return ct, nil
}

// FastForwardBatch fast-forwards a run of plain records in one tight
// loop, equivalent to calling FastForward on each but without the
// per-record dispatch the eval loop pays. It stops before the first
// record that carries flags or is an idle pseudo-record — those need the
// coupler and the caller's event plumbing — and returns the number of
// records consumed, every one an instruction. Their class census
// accumulates into cc.
func (o *O3) FastForwardBatch(recs []isa.TraceRec, warm bool, cc *isa.ClassCounts) int {
	n := 0
	for i := range recs {
		rec := &recs[i]
		if rec.Flags != 0 || rec.Class == isa.ClassIdle {
			break
		}
		// Warm in FastForward's order, fetch line first: a record's
		// fetch and data lines can meet in one L2 set.
		if warm {
			if line := rec.PC >> 6; line != o.curFetchLine {
				o.curFetchLine = line
				o.Hier.WarmFetchI(rec.PC)
			}
		}
		cc.MicroOps += uint64(rec.MicroOps)
		switch rec.Class {
		case isa.ClassLoad:
			cc.Loads++
			if warm {
				o.Hier.WarmAccessD(rec.MemAddr, false)
			}
		case isa.ClassStore:
			cc.Stores++
			if warm {
				o.Hier.WarmAccessD(rec.MemAddr, true)
			}
		case isa.ClassBranch, isa.ClassJump, isa.ClassCall, isa.ClassRet:
			cc.Branches++
			if warm {
				o.BP.Warm(rec)
			}
		}
		n++
	}
	if n > 0 {
		// Same clock arithmetic as n sequential FastForward calls: the
		// first record commits at max(lastCommit+1, now), each subsequent
		// one a cycle later.
		ct := o.lastCommit + 1
		if o.now > ct {
			ct = o.now
		}
		ct += uint64(n - 1)
		o.lastCommit = ct
		o.now = ct
		o.renameCount = 0
	}
	return n
}

// SkipAhead advances the functional clock by n committed record slots
// without touching any model state — the timing image of a purely
// functional sprint, mirroring the one-cycle-per-record advance of the
// record-replay fast-forward lanes so cross-lane commit timestamps stay
// comparable.
func (o *O3) SkipAhead(n uint64) {
	if n == 0 {
		return
	}
	ct := o.lastCommit + 1
	if o.now > ct {
		ct = o.now
	}
	ct += n - 1
	o.lastCommit = ct
	o.now = ct
	o.renameCount = 0
}

// ResetStats begins a new stats window at the current commit time and
// clears hierarchy and predictor counters.
func (o *O3) ResetStats() {
	o.Stats = WindowStats{StartCycle: o.lastCommit}
	o.Hier.ResetStats()
	o.BP.ResetStats()
}

// WindowCycles reports cycles elapsed in the current window.
func (o *O3) WindowCycles() uint64 { return o.lastCommit - o.Stats.StartCycle }

// ColdStart flushes all microarchitectural state (caches, TLBs, branch
// predictor), modeling a gem5 restore into the detailed CPU.
func (o *O3) ColdStart() {
	o.Hier.Flush()
	o.BP.Flush()
	o.storeDone.clear()
}
