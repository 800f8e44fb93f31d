package gemsys

import (
	"fmt"
	"math"
	"strings"

	"svbench/internal/cpu"
	"svbench/internal/isa"
	"svbench/internal/stats"
)

// SamplingConfig selects SMARTS-style sampled detailed simulation for the
// evaluation phase. All units are retired trace records. Each interval of
// Interval records is split into three phases:
//
//	[0, Detail)                  detailed measurement through the O3 model
//	[Detail, Interval-Warmup)    functional fast-forward (no µarch updates)
//	[Interval-Warmup, Interval)  functional warming (caches/TLBs/bpred
//	                             trained at zero modeled latency)
//
// The detailed window leads each interval so the warming phase at the tail
// of interval k trains the structures the detailed window of interval k+1
// measures — and so the very first window measures the genuinely cold
// state right after a checkpoint restore, which is what the cold-start
// stats window is about. The zero value disables sampling entirely and is
// bit-identical to the full-detail path.
type SamplingConfig struct {
	Interval uint64 // U: sampling period
	Warmup   uint64 // W: functional-warming records before each detailed window
	Detail   uint64 // D: detailed-measured records per period
}

// DefaultSamplingConfig returns the tuned default used by the figures
// sampling table and perfbench's sampled-eval workload.
func DefaultSamplingConfig() SamplingConfig {
	return SamplingConfig{Interval: 50_000, Warmup: 4_000, Detail: 2_000}
}

// Enabled reports whether sampling is active (the zero value is full
// detail).
func (sc SamplingConfig) Enabled() bool { return sc != SamplingConfig{} }

// Validate checks the phase layout. The zero value is always valid.
func (sc SamplingConfig) Validate() error {
	if !sc.Enabled() {
		return nil
	}
	if sc.Interval == 0 {
		return fmt.Errorf("gemsys: sampling interval must be positive")
	}
	if sc.Detail == 0 {
		return fmt.Errorf("gemsys: sampling detail window must be positive")
	}
	if sc.Detail+sc.Warmup > sc.Interval {
		return fmt.Errorf("gemsys: sampling detail+warmup (%d+%d) exceeds interval %d",
			sc.Detail, sc.Warmup, sc.Interval)
	}
	return nil
}

// String renders the config as U/W/D for labels and error messages.
func (sc SamplingConfig) String() string {
	if !sc.Enabled() {
		return "full-detail"
	}
	return fmt.Sprintf("u%d-w%d-d%d", sc.Interval, sc.Warmup, sc.Detail)
}

// ParseSamplingConfig parses a config from its String form
// ("u50000-w4000-d2000") or a bare "interval,warmup,detail" triple.
// "full-detail" and "" return the zero value (sampling off). Input with
// anything after the third number is rejected. The result is validated.
func ParseSamplingConfig(s string) (SamplingConfig, error) {
	var sc SamplingConfig
	switch s {
	case "", "full-detail":
		return sc, nil
	}
	if !scanAll(s, "u%d-w%d-d%d", &sc.Interval, &sc.Warmup, &sc.Detail) &&
		!scanAll(s, "%d,%d,%d", &sc.Interval, &sc.Warmup, &sc.Detail) {
		return SamplingConfig{}, fmt.Errorf(
			"gemsys: sampling config %q: want uU-wW-dD or U,W,D (e.g. %s)", s, DefaultSamplingConfig())
	}
	if err := sc.Validate(); err != nil {
		return SamplingConfig{}, err
	}
	return sc, nil
}

// scanAll reports whether format matches all of s, which fmt.Sscanf alone
// does not check: it stops after the last verb.
func scanAll(s, format string, args ...any) bool {
	r := strings.NewReader(s)
	_, err := fmt.Fscanf(r, format, args...)
	return err == nil && r.Len() == 0
}

// evalPhase is the sampler's position within the current interval.
type evalPhase uint8

const (
	phaseDetail evalPhase = iota
	// phaseDetailPre is the detailed warm-up prefix of a non-anchor
	// window: records retire through the full O3 model so the pipeline's
	// occupancy state (ROB slots, register-ready times, port contention)
	// rebuilds before measurement begins, but they contribute no CPI
	// sample — only event coverage. Without it every window after a
	// fast-forward stretch opens on a structurally fresh pipeline and
	// systematically under-reports stalls.
	phaseDetailPre
	phaseFF
	phaseWarm
)

// cpiSample is one detailed window's (cycles, instructions) pair on one
// core — the raw material of the CPI confidence proxy.
type cpiSample struct {
	cycles uint64
	insts  uint64
}

// sampler drives the detail → fast-forward → warm phase cycle and
// accumulates the per-core, per-stats-window quantities the extrapolated
// dumps are built from. Architectural counts (instructions, micro-ops,
// loads, stores, branches) are exact — every record is observed in every
// phase; cycle time and µarch event counters are measured only inside
// detailed windows and scaled by the instruction coverage at dump time.
type sampler struct {
	sc    SamplingConfig
	o3    []*cpu.O3
	phase evalPhase
	// base anchors the interval grid: it is the retired-record count at
	// the last m5 reset, so every stats window opens with a detailed
	// window regardless of where the reset fell in the previous grid.
	base uint64
	// dwarm is the detailed warm-up prefix length (phaseDetailPre) of
	// every non-anchor window: half the detailed window, clamped to the
	// interval's slack. The anchor window (the first after a reset) gets
	// no prefix — it must open at the reset itself so the request's
	// wake-up transient is measured, never discarded.
	dwarm uint64

	// Exact per-core architectural counts for the current stats window.
	totInsts []uint64
	totUops  []uint64
	loads    []uint64
	stores   []uint64
	branches []uint64

	// Detailed-phase accumulators. evtInsts counts every record that
	// retired through the full O3 model (warm-up prefix included) — the
	// coverage that scales the µarch event counters at dump time.
	// sampInsts/sampCycles/samples hold only measured-window quantities,
	// the raw material of the CPI estimate.
	evtInsts   []uint64
	sampInsts  []uint64
	sampCycles []uint64
	samples    [][]cpiSample

	// Open detailed-window cursors.
	winStart []uint64 // per-core commit time at window open
	winInsts []uint64 // per-core instructions committed in the open window
}

func newSampler(sc SamplingConfig, o3 []*cpu.O3) *sampler {
	n := len(o3)
	s := &sampler{
		sc:         sc,
		o3:         o3,
		totInsts:   make([]uint64, n),
		totUops:    make([]uint64, n),
		loads:      make([]uint64, n),
		stores:     make([]uint64, n),
		branches:   make([]uint64, n),
		evtInsts:   make([]uint64, n),
		sampInsts:  make([]uint64, n),
		sampCycles: make([]uint64, n),
		samples:    make([][]cpiSample, n),
		winStart:   make([]uint64, n),
		winInsts:   make([]uint64, n),
	}
	s.dwarm = sc.Detail / 2
	if slack := sc.Interval - sc.Detail - sc.Warmup; s.dwarm > slack {
		s.dwarm = slack
	}
	// Every interval leads with its detailed window, so the run opens in
	// measurement mode on whatever (cold) state the restore left behind.
	s.phase = phaseDetail
	s.openWindows()
	return s
}

func (s *sampler) phaseOf(retired uint64) evalPhase {
	rel := retired - s.base
	off := rel % s.sc.Interval
	var pre uint64
	if rel >= s.sc.Interval {
		pre = s.dwarm
	}
	switch {
	case off < pre:
		return phaseDetailPre
	case off < pre+s.sc.Detail:
		return phaseDetail
	case off >= s.sc.Interval-s.sc.Warmup:
		return phaseWarm
	default:
		return phaseFF
	}
}

// openWindows snapshots each core's commit clock as the start of a
// detailed window.
func (s *sampler) openWindows() {
	for ci, o := range s.o3 {
		s.winStart[ci] = o.Now()
		s.winInsts[ci] = 0
	}
}

// closeWindows folds the open detailed window into the accumulators and
// records a CPI sample for every core that committed instructions in it.
func (s *sampler) closeWindows() {
	for ci, o := range s.o3 {
		dc := o.Now() - s.winStart[ci]
		s.sampCycles[ci] += dc
		if s.winInsts[ci] > 0 {
			s.samples[ci] = append(s.samples[ci], cpiSample{cycles: dc, insts: s.winInsts[ci]})
		}
	}
}

// account tallies one retired record into the exact architectural counts
// (and the open detailed window, when measuring). Idle pseudo-records
// advance time but are not instructions.
func (s *sampler) account(ci int, rec *isa.TraceRec) {
	if rec.Class == isa.ClassIdle {
		return
	}
	s.totInsts[ci]++
	s.totUops[ci] += uint64(rec.MicroOps)
	switch rec.Class {
	case isa.ClassLoad:
		s.loads[ci]++
	case isa.ClassStore:
		s.stores[ci]++
	case isa.ClassBranch, isa.ClassJump, isa.ClassCall, isa.ClassRet:
		s.branches[ci]++
	}
	switch s.phase {
	case phaseDetailPre:
		s.evtInsts[ci]++
	case phaseDetail:
		s.evtInsts[ci]++
		s.sampInsts[ci]++
		s.winInsts[ci]++
	}
}

// fold adds insts instructions of census cnt, retired outside any
// detailed window, to one core's exact architectural counts: a bulk
// fast-forward batch or a core's functional-sprint census. Idle records
// and sprint idle events need no folding: they occupy retired slots but
// are not instructions.
func (s *sampler) fold(ci int, insts uint64, cnt isa.ClassCounts) {
	s.totInsts[ci] += insts
	s.totUops[ci] += cnt.MicroOps
	s.loads[ci] += cnt.Loads
	s.stores[ci] += cnt.Stores
	s.branches[ci] += cnt.Branches
}

// bulkRoom returns how many records may retire through the bulk
// fast-forward lane before the current phase ends. Zero in a detailed
// phase.
func (s *sampler) bulkRoom(retired uint64) uint64 {
	off := (retired - s.base) % s.sc.Interval
	switch s.phase {
	case phaseFF:
		return s.sc.Interval - s.sc.Warmup - off
	case phaseWarm:
		return s.sc.Interval - off
	}
	return 0
}

// advance moves the phase machine after a record retired. Leaving the
// detailed phase closes the open windows; entering it opens fresh ones.
func (s *sampler) advance(retired uint64) {
	next := s.phaseOf(retired)
	if next == s.phase {
		return
	}
	if s.phase == phaseDetail {
		s.closeWindows()
	}
	if next == phaseDetail {
		s.openWindows()
	}
	s.phase = next
}

// reset starts a new stats window (the m5 reset-stats operation): all
// accumulators clear and the interval grid re-anchors at the current
// retired count, so the new stats window begins with a detailed window —
// the request's wake-up and first touches are always measured, never
// extrapolated from a different region.
func (s *sampler) reset(retired uint64) {
	for ci := range s.o3 {
		s.totInsts[ci] = 0
		s.totUops[ci] = 0
		s.loads[ci] = 0
		s.stores[ci] = 0
		s.branches[ci] = 0
		s.evtInsts[ci] = 0
		s.sampInsts[ci] = 0
		s.sampCycles[ci] = 0
		s.samples[ci] = s.samples[ci][:0]
	}
	s.base = retired
	s.phase = phaseDetail
	s.openWindows()
}

// estimateCycles extrapolates one core's stats-window cycle count from
// its measured windows. The first detailed window is its own stratum:
// the interval grid re-anchors at every m5 reset, so that window measures
// the request's wake-up and first touches — a region whose CPI is
// systematically unlike the steady state that follows. Its cycles enter
// the estimate exactly; the remaining unmeasured instructions extrapolate
// from the pooled CPI of the later windows. With fewer than two windows
// the plain ratio estimate is all there is.
func (s *sampler) estimateCycles(ci int) uint64 {
	tot := s.totInsts[ci]
	if s.sampInsts[ci] == 0 || tot == 0 {
		return 0
	}
	if wins := s.samples[ci]; len(wins) >= 2 {
		anchor := wins[0]
		var rc, ri uint64
		for _, w := range wins[1:] {
			rc += w.cycles
			ri += w.insts
		}
		if ri > 0 && tot >= anchor.insts {
			rest := float64(tot-anchor.insts) * float64(rc) / float64(ri)
			return anchor.cycles + uint64(rest+0.5)
		}
	}
	return uint64(float64(s.sampCycles[ci])*float64(tot)/float64(s.sampInsts[ci]) + 0.5)
}

// meta summarizes one core's sampling quality for the dump.
func (s *sampler) meta(ci int) stats.SampleMeta {
	m := stats.SampleMeta{
		Windows:       len(s.samples[ci]),
		SampledInsts:  s.evtInsts[ci],
		TotalInsts:    s.totInsts[ci],
		SampledCycles: s.sampCycles[ci],
	}
	n := len(s.samples[ci])
	if n == 0 {
		return m
	}
	var sum float64
	cpis := make([]float64, n)
	for i, w := range s.samples[ci] {
		cpis[i] = float64(w.cycles) / float64(w.insts)
		sum += cpis[i]
	}
	m.CPIMean = sum / float64(n)
	if n > 1 {
		var ss float64
		for _, c := range cpis {
			d := c - m.CPIMean
			ss += d * d
		}
		m.CPIStdErr = math.Sqrt(ss / float64(n-1) / float64(n))
	}
	return m
}

// dump builds an extrapolated stats.Dump at an m5 dump-stats operation.
// A detailed window open at dump time contributes its partial measurement
// and reopens, so mid-window dumps lose nothing. Exact counts pass
// through; measured counters scale by f = totalInsts/sampledInsts. A core
// that saw no detailed instructions this window (possible only when the
// stats window is shorter than one sampling interval) reports zero for the
// extrapolated counters and Windows=0 in its metadata.
func (s *sampler) dump(m *Machine, label string) stats.Dump {
	if s.phase == phaseDetail {
		s.closeWindows()
		s.openWindows()
	}
	d := stats.Dump{Label: label}
	for ci := range s.o3 {
		meas := m.coreStats(ci)
		var f float64
		if s.evtInsts[ci] > 0 {
			f = float64(s.totInsts[ci]) / float64(s.evtInsts[ci])
		}
		scale := func(v uint64) uint64 {
			return uint64(float64(v)*f + 0.5)
		}
		d.Cores = append(d.Cores, stats.CoreStats{
			Cycles:      s.estimateCycles(ci),
			Insts:       s.totInsts[ci],
			MicroOps:    s.totUops[ci],
			Loads:       s.loads[ci],
			Stores:      s.stores[ci],
			Branches:    s.branches[ci],
			Mispredicts: scale(meas.Mispredicts),
			L1IAccesses: scale(meas.L1IAccesses),
			L1IMisses:   scale(meas.L1IMisses),
			L1DAccesses: scale(meas.L1DAccesses),
			L1DMisses:   scale(meas.L1DMisses),
			L2Accesses:  scale(meas.L2Accesses),
			L2Misses:    scale(meas.L2Misses),
			ITLBMisses:  scale(meas.ITLBMisses),
			DTLBMisses:  scale(meas.DTLBMisses),
		})
		d.Sampling = append(d.Sampling, s.meta(ci))
	}
	return d
}

// orderCoresByTime fills dst with core indices sorted ascending by local
// commit time, index order breaking ties — so the core furthest behind in
// virtual time retires first, approximating a globally ordered interleave
// on the shared DRAM channel for any core count. dst and times must have
// equal length.
func orderCoresByTime(dst []int, times []uint64) {
	for i := range dst {
		dst[i] = i
	}
	// Insertion sort: core counts are tiny (2 today) and the common case
	// is already-sorted, so this beats sort.Slice's interface overhead in
	// the retire loop.
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0; j-- {
			a, b := dst[j-1], dst[j]
			if times[a] > times[b] || (times[a] == times[b] && a > b) {
				dst[j-1], dst[j] = b, a
			} else {
				break
			}
		}
	}
}
