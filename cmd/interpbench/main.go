// Command interpbench measures the functional interpreter's throughput
// (MIPS) with the translated-block fast path on and off, for the boot
// (setup, non-recording) and request-serving (trace-recording) phases of
// every standalone workload on both ISAs. Both stepping modes must agree
// on retired-instruction counts and console bytes — a speedup that
// changed the simulation would be meaningless — and the comparison is
// written as JSON (BENCH_interp.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"svbench/internal/benchutil"
	"svbench/internal/gemsys"
	"svbench/internal/harness"
	"svbench/internal/isa"
)

// phase accumulates a timed functional run over repetitions: perRep is
// the (deterministic) retired-instruction count of a single repetition,
// insts and sec the totals across all repetitions actually timed.
type phase struct {
	perRep uint64
	insts  uint64
	sec    float64
}

func (p phase) mips() float64 {
	if p.sec == 0 {
		return 0
	}
	return float64(p.insts) / p.sec / 1e6
}

// The workloads retire from ~10^5 to a few 10^6 instructions per phase,
// which at interpreter speeds can be single-digit milliseconds — far too
// little to time against boot and checkpoint-copy overhead. Each phase is
// therefore repeated until it has retired minPhaseInsts (capped by
// maxPhaseSec of timed work so the single-step runs stay bounded), with
// only the stepping loop inside the timed region. Repetition counts are
// derived from instruction counts, never from wall time, so the work
// measured is identical across stepping modes.
const (
	minPhaseInsts = 2_000_000
	maxPhaseSec   = 2.0
)

func (p phase) done() bool {
	return p.insts >= minPhaseInsts || p.sec >= maxPhaseSec
}

type row struct {
	Workload string  `json:"workload"`
	Arch     string  `json:"arch"`
	Insts    uint64  `json:"setup_insts"`
	RecInsts uint64  `json:"record_insts"`
	MIPSSlow float64 `json:"mips_setup_slow"`
	MIPSFast float64 `json:"mips_setup_fast"`
	RecSlow  float64 `json:"mips_record_slow"`
	RecFast  float64 `json:"mips_record_fast"`
	Speedup  float64 `json:"speedup_setup"`
	RecSpeed float64 `json:"speedup_record"`
	// Superblock-chain telemetry from the fast lane's last recorded
	// repetition (the single-step lane never builds blocks). Breaks stays
	// zero here — nothing overwrites text mid-run — but is exported so
	// the schema matches the machine's interp.* stats registry.
	ChainBlocks  uint64  `json:"chain_blocks"`
	ChainHits    uint64  `json:"chain_hits"`
	ChainMisses  uint64  `json:"chain_misses"`
	ChainBreaks  uint64  `json:"chain_breaks"`
	ChainLenMean float64 `json:"chain_len_mean"`
}

type report struct {
	Date          string  `json:"date"`
	HostCPUs      int     `json:"host_cpus"`
	GoMaxProcs    int     `json:"gomaxprocs"`
	Workloads     int     `json:"workloads"`
	SetupSpeedup  float64 `json:"geomean_speedup_setup"`
	RecordSpeedup float64 `json:"geomean_speedup_record"`
	// Geomean speedups divided by the PR 5 snapshot of the same metric:
	// the further gain contributed by superblock chaining + uop dispatch,
	// normalized against the unchanged single-step reference so host
	// speed cancels out.
	SetupVsPR5  float64 `json:"geomean_speedup_vs_pr5_setup"`
	RecordVsPR5 float64 `json:"geomean_speedup_vs_pr5_record"`
	Identical   bool    `json:"runs_identical"`
	Rows        []row   `json:"rows"`

	TotalSlowInsts uint64 `json:"total_insts_slow_path"`
}

const instrBudget = 600_000_000

// runSetupTimed boots a fresh machine for spec and runs the functional
// setup phase (no trace records), timing only the stepping loop — module
// build and machine construction stay outside the clock. It returns the
// booted machine, stopped at its checkpoint request.
func runSetupTimed(arch isa.Arch, spec harness.Spec, singleStep bool, p *phase) (*gemsys.Machine, error) {
	b, err := harness.BootSpec(gemsys.DefaultConfig(arch), spec)
	if err != nil {
		return nil, err
	}
	m := b.M
	m.SingleStep = singleStep
	t0 := time.Now()
	if err := m.RunSetup(instrBudget); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	p.sec += time.Since(t0).Seconds()
	p.insts += m.Atomic.Insts
	if !m.CheckpointPending() {
		return nil, fmt.Errorf("setup finished without checkpoint")
	}
	return m, nil
}

// runOnce measures both functional phases of one workload in the given
// stepping mode: setup (boot to checkpoint, non-recording) and the
// post-checkpoint request-serving run with trace recording on. Each phase
// repeats — fresh boots for setup, checkpoint restores for the record
// phase — with only stepping inside the timed region.
func runOnce(arch isa.Arch, spec harness.Spec, singleStep bool) (setup, record phase, console string, cs isa.ChainStats, err error) {
	m, err := runSetupTimed(arch, spec, singleStep, &setup)
	if err != nil {
		return phase{}, phase{}, "", cs, err
	}
	setup.perRep = setup.insts
	ck := m.TakeCheckpoint()
	for !setup.done() {
		m2, err := runSetupTimed(arch, spec, singleStep, &setup)
		if err != nil {
			return phase{}, phase{}, "", cs, err
		}
		if n := m2.Atomic.Insts; n != setup.perRep {
			return phase{}, phase{}, "", cs, fmt.Errorf("setup retired %d insts, then %d", setup.perRep, n)
		}
	}

	// Record phase: restore the checkpoint and run the request loop to
	// halt with trace recording on, discarding traces each pump round.
	// Restore resets guest memory and console, so every repetition is the
	// same run; the checkpoint copy stays outside the timed region.
	for rep := 0; rep == 0 || (record.perRep > 0 && !record.done()); rep++ {
		if err := m.Restore(ck); err != nil {
			return phase{}, phase{}, "", cs, fmt.Errorf("restore: %w", err)
		}
		t0 := time.Now()
		n, err := m.MeasureFunctional(instrBudget, true)
		if err != nil {
			return phase{}, phase{}, "", cs, fmt.Errorf("measure: %w", err)
		}
		record.sec += time.Since(t0).Seconds()
		record.insts += n
		if rep == 0 {
			record.perRep = n
			console = m.Console()
		} else if n != record.perRep {
			return phase{}, phase{}, "", cs, fmt.Errorf("record rep retired %d insts, then %d", record.perRep, n)
		}
	}
	// Restore severed links and zeroed the counters before each rep, so
	// this snapshot covers exactly one record repetition.
	cs = m.ChainStats()
	return setup, record, console, cs, nil
}

func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}

func main() {
	var (
		out     = flag.String("out", "BENCH_interp.json", "output JSON file")
		filter  = flag.String("workloads", "", "comma-separated workload name filter (default: all standalone)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
		pr5Set  = flag.Float64("pr5-setup", 3.735160194271716, "PR 5 geomean setup speedup baseline")
		pr5Rec  = flag.Float64("pr5-record", 3.6027334391720136, "PR 5 geomean record speedup baseline")
	)
	flag.Parse()
	stopProf, err := benchutil.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "interpbench:", err)
		os.Exit(2)
	}

	keep := map[string]bool{}
	for _, n := range strings.Split(*filter, ",") {
		if n = strings.TrimSpace(n); n != "" {
			keep[n] = true
		}
	}

	rep := report{
		Date:       time.Now().UTC().Format(time.RFC3339),
		HostCPUs:   runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Identical:  true,
	}
	var setupUps, recordUps []float64
	for _, arch := range []isa.Arch{isa.RV64, isa.CISC64} {
		for _, spec := range harness.StandaloneSpecs() {
			if len(keep) > 0 && !keep[spec.Name] {
				continue
			}
			slowSetup, slowRec, slowCon, _, err := runOnce(arch, spec, true)
			if err != nil {
				fmt.Fprintf(os.Stderr, "interpbench: %s/%s slow: %v\n", spec.Name, arch, err)
				os.Exit(1)
			}
			fastSetup, fastRec, fastCon, chain, err := runOnce(arch, spec, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "interpbench: %s/%s fast: %v\n", spec.Name, arch, err)
				os.Exit(1)
			}
			if slowSetup.perRep != fastSetup.perRep || slowRec.perRep != fastRec.perRep || slowCon != fastCon {
				rep.Identical = false
				fmt.Fprintf(os.Stderr,
					"interpbench: DIVERGENCE %s/%s: setup %d vs %d, record %d vs %d, console %d vs %d bytes\n",
					spec.Name, arch, slowSetup.perRep, fastSetup.perRep,
					slowRec.perRep, fastRec.perRep, len(slowCon), len(fastCon))
			}
			r := row{
				Workload:     spec.Name,
				Arch:         string(arch),
				Insts:        slowSetup.perRep,
				RecInsts:     slowRec.perRep,
				MIPSSlow:     slowSetup.mips(),
				MIPSFast:     fastSetup.mips(),
				RecSlow:      slowRec.mips(),
				RecFast:      fastRec.mips(),
				ChainBlocks:  chain.Blocks,
				ChainHits:    chain.Hits,
				ChainMisses:  chain.Misses,
				ChainBreaks:  chain.Breaks,
				ChainLenMean: chain.MeanChainLen(),
			}
			if r.MIPSSlow > 0 {
				r.Speedup = r.MIPSFast / r.MIPSSlow
			}
			if r.RecSlow > 0 {
				r.RecSpeed = r.RecFast / r.RecSlow
			}
			setupUps = append(setupUps, r.Speedup)
			recordUps = append(recordUps, r.RecSpeed)
			rep.TotalSlowInsts += slowSetup.perRep + slowRec.perRep
			rep.Rows = append(rep.Rows, r)
			fmt.Printf("%-14s %-7s setup %7.1f → %7.1f MIPS (%.2fx)   record %7.1f → %7.1f MIPS (%.2fx)   chain %d blk, %.0f len\n",
				spec.Name, arch, r.MIPSSlow, r.MIPSFast, r.Speedup, r.RecSlow, r.RecFast, r.RecSpeed,
				r.ChainBlocks, r.ChainLenMean)
		}
	}
	rep.Workloads = len(rep.Rows)
	rep.SetupSpeedup = geomean(setupUps)
	rep.RecordSpeedup = geomean(recordUps)
	if *pr5Set > 0 {
		rep.SetupVsPR5 = rep.SetupSpeedup / *pr5Set
	}
	if *pr5Rec > 0 {
		rep.RecordVsPR5 = rep.RecordSpeedup / *pr5Rec
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "interpbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "interpbench:", err)
		os.Exit(1)
	}
	f.Close()
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "interpbench:", err)
		os.Exit(1)
	}
	fmt.Printf("geomean speedup: setup %.2fx (%.2fx vs PR5), record %.2fx (%.2fx vs PR5) → %s\n",
		rep.SetupSpeedup, rep.SetupVsPR5, rep.RecordSpeedup, rep.RecordVsPR5, *out)
	if !rep.Identical {
		fmt.Fprintln(os.Stderr, "interpbench: fast and single-step runs diverged")
		os.Exit(1)
	}
}
