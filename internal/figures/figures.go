// Package figures regenerates every figure and table of the thesis's
// evaluation section (§4.2) from the simulated infrastructure: it sweeps
// the experiment catalog across both ISAs once, then projects the results
// into the per-figure series. See DESIGN.md §3 for the experiment index.
package figures

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"svbench/internal/gemsys"
	"svbench/internal/harness"
	"svbench/internal/isa"
	"svbench/internal/qemu"
	"svbench/internal/stats"
	"svbench/internal/sweep"
)

// Data is one figure's or table's rows.
type Data struct {
	ID      string
	Title   string
	Columns []string
	Rows    []Row
}

// Row is one labeled series entry.
type Row struct {
	Label  string
	Values []float64
}

// Markdown renders the data as a GitHub table.
func (d Data) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s — %s\n\n", d.ID, d.Title)
	sb.WriteString("| " + strings.Join(append([]string{"benchmark"}, d.Columns...), " | ") + " |\n")
	sb.WriteString(strings.Repeat("|---", len(d.Columns)+1) + "|\n")
	for _, r := range d.Rows {
		cells := []string{r.Label}
		for _, v := range r.Values {
			if v == float64(int64(v)) {
				cells = append(cells, fmt.Sprintf("%.0f", v))
			} else {
				cells = append(cells, fmt.Sprintf("%.2f", v))
			}
		}
		sb.WriteString("| " + strings.Join(cells, " | ") + " |\n")
	}
	return sb.String()
}

// CSV renders the data as comma-separated rows.
func (d Data) CSV() string {
	var sb strings.Builder
	sb.WriteString("benchmark," + strings.Join(d.Columns, ",") + "\n")
	for _, r := range d.Rows {
		cells := []string{r.Label}
		for _, v := range r.Values {
			cells = append(cells, fmt.Sprintf("%g", v))
		}
		sb.WriteString(strings.Join(cells, ",") + "\n")
	}
	return sb.String()
}

// Results caches one full sweep: every spec on every ISA.
type Results struct {
	// Standalone and shop results by arch then spec name.
	Fn map[isa.Arch]map[string]*harness.Result
	// Hotel results by arch then function name.
	Hotel map[isa.Arch]map[string]*harness.Result
	// Failures records experiments that did not complete, sorted by
	// architecture then spec name so the failure report is deterministic
	// no matter which worker hit the failure first. The sweep degrades
	// gracefully: one bad spec no longer aborts the campaign, and
	// projections skip its rows.
	Failures []*harness.ExperimentError
}

// SweepOpts configures how the experiment matrix is executed. The zero
// value runs on sweep.DefaultJobs() workers with memoization enabled —
// any worker count and either memoization setting produces identical
// Results.
type SweepOpts struct {
	// Jobs is the worker count; 0 means sweep.DefaultJobs().
	Jobs int
	// DisableMemo turns off cross-run checkpoint memoization.
	DisableMemo bool
	// Cache, when non-nil, replaces the per-sweep boot cache so
	// checkpoints memoize across sweeps and callers can read its
	// hit/miss counters. Ignored when DisableMemo is set.
	Cache *harness.BootCache
	// Log, when non-nil, receives one progress line per experiment.
	// Lines arrive in completion order, which may vary between runs —
	// the log stream is the one output outside the determinism contract.
	Log func(string)
}

// SweepWith runs fnSpecs and hotelSpecs on each arch across a worker
// pool, degrading gracefully: a failed experiment lands in
// Results.Failures as a structured *harness.ExperimentError and the
// sweep continues. Tasks are handed out in handOut's cost order, each
// outcome is routed to its (arch, name) slot and Failures are sorted, so
// the returned Results is identical for every Jobs/DisableMemo setting.
func SweepWith(arches []isa.Arch, fnSpecs, hotelSpecs []harness.Spec, opt SweepOpts) *Results {
	tasks, hotel := handOut(arches, fnSpecs, hotelSpecs)
	out := sweep.Run(tasks, sweep.Options{
		Jobs:        opt.Jobs,
		DisableMemo: opt.DisableMemo,
		Cache:       opt.Cache,
		Log:         opt.Log,
	})

	res := &Results{
		Fn:    map[isa.Arch]map[string]*harness.Result{},
		Hotel: map[isa.Arch]map[string]*harness.Result{},
	}
	for _, arch := range arches {
		res.Fn[arch] = map[string]*harness.Result{}
		res.Hotel[arch] = map[string]*harness.Result{}
	}
	for i, o := range out {
		arch, name := o.Task.Cfg.Arch, o.Task.Spec.Name
		if o.Err != nil {
			var ee *harness.ExperimentError
			if !errors.As(o.Err, &ee) {
				if hotel[i] {
					name = "hotel-" + name
				}
				ee = &harness.ExperimentError{Spec: name, Arch: arch, Phase: "run", Err: o.Err}
			}
			res.Failures = append(res.Failures, ee)
			continue
		}
		if hotel[i] {
			res.Hotel[arch][name] = o.Result
		} else {
			res.Fn[arch][name] = o.Result
		}
	}
	sort.SliceStable(res.Failures, func(i, j int) bool {
		if res.Failures[i].Arch != res.Failures[j].Arch {
			return res.Failures[i].Arch < res.Failures[j].Arch
		}
		return res.Failures[i].Spec < res.Failures[j].Spec
	})
	return res
}

// handOut lists SweepWith's tasks in the order the workers take them,
// with hotel[i] marking the hotel tasks. The longest tasks go first, so
// the pool never ends with one worker running a long task while the
// others idle (Graham's LPT rule). The order is fixed by cost class, not
// measured: the hotel block before the standalone and shop block, cisc64
// before rv64 within each block, and the hotel functions in reverse
// catalog order, which hands out profile on cisc64, the longest task of
// the default matrix, first.
func handOut(arches []isa.Arch, fnSpecs, hotelSpecs []harness.Spec) (tasks []sweep.Task, hotel []bool) {
	var cfgs []gemsys.Config
	for _, arch := range arches {
		if arch == isa.CISC64 {
			cfgs = append([]gemsys.Config{gemsys.DefaultConfig(arch)}, cfgs...)
		} else {
			cfgs = append(cfgs, gemsys.DefaultConfig(arch))
		}
	}
	for _, cfg := range cfgs {
		for i := len(hotelSpecs) - 1; i >= 0; i-- {
			tasks = append(tasks, sweep.Task{Cfg: cfg, Spec: hotelSpecs[i]})
			hotel = append(hotel, true)
		}
	}
	for _, cfg := range cfgs {
		for _, sp := range fnSpecs {
			tasks = append(tasks, sweep.Task{Cfg: cfg, Spec: sp})
			hotel = append(hotel, false)
		}
	}
	return tasks, hotel
}

// Collect runs the complete sweep serially. Progress (one line per
// experiment) is reported through log, which may be nil. Failed
// experiments are recorded in Results.Failures and the sweep continues;
// Collect returns an error only when nothing could run at all.
func Collect(log func(string)) (*Results, error) {
	return CollectWith(SweepOpts{Jobs: 1, Log: log})
}

// CollectWith runs the complete sweep with explicit execution options.
// The returned Results is independent of opt.Jobs and opt.DisableMemo.
func CollectWith(opt SweepOpts) (*Results, error) {
	res := SweepWith([]isa.Arch{isa.RV64, isa.CISC64},
		append(harness.StandaloneSpecs(), harness.ShopSpecs()...),
		harness.HotelSpecs(harness.EngineCassandra), opt)
	if len(res.Fn[isa.RV64])+len(res.Fn[isa.CISC64])+
		len(res.Hotel[isa.RV64])+len(res.Hotel[isa.CISC64]) == 0 {
		return nil, fmt.Errorf("figures: every experiment failed (%d failures)", len(res.Failures))
	}
	return res, nil
}

// FnOrder is the standalone+shop presentation order of the figures.
var FnOrder = []string{
	"fibonacci-go", "fibonacci-python", "fibonacci-nodejs",
	"aes-go", "aes-python", "aes-nodejs",
	"auth-go", "auth-python", "auth-nodejs",
	"productcatalog-go", "shipping-go",
	"recommendation-python", "emailservice-python",
	"currency-nodejs", "payment-nodejs",
}

// HotelOrder is the hotel presentation order.
var HotelOrder = []string{"geo", "recommendation", "user", "reservation", "rate", "profile"}

// GoFnOrder lists the Go functions of Figs. 4.10/4.11.
var GoFnOrder = []string{
	"fibonacci-go", "aes-go", "auth-go", "productcatalog-go", "shipping-go",
	"geo", "recommendation", "user", "reservation", "rate", "profile",
}

func (r *Results) fn(arch isa.Arch, name string) *harness.Result {
	if res, ok := r.Fn[arch][name]; ok {
		return res
	}
	return r.Hotel[arch][name]
}

func (r *Results) project(id, title string, names []string, cols []string,
	get func(*harness.Result) []float64, arches ...isa.Arch) Data {
	d := Data{ID: id, Title: title, Columns: cols}
	for _, n := range names {
		var vals []float64
		missing := false
		for _, a := range arches {
			res := r.fn(a, n)
			if res == nil {
				// The experiment failed during Collect; leave its row out
				// rather than fabricating zeros.
				missing = true
				break
			}
			vals = append(vals, get(res)...)
		}
		if missing {
			continue
		}
		d.Rows = append(d.Rows, Row{Label: n, Values: vals})
	}
	return d
}

func coldWarm(f func(stats.CoreStats) float64) func(*harness.Result) []float64 {
	return func(r *harness.Result) []float64 {
		return []float64{f(r.Cold), f(r.Warm)}
	}
}

func cycles(s stats.CoreStats) float64 { return float64(s.Cycles) }
func insts(s stats.CoreStats) float64  { return float64(s.Insts) }
func l1i(s stats.CoreStats) float64    { return float64(s.L1IMisses) }
func l1d(s stats.CoreStats) float64    { return float64(s.L1DMisses) }
func l2(s stats.CoreStats) float64     { return float64(s.L2Misses) }

// Fig44: cycles, standalone + shop, RISC-V, cold vs warm.
func (r *Results) Fig44() Data {
	return r.project("fig4.4", "Cycles, standalone functions and online shop (RISC-V)",
		FnOrder, []string{"riscv cold", "riscv warm"}, coldWarm(cycles), isa.RV64)
}

// Fig45: cycles, hotel, RISC-V.
func (r *Results) Fig45() Data {
	return r.project("fig4.5", "Cycles, hotel application (RISC-V)",
		HotelOrder, []string{"riscv cold", "riscv warm"}, coldWarm(cycles), isa.RV64)
}

// Fig46: hotel L1 misses after cold execution (I and D).
func (r *Results) Fig46() Data {
	return r.project("fig4.6", "Hotel L1 misses, cold (RISC-V)",
		HotelOrder, []string{"l1 instruction", "l1 data"},
		func(res *harness.Result) []float64 { return []float64{l1i(res.Cold), l1d(res.Cold)} }, isa.RV64)
}

// Fig47: hotel L1 misses after warm execution.
func (r *Results) Fig47() Data {
	return r.project("fig4.7", "Hotel L1 misses, warm (RISC-V)",
		HotelOrder, []string{"l1 instruction", "l1 data"},
		func(res *harness.Result) []float64 { return []float64{l1i(res.Warm), l1d(res.Warm)} }, isa.RV64)
}

func pctSplit(i, d float64) []float64 {
	t := i + d
	if t == 0 {
		return []float64{0, 0}
	}
	return []float64{100 * i / t, 100 * d / t}
}

// Fig48: percentage split of hotel L1 misses, cold.
func (r *Results) Fig48() Data {
	return r.project("fig4.8", "Hotel L1 miss split %, cold (RISC-V)",
		HotelOrder, []string{"% instruction", "% data"},
		func(res *harness.Result) []float64 { return pctSplit(l1i(res.Cold), l1d(res.Cold)) }, isa.RV64)
}

// Fig49: percentage split of hotel L1 misses, warm.
func (r *Results) Fig49() Data {
	return r.project("fig4.9", "Hotel L1 miss split %, warm (RISC-V)",
		HotelOrder, []string{"% instruction", "% data"},
		func(res *harness.Result) []float64 { return pctSplit(l1i(res.Warm), l1d(res.Warm)) }, isa.RV64)
}

// Fig410: cycles of the Go functions, RISC-V.
func (r *Results) Fig410() Data {
	return r.project("fig4.10", "Cycles, Go functions (RISC-V)",
		GoFnOrder, []string{"riscv cold", "riscv warm"}, coldWarm(cycles), isa.RV64)
}

// Fig411: L2 misses of the Go functions, RISC-V.
func (r *Results) Fig411() Data {
	return r.project("fig4.11", "L2 misses, Go functions (RISC-V)",
		GoFnOrder, []string{"riscv cold", "riscv warm"}, coldWarm(l2), isa.RV64)
}

// Fig412: cycles, standalone + shop, x86.
func (r *Results) Fig412() Data {
	return r.project("fig4.12", "Cycles, standalone functions and online shop (x86)",
		FnOrder, []string{"x86 cold", "x86 warm"}, coldWarm(cycles), isa.CISC64)
}

// PyFnOrder lists the Python functions of Fig. 4.13.
var PyFnOrder = []string{"fibonacci-python", "aes-python", "auth-python",
	"recommendation-python", "emailservice-python"}

// Fig413: L2 misses of the Python functions, x86.
func (r *Results) Fig413() Data {
	return r.project("fig4.13", "L2 misses, Python functions (x86)",
		PyFnOrder, []string{"x86 cold", "x86 warm"}, coldWarm(l2), isa.CISC64)
}

// Fig414: cycles, hotel, x86.
func (r *Results) Fig414() Data {
	return r.project("fig4.14", "Cycles, hotel application (x86)",
		HotelOrder, []string{"x86 cold", "x86 warm"}, coldWarm(cycles), isa.CISC64)
}

// Fig415: cycles, RISC-V vs x86, standalone + shop.
func (r *Results) Fig415() Data {
	return r.project("fig4.15", "Cycles, RISC-V vs x86",
		FnOrder, []string{"x86 cold", "x86 warm", "riscv cold", "riscv warm"},
		coldWarm(cycles), isa.CISC64, isa.RV64)
}

// Fig416: executed instructions, RISC-V vs x86.
func (r *Results) Fig416() Data {
	return r.project("fig4.16", "Instructions, RISC-V vs x86",
		FnOrder, []string{"x86 cold", "x86 warm", "riscv cold", "riscv warm"},
		coldWarm(insts), isa.CISC64, isa.RV64)
}

// Fig417: L1 instruction misses, RISC-V vs x86.
func (r *Results) Fig417() Data {
	return r.project("fig4.17", "L1 instruction misses, RISC-V vs x86",
		FnOrder, []string{"x86 cold", "x86 warm", "riscv cold", "riscv warm"},
		coldWarm(l1i), isa.CISC64, isa.RV64)
}

// Fig418: L2 misses, RISC-V vs x86.
func (r *Results) Fig418() Data {
	return r.project("fig4.18", "L2 misses, RISC-V vs x86",
		FnOrder, []string{"x86 cold", "x86 warm", "riscv cold", "riscv warm"},
		coldWarm(l2), isa.CISC64, isa.RV64)
}

// Fig419: cycles, hotel, RISC-V vs x86.
func (r *Results) Fig419() Data {
	return r.project("fig4.19", "Cycles, hotel application, RISC-V vs x86",
		HotelOrder, []string{"x86 cold", "x86 warm", "riscv cold", "riscv warm"},
		coldWarm(cycles), isa.CISC64, isa.RV64)
}

// TableMPKI projects the derived warm-window miss-rate metrics — L1 MPKI,
// branch MPKI and L2 miss ratio — RISC-V vs x86, using the stats
// accessors rather than recomputing the ratios per figure.
func (r *Results) TableMPKI() Data {
	return r.project("table-mpki", "Warm-window miss rates, RISC-V vs x86",
		FnOrder,
		[]string{"riscv MPKI", "riscv branch MPKI", "riscv L2 miss ratio",
			"x86 MPKI", "x86 branch MPKI", "x86 L2 miss ratio"},
		func(res *harness.Result) []float64 {
			return []float64{res.Warm.MPKI(), res.Warm.BranchMPKI(), res.Warm.L2MissRatio()}
		}, isa.RV64, isa.CISC64)
}

// Fig420 runs the QEMU-mode MongoDB-vs-Cassandra comparison (x86) on
// sweep.DefaultJobs() workers.
func Fig420(nreq int) (Data, error) { return fig420(nreq, 0) }

func fig420(nreq, jobs int) (Data, error) {
	d := Data{
		ID:      "fig4.20",
		Title:   "MongoDB vs Cassandra request latency under emulation (x86, ns)",
		Columns: []string{"cass cold", "cass warm", "mongo cold", "mongo warm"},
	}
	engines := []harness.HotelEngine{harness.EngineCassandra, harness.EngineMongo}
	// Cell i is HotelOrder[i/2] on engines[i%2]: its cold and warm latency.
	runs, err := cells(2*len(HotelOrder), jobs, func(i int) ([2]float64, error) {
		fn, eng := HotelOrder[i/2], engines[i%2]
		lats, err := qemu.Run(isa.CISC64, harness.HotelSpec(fn, eng), nreq)
		if err != nil {
			return [2]float64{}, fmt.Errorf("fig4.20 %s/%s: %w", fn, eng, err)
		}
		return [2]float64{float64(lats[0].NS), float64(lats[nreq-1].NS)}, nil
	})
	if err != nil {
		return d, err
	}
	for i, fn := range HotelOrder {
		cass, mongo := runs[2*i], runs[2*i+1]
		d.Rows = append(d.Rows, Row{Label: fn, Values: []float64{cass[0], cass[1], mongo[0], mongo[1]}})
	}
	return d, nil
}

// cells computes cell(0)…cell(n-1) on jobs workers (0 selects
// sweep.DefaultJobs()), each into its own slot, and returns the values in
// index order, or the error of the lowest failing index, so the outcome
// is the same for every worker count. The workers take the cells from
// the last index down: Fig. 4.20's runs grow longer down the catalog and
// end with profile's pair, the longest; the image builds of the size
// tables take about the same time each.
func cells[T any](n, jobs int, cell func(i int) (T, error)) ([]T, error) {
	vals := make([]T, n)
	errs := make([]error, n)
	sweep.Each(n, jobs, func(k int) {
		i := n - 1 - k
		vals[i], errs[i] = cell(i)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// Table41 renders the common configuration parameters.
func Table41() Data {
	cfg := gemsys.DefaultConfig(isa.RV64)
	d := Data{ID: "table4.1", Title: "Common simulated system configuration", Columns: []string{"value"}}
	add := func(k string, v float64) { d.Rows = append(d.Rows, Row{Label: k, Values: []float64{v}}) }
	add("cores", float64(cfg.Cores))
	add("clock MHz", float64(cfg.ClockMHz))
	add("L1I bytes/core", float64(cfg.Hier.L1I.Size))
	add("L1I assoc", float64(cfg.Hier.L1I.Assoc))
	add("L1D bytes/core", float64(cfg.Hier.L1D.Size))
	add("L1D assoc", float64(cfg.Hier.L1D.Assoc))
	add("L2 bytes/core", float64(cfg.Hier.L2.Size))
	add("L2 assoc", float64(cfg.Hier.L2.Assoc))
	add("ROB entries", float64(cfg.O3.ROBSize))
	add("LQ entries", float64(cfg.O3.LQSize))
	add("SQ entries", float64(cfg.O3.SQSize))
	add("ITLB entries", float64(cfg.Hier.ITLB.Entries))
	add("DTLB entries", float64(cfg.Hier.DTLB.Entries))
	return d
}
