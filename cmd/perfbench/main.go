// Command perfbench is the repository's benchmark. It runs named
// workloads through the simulator's public entry points, checks that
// their outputs are correct, and prints every end-to-end metric with its
// unit as a median, min and max over timed trials. With -trace 1 it also
// replays one trial with host-time spans around every layer call and
// prints per-layer metrics. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

const (
	// minTrials is the fewest timed trials a run takes, however short
	// -seconds is.
	minTrials = 3
	// setupSamples is how many fresh processes each time a cold trial for
	// setup_s: this one and setupSamples-1 probes.
	setupSamples = 3
	// resultPrefix marks the line carrying a run's full result.
	resultPrefix = "result "
)

func main() {
	start := time.Now()
	os.Exit(run(os.Args[1:], start, os.Stdout, os.Stderr))
}

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	traceOut  string
	out       string
	reference bool
	cold      bool
}

func run(args []string, start time.Time, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: every workload, each in a process of its own)")
	fs.Uint64Var(&o.seed, "seed", 7, "seed the workloads' inputs are made from")
	fs.Float64Var(&o.seconds, "seconds", 8, "timed seconds per workload; at least 3 timed trials run")
	fs.IntVar(&o.trace, "trace", 0, "1: also replay one trial with spans and print per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write each workload's spans as Perfetto JSON into this directory")
	fs.StringVar(&o.out, "out", "", "write the results and host description as JSON to this file")
	fs.BoolVar(&o.reference, "reference", false, "recompute reference.json, print it, and exit 1 if it differs from the committed one")
	fs.BoolVar(&o.cold, "cold", false, "run one trial in this fresh process and print its time (set-up probe)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (o.trace != 0 && o.trace != 1) || o.seconds < 0 {
		fmt.Fprintln(stderr, "perfbench: want -trace 0 or 1, -seconds >= 0 and no arguments")
		return 2
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	jobs := runtime.NumCPU()

	switch {
	case o.reference:
		return runReference(ref, jobs, stdout, stderr)
	case o.workload == "":
		return runAll(o, exe, stdout, stderr)
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	p := defaultParams(o.seed, jobs, ref)
	if o.cold {
		return runCold(w, p, start, stdout)
	}
	res, rec, err := measure(w, p, o, start, exe)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if rec != nil && o.traceOut != "" {
		if err := writeTrace(o.traceOut, w.name, rec); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	if o.out != "" {
		if err := writeResults(o.out, []*result{res}); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	printResult(stdout, res, rec)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s%s\n", resultPrefix, line)
	if err := printSummary(stdout, []*result{res}, o.trace == 1); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

type metricDef struct{ name, unit string }

// endToEnd are the end-to-end metrics, in BENCHMARK.json's order: a
// timed trial's wall time and CPU time and the time of a fresh process's
// first trial, all scaled to the reference host speed (see calib.go), and
// a timed trial's peak resident memory.
var endToEnd = []metricDef{{"wall_norm_s", "s"}, {"cpu_norm_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"}}

// asMeasured are the unscaled times behind the end-to-end ones and the
// calibration kernel's times, reported beside them.
var asMeasured = []metricDef{{"host.wall_s", "s"}, {"host.cpu_s", "s"}, {"host.setup_s", "s"}, {"host.cal_s", "s"}}

// metricRow is one metric's name, unit and distribution.
type metricRow struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	summary
}

// result is one workload run: its correctness verdict, op counts and
// metrics.
type result struct {
	Workload  string      `json:"workload"`
	Seed      uint64      `json:"seed"`
	Jobs      int         `json:"jobs"`
	Correct   bool        `json:"correct"`
	Problems  []string    `json:"problems,omitempty"`
	Ops       int         `json:"ops"`
	OpsFailed int         `json:"ops_failed"`
	Digest    string      `json:"digest"`
	EndToEnd  []metricRow `json:"end_to_end"`
	Measured  []metricRow `json:"as_measured"`
	PerLayer  []metricRow `json:"per_layer,omitempty"`
}

// coldResult is what a set-up probe prints: its one cold trial.
type coldResult struct {
	Seconds  float64  `json:"seconds"`
	Ops      int      `json:"ops"`
	Failed   int      `json:"failed"`
	Digest   string   `json:"digest"`
	Problems []string `json:"problems,omitempty"`
}

// runCold is the set-up probe: one trial in a fresh process, timed from
// the start of main like the measuring process's own first trial.
func runCold(w *workload, p params, start time.Time, stdout io.Writer) int {
	out := w.trial(p)
	line, err := json.Marshal(coldResult{Seconds: time.Since(start).Seconds(),
		Ops: out.ops, Failed: out.failed, Digest: out.digest, Problems: out.problems})
	if err != nil {
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measure runs one workload: the set-up probes, this process's cold
// trial, the timed trials and, with -trace 1, the traced replay. It
// returns the recorder of the traced replay (nil without one).
func measure(w *workload, p params, o options, start time.Time, exe string) (*result, *recorder, error) {
	res := &result{Workload: w.name, Seed: p.seed, Jobs: p.jobs}
	var digests []string
	book := func(out outcome) {
		res.Ops += out.ops
		res.OpsFailed += out.failed
		res.Problems = append(res.Problems, out.problems...)
		digests = append(digests, out.digest)
		if out.cpiErr > p.ref.Sampled.CPIErrMaxPct {
			res.Problems = append(res.Problems, fmt.Sprintf("sampled CPI error %.4f%% exceeds the committed %.4f%%",
				out.cpiErr, p.ref.Sampled.CPIErrMaxPct))
		}
	}

	// setup_s: the first trial of a fresh process, which pays every
	// one-time cost a command-line run pays. The probes run before this
	// process allocates anything but the calibration tables, so no two
	// large heaps coexist.
	beforeProbes := time.Since(start)
	// The calibration kernel runs before each set-up sample and after
	// each timed trial, so its samples span the whole run.
	cal := newCalibrator(p.jobs)
	var setups []float64
	if o.trace == 0 {
		for i := 1; i < setupSamples; i++ {
			cal.sample()
			c, err := probeCold(exe, w, p.seed)
			if err != nil {
				return nil, nil, err
			}
			setups = append(setups, c.Seconds)
			book(outcome{ops: c.Ops, failed: c.Failed, digest: c.Digest, problems: c.Problems})
		}
	}
	cal.sample()
	t := time.Now()
	last := w.trial(p)
	setups = append(setups, (beforeProbes + time.Since(t)).Seconds())
	book(last)

	var walls, cpus, peaks, allocs, gcs []float64
	var spent time.Duration
	for n := 0; n < minTrials || spent.Seconds() < o.seconds; n++ {
		// Each trial starts from a collected heap, and its memory peak is
		// its own. The freed heap stays mapped: returning it to the OS
		// would add a page fault per page to every trial's time.
		runtime.GC()
		resetPeak()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		u0, err := readUsage()
		if err != nil {
			return nil, nil, err
		}
		t := time.Now()
		out := w.trial(p)
		d := time.Since(t)
		u1, err := readUsage()
		if err != nil {
			return nil, nil, err
		}
		runtime.ReadMemStats(&m1)
		spent += d
		walls = append(walls, d.Seconds())
		cpus = append(cpus, (u1.cpu - u0.cpu).Seconds())
		peaks = append(peaks, u1.peakMB-cal.residentMB())
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		gcs = append(gcs, float64(m1.NumGC-m0.NumGC))
		book(out)
		last = out
		cal.sample()
	}
	f := cal.factor()
	scaled := func(vals []float64) []float64 {
		out := make([]float64, len(vals))
		for i, v := range vals {
			out[i] = v * f
		}
		return out
	}
	samples := map[string][]float64{
		"wall_norm_s": scaled(walls), "cpu_norm_s": scaled(cpus), "setup_s": scaled(setups), "peak_rss_mb": peaks,
		"host.wall_s": walls, "host.cpu_s": cpus, "host.setup_s": setups, "host.cal_s": cal.samples,
	}
	for _, m := range endToEnd {
		res.EndToEnd = append(res.EndToEnd, metricRow{m.name, m.unit, summarize(samples[m.name])})
	}
	for _, m := range asMeasured {
		res.Measured = append(res.Measured, metricRow{m.name, m.unit, summarize(samples[m.name])})
	}

	var rec *recorder
	if o.trace == 1 {
		runtime.GC()
		rec = newRecorder()
		out := w.traced(p, rec, last)
		book(out)
		vals := layerValues(rec, p.jobs, untraced{wall: median(walls), allocMB: median(allocs), gcs: median(gcs)}, out)
		for _, m := range layerMetrics {
			v := vals[m.name]
			res.PerLayer = append(res.PerLayer, metricRow{m.name, m.unit, summary{Median: v, Min: v, Max: v, N: 1}})
		}
	}

	res.Digest = digests[0]
	for _, d := range digests {
		if d != res.Digest {
			res.Problems = append(res.Problems, "outputs differ between trials")
			break
		}
	}
	if w.pinned && (!w.seeded || p.seed == p.ref.Seed) && res.Digest != p.ref.Digests[w.name] {
		res.Problems = append(res.Problems, fmt.Sprintf("digest %s differs from reference.json's %s",
			res.Digest, p.ref.Digests[w.name]))
	}
	res.Correct = res.OpsFailed == 0 && len(res.Problems) == 0
	return res, rec, nil
}

// probeCold runs one set-up probe: this binary in a fresh process, doing
// one cold trial.
func probeCold(exe string, w *workload, seed uint64) (coldResult, error) {
	var c coldResult
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10), "-cold")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return c, fmt.Errorf("set-up probe: %w", err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(out), &c); err != nil {
		return c, fmt.Errorf("set-up probe output: %w", err)
	}
	return c, nil
}

func writeTrace(dir, name string, rec *recorder) error {
	js, err := rec.chromeJSON()
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), js, 0o644)
}

// host describes the machine and build a run was measured on.
type host struct {
	CPUs       int    `json:"host_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
}

func thisHost() host {
	h := host{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		OSArch: runtime.GOOS + "/" + runtime.GOARCH, Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			h.Commit += "+modified"
		}
	}
	return h
}

func writeResults(path string, results []*result) error {
	js, err := json.MarshalIndent(struct {
		Host    host      `json:"host"`
		Results []*result `json:"results"`
	}{thisHost(), results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}

func printResult(w io.Writer, r *result, rec *recorder) {
	verdict := "correct"
	if !r.Correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "== %s (seed %d, %d workers): %s, %d ops, %d failed, digest %s\n",
		r.Workload, r.Seed, r.Jobs, verdict, r.Ops, r.OpsFailed, r.Digest)
	for _, p := range r.Problems {
		fmt.Fprintln(w, "   problem:", p)
	}
	fmt.Fprintf(w, "   %-24s %-7s %12s %12s %12s %3s\n", "metric", "unit", "median", "min", "max", "n")
	for _, m := range append(r.EndToEnd, r.Measured...) {
		fmt.Fprintf(w, "   %-24s %-7s %12.4f %12.4f %12.4f %3d\n", m.Name, m.Unit, m.Median, m.Min, m.Max, m.N)
	}
	if rec == nil {
		return
	}
	fmt.Fprintf(w, "   per layer (traced trial; times are self time):\n")
	for _, m := range r.PerLayer {
		fmt.Fprintf(w, "   %-24s %-7s %12.4f\n", m.Name, m.Unit, m.Median)
	}
	describeSweep(w, rec)
}

// printSummary prints the run's last line: correct, attempted, failed
// and every metric's median, end-to-end or (traced) per-layer. Metrics
// of a multi-workload run are prefixed with the workload's name.
func printSummary(w io.Writer, results []*result, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	sum := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range results {
		sum.Correct = sum.Correct && r.Correct
		sum.Attempted += r.Ops
		sum.Failed += r.OpsFailed
		rows := r.EndToEnd
		if traced {
			rows = r.PerLayer
		}
		for _, m := range rows {
			name := m.Name
			if len(results) > 1 {
				name = r.Workload + "." + name
			}
			sum.Metrics[name] = value{m.Median, m.Unit}
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runAll runs every workload, one at a time, each in a fresh process.
func runAll(o options, exe string, stdout, stderr io.Writer) int {
	h := thisHost()
	fmt.Fprintf(stdout, "perfbench: %d CPUs, GOMAXPROCS %d, %s %s, commit %s\n",
		h.CPUs, h.GOMAXPROCS, h.GoVersion, h.OSArch, h.Commit)
	code := 0
	var results []*result
	for _, w := range workloads() {
		args := []string{"-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(o.trace)}
		if o.traceOut != "" {
			args = append(args, "-trace-out", o.traceOut)
		}
		var buf bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		err := cmd.Run()
		r, perr := parseResult(&buf)
		if perr != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, errors.Join(err, perr))
			code = 1
			continue
		}
		if err != nil {
			code = 1
		}
		results = append(results, r)
	}
	if o.out != "" {
		if err := writeResults(o.out, results); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			code = 1
		}
	}
	if err := printSummary(stdout, results, o.trace == 1); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		code = 1
	}
	return code
}

func parseResult(out io.Reader) (*result, error) {
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), resultPrefix); ok {
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				return nil, fmt.Errorf("result line: %w", err)
			}
			return &r, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, errors.New("no result line")
}

// runReference recomputes the committed reference and prints it; the
// output replaces reference.json when a change is meant to alter outputs.
func runReference(ref *reference, jobs int, stdout, stderr io.Writer) int {
	fresh, err := regenerate(ref.Seed, jobs)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: reference:", err)
		return 1
	}
	js, err := fresh.marshal()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: reference:", err)
		return 1
	}
	stdout.Write(js)
	if !bytes.Equal(js, referenceJSON) {
		fmt.Fprintln(stderr, "perfbench: the recomputed reference differs from reference.json")
		return 1
	}
	return 0
}
