package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"svbench/internal/figures"
	"svbench/internal/gemsys"
	"svbench/internal/harness"
	"svbench/internal/isa"
	"svbench/internal/sweep"
)

// benchmarkFile is the slice of BENCHMARK.json the tests compare with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string   `json:"name"`
		Unit  string   `json:"unit"`
		Bound *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMetricNamesMatchBenchmarkJSON checks that the names the summary
// line prints are well formed and that BENCHMARK.json declares each with
// the same unit (and, end to end, a bound), and nothing more.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmark(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	var r result
	for _, m := range endToEnd {
		r.EndToEnd = append(r.EndToEnd, metricRow{Name: m.name, Unit: m.unit})
	}
	for _, m := range layerMetrics {
		r.PerLayer = append(r.PerLayer, metricRow{Name: m.name, Unit: m.unit})
	}
	printed := func(traced bool) map[string]string {
		var buf bytes.Buffer
		if err := printSummary(&buf, []*result{&r}, traced); err != nil {
			t.Fatal(err)
		}
		var line struct {
			Metrics map[string]struct{ Unit string } `json:"metrics"`
		}
		if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		units := map[string]string{}
		for name, m := range line.Metrics {
			if !nameRE.MatchString(name) {
				t.Errorf("metric name %q is malformed", name)
			}
			units[name] = m.Unit
		}
		return units
	}

	declared := map[string]string{}
	for _, m := range b.EndToEnd {
		declared[m.Name] = m.Unit
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound missing or outside (0, 0.25]", m.Name)
		}
	}
	if got := printed(false); !reflect.DeepEqual(got, declared) {
		t.Errorf("end-to-end metrics printed %v, BENCHMARK.json declares %v", got, declared)
	}
	declared = map[string]string{}
	for _, m := range b.PerLayer {
		declared[m.Name] = m.Unit
	}
	if got := printed(true); !reflect.DeepEqual(got, declared) {
		t.Errorf("per-layer metrics printed %v, BENCHMARK.json declares %v", got, declared)
	}

	// BENCHMARK.json lists the workloads whose runs repeat within their
	// bounds; every one of them must exist here.
	for _, w := range b.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json lists %s: %v", w.Name, err)
		}
	}
}

// TestCalibratorFactor checks the scaling of measured times to the
// reference host speed: calRef over the median kernel time.
func TestCalibratorFactor(t *testing.T) {
	for _, tc := range []struct {
		samples []float64
		want    float64
	}{
		{[]float64{calRef}, 1},
		{[]float64{2 * calRef}, 0.5},
		{[]float64{9 * calRef, calRef / 2, calRef, calRef / 4}, calRef / (0.75 * calRef)},
	} {
		c := &calibrator{samples: tc.samples}
		if got := c.factor(); got < tc.want-1e-12 || got > tc.want+1e-12 {
			t.Errorf("factor with samples %v = %v, want %v", tc.samples, got, tc.want)
		}
	}
	c := newCalibrator(2)
	c.sample()
	if len(c.samples) != calSamples || c.samples[0] <= 0 {
		t.Errorf("one calibration point recorded %v, want %d positive times", c.samples, calSamples)
	}
	if got, want := c.residentMB(), 2*float64(calWords*8)/(1<<20); got != want {
		t.Errorf("residentMB = %v, want %v", got, want)
	}
}

func TestSummarize(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want summary
	}{
		{nil, summary{}},
		{[]float64{2}, summary{Median: 2, Min: 2, Max: 2, N: 1}},
		{[]float64{3, 1, 2}, summary{Median: 2, Min: 1, Max: 3, N: 3}},
		{[]float64{4, 1, 3, 2}, summary{Median: 2.5, Min: 1, Max: 4, N: 4}},
		{[]float64{5, 5, 1, 9, 5}, summary{Median: 5, Min: 1, Max: 9, N: 5}},
	} {
		in := append([]float64(nil), tc.in...)
		if got := summarize(tc.in); got != tc.want {
			t.Errorf("summarize(%v) = %+v, want %+v", in, got, tc.want)
		}
		if !reflect.DeepEqual(in, tc.in) {
			t.Errorf("summarize reordered its input: %v", tc.in)
		}
	}
}

// TestSelfTimes checks the span arithmetic behind the per-layer metrics
// on a hand-built trace: two workers, one straggling.
func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	rec := newRecorder()
	rec.spans = []span{
		{name: "trial", parent: -1, start: 0, end: ms(100)},
		{name: "sweep", parent: 0, start: 0, end: ms(90)},
		{name: "a/rv64", track: 1, parent: 1, start: ms(0), end: ms(30)},
		{name: "compile", track: 1, parent: 2, start: ms(0), end: ms(10)},
		{name: "eval", track: 1, parent: 2, start: ms(10), end: ms(28)},
		{name: "b/rv64", track: 2, parent: 1, start: ms(0), end: ms(90)},
		{name: "eval", track: 2, parent: 5, start: ms(5), end: ms(90)},
		{name: "render", parent: 0, start: ms(90), end: ms(99)},
	}
	self := rec.selfTimes(0)
	for name, want := range map[string]time.Duration{
		"trial": ms(1), "sweep": 0, "a/rv64": ms(2), "b/rv64": ms(5),
		"compile": ms(10), "eval": ms(18 + 85), "render": ms(9),
	} {
		if self[name] != want {
			t.Errorf("self[%s] = %v, want %v", name, self[name], want)
		}
	}
	v := layerValues(rec, 2, untraced{wall: 0.08}, outcome{})
	if len(v) != len(layerMetrics) {
		t.Errorf("layerValues gives %d metrics, layerMetrics lists %d", len(v), len(layerMetrics))
	}
	for _, m := range layerMetrics {
		if _, ok := v[m.name]; !ok {
			t.Errorf("layerValues lacks %s", m.name)
		}
	}
	near := func(name string, want float64) {
		if d := v[name] - want; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %v, want %v", name, v[name], want)
		}
	}
	near("sweep.busy_s", 0.120)
	near("sweep.straggler_s", 0.090-0.060)
	near("sweep.efficiency", 0.120/0.180)
	near("trace.overhead_pct", 25)
	near("trace.coverage_pct", 100*122.0/130.0)
}

// shrunk is a workload size a test runs in seconds.
func shrunk(jobs int) params {
	p := defaultParams(7, jobs, &reference{})
	p.churnPerArch, p.burstPerPolicy = 8, 16
	return p
}

// TestDigestIndependentOfJobs checks that the load workloads' outputs,
// and so their digests, do not depend on the worker count.
func TestDigestIndependentOfJobs(t *testing.T) {
	for _, name := range []string{"cold-churn", "autoscale-burst"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		one, two := w.trial(shrunk(1)), w.trial(shrunk(2))
		for _, o := range []outcome{one, two} {
			if o.failed > 0 || len(o.problems) > 0 || o.ops == 0 {
				t.Fatalf("%s: %d ops, %d failed, problems %v", name, o.ops, o.failed, o.problems)
			}
		}
		if one.digest != two.digest {
			t.Errorf("%s: digest %s at -j 1, %s at -j 2", name, one.digest, two.digest)
		}
	}
}

// TestReplayCrossCheck checks that the phase-by-phase replay reproduces
// the sweep's stats, and that the cross-check notices one perturbed
// counter.
func TestReplayCrossCheck(t *testing.T) {
	var spec harness.Spec
	for _, sp := range harness.StandaloneSpecs() {
		if sp.Name == "fibonacci-go" {
			spec = sp
		}
	}
	tasks := []sweep.Task{{Cfg: gemsys.DefaultConfig(isa.RV64), Spec: spec}}
	res := figures.SweepWith([]isa.Arch{isa.RV64}, []harness.Spec{spec}, nil, figures.SweepOpts{Jobs: 1})
	want := []*harness.Result{res.Fn[isa.RV64][spec.Name]}

	rec := newRecorder()
	root, got, errs := replay(tasks, 1, rec)
	rec.end(root)
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if err := crossCheck(tasks, got, want); err != nil {
		t.Fatalf("unperturbed replay: %v", err)
	}
	for _, name := range []string{"compile", "setup", "ckpt.take", "ckpt.restore", "eval", "check"} {
		if rec.find(name) < 0 {
			t.Errorf("replay recorded no %s span", name)
		}
	}

	perturbed := *got[0]
	perturbed.Warm.L2Misses++
	err := crossCheck(tasks, []*harness.Result{&perturbed}, want)
	if err == nil || !strings.Contains(err.Error(), taskName(tasks[0])) {
		t.Errorf("perturbed replay: got %v, want an error naming %s", err, taskName(tasks[0]))
	}
}
