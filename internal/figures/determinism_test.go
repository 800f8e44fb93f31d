package figures

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"svbench/internal/gemsys"
	"svbench/internal/harness"
	"svbench/internal/isa"
	"svbench/internal/trace"
)

// reducedMatrix is a small but representative slice of the catalog:
// standalone functions (memoizable setup) plus hotel functions (native
// database services, the non-memoizable path), traced so the stats and
// trace exports are part of the comparison.
func reducedMatrix(t *testing.T) (fn, hotel []harness.Spec) {
	t.Helper()
	for _, sp := range harness.StandaloneSpecs() {
		switch sp.Name {
		case "fibonacci-go", "aes-python", "auth-nodejs":
			sp.Requests = 3
			sp.Trace = trace.Options{Enabled: true}
			fn = append(fn, sp)
		}
	}
	for _, sp := range harness.HotelSpecs(harness.EngineCassandra) {
		switch sp.Name {
		case "geo", "profile":
			sp.Requests = 3
			sp.Trace = trace.Options{Enabled: true}
			hotel = append(hotel, sp)
		}
	}
	if len(fn) != 3 || len(hotel) != 2 {
		t.Fatalf("reduced matrix incomplete: %d fn, %d hotel specs", len(fn), len(hotel))
	}
	return fn, hotel
}

// exportDump concatenates every per-run export that the determinism
// contract covers: the rendered figures, the gem5-style stats-registry
// text, the Chrome trace JSON, the raw response bytes, and the setup
// instruction counts.
func exportDump(t *testing.T, res *Results) []byte {
	t.Helper()
	var buf bytes.Buffer
	all := []Data{res.Fig44(), res.Fig45(), res.Fig46(), res.Fig47(), res.Fig48(),
		res.Fig49(), res.Fig410(), res.Fig411(), res.Fig412(), res.Fig413(),
		res.Fig414(), res.Fig415(), res.Fig416(), res.Fig417(), res.Fig418(),
		res.Fig419(), res.TableMPKI()}
	buf.WriteString(Render(res, all))
	for _, arch := range []isa.Arch{isa.RV64, isa.CISC64} {
		for _, name := range append(append([]string{}, FnOrder...), HotelOrder...) {
			r := res.fn(arch, name)
			if r == nil {
				continue
			}
			fmt.Fprintf(&buf, "== %s/%s setup=%d ==\n", arch, name, r.SetupInsts)
			buf.Write(r.Response)
			buf.WriteString(r.StatsText)
			buf.Write(r.TraceJSON)
		}
	}
	return buf.Bytes()
}

// TestCollectByteIdentical is the headline determinism claim: the full
// set of exports is byte-identical whether the sweep runs on one worker,
// on GOMAXPROCS workers, or with checkpoint memoization disabled.
func TestCollectByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reduced matrix three times")
	}
	fn, hotel := reducedMatrix(t)
	arches := []isa.Arch{isa.RV64, isa.CISC64}

	variants := []struct {
		label string
		opt   SweepOpts
	}{
		{"j1-memo-off", SweepOpts{Jobs: 1, DisableMemo: true}},
		{"jN-memo-on", SweepOpts{Jobs: runtime.GOMAXPROCS(0)}},
		{"j4-memo-off", SweepOpts{Jobs: 4, DisableMemo: true}},
	}
	var want []byte
	for i, v := range variants {
		res := SweepWith(arches, fn, hotel, v.opt)
		if len(res.Failures) > 0 {
			t.Fatalf("%s: %d failures: %v", v.label, len(res.Failures), res.Failures[0])
		}
		got := exportDump(t, res)
		if i == 0 {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: exports differ from %s (%d vs %d bytes)",
				v.label, variants[0].label, len(got), len(want))
		}
	}
	if len(want) == 0 {
		t.Fatal("empty export dump")
	}
}

// TestFailuresSortedDeterministically: failures land in Results.Failures
// sorted by arch then spec name, regardless of which worker saw them
// first.
func TestFailuresSortedDeterministically(t *testing.T) {
	var zz, aa harness.Spec
	for _, sp := range harness.StandaloneSpecs() {
		switch sp.Name {
		case "fibonacci-go":
			zz = sp
		case "aes-go":
			aa = sp
		}
	}
	// Both fail validation instantly; list them in reverse-sorted order.
	zz.Requests = 1
	aa.Requests = 1
	specs := []harness.Spec{zz, aa}

	for _, jobs := range []int{1, 4} {
		res := SweepWith([]isa.Arch{isa.RV64, isa.CISC64}, specs, nil, SweepOpts{Jobs: jobs})
		if len(res.Failures) != 4 {
			t.Fatalf("jobs=%d: got %d failures, want 4", jobs, len(res.Failures))
		}
		var got []string
		for _, f := range res.Failures {
			got = append(got, fmt.Sprintf("%s/%s", f.Arch, f.Spec))
		}
		want := []string{"cisc64/aes-go", "cisc64/fibonacci-go", "rv64/aes-go", "rv64/fibonacci-go"}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("jobs=%d: failures order %v, want %v", jobs, got, want)
			}
		}
	}
}

// TestHandOutOrder: SweepWith's task list is a permutation of the
// default matrix, each task on its arch's default machine, and hands out
// profile on cisc64, the longest task, first.
func TestHandOutOrder(t *testing.T) {
	fn := append(harness.StandaloneSpecs(), harness.ShopSpecs()...)
	hotelSpecs := harness.HotelSpecs(harness.EngineCassandra)
	arches := []isa.Arch{isa.RV64, isa.CISC64}
	tasks, hotel := handOut(arches, fn, hotelSpecs)
	if len(hotel) != len(tasks) {
		t.Fatalf("%d hotel marks for %d tasks", len(hotel), len(tasks))
	}
	key := func(arch isa.Arch, name string, hotel bool) string {
		return fmt.Sprintf("%s/%s hotel=%v", arch, name, hotel)
	}
	var got, want []string
	for i, tk := range tasks {
		got = append(got, key(tk.Cfg.Arch, tk.Spec.Name, hotel[i]))
		if !reflect.DeepEqual(tk.Cfg, gemsys.DefaultConfig(tk.Cfg.Arch)) {
			t.Errorf("%s does not run on its arch's default machine", got[i])
		}
	}
	for _, arch := range arches {
		for _, sp := range fn {
			want = append(want, key(arch, sp.Name, false))
		}
		for _, sp := range hotelSpecs {
			want = append(want, key(arch, sp.Name, true))
		}
	}
	if len(got) == 0 || got[0] != key(isa.CISC64, "profile", true) {
		t.Errorf("hand-out order %v, want profile on cisc64 first", got)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tasks are not the matrix, each pair once:\n got %v\nwant %v", got, want)
	}
}

// TestReportDataIdenticalAcrossJobs: the studies ReportData runs on the
// worker pool — Fig. 4.20's emulation runs and the image builds of
// Tables 4.4 and 4.5 — give the same rows and the same report on one
// worker as on four. The Results is empty, so the sweep projections skip
// every row and the comparison is the studies'.
func TestReportDataIdenticalAcrossJobs(t *testing.T) {
	empty := &Results{}
	var want []Data
	var wantText string
	for _, jobs := range []int{1, 4} {
		all, err := ReportData(empty, ReportOpts{Jobs: jobs, Requests: 2})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		text := Render(empty, all)
		if jobs == 1 {
			want, wantText = all, text
			continue
		}
		if text != wantText {
			t.Errorf("jobs=%d: report differs from jobs=1 (%d vs %d bytes)", jobs, len(text), len(wantText))
		}
		if !reflect.DeepEqual(all, want) {
			t.Errorf("jobs=%d: rows differ from jobs=1", jobs)
		}
	}
	studies := 0
	for _, d := range want {
		if g, ok := goldenStudies[d.ID]; ok {
			studies++
			if got := markdownDigest(d); got != g {
				t.Errorf("%s: digest %s, want %s", d.ID, got, g)
			}
		}
	}
	if studies != len(goldenStudies) {
		t.Errorf("report holds %d of the %d studies", studies, len(goldenStudies))
	}
}

// TestReportDataRejectsBadJobs: a negative worker count is an error, not
// a panic on the pool.
func TestReportDataRejectsBadJobs(t *testing.T) {
	if _, err := ReportData(&Results{}, ReportOpts{Jobs: -1}); err == nil {
		t.Fatal("Jobs -1 accepted")
	}
}
