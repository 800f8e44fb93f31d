package sweep

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"svbench/internal/gemsys"
	"svbench/internal/harness"
	"svbench/internal/isa"
)

// testTasks builds a small matrix: the first n standalone specs on both
// architectures, trimmed to the minimum request count.
func testTasks(t testing.TB, n int) []Task {
	t.Helper()
	specs := harness.StandaloneSpecs()
	if len(specs) < n {
		t.Fatalf("want %d standalone specs, have %d", n, len(specs))
	}
	var tasks []Task
	for _, arch := range []isa.Arch{isa.RV64, isa.CISC64} {
		for _, s := range specs[:n] {
			s.Requests = 3
			tasks = append(tasks, Task{Cfg: gemsys.DefaultConfig(arch), Spec: s})
		}
	}
	return tasks
}

func TestValidateJobs(t *testing.T) {
	for _, j := range []int{1, 2, 64} {
		if err := ValidateJobs(j); err != nil {
			t.Errorf("ValidateJobs(%d) = %v, want nil", j, err)
		}
	}
	for _, j := range []int{0, -1, -8} {
		if err := ValidateJobs(j); err == nil {
			t.Errorf("ValidateJobs(%d) = nil, want error", j)
		}
	}
}

// TestRunDeterministic is the core contract: outcomes are in task order
// and identical across worker counts and memoization settings.
func TestRunDeterministic(t *testing.T) {
	tasks := testTasks(t, 3)
	base := Run(tasks, Options{Jobs: 1, DisableMemo: true})
	if len(base) != len(tasks) {
		t.Fatalf("got %d outcomes, want %d", len(base), len(tasks))
	}
	for i, o := range base {
		if o.Err != nil {
			t.Fatalf("task %d (%s/%s): %v", i, o.Task.Spec.Name, o.Task.Cfg.Arch, o.Err)
		}
		if o.Task.Spec.Name != tasks[i].Spec.Name || o.Task.Cfg.Arch != tasks[i].Cfg.Arch {
			t.Fatalf("outcome %d is for %s/%s, want %s/%s",
				i, o.Task.Spec.Name, o.Task.Cfg.Arch, tasks[i].Spec.Name, tasks[i].Cfg.Arch)
		}
	}
	for _, opt := range []Options{
		{Jobs: 1},
		{Jobs: 4},
		{Jobs: 4, DisableMemo: true},
	} {
		got := Run(tasks, opt)
		for i := range got {
			if got[i].Err != nil {
				t.Fatalf("jobs=%d memo=%v task %d: %v", opt.Jobs, !opt.DisableMemo, i, got[i].Err)
			}
			if !reflect.DeepEqual(got[i].Result, base[i].Result) {
				t.Errorf("jobs=%d memo=%v: result %d (%s/%s) differs from serial unmemoized run",
					opt.Jobs, !opt.DisableMemo, i, got[i].Task.Spec.Name, got[i].Task.Cfg.Arch)
			}
		}
	}
}

// TestRunMemoizes checks that repeating a task in one sweep serves the
// repeat from the cache and still yields an identical result.
func TestRunMemoizes(t *testing.T) {
	tasks := testTasks(t, 1)[:1]
	tasks = append(tasks, tasks[0], tasks[0])
	cache := harness.NewBootCache()
	out := Run(tasks, Options{Jobs: 2, Cache: cache})
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("task %d: %v", i, o.Err)
		}
		if !reflect.DeepEqual(o.Result, out[0].Result) {
			t.Errorf("task %d result differs from task 0", i)
		}
	}
	hits, misses, rejected := cache.Stats()
	if misses != 1 || hits != 2 || rejected != 0 {
		t.Errorf("cache stats hits=%d misses=%d rejected=%d, want 2/1/0", hits, misses, rejected)
	}
}

func TestRunReportsFailuresInOrder(t *testing.T) {
	tasks := testTasks(t, 2)
	bad := tasks[1]
	bad.Spec.Requests = 1 // invalid: below the cold/warm minimum
	tasks[1] = bad
	out := Run(tasks, Options{Jobs: 2})
	if out[1].Err == nil {
		t.Fatalf("task 1 should fail validation")
	}
	if !strings.Contains(out[1].Err.Error(), "Requests must be >= 2") {
		t.Errorf("unexpected error: %v", out[1].Err)
	}
	for i, o := range out {
		if i != 1 && o.Err != nil {
			t.Errorf("task %d: %v", i, o.Err)
		}
	}
}

// TestRunSurvivesSpecWithoutFunctions: a spec with no Build or Request
// among good ones fails on its own, in phase "spec", and the rest of the
// sweep completes.
func TestRunSurvivesSpecWithoutFunctions(t *testing.T) {
	tasks := testTasks(t, 1)
	bad := Task{Cfg: gemsys.DefaultConfig(isa.RV64), Spec: harness.Spec{Name: "no-functions"}}
	tasks = append(tasks[:1], bad, tasks[1])
	out := Run(tasks, Options{Jobs: 2})
	var ee *harness.ExperimentError
	if !errors.As(out[1].Err, &ee) || ee.Phase != "spec" || ee.Spec != "no-functions" {
		t.Fatalf("bad task: error %v, want an *ExperimentError in phase spec", out[1].Err)
	}
	for i, o := range out {
		if i != 1 && (o.Err != nil || o.Result == nil) {
			t.Errorf("task %d (%s/%s): result %v, error %v", i, o.Task.Spec.Name, o.Task.Cfg.Arch, o.Result, o.Err)
		}
	}
}

func benchSweep(b *testing.B, jobs int, memo bool) {
	tasks := testTasks(b, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := Run(tasks, Options{Jobs: jobs, DisableMemo: !memo})
		for _, o := range out {
			if o.Err != nil {
				b.Fatal(o.Err)
			}
		}
	}
}

func BenchmarkSweepSerial(b *testing.B)       { benchSweep(b, 1, true) }
func BenchmarkSweepSerialNoMemo(b *testing.B) { benchSweep(b, 1, false) }
func BenchmarkSweepParallel(b *testing.B)     { benchSweep(b, DefaultJobs(), true) }

// TestEach covers the generic per-index pool: every index runs exactly
// once for any worker count, zero selects the default, and invalid
// counts panic like Run.
func TestEach(t *testing.T) {
	for _, jobs := range []int{0, 1, 3, 16} {
		got := make([]int, 20)
		Each(len(got), jobs, func(i int) { got[i]++ })
		for i, n := range got {
			if n != 1 {
				t.Fatalf("jobs=%d: index %d ran %d times", jobs, i, n)
			}
		}
	}
	Each(0, 4, func(int) { t.Fatal("fn called for n=0") })
	defer func() {
		if recover() == nil {
			t.Fatal("Each accepted jobs=-1")
		}
	}()
	Each(1, -1, func(int) {})
}
