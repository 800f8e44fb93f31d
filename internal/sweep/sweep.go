// Package sweep runs experiment matrices — the cross product of machine
// configurations and workload specs — across a pool of workers, each on
// a fully isolated simulated machine, with cross-run memoization of
// post-boot checkpoints (see harness.BootCache).
//
// Determinism is the contract: for the same task list, Run's output is
// identical regardless of worker count or memoization. Outcomes come
// back in task order, every run's machine is private to it, and
// memoized runs restore the one cached checkpoint of their boot
// fingerprint, byte-equal to what their own setup would produce and
// shared read-only among them. The only thing allowed to vary is the
// interleaving of progress log lines.
package sweep

import (
	"fmt"
	"runtime"
	"sync"

	"svbench/internal/gemsys"
	"svbench/internal/harness"
)

// Task is one experiment: a workload spec on a machine configuration.
type Task struct {
	Cfg  gemsys.Config
	Spec harness.Spec
}

// Outcome is one task's result, in the same position as its task.
type Outcome struct {
	Task   Task
	Result *harness.Result
	Err    error
}

// Options configures a sweep.
type Options struct {
	// Jobs is the worker count; 0 means DefaultJobs(). Values below 1
	// are rejected by ValidateJobs and cause Run to panic — CLI flag
	// handlers must validate first.
	Jobs int
	// DisableMemo turns off checkpoint memoization: every run simulates
	// its own setup phase. Results are identical either way.
	DisableMemo bool
	// Cache, when non-nil, is used instead of a fresh per-sweep cache,
	// so checkpoints memoize across successive sweeps in one process.
	// Ignored when DisableMemo is set.
	Cache *harness.BootCache
	// Log, when non-nil, receives one progress line per finished task.
	// Line order follows completion order, not task order.
	Log func(string)
}

// DefaultJobs is the worker count used when Options.Jobs is zero.
func DefaultJobs() int { return runtime.GOMAXPROCS(0) }

// ValidateJobs rejects non-positive worker counts.
func ValidateJobs(jobs int) error {
	if jobs < 1 {
		return fmt.Errorf("jobs must be >= 1, got %d", jobs)
	}
	return nil
}

// Each runs fn(0)…fn(n-1) across a pool of jobs workers (0 selects
// DefaultJobs; below 1 panics). Indices are handed out in order, at most
// n workers run, and every call completes before Each returns. fn
// writes its result into its own slot of a caller-owned slice, which is
// what keeps outputs in input order no matter how the workers interleave:
// Run's experiment matrices, the load engine's sweep points and the
// report studies all merge that way.
func Each(n, jobs int, fn func(i int)) {
	if jobs == 0 {
		jobs = DefaultJobs()
	}
	if err := ValidateJobs(jobs); err != nil {
		panic("sweep: " + err.Error())
	}
	if jobs > n {
		jobs = n
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// Run executes every task on Each's pool and returns outcomes in task
// order. Each task runs on its own machine; memoized runs share the
// cached post-boot checkpoint by reference, which no run writes to (see
// gemsys.Checkpoint).
func Run(tasks []Task, opt Options) []Outcome {
	cache := opt.Cache
	if cache == nil && !opt.DisableMemo {
		cache = harness.NewBootCache()
	}
	if opt.DisableMemo {
		cache = nil
	}

	out := make([]Outcome, len(tasks))
	var logMu sync.Mutex
	logf := func(format string, args ...any) {
		if opt.Log == nil {
			return
		}
		logMu.Lock()
		opt.Log(fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	Each(len(tasks), opt.Jobs, func(i int) {
		t := tasks[i]
		res, err := harness.RunCached(t.Cfg, t.Spec, cache)
		out[i] = Outcome{Task: t, Result: res, Err: err}
		if err != nil {
			logf("%s %-24s FAILED: %v", t.Cfg.Arch, t.Spec.Name, err)
		} else {
			logf("%s %-24s cold=%-9d warm=%d", t.Cfg.Arch, t.Spec.Name, res.Cold.Cycles, res.Warm.Cycles)
		}
	})
	return out
}
