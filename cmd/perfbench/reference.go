package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"svbench/internal/gemsys"
	"svbench/internal/sweep"
)

// reference is the committed correctness reference, reference.json. Only
// perfbench -reference writes it.
type reference struct {
	// Seed is the seed the digests were recorded at.
	Seed uint64 `json:"seed"`
	// Digests holds each pinned workload's output digest at Seed.
	Digests map[string]string `json:"digests"`
	Sampled sampledRef        `json:"sampled_eval"`
}

type sampledRef struct {
	// CPIErrMaxPct is the largest |sampled − full-detail| CPI error over
	// every task's cold and warm window, in percent of the full-detail
	// CPI. A run whose error exceeds it fails.
	CPIErrMaxPct float64   `json:"cpi_err_max_pct"`
	FullCPI      []taskCPI `json:"full_detail_cpi"`
}

// taskCPI is one sampled-eval task's full-detail cold and warm CPI.
type taskCPI struct {
	Task string  `json:"task"`
	Cold float64 `json:"cold"`
	Warm float64 `json:"warm"`
}

//go:embed reference.json
var referenceJSON []byte

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &ref, nil
}

func (r *reference) marshal() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	return append(b, '\n'), err
}

// regenerate recomputes every reference value at seed: the full-detail
// CPIs of the sampled-eval tasks, the sampled run's largest CPI error
// against them, and the digest of every pinned workload.
func regenerate(seed uint64, jobs int) (*reference, error) {
	ref := &reference{Seed: seed, Digests: map[string]string{}}
	p := defaultParams(seed, jobs, ref)
	tasks := sampledTasks(p)
	for i := range tasks {
		tasks[i].Spec.Sampling = gemsys.SamplingConfig{}
	}
	for i, o := range sweep.Run(tasks, sweep.Options{Jobs: jobs}) {
		if o.Err != nil {
			return nil, fmt.Errorf("full-detail %s: %w", taskName(tasks[i]), o.Err)
		}
		ref.Sampled.FullCPI = append(ref.Sampled.FullCPI,
			taskCPI{Task: taskName(tasks[i]), Cold: o.Result.Cold.CPI(), Warm: o.Result.Warm.CPI()})
	}
	so := sampledTrial(p)
	if len(so.problems) > 0 {
		return nil, fmt.Errorf("sampled-eval: %v", so.problems)
	}
	ref.Sampled.CPIErrMaxPct = so.cpiErr
	for _, w := range workloads() {
		if !w.pinned {
			continue
		}
		o := w.trial(p)
		if len(o.problems) > 0 {
			return nil, fmt.Errorf("%s: %v", w.name, o.problems)
		}
		ref.Digests[w.name] = o.digest
	}
	return ref, nil
}
