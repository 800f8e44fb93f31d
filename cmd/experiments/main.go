// Command experiments regenerates every figure and table of the thesis's
// evaluation section and writes them as markdown (stdout or -out file)
// plus per-figure CSVs when -csv DIR is given. The sweep and the report
// studies run on a worker pool (-j), the sweep with memoized boot
// checkpoints; the report is byte-identical for every -j value and with
// memoization disabled.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"svbench/internal/figures"
	"svbench/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out      = fs.String("out", "", "write the markdown report to this file (default stdout)")
		csvDir   = fs.String("csv", "", "also write per-figure CSVs into this directory")
		quiet    = fs.Bool("q", false, "suppress progress lines")
		nreq     = fs.Int("requests", 6, "requests per function in the emulation study (fig 4.20)")
		skipEmu  = fs.Bool("skip-emulation", false, "skip fig 4.20 (the slowest study)")
		chaos    = fs.Bool("chaos", false, "also run the fault-injection/recovery table")
		loadFl   = fs.Bool("load", false, "also run the open-loop load study (throughput curve + keep-alive table)")
		scenFl   = fs.Bool("scenarios", false, "also run the chaos-scenario SLO matrix (scenario x arch)")
		clustFl  = fs.Bool("cluster", false, "also run the multi-machine cluster fabric table (topology x arch)")
		scaleFl  = fs.Bool("autoscale", false, "also run the cluster-autoscaling policy x RPS matrix")
		sampleFl = fs.Bool("sampling", false, "also run the sampled-vs-full CPI error table (SMARTS-style sampled simulation)")
		seed     = fs.Uint64("seed", 1, "fault-injection / load-arrival seed for -chaos, -load, -scenarios, -cluster and -autoscale")
		jobs     = fs.Int("j", sweep.DefaultJobs(),
			"worker count of the sweep and the report studies, >= 1 (results are identical for every value; default GOMAXPROCS)")
		noMemo = fs.Bool("no-memo", false,
			"disable boot-checkpoint memoization (every run simulates its own setup; results are identical)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := sweep.ValidateJobs(*jobs); err != nil {
		fmt.Fprintln(stderr, "experiments: -j:", err)
		return 2
	}
	if *nreq < 1 {
		fmt.Fprintf(stderr, "experiments: -requests must be >= 1, got %d\n", *nreq)
		return 2
	}

	logf := func(s string) { fmt.Fprintln(stderr, s) }
	if *quiet {
		logf = nil
	}
	res, err := figures.CollectWith(figures.SweepOpts{Jobs: *jobs, DisableMemo: *noMemo, Log: logf})
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}

	all, err := figures.ReportData(res, figures.ReportOpts{
		Jobs:          *jobs,
		Requests:      *nreq,
		SkipEmulation: *skipEmu,
		Chaos:         *chaos,
		ChaosSeed:     *seed,
		Load:          *loadFl,
		LoadSeed:      *seed,
		Scenarios:     *scenFl,
		ScenarioSeed:  *seed,
		Cluster:       *clustFl,
		ClusterSeed:   *seed,
		Autoscale:     *scaleFl,
		AutoscaleSeed: *seed,
		Sampling:      *sampleFl,
		Log:           logf,
	})
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}

	report := figures.Render(res, all)
	if len(res.Failures) > 0 {
		fmt.Fprintf(stderr, "experiments: %d experiment(s) failed; report includes a failure section\n",
			len(res.Failures))
	}
	if *out == "" {
		fmt.Fprint(stdout, report)
	} else if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		for _, d := range all {
			name := strings.ReplaceAll(d.ID, ".", "_") + ".csv"
			if err := os.WriteFile(filepath.Join(*csvDir, name), []byte(d.CSV()), 0o644); err != nil {
				fmt.Fprintln(stderr, "experiments:", err)
				return 1
			}
		}
	}
	return 0
}
