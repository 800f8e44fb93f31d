package harness

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"svbench/internal/faults"
	"svbench/internal/gemsys"
	"svbench/internal/isa"
	"svbench/internal/trace"
)

// findSpec pulls one named spec from the catalog.
func findSpec(t *testing.T, name string) Spec {
	t.Helper()
	for _, sp := range StandaloneSpecs() {
		if sp.Name == name {
			return sp
		}
	}
	t.Fatalf("spec %q not in catalog", name)
	return Spec{}
}

func TestRequestsValidation(t *testing.T) {
	sp := findSpec(t, "fibonacci-go")
	sp.Requests = 1
	_, err := Run(isa.RV64, sp)
	if err == nil {
		t.Fatal("Requests=1 was accepted")
	}
	var ee *ExperimentError
	if !errors.As(err, &ee) {
		t.Fatalf("error %T is not *ExperimentError: %v", err, err)
	}
	if ee.Phase != "spec" {
		t.Fatalf("phase = %q, want \"spec\" (%v)", ee.Phase, err)
	}
}

// TestMissingSpecFunctionsRejected: a spec without Build or Request
// fails in phase "spec" with an error naming the missing field, instead
// of dereferencing a nil function.
func TestMissingSpecFunctionsRejected(t *testing.T) {
	noBuild := findSpec(t, "fibonacci-go")
	noBuild.Build = nil
	noRequest := findSpec(t, "fibonacci-go")
	noRequest.Request = nil
	for _, c := range []struct {
		name, field string
		spec        Spec
	}{
		{"no Build", "Build", noBuild},
		{"no Request", "Request", noRequest},
		{"neither", "Build", Spec{Name: "x"}},
	} {
		_, err := Run(isa.RV64, c.spec)
		var ee *ExperimentError
		if !errors.As(err, &ee) {
			t.Fatalf("%s: error %v is not *ExperimentError", c.name, err)
		}
		if ee.Phase != "spec" || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: got phase %q, error %q; want phase \"spec\" naming %s", c.name, ee.Phase, err, c.field)
		}
	}
}

// TestChaosDeterminism is the seed-determinism guarantee: the same spec
// under the same fault plan twice must produce bit-identical fault
// ledgers and cycle counts.
func TestChaosDeterminism(t *testing.T) {
	run := func(seed uint64) *Result {
		sp := findSpec(t, "fibonacci-go")
		sp.Faults = faults.DefaultPlan(seed)
		sp.Retry = faults.DefaultRetry()
		r, err := Run(isa.RV64, sp)
		if err != nil {
			t.Fatalf("chaos run failed: %v", err)
		}
		if r.FaultReport == nil {
			t.Fatal("no FaultReport on a faulted run")
		}
		return r
	}
	a, b := run(11), run(11)
	if *a.FaultReport != *b.FaultReport {
		t.Fatalf("same seed, different fault reports:\n  %+v\n  %+v", *a.FaultReport, *b.FaultReport)
	}
	if a.Cold.Cycles != b.Cold.Cycles || a.Warm.Cycles != b.Warm.Cycles {
		t.Fatalf("same seed, different cycles: cold %d/%d warm %d/%d",
			a.Cold.Cycles, b.Cold.Cycles, a.Warm.Cycles, b.Warm.Cycles)
	}
	// Different seeds must (with these rule probabilities) diverge.
	c := run(12)
	if *a.FaultReport == *c.FaultReport && a.Cold.Cycles == c.Cold.Cycles {
		t.Fatal("seeds 11 and 12 produced identical runs")
	}
}

// TestChaosTraceDeterminism extends the seed-determinism guarantee to
// the observability exports: the same chaos spec with tracing on, run
// twice with the same seed, must emit byte-identical Chrome trace JSON
// and stats text.
func TestChaosTraceDeterminism(t *testing.T) {
	run := func() *Result {
		sp := findSpec(t, "fibonacci-go")
		sp.Faults = faults.DefaultPlan(11)
		sp.Retry = faults.DefaultRetry()
		sp.Trace = trace.Options{Enabled: true}
		r, err := Run(isa.RV64, sp)
		if err != nil {
			t.Fatalf("chaos trace run failed: %v", err)
		}
		return r
	}
	a, b := run(), run()
	if len(a.TraceJSON) == 0 {
		t.Fatal("trace-enabled run produced no trace JSON")
	}
	if !bytes.Equal(a.TraceJSON, b.TraceJSON) {
		t.Fatal("same seed, different trace JSON bytes")
	}
	if a.StatsText == "" || a.StatsText != b.StatsText {
		t.Fatal("same seed, different stats text")
	}
	if a.Profile == nil || a.Profile.Table() != b.Profile.Table() {
		t.Fatal("same seed, different profiles")
	}
}

// TestOutageRecovery drives a service outage through the retry loop: the
// hotel geo function's database fails for a window of requests, the
// injected bad replies trip the response check, and the compiled retry
// loop re-issues until the window passes.
func TestOutageRecovery(t *testing.T) {
	sp := HotelSpec("geo", EngineCassandra)
	sp.Faults = &faults.Plan{
		Seed: 1,
		Rules: []faults.Rule{
			{Kind: faults.Outage, Service: "cassandra", After: 1, For: 2},
		},
	}
	sp.Retry = faults.DefaultRetry()
	r, err := Run(isa.RV64, sp)
	if err != nil {
		t.Fatalf("run with outage + retry failed (Check should pass after recovery): %v", err)
	}
	rep := r.FaultReport
	if rep == nil {
		t.Fatal("no FaultReport")
	}
	if rep.Outages == 0 {
		t.Fatalf("outage window never fired: %+v", *rep)
	}
	if rep.Retried == 0 {
		t.Fatalf("client never retried: %+v", *rep)
	}
	if rep.Recovered == 0 {
		t.Fatalf("client never recovered: %+v", *rep)
	}
	if rep.Exhausted != 0 {
		t.Fatalf("requests exhausted despite recovery window: %+v", *rep)
	}
}

// TestRetryAccountingLastAttemptSuccess pins the retry ledger for the
// boundary case the accounting audit targeted: a request that fails on
// every attempt but the last. With MaxAttempts=4 and an outage window
// covering exactly the first three attempts, the request must count as
// recovered (never exhausted), with one retry per failed attempt and no
// retries charged to any healthy request. The outage window is addressed
// in served-request space, which starts counting during setup, so the
// test first probes the spec's setup-phase service request count.
func TestRetryAccountingLastAttemptSuccess(t *testing.T) {
	probe, err := BootSpec(gemsys.DefaultConfig(isa.RV64), HotelSpec("geo", EngineCassandra))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Setup(); err != nil {
		t.Fatal(err)
	}
	setupReqs := int(probe.setupSvcReqs)

	retry := faults.DefaultRetry() // 4 attempts
	fails := retry.MaxAttempts - 1
	sp := HotelSpec("geo", EngineCassandra)
	sp.Faults = &faults.Plan{
		Seed: 1,
		Rules: []faults.Rule{
			{Kind: faults.Outage, Service: "cassandra", After: setupReqs, For: fails},
		},
	}
	sp.Retry = retry
	r, err := Run(isa.RV64, sp)
	if err != nil {
		t.Fatalf("run recovering on the final attempt failed: %v", err)
	}
	rep := r.FaultReport
	if rep == nil {
		t.Fatal("no FaultReport")
	}
	if rep.Outages != uint64(fails) {
		t.Fatalf("outage served %d requests, want %d: %+v", rep.Outages, fails, *rep)
	}
	if rep.Exhausted != 0 {
		t.Fatalf("final-attempt success counted as exhausted: %+v", *rep)
	}
	if rep.Recovered != 1 {
		t.Fatalf("recovered = %d, want exactly 1: %+v", rep.Recovered, *rep)
	}
	if rep.Retried != uint64(fails) {
		t.Fatalf("retried = %d, want %d (one per failed attempt): %+v", rep.Retried, fails, *rep)
	}
	if rep.BadReplies != uint64(fails) || rep.Surfaced != uint64(fails) {
		t.Fatalf("bad replies/surfaced = %d/%d, want %d/%d: %+v",
			rep.BadReplies, rep.Surfaced, fails, fails, *rep)
	}
	if rep.Timeouts != 0 {
		t.Fatalf("outage error replies misclassified as timeouts: %+v", *rep)
	}
}

// TestRetryBudgetUntouchedWithoutFaults pins the other half of the
// accounting audit: under an armed but empty fault plan, the compiled
// retry loop's polling must not consume any retry budget — every
// first-attempt reply passes the check, so the whole ledger stays zero.
func TestRetryBudgetUntouchedWithoutFaults(t *testing.T) {
	sp := findSpec(t, "fibonacci-go")
	sp.Faults = &faults.Plan{Seed: 1} // armed injector, no rules
	sp.Retry = faults.DefaultRetry()
	r, err := Run(isa.RV64, sp)
	if err != nil {
		t.Fatalf("retry-compiled run without faults failed: %v", err)
	}
	rep := r.FaultReport
	if rep == nil {
		t.Fatal("no FaultReport")
	}
	if *rep != (faults.Report{}) {
		t.Fatalf("faultless run under a retry policy charged the ledger: %+v", *rep)
	}
}

// TestBaselineUnchanged pins the no-faults path: a spec without a plan
// must report no fault ledger and produce the same measurements as the
// seed methodology (cold slower than warm, both non-zero).
func TestBaselineUnchanged(t *testing.T) {
	sp := findSpec(t, "fibonacci-go")
	r, err := Run(isa.RV64, sp)
	if err != nil {
		t.Fatalf("baseline run failed: %v", err)
	}
	if r.FaultReport != nil {
		t.Fatalf("baseline run grew a FaultReport: %+v", *r.FaultReport)
	}
	if r.Cold.Cycles == 0 || r.Warm.Cycles == 0 || r.Cold.Cycles <= r.Warm.Cycles {
		t.Fatalf("implausible baseline: cold=%d warm=%d", r.Cold.Cycles, r.Warm.Cycles)
	}
}
