package scenario

import (
	"bytes"
	"strings"
	"testing"

	"svbench/internal/faults"
	"svbench/internal/gemsys"
	"svbench/internal/harness"
	"svbench/internal/isa"
	"svbench/internal/loadgen"
)

func specByName(t *testing.T, name string) harness.Spec {
	t.Helper()
	for _, sp := range harness.AllSpecs() {
		if sp.Name == name {
			return sp
		}
	}
	t.Fatalf("no spec %q in catalog", name)
	return harness.Spec{}
}

func testConfig(t *testing.T, s Scenario) Config {
	return Config{
		Scenario: s,
		Cfg:      gemsys.DefaultConfig(isa.RV64),
		Spec:     specByName(t, "fibonacci-go"),
		Seed:     7,
	}
}

func mustByName(t *testing.T, name string) Scenario {
	t.Helper()
	s, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCatalogShape(t *testing.T) {
	cat := Catalog()
	if len(cat) < 6 {
		t.Fatalf("catalog has %d scenarios, want >= 6", len(cat))
	}
	seen := map[string]bool{}
	for _, s := range cat {
		if s.Name == "" || s.Description == "" {
			t.Fatalf("scenario %+v missing name/description", s)
		}
		if seen[s.Name] {
			t.Fatalf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
		if s.RPS <= 0 || s.Duration == 0 {
			t.Fatalf("scenario %s has no load shape", s.Name)
		}
		for _, ph := range s.Phases {
			if ph.Window.IsZero() || ph.Window.Empty() {
				t.Fatalf("scenario %s phase %s has a zero/empty window", s.Name, ph.Name)
			}
			if ph.Window.End > s.Duration+s.RecoveryDeadline {
				t.Fatalf("scenario %s phase %s window ends past any observable traffic", s.Name, ph.Name)
			}
		}
	}
	for _, want := range []string{"baseline", "transient-blip", "outage-and-recover",
		"latency-spike", "retry-storm", "degradation-under-churn"} {
		if !seen[want] {
			t.Fatalf("catalog missing scenario %q", want)
		}
	}
	if _, err := ByName("no-such-scenario"); err == nil {
		t.Fatal("ByName accepted an unknown scenario")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("unnamed scenario accepted")
	}
	s := mustByName(t, "transient-blip")
	s.Phases[0].Window = faults.Window{}
	if _, err := Run(testConfig(t, s)); err == nil {
		t.Fatal("zero phase window accepted")
	}
	s = mustByName(t, "transient-blip")
	s.Phases[0].Rules = nil
	if _, err := Run(testConfig(t, s)); err == nil {
		t.Fatal("ruleless phase accepted")
	}
}

// TestBaselinePassesCleanly pins the control scenario: no faults, no
// retries, everything in the steady bucket, verdict PASS.
func TestBaselinePassesCleanly(t *testing.T) {
	res, err := Run(testConfig(t, mustByName(t, "baseline")))
	if err != nil {
		t.Fatal(err)
	}
	if res.Windowed {
		t.Fatal("baseline claims fault windows")
	}
	if res.Faults.Injected != 0 || res.Load.Retries != 0 || res.Load.Failed != 0 {
		t.Fatalf("baseline injected faults: %+v retries=%d failed=%d",
			res.Faults, res.Load.Retries, res.Load.Failed)
	}
	if res.Pre.Invocations != len(res.Load.Invocations) {
		t.Fatalf("steady bucket holds %d of %d invocations",
			res.Pre.Invocations, len(res.Load.Invocations))
	}
	if !res.SLOPass || !res.Recovered {
		t.Fatalf("baseline verdict: sloPass=%v recovered=%v", res.SLOPass, res.Recovered)
	}
}

// TestRetryStorm pins the acceptance criterion: the retry-storm scenario
// shows a retry-count spike confined to the fault window and a
// measurable recovery time after it closes, visible in the report,
// the stats block and the Perfetto trace.
func TestRetryStorm(t *testing.T) {
	res, err := Run(testConfig(t, mustByName(t, "retry-storm")))
	if err != nil {
		t.Fatal(err)
	}
	if res.During.Retries == 0 {
		t.Fatal("no retry spike during the storm window")
	}
	if res.Pre.Retries != 0 || res.Post.Retries != 0 {
		t.Fatalf("retries leaked outside the window: pre=%d post=%d",
			res.Pre.Retries, res.Post.Retries)
	}
	if res.RecoveryNS == 0 {
		t.Fatal("retry storm left no measurable recovery time")
	}
	if !res.Recovered || !res.SLOPass {
		t.Fatalf("retry storm did not recover: recovered=%v sloPass=%v", res.Recovered, res.SLOPass)
	}
	table := res.Table()
	for _, want := range []string{"retry-storm", "recovery     SLO reattained", "verdict      PASS"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	if !strings.Contains(res.StatsText, "scenario.during.retries") ||
		!strings.Contains(res.StatsText, "scenario.recoveryNS") {
		t.Error("stats text missing scenario.* entries")
	}
	tj := string(res.TraceJSON)
	for _, want := range []string{"fault-window", "scenario-recover", "invoke-retry", "scenario (chaos windows)"} {
		if !strings.Contains(tj, want) {
			t.Errorf("trace JSON missing %q", want)
		}
	}
}

// TestCatalogRunsAndPasses runs every library scenario once on each ISA:
// all complete and all meet their calibrated SLOs on the reference
// function and seed.
func TestCatalogRunsAndPasses(t *testing.T) {
	var cfgs []Config
	for _, s := range Catalog() {
		for _, arch := range []isa.Arch{isa.RV64, isa.CISC64} {
			cfg := testConfig(t, s)
			cfg.Cfg = gemsys.DefaultConfig(arch)
			cfgs = append(cfgs, cfg)
		}
	}
	results, errs := RunMany(cfgs, 0)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s/%s: %v", cfgs[i].Scenario.Name, cfgs[i].Cfg.Arch, err)
		}
	}
	for i, res := range results {
		name := cfgs[i].Scenario.Name + "/" + string(cfgs[i].Cfg.Arch)
		if !res.SLOPass {
			t.Errorf("%s: calibrated SLO failed:\n%s", name, res.Table())
		}
		total := res.Pre.Invocations + res.During.Invocations + res.Post.Invocations
		if res.Windowed && total != len(res.Load.Invocations) {
			t.Errorf("%s: buckets hold %d of %d invocations", name, total, len(res.Load.Invocations))
		}
	}
}

// TestScenarioDeterminism is the scenario determinism gate: repeated runs
// and RunMany at different job counts produce byte-identical tables,
// stats text and trace JSON.
func TestScenarioDeterminism(t *testing.T) {
	mkCfgs := func() []Config {
		return []Config{
			testConfig(t, mustByName(t, "retry-storm")),
			testConfig(t, mustByName(t, "outage-and-recover")),
			testConfig(t, mustByName(t, "degradation-under-churn")),
		}
	}
	seq, errs := RunMany(mkCfgs(), 1)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("point %d (-j 1): %v", i, err)
		}
	}
	par, errs := RunMany(mkCfgs(), 4)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("point %d (-j 4): %v", i, err)
		}
	}
	solo, err := Run(mkCfgs()[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if a, b := seq[i].Table(), par[i].Table(); a != b {
			t.Errorf("point %d: table differs between -j 1 and -j 4:\n--- j1\n%s--- j4\n%s", i, a, b)
		}
		if seq[i].StatsText != par[i].StatsText {
			t.Errorf("point %d: stats text differs between -j 1 and -j 4", i)
		}
		if !bytes.Equal(seq[i].TraceJSON, par[i].TraceJSON) {
			t.Errorf("point %d: trace JSON differs between -j 1 and -j 4", i)
		}
	}
	if solo.Table() != seq[0].Table() || solo.StatsText != seq[0].StatsText ||
		!bytes.Equal(solo.TraceJSON, seq[0].TraceJSON) {
		t.Error("solo run differs from swept run")
	}
}

// TestPhaseWindowsGateFaults cross-checks bucketing against the plan:
// every faulted attempt belongs to an invocation whose attempts ran
// while a window was open, and the fault ledger reconciles with the
// engine's per-attempt accounting.
func TestPhaseWindowsGateFaults(t *testing.T) {
	res, err := Run(testConfig(t, mustByName(t, "outage-and-recover")))
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Outages == 0 {
		t.Fatal("outage window injected nothing")
	}
	if res.Faults.Outages != res.Load.FaultedAttempts {
		t.Fatalf("ledger outages %d != engine faulted attempts %d",
			res.Faults.Outages, res.Load.FaultedAttempts)
	}
	for _, inv := range res.Load.Invocations {
		if inv.FaultedAttempts > 0 && inv.Arrive >= res.WindowEnd {
			t.Fatalf("invocation %d arrived at %d, after the last window %d, yet was faulted",
				inv.ID, inv.Arrive, res.WindowEnd)
		}
	}
}

// TestScenarioSeedSensitivity: a different seed must change the fault
// schedule for probabilistic scenarios (decorrelated PRNGs still react
// to the seed).
func TestScenarioSeedSensitivity(t *testing.T) {
	cfg := testConfig(t, mustByName(t, "retry-storm"))
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 8
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Table() == b.Table() && a.StatsText == b.StatsText {
		t.Fatal("different seeds produced identical scenario runs")
	}
}

var _ loadgen.AttemptHook = (*hook)(nil)
