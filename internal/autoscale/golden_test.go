package autoscale

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"svbench/internal/loadgen"
)

// goldenConfigs are the autoscaled runs TestOutputsGolden pins: every
// catalog policy under Poisson and bursty arrivals on a small cluster
// whose memory holds fewer instances than its cores, under a short
// lease, so the runs reach every event class (completion,
// instance-ready, tick, arrival), the same-instant ties between them,
// scale-downs and placements the full cluster rejects.
func goldenConfigs(t *testing.T) map[string]Config {
	cfgs := map[string]Config{}
	for _, pol := range Policies() {
		for _, proc := range []loadgen.Process{loadgen.Poisson, loadgen.Bursty} {
			c := testConfig(t)
			c.Policy = pol
			c.Arrival = proc
			c.RPS = 8000
			c.Duration = 10_000_000
			c.KeepAlive = 200_000
			c.Nodes, c.NodeCores, c.NodeMemMB = 2, 4, 1024
			cfgs[pol.Name()+"/"+proc.String()] = c
		}
	}
	return cfgs
}

// goldenOutputs pins the first 16 hex digits of a sha256 over each golden
// config's Table(), StatsText and TraceJSON. The determinism tests only
// compare two runs of the same build; this test catches a change to the
// event loop that moves any output byte. A change that is meant to alter
// the schedule must update these constants and say why.
var goldenOutputs = map[string]string{
	"fixed-cap/poisson":     "8746b839cc75ba75",
	"fixed-cap/bursty":      "3b2efc44bac42921",
	"concurrency/poisson":   "7bb4829a2fd641dd",
	"concurrency/bursty":    "61815e0d3fa46f1a",
	"scale-to-zero/poisson": "e8fd5aae081025a9",
	"scale-to-zero/bursty":  "013358a5c46a3512",
	"panic/poisson":         "b292ca91e466b4ed",
	"panic/bursty":          "f3324ee08bb77a2d",
}

func reportDigest(t testing.TB, r *Report) string {
	h := sha256.New()
	h.Write([]byte(r.Table()))
	h.Write([]byte(r.StatsText))
	h.Write(traceJSON(t, r))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// traceJSON renders r's trace, failing the test on an export error.
func traceJSON(t testing.TB, r *Report) []byte {
	t.Helper()
	tj, err := r.TraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	return tj
}

func TestOutputsGolden(t *testing.T) {
	cfgs := goldenConfigs(t)
	for name, cfg := range cfgs {
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := reportDigest(t, rep); d != goldenOutputs[name] {
			t.Errorf("%s: digest %s, want %s", name, d, goldenOutputs[name])
		}
	}
	if len(goldenOutputs) != len(cfgs) {
		t.Errorf("%d golden digests for %d configs", len(goldenOutputs), len(cfgs))
	}
}
