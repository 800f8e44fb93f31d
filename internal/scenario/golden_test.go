package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenOutputs pins the first 16 hex digits of a sha256 over the
// Table(), StatsText and TraceJSON of each catalog scenario run on
// fibonacci-go, rv64, seed 7. The scenarios drive the load engine
// through windowed error replies, drops, delays and retries; a change to
// the event loop that moves any output byte fails here. A change that is
// meant to alter the schedule must update these constants and say why.
var goldenOutputs = map[string]string{
	"baseline":                "d9492d1346f1d6b4",
	"transient-blip":          "3eead92c31ea8323",
	"outage-and-recover":      "1f3a816f92c43f60",
	"latency-spike":           "103fa70e51636c97",
	"retry-storm":             "6725ab77f48cf21a",
	"degradation-under-churn": "18d41e2b967fad20",
}

func resultDigest(r *Result) string {
	h := sha256.New()
	h.Write([]byte(r.Table()))
	h.Write([]byte(r.StatsText))
	h.Write(r.TraceJSON)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func TestOutputsGolden(t *testing.T) {
	cat := Catalog()
	for _, s := range cat {
		res, err := Run(testConfig(t, s))
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if d := resultDigest(res); d != goldenOutputs[s.Name] {
			t.Errorf("%s: digest %s, want %s", s.Name, d, goldenOutputs[s.Name])
		}
	}
	if len(goldenOutputs) != len(cat) {
		t.Errorf("%d golden digests for %d scenarios", len(goldenOutputs), len(cat))
	}
}
