package loadgen

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"svbench/internal/faults"
)

// hookFunc adapts a function to AttemptHook.
type hookFunc func(inv, attempt int, now uint64) faults.AttemptFault

func (h hookFunc) Attempt(inv, attempt int, now uint64) faults.AttemptFault {
	return h(inv, attempt, now)
}

// goldenConfigs are the load runs TestOutputsGolden pins. Together they
// reach every event class (completion, client timer, arrival) and the
// tie-breaks between them: simultaneous bursty arrivals, completions
// freeing a capped pool onto its FIFO, error replies retried with
// backoff, lost requests and lost replies timing out, and delayed replies.
func goldenConfigs(t *testing.T) map[string]Config {
	poisson := testConfig(t)

	bursty := testConfig(t)
	bursty.Arrival = Bursty
	bursty.RPS = 600
	bursty.KeepAlive = 0
	bursty.MaxInstances = 2

	errRetry := testConfig(t)
	errRetry.Retry = &faults.Retry{MaxAttempts: 4, Backoff: 2_000_000, Deadline: 20_000_000}
	errRetry.Chaos = &timedFault{start: 10_000_000, end: 25_000_000, f: faults.AttemptFault{ErrorReply: true}}

	dropReq := testConfig(t)
	dropReq.Retry = &faults.Retry{MaxAttempts: 3, Backoff: 1_000_000, Deadline: 5_000_000}
	dropReq.Chaos = &timedFault{start: 10_000_000, end: 30_000_000, f: faults.AttemptFault{DropRequest: true}}

	dropReply := testConfig(t)
	dropReply.Retry = &faults.Retry{MaxAttempts: 3, Backoff: 500_000, Deadline: 3_000_000}
	dropReply.Chaos = hookFunc(func(inv, attempt int, now uint64) faults.AttemptFault {
		switch {
		case inv%3 == 0 && attempt == 1:
			return faults.AttemptFault{DropResponse: true}
		case inv%3 == 1:
			return faults.AttemptFault{DelayNS: 400_000}
		}
		return faults.AttemptFault{}
	})

	return map[string]Config{
		"poisson":                poisson,
		"bursty-keepalive0-cap2": bursty,
		"error-replies-retry":    errRetry,
		"dropped-requests":       dropReq,
		"dropped-replies-delay":  dropReply,
		"lost-reply-queued":      lostReplyQueuedConfig(t),
	}
}

// goldenOutputs pins the first 16 hex digits of a sha256 over each golden
// config's Table(), StatsText and TraceJSON. The determinism tests only
// compare two runs of the same build; this test catches a change to the
// event loop that moves any output byte. A change that is meant to alter
// the schedule must update these constants and say why.
var goldenOutputs = map[string]string{
	"poisson":                "7bea2c49575a754e",
	"bursty-keepalive0-cap2": "82ac92f7dba73bfe",
	"error-replies-retry":    "718c8d7f1243c5d0",
	"dropped-requests":       "699e318b370dc612",
	"dropped-replies-delay":  "916ee30d7ea828be",
	"lost-reply-queued":      "d18c640e04092bd4",
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
