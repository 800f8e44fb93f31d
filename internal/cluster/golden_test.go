package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenOutputs pins the first 16 hex digits of a sha256 over the
// EventLog, Table(), StatsText and TraceJSON() of both topologies, a
// dozen requests each on rv64. The determinism tests only compare two
// runs of the same build; this test catches a change to the event queue
// that reorders same-instant events. A change that is meant to alter the
// schedule must update these constants and say why.
var goldenOutputs = map[string]string{
	"hotel-reservation": "cb8d10510313a363",
	"social-network":    "8f8a6d463df9966d",
}

func TestOutputsGolden(t *testing.T) {
	tops := []Topology{HotelReservation(), SocialNetwork()}
	for _, top := range tops {
		rep, err := Run(testConfig(top, 12))
		if err != nil {
			t.Fatalf("%s: %v", top.Name, err)
		}
		tj, err := rep.TraceJSON()
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		h.Write([]byte(rep.EventLog))
		h.Write([]byte(rep.Table()))
		h.Write([]byte(rep.StatsText))
		h.Write(tj)
		if d := hex.EncodeToString(h.Sum(nil))[:16]; d != goldenOutputs[top.Name] {
			t.Errorf("%s: digest %s, want %s", top.Name, d, goldenOutputs[top.Name])
		}
	}
	if len(goldenOutputs) != len(tops) {
		t.Errorf("%d golden digests for %d topologies", len(goldenOutputs), len(tops))
	}
}
