package qemu

import (
	"strings"
	"testing"

	"svbench/internal/harness"
	"svbench/internal/isa"
)

func TestFunctionalLatencies(t *testing.T) {
	lats, err := Run(isa.RV64, harness.HotelSpec("rate", harness.EngineCassandra), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(lats) != 5 {
		t.Fatalf("got %d latencies", len(lats))
	}
	for _, l := range lats {
		if l.NS == 0 {
			t.Fatalf("request %d: zero latency", l.Request)
		}
	}
	// Cold (memcached misses -> Cassandra) must exceed warm (cache hits).
	if lats[0].NS <= lats[4].NS {
		t.Fatalf("cold %d <= warm %d", lats[0].NS, lats[4].NS)
	}
}

func TestRunRejectsRequestCountBelowOne(t *testing.T) {
	for _, nreq := range []int{0, -1} {
		lats, err := Run(isa.RV64, harness.HotelSpec("rate", harness.EngineCassandra), nreq)
		if err == nil || !strings.Contains(err.Error(), "request count must be >= 1") {
			t.Errorf("nreq %d: got %d latencies and error %v, want a request-count error", nreq, len(lats), err)
		}
	}
}

// TestRunRejectsMissingSpecFunctions: a spec without Build or Request is
// an error naming the missing field, not a nil dereference.
func TestRunRejectsMissingSpecFunctions(t *testing.T) {
	noBuild := harness.HotelSpec("rate", harness.EngineCassandra)
	noBuild.Build = nil
	noRequest := harness.HotelSpec("rate", harness.EngineCassandra)
	noRequest.Request = nil
	for _, c := range []struct {
		field string
		spec  harness.Spec
	}{
		{"Build", noBuild},
		{"Request", noRequest},
		{"Build", harness.Spec{Name: "x"}},
	} {
		_, err := Run(isa.RV64, c.spec, 1)
		if err == nil || !strings.Contains(err.Error(), "no "+c.field) {
			t.Errorf("spec %q without %s: error %v, want one naming %s", c.spec.Name, c.field, err, c.field)
		}
	}
}

func TestMongoVsCassandraShape(t *testing.T) {
	// Fig. 4.20: MongoDB's cold request is faster than Cassandra's; warm
	// requests are comparable (both served from memcached).
	cass, err := Run(isa.CISC64, harness.HotelSpec("profile", harness.EngineCassandra), 4)
	if err != nil {
		t.Fatal(err)
	}
	mongo, err := Run(isa.CISC64, harness.HotelSpec("profile", harness.EngineMongo), 4)
	if err != nil {
		t.Fatal(err)
	}
	if mongo[0].NS >= cass[0].NS {
		t.Errorf("mongo cold (%d) should beat cassandra cold (%d)", mongo[0].NS, cass[0].NS)
	}
	warmRatio := float64(cass[3].NS) / float64(mongo[3].NS)
	if warmRatio > 1.6 || warmRatio < 0.6 {
		t.Errorf("warm latencies should be comparable, ratio %.2f", warmRatio)
	}
	t.Logf("cold: cass=%d mongo=%d | warm: cass=%d mongo=%d",
		cass[0].NS, mongo[0].NS, cass[3].NS, mongo[3].NS)
}
