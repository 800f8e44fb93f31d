package figures

import (
	"strings"
	"testing"

	"svbench/internal/harness"
	"svbench/internal/isa"
)

// TestSweepDegradesGracefully forces one spec to fail validation and
// checks the sweep completes the rest, records a structured failure, and
// projections skip the missing rows instead of panicking.
func TestSweepDegradesGracefully(t *testing.T) {
	var good, bad harness.Spec
	for _, sp := range harness.StandaloneSpecs() {
		switch sp.Name {
		case "fibonacci-go":
			good = sp
		case "aes-go":
			bad = sp
		}
	}
	bad.Requests = 1 // fails spec validation before any simulation

	res := SweepWith([]isa.Arch{isa.RV64}, []harness.Spec{good, bad}, nil, SweepOpts{Jobs: 1})
	if res.Fn[isa.RV64]["fibonacci-go"] == nil {
		t.Fatal("healthy spec did not complete")
	}
	if len(res.Failures) != 1 {
		t.Fatalf("got %d failures, want 1: %v", len(res.Failures), res.Failures)
	}
	f := res.Failures[0]
	if f.Spec != "aes-go" || f.Phase != "spec" {
		t.Fatalf("failure = %+v, want aes-go in phase spec", f)
	}
	if !strings.Contains(f.Error(), "aes-go") {
		t.Fatalf("failure message %q does not name the spec", f.Error())
	}

	// A projection over both specs must keep the healthy row and drop the
	// failed one.
	d := res.project("t", "t", []string{"fibonacci-go", "aes-go"},
		[]string{"cold", "warm"}, coldWarm(cycles), isa.RV64)
	if len(d.Rows) != 1 || d.Rows[0].Label != "fibonacci-go" {
		t.Fatalf("projection rows = %+v, want only fibonacci-go", d.Rows)
	}
}
