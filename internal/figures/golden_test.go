package figures

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"svbench/internal/gemsys"
	"svbench/internal/harness"
	"svbench/internal/isa"
	"svbench/internal/trace"
)

// goldenStats pins the absolute simulated statistics of the untraced
// reduced matrix, in full detail and with default sampling: per result,
// the first 16 hex digits of a sha256 over Cold, Warm, SetupInsts,
// Response and, when sampled, the sampling metadata. The determinism
// tests compare two runs of the same code, and the reduced matrix they
// use is traced, so only this test catches a replay change that moves a
// number on the default (untraced) path. A change that is meant to alter
// timing must update these constants and say why.
var goldenStats = map[gemsys.SamplingConfig]map[string]string{
	{}: {
		"cisc64/aes-python":   "7e2cbc4245a3eaed",
		"cisc64/auth-nodejs":  "8d95b00ee392ec50",
		"cisc64/fibonacci-go": "ed001c07510bdffb",
		"cisc64/geo":          "da38d028ccb80e24",
		"cisc64/profile":      "9cd4d035e9802b92",
		"rv64/aes-python":     "5b2774294e0a9d68",
		"rv64/auth-nodejs":    "a32322c073d4a7a2",
		"rv64/fibonacci-go":   "677925fc1d36bdcf",
		"rv64/geo":            "a70e10f2753abe92",
		"rv64/profile":        "3d6051928800b5ba",
	},
	gemsys.DefaultSamplingConfig(): {
		"cisc64/aes-python":   "f25c8f02b72ecb2d",
		"cisc64/auth-nodejs":  "29c8f68a8363f5b0",
		"cisc64/fibonacci-go": "f9239015bf55ee14",
		"cisc64/geo":          "e26bb5df53f56fe9",
		"cisc64/profile":      "3102481989b8173f",
		"rv64/aes-python":     "5e2d87bbace827ed",
		"rv64/auth-nodejs":    "321c25f328a7aad9",
		"rv64/fibonacci-go":   "c6a99c6494a1d9a7",
		"rv64/geo":            "47797c61d5d3d04d",
		"rv64/profile":        "4952208946813156",
	},
}

// resultDigest hashes the simulated outputs of one result.
func resultDigest(r *harness.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v|%+v|%d|", r.Cold, r.Warm, r.SetupInsts)
	h.Write(r.Response)
	if r.SampleCold != nil {
		fmt.Fprintf(h, "|%+v|%+v", r.SampleCold, r.SampleWarm)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func TestUntracedStatsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reduced matrix twice")
	}
	for sc, want := range goldenStats {
		t.Run(sc.String(), func(t *testing.T) {
			fn, hotel := reducedMatrix(t)
			for _, specs := range [][]harness.Spec{fn, hotel} {
				for i := range specs {
					specs[i].Trace = trace.Options{}
					specs[i].Sampling = sc
				}
			}
			res := SweepWith([]isa.Arch{isa.RV64, isa.CISC64}, fn, hotel, SweepOpts{})
			if len(res.Failures) > 0 {
				t.Fatalf("%d failures: %v", len(res.Failures), res.Failures[0])
			}
			got := 0
			for _, arch := range []isa.Arch{isa.RV64, isa.CISC64} {
				for _, specs := range [][]harness.Spec{fn, hotel} {
					for _, sp := range specs {
						key := fmt.Sprintf("%s/%s", arch, sp.Name)
						r := res.fn(arch, sp.Name)
						if r == nil {
							t.Errorf("%s: no result", key)
							continue
						}
						got++
						if d := resultDigest(r); d != want[key] {
							t.Errorf("%s: digest %s, want %s", key, d, want[key])
						}
					}
				}
			}
			if got != len(want) {
				t.Errorf("checked %d results, want %d", got, len(want))
			}
		})
	}
}

// goldenStudies pins the Markdown of the report studies that run outside
// the sweep, the first 16 hex digits of its sha256: Fig. 4.20 at two
// requests and the two container-size tables. The cross-jobs test only
// compares worker counts with each other; these constants also catch a
// cell written into the wrong slot by every worker count alike.
var goldenStudies = map[string]string{
	"fig4.20":  "943c102796451297",
	"table4.4": "5d2f6b5722f0859c",
	"table4.5": "ee7a5124dc198b5b",
}

func markdownDigest(d Data) string {
	sum := sha256.Sum256([]byte(d.Markdown()))
	return hex.EncodeToString(sum[:])[:16]
}

// TestFig420ReportsFirstFailingRow: with every emulation run failing,
// Fig. 4.20 reports the first row's Cassandra run, whichever worker
// failed first.
func TestFig420ReportsFirstFailingRow(t *testing.T) {
	_, err := Fig420(0)
	want := "fig4.20 geo/cassandra: qemu: request count must be >= 1, got 0"
	if err == nil || err.Error() != want {
		t.Fatalf("Fig420(0): error %v, want %q", err, want)
	}
}

func TestReportStudiesGolden(t *testing.T) {
	f420, err := Fig420(2)
	if err != nil {
		t.Fatal(err)
	}
	t44, err := Table44()
	if err != nil {
		t.Fatal(err)
	}
	t45, err := Table45()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []Data{f420, t44, t45} {
		if got := markdownDigest(d); got != goldenStudies[d.ID] {
			t.Errorf("%s: digest %s, want %s", d.ID, got, goldenStudies[d.ID])
		}
	}
}
