package harness

import (
	"math"
	"reflect"
	"testing"

	"svbench/internal/gemsys"
	"svbench/internal/isa"
	"svbench/internal/langrt"
)

func standaloneSpec(t *testing.T, name string) Spec {
	t.Helper()
	for _, s := range StandaloneSpecs() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no standalone spec %q", name)
	return Spec{}
}

// TestSampledCPIErrorBound: sampled-detailed evaluation must land within a
// stated tolerance of the full-detail CPI on real workloads, on both ISAs.
// The workloads are the scaled variants (each stats window spans many
// sampling intervals — the regime SMARTS targets; the catalog-default
// requests retire fewer records than one interval). The bound holds for
// each window of each workload here; perfbench's sampled-eval workload
// gates the largest error over every figures.SamplingSpecs row against
// the maximum committed in cmd/perfbench/reference.json.
func TestSampledCPIErrorBound(t *testing.T) {
	const tol = 0.10 // 10% per-workload, per-window
	sc := gemsys.DefaultSamplingConfig()
	specs := []Spec{
		ScaledFibSpec(langrt.GoRT, 50000),
		ScaledAESSpec(langrt.PyRT, 1024),
	}
	for _, arch := range []isa.Arch{isa.RV64, isa.CISC64} {
		for _, base := range specs {
			name := base.Name
			// Full-detail and sampled runs share one memoized boot:
			// sampling never enters the boot fingerprint.
			cache := NewBootCache()
			cfg := gemsys.DefaultConfig(arch)
			full, err := RunCached(cfg, base, cache)
			if err != nil {
				t.Fatalf("%s/%s full: %v", name, arch, err)
			}
			spec := base
			spec.Sampling = sc
			sampled, err := RunCached(cfg, spec, cache)
			if err != nil {
				t.Fatalf("%s/%s sampled: %v", name, arch, err)
			}
			if sampled.SampleWarm == nil || sampled.SampleCold == nil {
				t.Fatalf("%s/%s: sampled run missing sample metadata", name, arch)
			}
			for _, w := range []struct {
				label         string
				full, sampled float64
			}{
				{"cold", full.Cold.CPI(), sampled.Cold.CPI()},
				{"warm", full.Warm.CPI(), sampled.Warm.CPI()},
			} {
				rel := math.Abs(w.sampled-w.full) / w.full
				t.Logf("%s/%s %s: full CPI %.3f sampled %.3f rel err %.4f",
					name, arch, w.label, w.full, w.sampled, rel)
				if rel > tol {
					t.Errorf("%s/%s %s window: sampled CPI %.3f vs full %.3f, rel err %.3f > %.2f",
						name, arch, w.label, w.sampled, w.full, rel, tol)
				}
			}
			// Architectural counts are counted, not extrapolated — but the
			// sprint lane interleaves cores functionally rather than in
			// modeled-time retirement order, so an m5 marker's window
			// boundary can shift by O(quantum) records against the
			// full-detail run. Totals stay exact; boundaries wobble within
			// a tight bound.
			wi, fi := float64(sampled.Warm.Insts), float64(full.Warm.Insts)
			if math.Abs(wi-fi) > 0.001*fi {
				t.Errorf("%s/%s: sampled warm insts %d vs full %d, boundary drift > 0.1%%",
					name, arch, sampled.Warm.Insts, full.Warm.Insts)
			}
			t.Logf("%s/%s warm meta: windows=%d coverage=%.3f cpi=%.3f±%.3f",
				name, arch, sampled.SampleWarm.Windows, sampled.SampleWarm.Coverage(),
				sampled.SampleWarm.CPIMean, sampled.SampleWarm.CPIStdErr)
		}
	}
}

// TestSamplingSharesBootCache: sampling is an eval-phase knob — it must
// not change the boot fingerprint, so a sampled run served from a cache
// entry warmed by a full-detail run is identical to a cold-booted sampled
// run.
func TestSamplingSharesBootCache(t *testing.T) {
	spec := standaloneSpec(t, "fibonacci-go")
	cfg := gemsys.DefaultConfig(isa.RV64)

	cache := NewBootCache()
	// Warm the cache with a full-detail run.
	full, err := RunCached(cfg, spec, cache)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses, _ := cache.Stats(); misses != 1 {
		t.Fatalf("cache misses = %d, want 1", misses)
	}

	sampledSpec := spec
	sampledSpec.Sampling = gemsys.DefaultSamplingConfig()
	viaCache, err := RunCached(cfg, sampledSpec, cache)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := cache.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("cache hits=%d misses=%d after sampled run, want 1/1: sampling leaked into the fingerprint",
			hits, misses)
	}
	cold, err := RunCached(cfg, sampledSpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaCache.Cold, cold.Cold) || !reflect.DeepEqual(viaCache.Warm, cold.Warm) {
		t.Fatalf("memoized sampled run differs from cold-boot sampled run:\n%+v %+v\nvs\n%+v %+v",
			viaCache.Cold, viaCache.Warm, cold.Cold, cold.Warm)
	}
	if !reflect.DeepEqual(viaCache.SampleWarm, cold.SampleWarm) {
		t.Fatalf("sample metadata differs with memoization: %+v vs %+v", viaCache.SampleWarm, cold.SampleWarm)
	}
	// And the sampled results genuinely differ in provenance from full
	// detail: metadata present, exact instruction counts preserved.
	if viaCache.SampleWarm == nil || full.SampleWarm != nil {
		t.Fatal("sample metadata mislabeled between full and sampled runs")
	}
	if viaCache.Warm.Insts != full.Warm.Insts {
		t.Errorf("sampled warm insts %d != full %d (exact counts must survive sampling)",
			viaCache.Warm.Insts, full.Warm.Insts)
	}
}
