package gemsys

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"svbench/internal/isa"
	"svbench/internal/stats"
	"svbench/internal/trace"
)

// dumpString renders every field of a dump (cores and sample metadata)
// so byte-identity comparisons cover the whole surface.
func dumpString(d stats.Dump) string { return fmt.Sprintf("%+v", d) }

func TestSamplingConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		sc   SamplingConfig
		ok   bool
	}{
		{"zero is full detail", SamplingConfig{}, true},
		{"default", DefaultSamplingConfig(), true},
		{"detail fills interval", SamplingConfig{Interval: 100, Detail: 100}, true},
		{"no detail", SamplingConfig{Interval: 100, Warmup: 10}, false},
		{"no interval", SamplingConfig{Detail: 10}, false},
		{"phases exceed interval", SamplingConfig{Interval: 100, Warmup: 60, Detail: 50}, false},
	}
	for _, c := range cases {
		if err := c.sc.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	if (SamplingConfig{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	if !DefaultSamplingConfig().Enabled() {
		t.Error("default config reports disabled")
	}
}

// TestParseSamplingConfig accepts both spellings and the sampling-off
// forms, rejects input with anything after the third number, and
// round-trips the default config through its String form.
func TestParseSamplingConfig(t *testing.T) {
	def := DefaultSamplingConfig()
	cases := []struct {
		in   string
		want SamplingConfig
		ok   bool
	}{
		{"", SamplingConfig{}, true},
		{"full-detail", SamplingConfig{}, true},
		{"u50000-w4000-d2000", def, true},
		{"50000,4000,2000", def, true},
		{"u100-w0-d100", SamplingConfig{Interval: 100, Detail: 100}, true},
		{"50000,4000,2000,7", SamplingConfig{}, false},
		{"u50000-w4000-d2000xyz", SamplingConfig{}, false},
		{"u1-w0-d1 trailing", SamplingConfig{}, false},
		{"u100-w60-d50", SamplingConfig{}, false}, // parses, fails Validate
		{"u50000-w4000", SamplingConfig{}, false},
		{"default", SamplingConfig{}, false},
	}
	for _, c := range cases {
		got, err := ParseSamplingConfig(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseSamplingConfig(%q) = %+v, %v; want %+v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	if got, err := ParseSamplingConfig(def.String()); err != nil || got != def {
		t.Errorf("ParseSamplingConfig(%q) = %+v, %v; want %+v", def.String(), got, err, def)
	}
}

// TestOrderCoresByTime pins the generic interleaver: cores sort ascending
// by local commit time with index order breaking ties, for any core count
// — so a future >2-core machine cannot silently break eval mode.
func TestOrderCoresByTime(t *testing.T) {
	cases := []struct {
		times []uint64
		want  []int
	}{
		{[]uint64{5, 3}, []int{1, 0}},
		{[]uint64{3, 5}, []int{0, 1}},
		{[]uint64{4, 4}, []int{0, 1}}, // tie: index order
		{[]uint64{9, 2, 7, 2}, []int{1, 3, 2, 0}},
		{[]uint64{1, 1, 1, 1, 1}, []int{0, 1, 2, 3, 4}},
		{[]uint64{10, 9, 8, 7, 6, 5}, []int{5, 4, 3, 2, 1, 0}},
	}
	for _, c := range cases {
		got := make([]int, len(c.times))
		orderCoresByTime(got, c.times)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("orderCoresByTime(%v) = %v, want %v", c.times, got, c.want)
		}
	}
}

// prepPipeline boots the fib server/client pair up to its checkpoint.
func prepPipeline(t testing.TB, cfg Config, nreq, fibN int64) (*Machine, *Checkpoint) {
	t.Helper()
	mach, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := mach.K.NewChannel()
	resp := mach.K.NewChannel()
	if _, err := mach.Spawn("server", serverMod(), "main", 1, []uint64{uint64(req), uint64(resp)}); err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Spawn("client", clientMod(nreq, fibN), "main", 0, []uint64{uint64(req), uint64(resp)}); err != nil {
		t.Fatal(err)
	}
	if err := mach.RunSetup(50_000_000); err != nil {
		t.Fatalf("setup: %v", err)
	}
	return mach, mach.TakeCheckpoint()
}

// TestZeroSamplingBitIdentical: RunEvalSampled with the zero config must
// reproduce the full-detail path byte-for-byte — dumps, trace JSON, stats
// text and profile tables.
func TestZeroSamplingBitIdentical(t *testing.T) {
	cfg := DefaultConfig(isa.RV64)
	cfg.Trace = trace.Options{Enabled: true}
	mach, ck := prepPipeline(t, cfg, 8, 17)

	type export struct {
		dumps []string
		json  []byte
		stats string
		prof  string
	}
	run := func(sampled bool) export {
		if err := mach.Restore(ck); err != nil {
			t.Fatal(err)
		}
		mach.K.Console.Reset()
		var ds []string
		var err error
		if sampled {
			d, e := mach.RunEvalSampled(100_000_000, SamplingConfig{})
			err = e
			for _, x := range d {
				ds = append(ds, dumpString(x))
			}
		} else {
			d, e := mach.RunEval(100_000_000)
			err = e
			for _, x := range d {
				ds = append(ds, dumpString(x))
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		js, err := mach.TraceJSON()
		if err != nil {
			t.Fatal(err)
		}
		return export{dumps: ds, json: js, stats: mach.StatsText("eval"), prof: mach.Profile().Table()}
	}
	full := run(false)
	zero := run(true)
	if !reflect.DeepEqual(full.dumps, zero.dumps) {
		t.Fatalf("zero-config sampled dumps differ from full detail:\n%v\nvs\n%v", full.dumps, zero.dumps)
	}
	if !bytes.Equal(full.json, zero.json) {
		t.Fatal("zero-config sampled trace JSON differs from full detail")
	}
	if full.stats != zero.stats {
		t.Fatal("zero-config sampled stats text differs from full detail")
	}
	if full.prof != zero.prof {
		t.Fatal("zero-config sampled profile differs from full detail")
	}
}

// TestEvalBudgetExact pins the budget bound: a budget of N admits exactly
// N retired records, not N+1.
func TestEvalBudgetExact(t *testing.T) {
	mach, ck := prepPipeline(t, DefaultConfig(isa.RV64), 8, 17)
	if err := mach.Restore(ck); err != nil {
		t.Fatal(err)
	}
	const budget = 1000
	_, err := mach.RunEval(budget)
	if err == nil || !strings.Contains(err.Error(), "eval exceeded") {
		t.Fatalf("tiny budget did not trip the bound: %v", err)
	}
	if got := mach.EvalRetired(); got != budget {
		t.Fatalf("retired %d records under a budget of %d; the bound must be exact", got, budget)
	}

	// A sampled run obeys the same exact bound.
	if err := mach.Restore(ck); err != nil {
		t.Fatal(err)
	}
	_, err = mach.RunEvalSampled(budget, SamplingConfig{Interval: 300, Warmup: 50, Detail: 50})
	if err == nil || !strings.Contains(err.Error(), "eval exceeded") {
		t.Fatalf("tiny budget did not trip the sampled bound: %v", err)
	}
	if got := mach.EvalRetired(); got != budget {
		t.Fatalf("sampled mode retired %d records under a budget of %d", got, budget)
	}
}

// TestSampledRunDeterministic: the same checkpoint under the same
// SamplingConfig must yield identical dumps (including sample metadata)
// on every restore.
func TestSampledRunDeterministic(t *testing.T) {
	mach, ck := prepPipeline(t, DefaultConfig(isa.RV64), 8, 17)
	sc := SamplingConfig{Interval: 5_000, Warmup: 800, Detail: 600}
	run := func() []string {
		if err := mach.Restore(ck); err != nil {
			t.Fatal(err)
		}
		mach.K.Console.Reset()
		dumps, err := mach.RunEvalSampled(100_000_000, sc)
		if err != nil {
			t.Fatal(err)
		}
		var ds []string
		for _, d := range dumps {
			ds = append(ds, dumpString(d))
		}
		return ds
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sampled dumps differ across restores:\n%v\nvs\n%v", a, b)
	}
}

// TestSampledCPIAndMetadata: a sampled run of the fib pipeline must carry
// sample metadata, cover roughly Detail/Interval of the stream, and land
// its warm-window CPI near the full-detail value.
func TestSampledCPIAndMetadata(t *testing.T) {
	// fib(4000) makes each request ~tens of kilo-instructions, so the
	// stats windows span many sampling intervals — the regime sampling
	// is designed for. (The value wraps uint64; only timing matters.)
	mach, ck := prepPipeline(t, DefaultConfig(isa.RV64), 10, 4000)
	if err := mach.Restore(ck); err != nil {
		t.Fatal(err)
	}
	full, err := mach.RunEval(100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	sc := SamplingConfig{Interval: 2_000, Warmup: 400, Detail: 400}
	if err := mach.Restore(ck); err != nil {
		t.Fatal(err)
	}
	sampled, err := mach.RunEvalSampled(100_000_000, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(sampled) != 2 {
		t.Fatalf("got %d sampled dumps, want 2", len(sampled))
	}
	for i, d := range sampled {
		meta := d.ServerSampling()
		if meta == nil {
			t.Fatalf("dump %d: no sample metadata on a sampled run", i)
		}
		if meta.Windows == 0 || meta.SampledInsts == 0 {
			t.Fatalf("dump %d: empty sample windows: %+v", i, meta)
		}
		// Exact architectural counts must match full detail exactly.
		if d.Server().Insts != full[i].Server().Insts {
			t.Errorf("dump %d: sampled insts %d != full %d (must be exact)",
				i, d.Server().Insts, full[i].Server().Insts)
		}
		cov := meta.Coverage()
		want := float64(sc.Detail) / float64(sc.Interval)
		if cov < want/3 || cov > want*3 {
			t.Errorf("dump %d: coverage %.3f implausible for D/U = %.3f", i, cov, want)
		}
		if meta.CPIMean <= 0 {
			t.Errorf("dump %d: CPI mean %.3f", i, meta.CPIMean)
		}
	}
	// Warm-window CPI: the tight bound lives in the harness-level test
	// across workloads and ISAs; here just require the right ballpark.
	fw, sw := full[1].Server().CPI(), sampled[1].Server().CPI()
	if rel := math.Abs(sw-fw) / fw; rel > 0.25 {
		t.Errorf("warm sampled CPI %.3f vs full %.3f: rel err %.3f", sw, fw, rel)
	}
	// Full-detail dumps carry no metadata.
	if full[0].ServerSampling() != nil {
		t.Error("full-detail dump carries sample metadata")
	}
}
