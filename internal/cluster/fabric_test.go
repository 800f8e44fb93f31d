package cluster

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"

	"svbench/internal/db"
	"svbench/internal/ir"
	"svbench/internal/isa"
	"svbench/internal/langrt"
	"svbench/internal/rpc"
	"svbench/internal/vswarm"
)

func testConfig(top Topology, requests int) Config {
	return Config{
		Topology: top,
		Arch:     isa.RV64,
		Requests: requests,
		RPS:      2000,
		Seed:     42,
	}
}

func TestHotelReservationEndToEnd(t *testing.T) {
	rep, err := Run(testConfig(HotelReservation(), 4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Machines != 12 {
		t.Fatalf("machines = %d, want 12", rep.Machines)
	}
	for i, l := range rep.Latencies {
		if l == 0 {
			t.Fatalf("request %d has zero latency", i)
		}
	}
	if rep.Latency.P50 == 0 || rep.NetMsgs == 0 {
		t.Fatalf("empty report: %+v", rep.Latency)
	}
	// Every request crosses client->frontend and back at minimum.
	if rep.NetMsgs < uint64(2*rep.Requests) {
		t.Fatalf("only %d messages for %d requests", rep.NetMsgs, rep.Requests)
	}
	if !strings.Contains(rep.EventLog, "done req=3") {
		t.Fatalf("event log missing final request:\n%s", tail(rep.EventLog, 10))
	}
}

func TestSocialNetworkEndToEnd(t *testing.T) {
	rep, err := Run(testConfig(SocialNetwork(), 3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Machines != 15 {
		t.Fatalf("machines = %d, want 15", rep.Machines)
	}
	if rep.Latency.Max == 0 {
		t.Fatal("no latency recorded")
	}
}

func tail(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// miniTopology is a 3-service graph (orchestrator -> function+datastore)
// small enough for determinism tests to run quickly.
func miniTopology() Topology {
	return Topology{
		Name:     "mini",
		Frontend: "front",
		Request:  opaqueRequest(1),
		Services: []ServiceSpec{
			{Name: "front", Kind: Orchestrator, Stages: [][]Call{
				{{Service: "fib", Request: fibReq(18)}},
				{{Service: "store", Request: dbGet("t", "k")}},
			}},
			{Name: "fib", Kind: Function, Runtime: langrt.GoRT,
				Fn: fibFn()},
			{Name: "store", Kind: Datastore, Engine: "memcached",
				Seed: seedKV("t", "k", 64)},
		},
	}
}

func TestFabricQuantumInsensitive(t *testing.T) {
	// The quantum bounds run-ahead; it must not change observable
	// results (latencies, message flow), only scheduling granularity.
	base, err := Run(testConfig(miniTopology(), 4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(miniTopology(), 4)
	cfg.QuantumNS = 1000
	small, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.EventLog != small.EventLog {
		t.Fatalf("event log depends on quantum:\n--- q=default\n%s\n--- q=1000\n%s",
			tail(base.EventLog, 12), tail(small.EventLog, 12))
	}
}

func TestDeterminismAcrossJobs(t *testing.T) {
	mk := func() []Config {
		return []Config{
			testConfig(miniTopology(), 5),
			testConfig(miniTopology(), 5),
			testConfig(miniTopology(), 5),
			testConfig(miniTopology(), 5),
		}
	}
	seq, err := RunMany(mk(), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunMany(mk(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i].EventLog != par[i].EventLog {
			t.Fatalf("run %d: event log differs between -j 1 and -j 4", i)
		}
		if seq[i].Table() != par[i].Table() {
			t.Fatalf("run %d: table differs between -j 1 and -j 4", i)
		}
		sj, err := seq[i].TraceJSON()
		if err != nil {
			t.Fatal(err)
		}
		pj, err := par[i].TraceJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sj, pj) {
			t.Fatalf("run %d: trace JSON differs between -j 1 and -j 4", i)
		}
	}
}

// TestDeterminismAcrossProcesses re-executes the test binary as a fresh
// process and compares its fabric fingerprint byte-for-byte, catching
// any dependence on map iteration, address ordering, or process state.
func TestDeterminismAcrossProcesses(t *testing.T) {
	if os.Getenv("CLUSTER_FINGERPRINT_CHILD") == "1" {
		return
	}
	want := clusterFingerprint(t)
	exe, err := os.Executable()
	if err != nil {
		t.Skipf("no executable path: %v", err)
	}
	cmd := exec.Command(exe, "-test.run", "TestHelperClusterFingerprint", "-test.v")
	cmd.Env = append(os.Environ(), "CLUSTER_FINGERPRINT_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child process failed: %v\n%s", err, out)
	}
	marker := "FINGERPRINT-BEGIN\n"
	i := bytes.Index(out, []byte(marker))
	j := bytes.Index(out, []byte("FINGERPRINT-END"))
	if i < 0 || j < 0 || j < i {
		t.Fatalf("child output missing fingerprint markers:\n%s", out)
	}
	got := string(out[i+len(marker) : j])
	if got != want {
		t.Fatalf("fingerprint differs across processes:\n--- parent\n%s\n--- child\n%s", want, got)
	}
}

func clusterFingerprint(t *testing.T) string {
	t.Helper()
	rep, err := Run(testConfig(miniTopology(), 5))
	if err != nil {
		t.Fatal(err)
	}
	tj, err := rep.TraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s%s%x\n", rep.EventLog, rep.Table(), tj)
}

func TestHelperClusterFingerprint(t *testing.T) {
	if os.Getenv("CLUSTER_FINGERPRINT_CHILD") != "1" {
		t.Skip("helper for TestDeterminismAcrossProcesses")
	}
	fmt.Printf("FINGERPRINT-BEGIN\n%sFINGERPRINT-END\n", clusterFingerprint(t))
}

func TestValidateRejectsBadTopologies(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Topology)
		want string
	}{
		{"unknown frontend", func(tp *Topology) { tp.Frontend = "nope" }, "frontend"},
		{"empty request", func(tp *Topology) { tp.Request = nil }, "client request"},
		{"duplicate service", func(tp *Topology) {
			tp.Services = append(tp.Services, ServiceSpec{Name: "fib", Kind: Datastore, Engine: "memcached"})
		}, "duplicate"},
		{"unknown call target", func(tp *Topology) {
			tp.Services[0].Stages = [][]Call{{{Service: "ghost", Request: opaqueRequest(9)}}}
		}, "unknown service"},
		{"cycle", func(tp *Topology) {
			tp.Services = append(tp.Services,
				ServiceSpec{Name: "a", Kind: Orchestrator,
					Stages: [][]Call{{{Service: "b", Request: opaqueRequest(1)}}}},
				ServiceSpec{Name: "b", Kind: Orchestrator,
					Stages: [][]Call{{{Service: "a", Request: opaqueRequest(1)}}}})
		}, "cycle"},
	}
	for _, c := range cases {
		tp := miniTopology()
		c.mut(&tp)
		err := tp.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
	for _, tp := range Topologies() {
		if err := tp.Validate(); err != nil {
			t.Errorf("shipped topology %s invalid: %v", tp.Name, err)
		}
	}
}

func TestRunRejectsBadRPS(t *testing.T) {
	for _, rps := range []float64{0, math.NaN(), math.Inf(1)} {
		cfg := testConfig(miniTopology(), 1)
		cfg.RPS = rps
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "RPS") {
			t.Errorf("RPS %g: err = %v, want an RPS error", rps, err)
		}
	}
}

func TestLinkModel(t *testing.T) {
	l := Link{LatencyNS: 100, GbitPS: 8}
	if tx := l.TxNS(100); tx != 100 {
		t.Fatalf("100B at 8 Gbit/s: tx = %d ns, want 100", tx)
	}
	var z Link
	if tx := z.TxNS(10); tx != 8 {
		t.Fatalf("zero link defaults: tx = %d ns, want 8", tx)
	}
}

func fibReq(n int) []byte {
	w := rpc.NewWriter()
	w.PutInt(uint64(n))
	return w.Bytes()
}

func fibFn() func([]ChanPair) *ir.Module {
	return func([]ChanPair) *ir.Module { return vswarm.Fibonacci() }
}

func seedKV(table, key string, n int) func(db.Store) {
	return func(s db.Store) { s.Put(table, key, vswarm.AESPayload(n)) }
}
