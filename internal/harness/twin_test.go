package harness

import (
	"bytes"
	"testing"

	"svbench/internal/gemsys"
	"svbench/internal/ir"
	"svbench/internal/isa"
)

// serveHost drives one request through b's server host-side, the way
// loadgen's fleet serves an invocation, and returns the reply and the
// time it took on the virtual clock.
func serveHost(t *testing.T, b *Boot, req []byte) ([]byte, uint64) {
	t.Helper()
	m := b.M
	t0 := m.VirtNS()
	if err := m.K.Inject(b.reqCh, req); err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntilIdle(200_000_000); err != nil {
		t.Fatal(err)
	}
	resp, ok := m.K.TakeMessage(b.respCh)
	if !ok {
		t.Fatal("server produced no reply")
	}
	return resp, m.VirtNS() - t0
}

// restoreServer restores ck onto b and kills the client, leaving the
// server for serveHost.
func restoreServer(t *testing.T, b *Boot, ck *gemsys.Checkpoint) {
	t.Helper()
	if err := b.M.Restore(ck); err != nil {
		t.Fatal(err)
	}
	if err := b.M.KillProcess("client"); err != nil {
		t.Fatal(err)
	}
}

// TestTwinServesLikeBootSpec: two twins of one master, which share the
// master's images and decode caches, serve fib-go exactly like two
// machines that BootSpec assembled on their own, when each restores the
// master's checkpoint. Steps interleave the pairs, and restores of one
// twin sever the links the other twin is running on; every reply, every
// virtual-clock delta and the guest memory after every step must match.
func TestTwinServesLikeBootSpec(t *testing.T) {
	for _, arch := range []isa.Arch{isa.RV64, isa.CISC64} {
		t.Run(string(arch), func(t *testing.T) {
			cfg := gemsys.DefaultConfig(arch)
			spec := fastSpec(t)
			master, err := BootSpec(cfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			ck, err := master.Setup()
			if err != nil {
				t.Fatal(err)
			}
			type pair struct{ ref, twin *Boot }
			pairs := make([]pair, 2)
			for i := range pairs {
				if pairs[i].ref, err = BootSpec(cfg, spec); err != nil {
					t.Fatal(err)
				}
				if pairs[i].twin, err = master.Twin(); err != nil {
					t.Fatal(err)
				}
				if pairs[i].twin.server != master.server || pairs[i].twin.client != master.client {
					t.Fatal("the twin compiled images of its own")
				}
				for _, b := range []*Boot{pairs[i].ref, pairs[i].twin} {
					if got, want := b.M.BootFingerprint(), master.M.BootFingerprint(); got != want {
						t.Fatalf("boot fingerprint %s, want the master's %s", got, want)
					}
					restoreServer(t, b, ck)
				}
			}
			req := spec.Request()
			// Each step serves on (+) or restores (r) one pair.
			steps := []struct {
				pair    int
				restore bool
			}{{0, false}, {1, false}, {0, false}, {0, true}, {1, false}, {0, false}, {1, true}, {0, false}, {1, false}}
			for i, st := range steps {
				p := pairs[st.pair]
				if st.restore {
					restoreServer(t, p.ref, ck)
					restoreServer(t, p.twin, ck)
					continue
				}
				want, wantNS := serveHost(t, p.ref, req)
				got, gotNS := serveHost(t, p.twin, req)
				if !bytes.Equal(got, want) || gotNS != wantNS {
					t.Fatalf("step %d: twin replied %d bytes in %d ns, BootSpec machine %d bytes in %d ns",
						i, len(got), gotNS, len(want), wantNS)
				}
				if !bytes.Equal(p.twin.M.Mem.Data, p.ref.M.Mem.Data) {
					t.Fatalf("step %d: twin's guest memory differs from the BootSpec machine's", i)
				}
			}
		})
	}
}

// TestTwinRejectsRewiredServices: the master's images bake in the
// service channels its Build allocated, so a twin whose Build wires its
// services differently is an error, not a machine running on wrong
// channels.
func TestTwinRejectsRewiredServices(t *testing.T) {
	spec := HotelSpec("geo", EngineCassandra)
	master, err := BootSpec(gemsys.DefaultConfig(isa.RV64), spec)
	if err != nil {
		t.Fatal(err)
	}
	build := spec.Build
	calls := 0
	master.spec.Build = func(env *Env) (*ir.Module, error) {
		calls++
		env.M.K.NewChannel() // shifts every channel this Build allocates
		return build(env)
	}
	if _, err := master.Twin(); err == nil {
		t.Fatal("a twin with rewired services booted")
	}
	if calls != 1 {
		t.Fatalf("the twin ran its Build %d times, want 1", calls)
	}
}
