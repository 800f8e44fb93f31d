package gemsys

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"svbench/internal/ir"
	"svbench/internal/isa"
	"svbench/internal/kernel"
)

// bootClientServer boots the fib client/server pair on a fresh machine,
// not yet set up.
func bootClientServer(t testing.TB, arch isa.Arch, nreq int64) *Machine {
	t.Helper()
	m, err := New(DefaultConfig(arch))
	if err != nil {
		t.Fatal(err)
	}
	req := m.K.NewChannel()
	resp := m.K.NewChannel()
	if _, err := m.Spawn("server", serverMod(), "main", 1, []uint64{uint64(req), uint64(resp)}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Spawn("client", clientMod(nreq, 15), "main", 0, []uint64{uint64(req), uint64(resp)}); err != nil {
		t.Fatal(err)
	}
	return m
}

// roundTrip returns a deep copy of ck made through gob: an equal image
// with no id, as a literal Checkpoint has, that shares nothing with ck.
func roundTrip(t *testing.T, ck *Checkpoint) *Checkpoint {
	t.Helper()
	var out Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, ck))).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// image expands ck's memory image to MemSize bytes.
func image(ck *Checkpoint) []byte {
	mem := make([]byte, ck.MemSize)
	for _, pg := range ck.Pages {
		copy(mem[pg.Index<<isa.PageShift:], pg.Data)
	}
	return mem
}

// machineState renders everything Restore may change, for before/after
// comparison; memory is compared separately.
func machineState(m *Machine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "image=%d pages=%v dirty=%x virt=%d rgn=%d console=%q\n",
		m.memImage, m.memPages, m.Mem.Dirty, m.virtInstr, m.nextRegion, m.Console())
	for _, p := range m.K.Procs {
		fmt.Fprintf(&b, "proc %d state=%v brk=%d wake=%d idle=%v core=%v\n",
			p.ID, p.State, p.Brk, p.WakeSeq, p.NeedsIdle, p.Core.Snapshot())
	}
	for ci := range m.cur {
		fmt.Fprintf(&b, "core %d cur=%p rq=%p\n", ci, m.cur[ci], m.rq[ci])
	}
	fmt.Fprintf(&b, "chans=%+v\n", m.K.SnapChannels())
	return b.String()
}

// TestRestoreRejectsMalformed: a malformed checkpoint makes Restore
// return an error, never panic, and leaves the machine exactly as it was:
// memory, page marks, baseline, processes, channels and run queues.
func TestRestoreRejectsMalformed(t *testing.T) {
	m := bootClientServer(t, isa.RV64, 3)
	if err := m.RunSetup(50_000_000); err != nil {
		t.Fatal(err)
	}
	taken := m.TakeCheckpoint()
	// Leave the machine mid-evaluation with a message queued, so the
	// "untouched" checks compare a state that differs from the checkpoint.
	if _, err := m.RunQuantum(20_000); err != nil {
		t.Fatal(err)
	}
	probe := roundTrip(t, taken)
	if len(probe.Procs) != 2 || len(probe.Chans) != 2 || len(probe.Pages) < 2 {
		t.Fatalf("unexpected checkpoint shape: %d procs, %d channels, %d pages",
			len(probe.Procs), len(probe.Chans), len(probe.Pages))
	}
	for _, c := range []struct {
		name string
		edit func(ck *Checkpoint)
	}{
		{"arch", func(ck *Checkpoint) { ck.Arch = "cisc64" }},
		{"memory size", func(ck *Checkpoint) { ck.MemSize -= isa.PageSize }},
		{"pages out of order", func(ck *Checkpoint) { ck.Pages[0], ck.Pages[1] = ck.Pages[1], ck.Pages[0] }},
		{"repeated page", func(ck *Checkpoint) { ck.Pages = append(ck.Pages, ck.Pages[len(ck.Pages)-1]) }},
		{"page past memory", func(ck *Checkpoint) {
			ck.Pages = append(ck.Pages, MemPage{Index: 1 << 20, Data: make([]byte, isa.PageSize)})
		}},
		{"negative page", func(ck *Checkpoint) {
			ck.Pages = append([]MemPage{{Index: -1, Data: make([]byte, isa.PageSize)}}, ck.Pages...)
		}},
		{"short page", func(ck *Checkpoint) { ck.Pages[1].Data = ck.Pages[1].Data[:100] }},
		{"long page", func(ck *Checkpoint) { ck.Pages[1].Data = append(ck.Pages[1].Data, 1) }},
		{"missing process", func(ck *Checkpoint) { ck.Procs = ck.Procs[:1] }},
		{"unknown process", func(ck *Checkpoint) { ck.Procs[1].ID = 77 }},
		{"duplicate process", func(ck *Checkpoint) { ck.Procs[1].ID = ck.Procs[0].ID }},
		{"short core state", func(ck *Checkpoint) { ck.Procs[0].CoreState = ck.Procs[0].CoreState[:5] }},
		{"long core state", func(ck *Checkpoint) { ck.Procs[1].CoreState = append(ck.Procs[1].CoreState, 1) }},
		{"missing channel", func(ck *Checkpoint) { ck.Chans = ck.Chans[:1] }},
		{"extra channel", func(ck *Checkpoint) { ck.Chans = append(ck.Chans, kernel.ChanSnap{}) }},
		{"unknown waiter", func(ck *Checkpoint) { ck.Chans[0].Waiters = append(ck.Chans[0].Waiters, 42) }},
		{"message outside memory", func(ck *Checkpoint) {
			ck.Chans[1].Msgs = append(ck.Chans[1].Msgs, kernel.MsgSnap{Addr: 32<<20 - 4, Len: 8})
		}},
		{"message length overflow", func(ck *Checkpoint) {
			ck.Chans[1].Msgs = append(ck.Chans[1].Msgs, kernel.MsgSnap{Addr: 16, Len: ^uint64(0)})
		}},
		{"short Cur", func(ck *Checkpoint) { ck.Cur = ck.Cur[:1] }},
		{"nil Cur", func(ck *Checkpoint) { ck.Cur = nil }},
		{"short RunQ", func(ck *Checkpoint) { ck.RunQ = ck.RunQ[:1] }},
		{"unknown current process", func(ck *Checkpoint) { ck.Cur[0] = 9 }},
		{"negative current process", func(ck *Checkpoint) { ck.Cur[1] = -2 }},
		{"unknown queued process", func(ck *Checkpoint) { ck.RunQ[1] = append(ck.RunQ[1], 5) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			ck := roundTrip(t, taken)
			c.edit(ck)
			mem := append([]byte(nil), m.Mem.Data...)
			before := machineState(m)
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panic: %v", r)
					}
				}()
				return m.Restore(ck)
			}()
			if err == nil || strings.HasPrefix(err.Error(), "panic") {
				t.Fatalf("Restore = %v, want an error", err)
			}
			if !bytes.Equal(m.Mem.Data, mem) {
				t.Fatal("failed Restore changed guest memory")
			}
			if after := machineState(m); after != before {
				t.Fatalf("failed Restore changed the machine:\nbefore %s\nafter  %s", before, after)
			}
		})
	}
	// The unedited checkpoint still restores and runs to completion.
	if err := m.Restore(probe); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunEval(100_000_000); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreEquivalence is the dirty-page restore's property test: over
// random sequences of checkpoint takes, guest execution, writes anywhere
// in free memory (zeros over earlier writes included, so pages go back to
// all-zero), and restores of every kind — the same checkpoint, another
// one, into a fresh machine, from an equal copy with no id — every take
// lists exactly the non-zero pages, and guest memory equals the restored
// checkpoint's image after every restore.
func TestRestoreEquivalence(t *testing.T) {
	seeds, steps := 6, 60
	if testing.Short() {
		seeds, steps = 2, 30
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		arch := isa.RV64
		if seed%2 == 0 {
			arch = isa.CISC64
		}
		t.Run(fmt.Sprintf("%s/seed%d", arch, seed), func(t *testing.T) {
			restoreSequence(t, arch, rand.New(rand.NewSource(seed)), steps)
		})
	}
}

func restoreSequence(t *testing.T, arch isa.Arch, rng *rand.Rand, steps int) {
	m := bootClientServer(t, arch, 4)
	if err := m.RunSetup(50_000_000); err != nil {
		t.Fatal(err)
	}
	var log []string
	zero := make([]byte, isa.PageSize)
	take := func() *Checkpoint {
		ck := m.TakeCheckpoint()
		var want, got []int
		for lo := 0; lo < len(m.Mem.Data); lo += isa.PageSize {
			if data := m.Mem.Data[lo:min(lo+isa.PageSize, len(m.Mem.Data))]; !bytes.Equal(data, zero[:len(data)]) {
				want = append(want, lo>>isa.PageShift)
			}
		}
		for _, p := range ck.Pages {
			got = append(got, p.Index)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%v: image lists pages %v, non-zero pages are %v", log, got, want)
		}
		if !bytes.Equal(image(ck), m.Mem.Data) {
			t.Fatalf("%v: image differs from guest memory", log)
		}
		return ck
	}
	pool := []*Checkpoint{take()}
	pick := func() *Checkpoint { return pool[rng.Intn(len(pool))] }
	var last *Checkpoint
	restore := func(op string, ck *Checkpoint) {
		log = append(log, op)
		if err := m.Restore(ck); err != nil {
			t.Fatalf("%v: %v", log, err)
		}
		if !bytes.Equal(m.Mem.Data, image(ck)) {
			t.Fatalf("%v: guest memory differs from the restored checkpoint", log)
		}
		last = ck
	}
	restore("restore", pool[0])
	// Free memory: above every process region, untouched by the guests,
	// so arbitrary writes there never disturb execution.
	free := m.nextRegion
	type span struct{ addr, n uint64 }
	var written []span
	for i := 0; i < steps; i++ {
		switch op := rng.Intn(7); op {
		case 0:
			log = append(log, "take")
			pool = append(pool, take())
			last = pool[len(pool)-1]
		case 1:
			log = append(log, "run")
			if _, err := m.RunQuantum(uint64(rng.Intn(50_000))); err != nil {
				t.Fatalf("%v: %v", log, err)
			}
		case 2:
			log = append(log, "write")
			for n := rng.Intn(4) + 1; n > 0; n-- {
				if len(written) > 0 && rng.Intn(3) == 0 {
					w := written[rng.Intn(len(written))]
					clear(m.Mem.Bytes(w.addr, w.n))
					continue
				}
				addr := free + uint64(rng.Int63n(int64(uint64(len(m.Mem.Data))-free-16)))
				switch rng.Intn(3) {
				case 0:
					m.Mem.Store64(addr, rng.Uint64()|1)
					written = append(written, span{addr, 8})
				case 1:
					sz := uint8(rng.Intn(8) + 1)
					m.Mem.Store(addr, sz, rng.Uint64()|1)
					written = append(written, span{addr, uint64(sz)})
				default:
					b := m.Mem.Bytes(addr, uint64(rng.Intn(16)+1))
					for j := range b {
						b[j] = byte(rng.Intn(255) + 1)
					}
					written = append(written, span{addr, uint64(len(b))})
				}
			}
		case 3:
			if last != nil {
				restore("restore-same", last)
			}
		case 4:
			restore("restore-other", pick())
		case 5:
			log = append(log, "fresh-machine")
			m = bootClientServer(t, arch, 4)
			last = nil
			restore("restore-into-fresh", pick())
		case 6:
			restore("restore-copy", roundTrip(t, pick()))
		}
	}
}

// faultMod loads one byte past the end of the 32 MiB guest memory.
func faultMod() *ir.Module {
	m := ir.NewModule("faulter")
	b := ir.NewFunc("main", 0)
	v := b.Load(b.Const(32<<20), 0, 1)
	b.Store(b.Const(0x500000), 0, v, 1)
	b.EcallV(kernel.M5Exit)
	m.AddFunc(b.Build())
	return m
}

// TestGuestMemoryFaultIsError: a guest access outside memory ends the run
// with an error wrapping *isa.MemFault, at every run entry point, instead
// of panicking through the caller.
func TestGuestMemoryFaultIsError(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(m *Machine) error
	}{
		{"RunSetup", func(m *Machine) error { return m.RunSetup(1_000_000) }},
		{"RunEval", func(m *Machine) error { _, err := m.RunEval(1_000_000); return err }},
		{"RunEvalSampled", func(m *Machine) error {
			_, err := m.RunEvalSampled(1_000_000, DefaultSamplingConfig())
			return err
		}},
		{"RunUntilIdle", func(m *Machine) error { return m.RunUntilIdle(1_000_000) }},
		{"RunQuantum", func(m *Machine) error { _, err := m.RunQuantum(1_000_000); return err }},
		{"RunFunctional", func(m *Machine) error { return m.RunFunctional(1_000_000) }},
	} {
		for _, arch := range []isa.Arch{isa.RV64, isa.CISC64} {
			t.Run(c.name+"/"+string(arch), func(t *testing.T) {
				m, err := New(DefaultConfig(arch))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.Spawn("faulter", faultMod(), "main", 0, nil); err != nil {
					t.Fatal(err)
				}
				err = c.run(m)
				var f *isa.MemFault
				if !errors.As(err, &f) {
					t.Fatalf("error %v does not wrap *isa.MemFault", err)
				}
				want := "gemsys: proc faulter: guest memory fault: isa: load fault addr=0x2000000 sz=1"
				if err.Error() != want {
					t.Fatalf("error %q, want %q", err, want)
				}
			})
		}
	}
}
