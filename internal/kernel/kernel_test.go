package kernel

import (
	"errors"
	"strings"
	"testing"

	"svbench/internal/isa"
	"svbench/internal/libc"
)

// fakeCore is a minimal isa.Core for driving the kernel's host-call
// surface directly.
type fakeCore struct {
	args  [6]uint64
	num   uint64
	ret   uint64
	pc    uint64
	flags uint8
	seq   uint64
}

func (c *fakeCore) Step(out []isa.TraceRec) ([]isa.TraceRec, error) { return out, nil }
func (c *fakeCore) StepN(max int, out []isa.TraceRec) (int, []isa.TraceRec, error) {
	return 0, out, nil
}
func (c *fakeCore) PC() uint64                 { return c.pc }
func (c *fakeCore) SetPC(pc uint64)            { c.pc = pc }
func (c *fakeCore) Arg(i int) uint64           { return c.args[i] }
func (c *fakeCore) SetArg(i int, v uint64)     { c.args[i] = v }
func (c *fakeCore) EcallNum() uint64           { return c.num }
func (c *fakeCore) SetRet(v uint64)            { c.ret = v }
func (c *fakeCore) Annotate(f uint8, s uint64) { c.flags |= f; c.seq = s }
func (c *fakeCore) StackPtr() uint64           { return 0 }
func (c *fakeCore) SetStackPtr(uint64)         {}
func (c *fakeCore) CallInto(addr uint64)       { c.pc = addr }
func (c *fakeCore) Snapshot() []uint64         { return nil }
func (c *fakeCore) Restore([]uint64)           {}
func (c *fakeCore) InstrCount() uint64         { return 0 }
func (c *fakeCore) Classes() isa.ClassCounts   { return isa.ClassCounts{} }
func (c *fakeCore) Arch() isa.Arch             { return isa.RV64 }

func newTestKernel() (*Kernel, *isa.Mem) {
	mem := isa.NewMem(1 << 20)
	k := New(mem, 0x10000, 0x10000)
	return k, mem
}

func (c *fakeCore) call(k *Kernel, p *Process, num uint64, args ...uint64) (uint64, isa.EcallResult) {
	c.num = num
	c.flags, c.seq = 0, 0
	for i, a := range args {
		c.args[i] = a
	}
	res := k.Ecall(c, p)
	return c.ret, res
}

func TestChannelSendRecvThroughHostCalls(t *testing.T) {
	k, mem := newTestKernel()
	ch := k.NewChannel()
	p := &Process{Name: "p"}
	k.AddProcess(p)
	c := &fakeCore{}

	// Reserve, fill, commit.
	kbuf, res := c.call(k, p, HReserve, uint64(ch), 16)
	if res != isa.EcallHandled || kbuf == 0 {
		t.Fatalf("reserve: %v %#x", res, kbuf)
	}
	copy(mem.Bytes(kbuf, 5), []byte("hello"))
	_, res = c.call(k, p, HCommit, uint64(ch), kbuf, 5)
	if res != isa.EcallHandled {
		t.Fatal("commit failed")
	}
	if c.flags&isa.FlagSend == 0 || c.seq == 0 {
		t.Fatal("commit must annotate FlagSend with a sequence")
	}
	if k.Pending(ch) != 1 {
		t.Fatalf("pending=%d", k.Pending(ch))
	}

	// Poll, length, consume.
	addr, _ := c.call(k, p, HPoll, uint64(ch))
	if addr != kbuf {
		t.Fatalf("poll returned %#x, want %#x", addr, kbuf)
	}
	if c.flags&isa.FlagRecv == 0 {
		t.Fatal("poll must annotate FlagRecv")
	}
	n, _ := c.call(k, p, HMsgLen, uint64(ch))
	if n != 5 {
		t.Fatalf("len=%d", n)
	}
	if got := string(mem.Bytes(addr, 5)); got != "hello" {
		t.Fatalf("payload %q", got)
	}
	c.call(k, p, HConsume, uint64(ch))
	if k.Pending(ch) != 0 {
		t.Fatal("message not consumed")
	}
}

func TestBlockAndWake(t *testing.T) {
	k, mem := newTestKernel()
	ch := k.NewChannel()
	waiter := &Process{Name: "waiter"}
	sender := &Process{Name: "sender"}
	k.AddProcess(waiter)
	k.AddProcess(sender)
	woken := []*Process{}
	k.OnWake = func(p *Process) { woken = append(woken, p) }

	wc := &fakeCore{}
	if _, res := wc.call(k, waiter, HBlock, uint64(ch)); res != isa.EcallBlock {
		t.Fatal("empty channel must block")
	}
	if waiter.State != ProcBlocked {
		t.Fatal("waiter not blocked")
	}

	sc := &fakeCore{}
	kbuf, _ := sc.call(k, sender, HReserve, uint64(ch), 8)
	mem.Store(kbuf, 8, 42)
	sc.call(k, sender, HCommit, uint64(ch), kbuf, 8)

	if len(woken) != 1 || woken[0] != waiter {
		t.Fatal("commit must wake the waiter")
	}
	if waiter.State != ProcRunnable || !waiter.NeedsIdle || waiter.WakeSeq == 0 {
		t.Fatalf("wake bookkeeping: %+v", waiter)
	}
}

func TestBlockRechecksUnderRace(t *testing.T) {
	k, mem := newTestKernel()
	ch := k.NewChannel()
	p := &Process{Name: "p"}
	k.AddProcess(p)
	c := &fakeCore{}
	kbuf, _ := c.call(k, p, HReserve, uint64(ch), 8)
	mem.Store(kbuf, 8, 1)
	c.call(k, p, HCommit, uint64(ch), kbuf, 8)
	// A block attempted when a message raced in must not block.
	if _, res := c.call(k, p, HBlock, uint64(ch)); res != isa.EcallBlock && res != isa.EcallHandled {
		t.Fatalf("unexpected result %v", res)
	} else if res == isa.EcallBlock {
		t.Fatal("block with a pending message must be rejected")
	}
}

func TestServiceRoundTrip(t *testing.T) {
	k, mem := newTestKernel()
	reqCh := k.NewChannel()
	respCh := k.NewChannel()
	var derived [][3]uint64
	k.OnDerive = func(b, d, del uint64) { derived = append(derived, [3]uint64{b, d, del}) }
	k.Bind(reqCh, respCh, echoService{})

	p := &Process{Name: "client"}
	k.AddProcess(p)
	c := &fakeCore{}
	kbuf, _ := c.call(k, p, HReserve, uint64(reqCh), 3)
	copy(mem.Bytes(kbuf, 3), []byte("abc"))
	c.call(k, p, HCommit, uint64(reqCh), kbuf, 3)

	if k.Pending(reqCh) != 0 {
		t.Fatal("service request should be consumed immediately")
	}
	if k.Pending(respCh) != 1 {
		t.Fatal("service reply not enqueued")
	}
	addr, _ := c.call(k, p, HPoll, uint64(respCh))
	n, _ := c.call(k, p, HMsgLen, uint64(respCh))
	if string(mem.Bytes(addr, n)) != "ABC" {
		t.Fatalf("reply %q", mem.Bytes(addr, n))
	}
	if len(derived) != 1 || derived[0][2] != 1234 {
		t.Fatalf("derivation %v", derived)
	}
}

type echoService struct{}

func (echoService) Handle(req []byte) ([]byte, uint64) {
	out := make([]byte, len(req))
	for i, c := range req {
		out[i] = c &^ 0x20 // upper-case
	}
	return out, 1234
}

func TestSlabWraparound(t *testing.T) {
	k, _ := newTestKernel()
	p := &Process{Name: "p"}
	k.AddProcess(p)
	ch := k.NewChannel()
	c := &fakeCore{}
	first, _ := c.call(k, p, HReserve, uint64(ch), 4096)
	var last uint64
	for i := 0; i < 64; i++ {
		last, _ = c.call(k, p, HReserve, uint64(ch), 4096)
	}
	if last < first || last >= first+0x10000 {
		// Wrapped allocations must stay inside the slab window.
		if last < 0x10000 || last >= 0x20000 {
			t.Fatalf("allocation %#x escaped the slab", last)
		}
	}
}

// TestQueuedMessageSurvivesSlabWrap queues a message, then pushes more
// than three slabs of traffic through another channel, each message
// taken off as soon as it is sent. Every slot must miss the queued
// message, which must come out byte for byte; and wherever it is not in
// the way, the slot must be the plain ring's next one.
func TestQueuedMessageSurvivesSlabWrap(t *testing.T) {
	const base, size = 0x10000, 0x10000
	k, mem := newTestKernel()
	p := &Process{Name: "p"}
	k.AddProcess(p)
	parked, busy := k.NewChannel(), k.NewChannel()
	c := &fakeCore{}

	want := make([]byte, 1000)
	for i := range want {
		want[i] = byte(i*7 + 3)
	}
	// Move the cursor off the base.
	if err := k.Inject(busy, make([]byte, 0x3000)); err != nil {
		t.Fatal(err)
	}
	k.TakeMessage(busy)
	kbuf, _ := c.call(k, p, HReserve, uint64(parked), uint64(len(want)))
	copy(mem.Bytes(kbuf, uint64(len(want))), want)
	c.call(k, p, HCommit, uint64(parked), kbuf, uint64(len(want)))
	lo, hi := kbuf, kbuf+uint64(len(want))

	// ring is the allocator without the skip: the slot it would hand out.
	ring := hi
	skipped := 0
	sent := uint64(0)
	for i := 0; sent < 3*size+size/2; i++ {
		n := uint64(16 + (i*389)%1200)
		msg := make([]byte, n)
		for j := range msg {
			msg[j] = byte(i + j)
		}
		if ring = (ring + 15) &^ 15; ring+((n+15)&^15) > base+size {
			ring = base
		}
		kb, _ := c.call(k, p, HReserve, uint64(busy), n)
		if kb < hi && lo < kb+n {
			t.Fatalf("send %d: slot [%#x, %#x) overlaps the queued message [%#x, %#x)", i, kb, kb+n, lo, hi)
		}
		if kb != ring {
			if ring >= hi || lo >= ring+n {
				t.Fatalf("send %d: slot %#x, want the ring's %#x: nothing queued is in its way", i, kb, ring)
			}
			skipped++
		}
		ring = kb + n
		copy(mem.Bytes(kb, n), msg)
		c.call(k, p, HCommit, uint64(busy), kb, n)
		got, ok := k.TakeMessage(busy)
		if !ok || string(got) != string(msg) {
			t.Fatalf("send %d: took %d bytes, want the %d sent", i, len(got), n)
		}
		sent += n
	}
	if skipped < 3 {
		t.Fatalf("the slab wrapped onto the queued message %d times, want at least 3", skipped)
	}
	got, ok := k.TakeMessage(parked)
	if !ok || string(got) != string(want) {
		t.Fatalf("queued message changed after %d bytes of traffic", sent)
	}
}

// TestSlabFullIsAnError: when queued messages leave no gap large
// enough, nothing overwrites them. A host injection returns ErrSlabFull,
// and a guest's reservation halts the machine as a simulated kernel
// panic.
func TestSlabFullIsAnError(t *testing.T) {
	k, _ := newTestKernel()
	p := &Process{Name: "p"}
	k.AddProcess(p)
	ch := k.NewChannel()
	for i := 0; i < 4; i++ {
		if err := k.Inject(ch, make([]byte, 0x3000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Inject(ch, make([]byte, 0x4100)); !errors.Is(err, ErrSlabFull) {
		t.Fatalf("injection larger than every gap: error %v, want ErrSlabFull", err)
	}
	if k.Pending(ch) != 4 {
		t.Fatalf("%d messages queued after a failed injection, want 4", k.Pending(ch))
	}
	c := &fakeCore{}
	if _, res := c.call(k, p, HReserve, uint64(ch), 0x4100); res != isa.EcallHalt || !k.Panicked ||
		!strings.Contains(k.PanicInfo, "slab full") {
		t.Fatalf("reservation larger than every gap: result %v, panicked %v (%q)", res, k.Panicked, k.PanicInfo)
	}
}

func TestSbrkBounds(t *testing.T) {
	k, _ := newTestKernel()
	p := &Process{Name: "p", Region: Region{Base: 0x40000, Size: 0x1000}, Brk: 0x40000}
	k.AddProcess(p)
	c := &fakeCore{}
	old, _ := c.call(k, p, HSbrk, 0x800)
	if old != 0x40000 || p.Brk != 0x40800 {
		t.Fatalf("sbrk: old=%#x brk=%#x", old, p.Brk)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("sbrk past the region must panic")
		}
	}()
	c.call(k, p, HSbrk, 0x10000)
}

func TestExitAndPanicPaths(t *testing.T) {
	k, _ := newTestKernel()
	p := &Process{Name: "p"}
	k.AddProcess(p)
	c := &fakeCore{}
	if _, res := c.call(k, p, HExit, 7); res != isa.EcallBlock {
		t.Fatal("exit must block forever")
	}
	if p.State != ProcDead || p.ExitCode != 7 {
		t.Fatalf("%+v", p)
	}
	if _, res := c.call(k, p, HPanic); res != isa.EcallHalt || !k.Panicked {
		t.Fatal("panic host call must halt and record")
	}
}

func TestConsoleWrite(t *testing.T) {
	k, mem := newTestKernel()
	p := &Process{Name: "p"}
	k.AddProcess(p)
	copy(mem.Bytes(0x500, 3), []byte("hey"))
	c := &fakeCore{}
	n, _ := c.call(k, p, HWrite, 0x500, 3)
	if n != 3 || k.Console.String() != "hey" {
		t.Fatalf("console %q", k.Console.String())
	}
}

func TestSyscallVectoring(t *testing.T) {
	k, _ := newTestKernel()
	k.HandlerAddr[SysSend] = 0xBEEF
	p := &Process{Name: "p"}
	k.AddProcess(p)
	c := &fakeCore{}
	c.num = SysSend
	if res := k.Ecall(c, p); res != isa.EcallVector {
		t.Fatal("user syscall must vector into the kernel handler")
	}
	if c.pc != 0xBEEF {
		t.Fatalf("pc=%#x", c.pc)
	}
}

func TestChannelSnapshotRoundTrip(t *testing.T) {
	k, mem := newTestKernel()
	ch := k.NewChannel()
	p := &Process{Name: "p"}
	k.AddProcess(p)
	c := &fakeCore{}
	kbuf, _ := c.call(k, p, HReserve, uint64(ch), 8)
	mem.Store(kbuf, 8, 99)
	c.call(k, p, HCommit, uint64(ch), kbuf, 8)
	c.call(k, p, HBlock, uint64(ch)) // will re-check; enqueue a waiter instead:
	// (the message exists, so block was refused — drain it, then block)
	c.call(k, p, HConsume, uint64(ch))
	if _, res := c.call(k, p, HBlock, uint64(ch)); res != isa.EcallBlock {
		t.Fatal("expected block")
	}

	snaps := k.SnapChannels()
	// Clear and restore.
	k.RestoreChannels(make([]ChanSnap, len(snaps)), map[int]*Process{})
	if k.Pending(ch) != 0 {
		t.Fatal("clear failed")
	}
	k.RestoreChannels(snaps, map[int]*Process{p.ID: p})
	got := k.SnapChannels()
	if len(got[ch].Waiters) != 1 || got[ch].Waiters[0] != p.ID {
		t.Fatalf("waiters %v", got[ch].Waiters)
	}
}

func TestKernelModuleBuildsForBothFlavors(t *testing.T) {
	for _, f := range []libc.Flavor{libc.Fast, libc.Compat} {
		m := Module(f)
		for _, num := range UserSyscalls {
			if m.Func(HandlerName(num)) == nil {
				t.Fatalf("flavor %v: missing handler for syscall %d", f, num)
			}
		}
		if m.Func("k_user_exit") == nil {
			t.Fatalf("flavor %v: missing exit stub", f)
		}
	}
	if HandlerName(0xDEAD) != "" {
		t.Fatal("unknown syscall must have no handler name")
	}
}
