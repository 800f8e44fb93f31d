package kernel

import (
	"bytes"
	"errors"
	"fmt"

	"svbench/internal/isa"
	"svbench/internal/trace"
)

// ProcState is a process's scheduler state.
type ProcState int

// Process states (the thesis's Running/Waiting/Dead function states map
// onto these plus container-engine state).
const (
	ProcRunnable ProcState = iota
	ProcBlocked
	ProcDead
)

// Region is a process's private slice of the flat physical address space.
type Region struct {
	Base, Size uint64
}

// Process is a schedulable entity: one program instance with its own
// architectural core state, pinned to a hardware core.
type Process struct {
	ID     int
	Name   string
	Core   isa.Core
	CoreID int
	State  ProcState
	Region Region
	Brk    uint64

	// WakeSeq is the IPC sequence whose commit ends this process's idle
	// period; NeedsIdle tells the machine to emit an idle trace record
	// before resuming.
	WakeSeq   uint64
	NeedsIdle bool
	ExitCode  uint64
}

type message struct {
	addr uint64
	ln   uint64
	seq  uint64
}

// Service is a native-model endpoint (a database or cache engine) attached
// to a channel. It runs host-side — representing work on the unmeasured
// core — and charges serviceCycles of virtual latency; the measured core
// observes only the round trip and the reply payload, exactly as the
// thesis's methodology measures the function core, not the DB.
type Service interface {
	Handle(req []byte) (resp []byte, serviceCycles uint64)
}

// Channel is a kernel IPC endpoint: a FIFO of messages held in kernel
// memory, with blocking receivers.
type Channel struct {
	id      int
	msgs    []message
	waiters []*Process
	svc     Service
	svcOut  int // reply channel when svc != nil
	// remote marks a fabric-routed egress channel: committed messages are
	// handed to OnEgress instead of being enqueued locally.
	remote bool
}

// Kernel is the host-side OS state.
type Kernel struct {
	Mem   *isa.Mem
	Procs []*Process
	chans []*Channel

	seq      uint64
	slabBase uint64
	slabSize uint64
	slabCur  uint64

	Console bytes.Buffer

	// HandlerAddr maps user syscall numbers to kernel text addresses;
	// UserExitAddr is the return target for process entry functions.
	HandlerAddr  map[uint64]uint64
	UserExitAddr uint64

	// Clock returns virtual nanoseconds (supplied by the machine).
	Clock func() uint64
	// OnDerive tells the timing layer that sequence derived commits
	// delay cycles after base (native service replies).
	OnDerive func(base, derived, delay uint64)
	// OnWake notifies the machine's scheduler.
	OnWake func(p *Process)
	// OnServiceTime reports native service processing time (advances the
	// functional/QEMU virtual clock).
	OnServiceTime func(cycles uint64)

	// IPCFault, when set, is consulted on every committed message. It may
	// drop the message, corrupt the payload slice in place (it aliases
	// kernel slab memory), or return extra delivery delay in virtual
	// cycles; delayed messages reach their receiver through a derived
	// sequence so the timing layer charges the delay like a service round
	// trip. On a service-bound channel, a drop discards the request before
	// the engine sees it and a delay stretches the reply's service time.
	IPCFault func(ch int, payload []byte) (drop bool, delay uint64)
	// ReplyCheck classifies a reply for the load generator's retry loop
	// (the HReplyOK host call): it returns false when the response should
	// be retried. Nil accepts everything.
	ReplyCheck func(resp []byte) bool
	// OnFault receives fault events user code reports via HFaultNote.
	OnFault func(ev uint64)
	// OnEgress receives messages committed to remote-bound channels (see
	// BindRemote): the network boundary of a cluster machine. The payload
	// is a copy, safe to retain; delay is any extra virtual latency the
	// fault layer attached to the send. The message is NOT enqueued
	// locally — delivery is the fabric's job.
	OnEgress func(ch int, payload []byte, delay uint64)

	// Panicked is set when simulated code raised the panic host call
	// (e.g. a stack-smash detection).
	Panicked  bool
	PanicInfo string

	// Counts are the kernel's observability counters.
	Counts Counts

	nextProcID int
}

// Counts holds the kernel-side counters registered into the machine's
// stats registry.
type Counts struct {
	Ecalls      uint64 // host environment calls dispatched here
	Sends       uint64 // IPC messages committed
	Drops       uint64 // messages dropped by fault injection
	Delayed     uint64 // messages delivered late by fault injection
	ServiceReqs uint64 // requests handled by native service engines
	Wakes       uint64 // processes woken from channel waits
}

// RegisterStats publishes the kernel's counters under prefix.
func (k *Kernel) RegisterStats(r *trace.Registry, prefix string) {
	r.Counter(prefix+".ecalls", "host environment calls dispatched", &k.Counts.Ecalls)
	r.Counter(prefix+".ipc.sends", "IPC messages committed", &k.Counts.Sends)
	r.Counter(prefix+".ipc.drops", "messages dropped by fault injection", &k.Counts.Drops)
	r.Counter(prefix+".ipc.delayed", "messages delivered late by fault injection", &k.Counts.Delayed)
	r.Counter(prefix+".ipc.serviceReqs", "requests handled by native services", &k.Counts.ServiceReqs)
	r.Counter(prefix+".sched.wakes", "processes woken from channel waits", &k.Counts.Wakes)
	r.Func(prefix+".consoleBytes", "bytes written to the console", func() uint64 {
		return uint64(k.Console.Len())
	})
}

// ResetCounts zeroes the kernel counters (checkpoint restore starts a
// fresh measurement).
func (k *Kernel) ResetCounts() { k.Counts = Counts{} }

// New creates a kernel over mem with a message slab at [slabBase,
// slabBase+slabSize).
func New(mem *isa.Mem, slabBase, slabSize uint64) *Kernel {
	return &Kernel{
		Mem:         mem,
		slabBase:    slabBase,
		slabSize:    slabSize,
		slabCur:     slabBase,
		HandlerAddr: map[uint64]uint64{},
		Clock:       func() uint64 { return 0 },
	}
}

// NewChannel allocates a channel and returns its id.
func (k *Kernel) NewChannel() int {
	c := &Channel{id: len(k.chans)}
	k.chans = append(k.chans, c)
	return c.id
}

// Bind attaches a native service to reqCh; replies are delivered on outCh.
func (k *Kernel) Bind(reqCh, outCh int, svc Service) {
	k.chans[reqCh].svc = svc
	k.chans[reqCh].svcOut = outCh
}

// BindRemote marks ch as a fabric egress: guest sends commit to the
// network (OnEgress) instead of the local FIFO. Ingress is unchanged —
// the fabric delivers remote messages with Inject.
func (k *Kernel) BindRemote(ch int) {
	k.chans[ch].remote = true
}

// AddProcess registers p and assigns its id.
func (k *Kernel) AddProcess(p *Process) {
	p.ID = k.nextProcID
	k.nextProcID++
	k.Procs = append(k.Procs, p)
}

// alloc reserves a slot of n bytes, rounded up to 16, in the message
// slab. The slab is used like a ring: a slot starts where the last one
// ended, or at the base when the rest of the slab is too short. A slot
// never overlaps a message still queued on a channel: alloc skips past
// any that is in the way, wrapping to the base again if it must, so
// where nothing queued is in the way the slot is the ring's next one.
// The queued messages are read off the channel queues, so a checkpoint
// needs no allocator state beyond the cursor. When no gap between
// queued messages holds n bytes, alloc reserves nothing and returns an
// error wrapping ErrSlabFull.
func (k *Kernel) alloc(n uint64) (uint64, error) {
	n = (n + 15) &^ 15
	if n > k.slabSize {
		panic(fmt.Sprintf("kernel: message of %d bytes exceeds slab", n))
	}
	end := k.slabBase + k.slabSize
	a, wrapped := k.slabCur, false
	for {
		if a+n > end {
			if wrapped {
				return 0, fmt.Errorf("%w: no gap of %d bytes between queued messages", ErrSlabFull, n)
			}
			a, wrapped = k.slabBase, true
			continue
		}
		next, busy := k.queuedIn(a, n)
		if !busy {
			break
		}
		a = next
	}
	k.slabCur = a + n
	return a, nil
}

// ErrSlabFull reports a message for which the slab holds no gap between
// queued messages. A guest's send then ends the run as a simulated
// kernel panic (Panicked); Inject returns it.
var ErrSlabFull = errors.New("kernel: message slab full")

// slabPanic records err, from a guest's allocation, as a simulated
// kernel panic, which halts the machine.
func (k *Kernel) slabPanic(p *Process, err error) isa.EcallResult {
	k.Panicked = true
	k.PanicInfo = fmt.Sprintf("proc %s: %v", p.Name, err)
	return isa.EcallHalt
}

// queuedIn reports whether a queued message overlaps [a, a+n) and, if
// one does, where the last overlapping message's slot ends.
func (k *Kernel) queuedIn(a, n uint64) (next uint64, busy bool) {
	if n == 0 {
		return 0, false // an empty slot overlaps nothing
	}
	for _, c := range k.chans {
		for _, m := range c.msgs {
			if m.ln == 0 || m.addr >= a+n || a >= m.addr+m.ln {
				continue
			}
			busy = true
			next = max(next, (m.addr+m.ln+15)&^15)
		}
	}
	return next, busy
}

func (k *Kernel) chanFor(id uint64) *Channel {
	if id >= uint64(len(k.chans)) {
		panic(fmt.Sprintf("kernel: bad channel %d", id))
	}
	return k.chans[id]
}

func (k *Kernel) wake(c *Channel, seq uint64) {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	c.waiters = c.waiters[1:]
	k.Counts.Wakes++
	p.State = ProcRunnable
	p.WakeSeq = seq
	p.NeedsIdle = true
	if k.OnWake != nil {
		k.OnWake(p)
	}
}

// enqueue appends a message and wakes one waiter.
func (k *Kernel) enqueue(c *Channel, m message) {
	c.msgs = append(c.msgs, m)
	k.wake(c, m.seq)
}

// Ecall dispatches an environment call raised by process p. The machine's
// hook routes all non-m5 ecalls here.
func (k *Kernel) Ecall(c isa.Core, p *Process) isa.EcallResult {
	k.Counts.Ecalls++
	num := c.EcallNum()
	if HandlerName(num) != "" {
		addr, ok := k.HandlerAddr[num]
		if !ok {
			panic(fmt.Sprintf("kernel: unvectored syscall %d", num))
		}
		c.CallInto(addr)
		c.Annotate(isa.FlagVector, addr)
		return isa.EcallVector
	}
	switch num {
	case HWrite:
		buf, ln := c.Arg(0), c.Arg(1)
		k.Console.Write(k.Mem.Bytes(buf, ln))
		c.SetRet(ln)
	case HReserve:
		_, ln := c.Arg(0), c.Arg(1)
		addr, err := k.alloc(ln)
		if err != nil {
			return k.slabPanic(p, err)
		}
		c.SetRet(addr)
	case HCommit:
		ch := k.chanFor(c.Arg(0))
		kbuf, ln := c.Arg(1), c.Arg(2)
		k.seq++
		seq := k.seq
		k.Counts.Sends++
		c.Annotate(isa.FlagSend, seq)
		var drop bool
		var delay uint64
		if k.IPCFault != nil {
			drop, delay = k.IPCFault(ch.id, k.Mem.Bytes(kbuf, ln))
		}
		if drop {
			// The message vanishes after the send commits: no receiver
			// ever waits on seq, so the orphan FlagSend is harmless.
			k.Counts.Drops++
			c.SetRet(0)
			return isa.EcallHandled
		}
		if delay > 0 {
			k.Counts.Delayed++
		}
		if ch.remote {
			// Fabric egress: the payload leaves this machine. The copy is
			// mandatory — the slab slot is recycled long before the network
			// delivers the message.
			if k.OnEgress != nil {
				k.OnEgress(ch.id, append([]byte(nil), k.Mem.Bytes(kbuf, ln)...), delay)
			}
			c.SetRet(0)
			return isa.EcallHandled
		}
		if ch.svc != nil {
			// Native service: run host-side, deliver the reply on the
			// bound output channel after serviceCycles of virtual time.
			k.Counts.ServiceReqs++
			req := append([]byte(nil), k.Mem.Bytes(kbuf, ln)...)
			resp, cycles := ch.svc.Handle(req)
			cycles += delay
			if k.OnServiceTime != nil {
				k.OnServiceTime(cycles)
			}
			raddr, err := k.alloc(uint64(len(resp)))
			if err != nil {
				return k.slabPanic(p, err)
			}
			copy(k.Mem.Bytes(raddr, uint64(len(resp))), resp)
			k.seq++
			rseq := k.seq
			if k.OnDerive != nil {
				k.OnDerive(seq, rseq, cycles)
			}
			k.enqueue(k.chanFor(uint64(ch.svcOut)), message{addr: raddr, ln: uint64(len(resp)), seq: rseq})
		} else if delay > 0 {
			// Late delivery: hand the receiver a derived sequence that
			// becomes ready delay cycles after the send commits, and
			// advance the functional clock so emulated latencies see it.
			if k.OnServiceTime != nil {
				k.OnServiceTime(delay)
			}
			k.seq++
			rseq := k.seq
			if k.OnDerive != nil {
				k.OnDerive(seq, rseq, delay)
			}
			k.enqueue(ch, message{addr: kbuf, ln: ln, seq: rseq})
		} else {
			k.enqueue(ch, message{addr: kbuf, ln: ln, seq: seq})
		}
		c.SetRet(0)
	case HPoll:
		ch := k.chanFor(c.Arg(0))
		if len(ch.msgs) == 0 {
			c.SetRet(0)
		} else {
			m := ch.msgs[0]
			c.Annotate(isa.FlagRecv, m.seq)
			c.SetRet(m.addr)
		}
	case HMsgLen:
		ch := k.chanFor(c.Arg(0))
		if len(ch.msgs) == 0 {
			panic("kernel: HMsgLen on empty channel")
		}
		c.SetRet(ch.msgs[0].ln)
	case HConsume:
		ch := k.chanFor(c.Arg(0))
		if len(ch.msgs) == 0 {
			panic("kernel: HConsume on empty channel")
		}
		ch.msgs = ch.msgs[1:]
		c.SetRet(0)
	case HBlock:
		ch := k.chanFor(c.Arg(0))
		// Re-check under "interrupts off": a message may have raced in
		// between the poll and the block.
		if len(ch.msgs) > 0 {
			c.SetRet(0)
			return isa.EcallHandled
		}
		ch.waiters = append(ch.waiters, p)
		p.State = ProcBlocked
		c.SetRet(0)
		return isa.EcallBlock
	case HSbrk:
		n := int64(c.Arg(0))
		old := p.Brk
		nb := uint64(int64(p.Brk) + n)
		if nb < p.Region.Base || nb > p.Region.Base+p.Region.Size {
			panic(fmt.Sprintf("kernel: %s sbrk out of region", p.Name))
		}
		p.Brk = nb
		c.SetRet(old)
	case HExit:
		p.State = ProcDead
		p.ExitCode = c.Arg(0)
		c.SetRet(0)
		return isa.EcallBlock
	case HYield:
		c.SetRet(0)
	case HClock:
		c.SetRet(k.Clock())
	case HReplyOK:
		buf, ln := c.Arg(0), c.Arg(1)
		ok := uint64(1)
		if k.ReplyCheck != nil && !k.ReplyCheck(k.Mem.Bytes(buf, ln)) {
			ok = 0
		}
		c.SetRet(ok)
	case HFaultNote:
		if k.OnFault != nil {
			k.OnFault(c.Arg(0))
		}
		c.SetRet(0)
	case HPanic:
		k.Panicked = true
		k.PanicInfo = fmt.Sprintf("proc %s pc=%#x", p.Name, c.PC())
		return isa.EcallHalt
	default:
		panic(fmt.Sprintf("kernel: unknown ecall %#x from %s", num, p.Name))
	}
	return isa.EcallHandled
}

// Pending reports how many messages sit in channel ch.
func (k *Kernel) Pending(ch int) int { return len(k.chans[ch].msgs) }

// Inject commits a message into channel ch from the host side, waking one
// waiter exactly like a guest send. The load-generation layer uses it to
// drive a restored instance without a simulated client process: the
// payload is copied into slab memory, so the caller's slice is not
// retained. Host injection bypasses the IPCFault hook — it models the
// ingress boundary, not the measured IPC path. When the slab has no room
// for the payload, Inject commits nothing and returns an error wrapping
// ErrSlabFull.
func (k *Kernel) Inject(ch int, payload []byte) error {
	c := k.chanFor(uint64(ch))
	addr, err := k.alloc(uint64(len(payload)))
	if err != nil {
		return err
	}
	copy(k.Mem.Bytes(addr, uint64(len(payload))), payload)
	k.seq++
	k.Counts.Sends++
	k.enqueue(c, message{addr: addr, ln: uint64(len(payload)), seq: k.seq})
	return nil
}

// TakeMessage pops the head message of channel ch host-side and returns a
// copy of its payload, or (nil, false) when the channel is empty. It is
// Inject's receive-side counterpart: the egress boundary of a host-driven
// instance.
func (k *Kernel) TakeMessage(ch int) ([]byte, bool) {
	c := k.chanFor(uint64(ch))
	if len(c.msgs) == 0 {
		return nil, false
	}
	m := c.msgs[0]
	c.msgs = c.msgs[1:]
	return append([]byte(nil), k.Mem.Bytes(m.addr, m.ln)...), true
}

// Snapshot/Restore support: channel and process bookkeeping that must
// survive a checkpoint.
type kernelState struct {
	Seq     uint64
	SlabCur uint64
}

// SnapState captures kernel counters for checkpointing.
func (k *Kernel) SnapState() (seq, slabCur uint64) { return k.seq, k.slabCur }

// RestoreState restores kernel counters.
func (k *Kernel) RestoreState(seq, slabCur uint64) { k.seq, k.slabCur = seq, slabCur }
