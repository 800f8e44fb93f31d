package kernel

import "fmt"

// MsgSnap is one in-flight channel message in a checkpoint.
type MsgSnap struct {
	Addr, Len, Seq uint64
}

// ChanSnap is one channel's checkpointable state. Service bindings are
// reattached by the caller, not checkpointed.
type ChanSnap struct {
	Msgs    []MsgSnap
	Waiters []int // process IDs
}

// SnapChannels captures all channel contents and waiter lists.
func (k *Kernel) SnapChannels() []ChanSnap {
	out := make([]ChanSnap, len(k.chans))
	for i, c := range k.chans {
		for _, m := range c.msgs {
			out[i].Msgs = append(out[i].Msgs, MsgSnap{Addr: m.addr, Len: m.ln, Seq: m.seq})
		}
		for _, w := range c.waiters {
			out[i].Waiters = append(out[i].Waiters, w.ID)
		}
	}
	return out
}

// CheckChannels reports why snaps cannot be restored onto this kernel:
// a channel count that differs from the kernel's, a message that lies
// outside guest memory, or a waiter byID does not name. It changes
// nothing, so a caller can check every part of a checkpoint before it
// restores any.
func (k *Kernel) CheckChannels(snaps []ChanSnap, byID map[int]*Process) error {
	if len(snaps) != len(k.chans) {
		return fmt.Errorf("kernel: snapshot has %d channels, kernel has %d", len(snaps), len(k.chans))
	}
	size := uint64(len(k.Mem.Data))
	for i, s := range snaps {
		for _, m := range s.Msgs {
			if m.Addr > size || m.Len > size-m.Addr {
				return fmt.Errorf("kernel: channel %d message [%#x, +%d) lies outside memory", i, m.Addr, m.Len)
			}
		}
		for _, id := range s.Waiters {
			if byID[id] == nil {
				return fmt.Errorf("kernel: channel %d waiter %d is not a process", i, id)
			}
		}
	}
	return nil
}

// RestoreChannels reinstates channel contents from snaps, which must
// have passed CheckChannels. byID maps process IDs to live processes.
func (k *Kernel) RestoreChannels(snaps []ChanSnap, byID map[int]*Process) {
	for i, s := range snaps {
		c := k.chans[i]
		c.msgs = nil
		for _, m := range s.Msgs {
			c.msgs = append(c.msgs, message{addr: m.Addr, ln: m.Len, seq: m.Seq})
		}
		c.waiters = nil
		for _, id := range s.Waiters {
			c.waiters = append(c.waiters, byID[id])
		}
	}
}
