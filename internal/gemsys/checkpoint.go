package gemsys

import (
	"bytes"
	"fmt"
	"sync/atomic"

	"svbench/internal/isa"
	"svbench/internal/kernel"
)

// ProcSnap is one process's checkpointed state.
type ProcSnap struct {
	ID        int
	State     kernel.ProcState
	Brk       uint64
	WakeSeq   uint64
	NeedsIdle bool
	CoreState []uint64
}

// Checkpoint is a snapshot of the simulated machine, taken by the m5
// checkpoint operation at the end of setup mode. Detailed evaluation
// after restoring one starts from cold microarchitectural state (caches,
// predictors), as gem5's does when switching from the boot CPU to the
// detailed CPU.
//
// A checkpoint is immutable: nothing may write to it after
// TakeCheckpoint returns. Restore only copies out of it, so any number
// of machines, on any goroutines, may restore one checkpoint; the boot
// cache and the load fleets hand a memoized boot out that way, by
// reference. Machines that restored a checkpoint also remember it by id
// and later copy back only the pages they wrote since, so a checkpoint
// edited in place would not be restored faithfully.
type Checkpoint struct {
	Arch string
	// MemSize and Pages are the guest memory image: MemSize bytes, zero
	// except for Pages, listed in ascending Index order. TakeCheckpoint
	// lists exactly the non-zero pages, so equal memory gives an equal
	// image.
	MemSize   int
	Pages     []MemPage
	Procs     []ProcSnap
	Chans     []kernel.ChanSnap
	Seq       uint64
	SlabCur   uint64
	VirtInstr uint64
	Cur       []int // per-core current process ID, -1 if none
	RunQ      [][]int
	NextRgn   uint64
	// Console is everything simulated code had written by checkpoint
	// time. Restoring reinstates it, so a machine that skipped setup
	// (checkpoint memoization) reports the same Response bytes as one
	// that executed it.
	Console []byte

	// id names the image to the machines whose memory equals it. Only
	// TakeCheckpoint issues one; a literal Checkpoint keeps 0, no name.
	id uint64
}

// MemPage is one isa.PageSize page of a checkpoint's memory image, the
// bytes from Index<<isa.PageShift on. Only the last page of a memory
// whose size is not a multiple of the page size is shorter.
type MemPage struct {
	Index int
	Data  []byte
}

// imageIDs issues Checkpoint ids. A process-wide counter rather than a
// pointer, so a machine can name the image it last equalled without
// keeping the checkpoint alive or reachable.
var imageIDs atomic.Uint64

// TakeCheckpoint captures the machine state and clears the pending
// checkpoint request so execution can continue. The new checkpoint
// becomes the machine's memory baseline, as after a Restore of it.
func (m *Machine) TakeCheckpoint() *Checkpoint {
	ck := &Checkpoint{
		Arch:      string(m.Cfg.Arch),
		MemSize:   len(m.Mem.Data),
		Chans:     m.K.SnapChannels(),
		VirtInstr: m.virtInstr,
		NextRgn:   m.nextRegion,
		Console:   append([]byte(nil), m.K.Console.Bytes()...),
		id:        imageIDs.Add(1),
	}
	// A page is zero unless the baseline lists it or it was written
	// since; those candidates are checked byte by byte.
	m.markBaseline()
	for pg, d := range m.Mem.Dirty {
		if d == 0 {
			continue
		}
		if data := m.page(pg); !bytes.Equal(data, zeroPage[:len(data)]) {
			ck.Pages = append(ck.Pages, MemPage{pg, append([]byte(nil), data...)})
		}
	}
	ck.Seq, ck.SlabCur = m.K.SnapState()
	for _, p := range m.K.Procs {
		ck.Procs = append(ck.Procs, ProcSnap{
			ID: p.ID, State: p.State, Brk: p.Brk,
			WakeSeq: p.WakeSeq, NeedsIdle: p.NeedsIdle,
			CoreState: p.Core.Snapshot(),
		})
	}
	for ci := 0; ci < m.Cfg.Cores; ci++ {
		id := -1
		if m.cur[ci] != nil {
			id = m.cur[ci].ID
		}
		ck.Cur = append(ck.Cur, id)
		var q []int
		for _, p := range m.rq[ci] {
			q = append(q, p.ID)
		}
		ck.RunQ = append(ck.RunQ, q)
	}
	m.adoptImage(ck)
	m.ckptReq = false
	return ck
}

// adoptImage records that guest memory now equals ck's image: ck becomes
// the baseline and every page is clean.
func (m *Machine) adoptImage(ck *Checkpoint) {
	m.memImage = ck.id
	m.memPages = m.memPages[:0]
	for _, pg := range ck.Pages {
		m.memPages = append(m.memPages, pg.Index)
	}
	m.Mem.ClearDirty()
}

// markBaseline marks the baseline's pages dirty. With the pages written
// since, they are every page that may differ from all-zero memory.
func (m *Machine) markBaseline() {
	for _, pg := range m.memPages {
		m.Mem.Dirty[pg] = 1
	}
}

// copyImage makes guest memory equal ck's image by copying ck's page, or
// clearing the page, wherever memory can differ from it: on the pages
// written since the baseline and, unless the baseline is ck, on the
// baseline's and ck's pages too (a fresh machine's baseline is all-zero
// memory, which lists none). Those pages are marked dirty, and ck.Pages
// is walked alongside the scan of the marks.
func (m *Machine) copyImage(ck *Checkpoint) {
	if ck.id == 0 || ck.id != m.memImage {
		m.markBaseline()
		for _, pg := range ck.Pages {
			m.Mem.Dirty[pg.Index] = 1
		}
	}
	img := ck.Pages
	for pg, d := range m.Mem.Dirty {
		if d == 0 {
			continue
		}
		for len(img) > 0 && img[0].Index < pg {
			img = img[1:]
		}
		if len(img) > 0 && img[0].Index == pg {
			copy(m.page(pg), img[0].Data)
		} else {
			clear(m.page(pg))
		}
	}
}

// zeroPage is a page of zeros to compare guest pages against.
var zeroPage [isa.PageSize]byte

// page returns guest memory page pg.
func (m *Machine) page(pg int) []byte {
	lo := pg << isa.PageShift
	return m.Mem.Data[lo:min(lo+isa.PageSize, len(m.Mem.Data))]
}

// checkRestorable reports why ck cannot be restored onto m. It checks
// everything Restore indexes or looks up, so Restore can fail before it
// changes any state. On success it returns the machine's processes by ID.
func (m *Machine) checkRestorable(ck *Checkpoint) (map[int]*kernel.Process, error) {
	if ck.Arch != string(m.Cfg.Arch) {
		return nil, fmt.Errorf("gemsys: checkpoint arch %q does not match machine %q", ck.Arch, m.Cfg.Arch)
	}
	if ck.MemSize != len(m.Mem.Data) {
		return nil, fmt.Errorf("gemsys: checkpoint memory size %d does not match machine %d", ck.MemSize, len(m.Mem.Data))
	}
	next := 0
	for _, pg := range ck.Pages {
		if pg.Index < 0 || pg.Index >= len(m.Mem.Dirty) {
			return nil, fmt.Errorf("gemsys: checkpoint page %d is outside memory", pg.Index)
		}
		if pg.Index < next {
			return nil, fmt.Errorf("gemsys: checkpoint page %d is out of order or repeated", pg.Index)
		}
		if want := len(m.page(pg.Index)); len(pg.Data) != want {
			return nil, fmt.Errorf("gemsys: checkpoint page %d has %d bytes, want %d", pg.Index, len(pg.Data), want)
		}
		next = pg.Index + 1
	}
	if len(ck.Procs) != len(m.K.Procs) {
		return nil, fmt.Errorf("gemsys: checkpoint has %d processes, machine has %d", len(ck.Procs), len(m.K.Procs))
	}
	byID := make(map[int]*kernel.Process, len(m.K.Procs))
	for _, p := range m.K.Procs {
		byID[p.ID] = p
	}
	seen := make(map[int]bool, len(ck.Procs))
	for _, ps := range ck.Procs {
		p := byID[ps.ID]
		if p == nil {
			return nil, fmt.Errorf("gemsys: checkpoint references unknown process %d", ps.ID)
		}
		if seen[ps.ID] {
			return nil, fmt.Errorf("gemsys: checkpoint lists process %d twice", ps.ID)
		}
		seen[ps.ID] = true
		if want := len(p.Core.Snapshot()); len(ps.CoreState) != want {
			return nil, fmt.Errorf("gemsys: checkpoint process %d has %d core-state words, want %d", ps.ID, len(ps.CoreState), want)
		}
	}
	if err := m.K.CheckChannels(ck.Chans, byID); err != nil {
		return nil, fmt.Errorf("gemsys: checkpoint: %w", err)
	}
	if len(ck.Cur) != m.Cfg.Cores || len(ck.RunQ) != m.Cfg.Cores {
		return nil, fmt.Errorf("gemsys: checkpoint has %d current and %d run-queue entries, machine has %d cores",
			len(ck.Cur), len(ck.RunQ), m.Cfg.Cores)
	}
	for ci, id := range ck.Cur {
		if id != -1 && byID[id] == nil {
			return nil, fmt.Errorf("gemsys: checkpoint core %d runs unknown process %d", ci, id)
		}
		for _, id := range ck.RunQ[ci] {
			if byID[id] == nil {
				return nil, fmt.Errorf("gemsys: checkpoint core %d queues unknown process %d", ci, id)
			}
		}
	}
	return byID, nil
}

// Restore reinstates a checkpoint on the same machine — or on any machine
// with an equal BootFingerprint, i.e. one whose processes were spawned
// identically (the checkpoint memoizer's cross-machine restore path).
// Trace queues are cleared and the IPC coupler is replaced. Restore
// leaves the O3 cores alone: RunEvalSampled resets their pipelines and
// flushes their caches, TLBs and branch predictors before it replays a
// record, so detailed evaluation still starts cold. Restore copies out
// of ck and never retains references into it, so the restored machine's
// later execution cannot reach ck, and other machines may restore ck
// concurrently (see Checkpoint). Guest memory is brought to ck's image
// by copying only the pages that can differ (see copyImage), and ck
// becomes the machine's memory baseline. A malformed checkpoint returns
// an error and leaves the machine untouched.
func (m *Machine) Restore(ck *Checkpoint) error {
	byID, err := m.checkRestorable(ck)
	if err != nil {
		return err
	}
	m.copyImage(ck)
	m.adoptImage(ck)
	for _, ps := range ck.Procs {
		p := byID[ps.ID]
		p.State = ps.State
		p.Brk = ps.Brk
		p.WakeSeq = ps.WakeSeq
		p.NeedsIdle = ps.NeedsIdle
		p.Core.Restore(ps.CoreState)
	}
	m.K.RestoreChannels(ck.Chans, byID)
	m.K.RestoreState(ck.Seq, ck.SlabCur)
	m.K.Console.Reset()
	m.K.Console.Write(ck.Console)
	m.virtInstr = ck.VirtInstr
	m.nextRegion = ck.NextRgn
	for ci := 0; ci < m.Cfg.Cores; ci++ {
		if ck.Cur[ci] >= 0 {
			m.cur[ci] = byID[ck.Cur[ci]]
		} else {
			m.cur[ci] = nil
		}
		m.rq[ci] = nil
		for _, id := range ck.RunQ[ci] {
			m.rq[ci] = append(m.rq[ci], byID[id])
		}
		m.traces[ci] = nil
		m.cursor[ci] = 0
	}
	m.halted = false
	m.ckptReq = false
	// Decoded instructions and translated blocks survive the restore on
	// purpose: the memory overwrite above is text-identical by the same
	// assumption the decode cache already relies on (checkpoints restore
	// into machines of the same boot image), so re-translating would only
	// penalize restore-heavy callers like the sweep engine. Superblock
	// links and chain telemetry do NOT survive: with links severed, the
	// first post-restore entry into every block goes through the entry-PC
	// map, so the interp.* stats are identical whether the block cache was
	// warm or cold and both restored runs of a same-seed pair export
	// identical bytes.
	m.decRV.ResetChains()
	m.decC.ResetChains()
	// Fresh coupler; RunEvalSampled hands it to the O3 cores. The shared
	// DRAM channel's occupancy cursor must also reset: it carries
	// absolute cycle times from the previous run.
	m.Coupler = newCouplerFor(m)
	m.DRAM.Reset()
	// The observability layer starts a fresh measurement: both restored
	// runs of a same-seed pair then export identical bytes.
	m.K.ResetCounts()
	m.Tracer.Reset()
	m.Prof.Reset()
	for _, d := range m.ecallLat {
		d.Reset()
	}
	return nil
}
