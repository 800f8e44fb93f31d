package loadgen

import (
	"fmt"

	"svbench/internal/gemsys"
	"svbench/internal/harness"
	"svbench/internal/rpc"
	"svbench/internal/trace"
)

// Fleet is the machine-lifecycle layer behind a load run, split out of
// the pool policy so other schedulers (the cluster autoscaler in
// internal/autoscale) can share it: it boots the spec's master once
// (through harness.BootCache when one is supplied), cold-starts
// instances by restoring the one shared post-boot checkpoint,
// recycles reclaimed machines through a free list, and drives one
// invocation at a time through an instance host-side. A fresh instance
// boots as a twin of the master (harness.Boot.Twin): it spawns the
// master's compiled images and runs on the master machine's decode
// caches, so no cold start compiles, decodes or translates what the
// fleet already has.
//
// A Fleet is single-goroutine like the engines that own it: every
// Acquire/Serve/Release happens inside a sequential discrete-event
// loop, in deterministic event order. Its machines share decode
// caches, which must not cross goroutines either.
type Fleet struct {
	spec   harness.Spec
	reqMsg []byte

	// master is the boot every fresh instance twins.
	master *harness.Boot

	// masterCk is the shared post-boot checkpoint instances restore from;
	// nil when the spec's boot is not memoizable (host-side service state
	// — each cold start then simulates its own setup).
	masterCk   *gemsys.Checkpoint
	masterNS   uint64
	memoizable bool

	free   []*Instance // reclaimed machines awaiting re-restore
	nextID int

	// onInstance, when non-nil, fires once per cold start with the
	// fleet-assigned instance id and the machine's guest→service channel
	// bindings (Config.OnInstance's contract).
	onInstance func(instID int, bindings []harness.ServiceBinding)
}

// Instance is one warm function machine of a fleet.
type Instance struct {
	// ID is the fleet-wide creation sequence number; a recycled machine
	// gets a fresh id on each cold start.
	ID int
	// Penalty is the boot time (virtual ns of the skipped setup phase)
	// charged when this instance was cold-started.
	Penalty uint64
	// IdleSince is pool-policy state: the instant the instance last went
	// idle. The fleet never reads it.
	IdleSince uint64

	b      *harness.Boot
	reqCh  int
	respCh int
}

// NewFleet boots (or fetches from cache) the spec's master checkpoint
// and returns a fleet ready to cold-start instances. The spec's tracing
// is forced off: the load layers own observability, so instances run
// the event-free hot path. onInstance may be nil.
func NewFleet(cfg gemsys.Config, spec harness.Spec, cache *harness.BootCache,
	onInstance func(instID int, bindings []harness.ServiceBinding)) (*Fleet, error) {
	if spec.Build == nil || spec.Request == nil {
		return nil, fmt.Errorf("loadgen: fleet has no function spec")
	}
	spec.Trace = trace.Options{}
	f := &Fleet{spec: spec, reqMsg: spec.Request(), onInstance: onInstance}
	b, err := harness.BootSpec(cfg, spec)
	if err != nil {
		return nil, fmt.Errorf("loadgen: master boot: %w", err)
	}
	f.master = b
	ck, setupInsts, err := cache.CheckpointFor(b)
	if err != nil {
		return nil, fmt.Errorf("loadgen: master setup: %w", err)
	}
	f.memoizable = b.Memoizable()
	if f.memoizable {
		f.masterCk = ck
		f.masterNS = setupInsts
	}
	return f, nil
}

// Memoizable reports whether instances restore from the shared master
// checkpoint (false means every cold start simulates its own setup).
func (f *Fleet) Memoizable() bool { return f.memoizable }

// Acquire cold-starts an instance: a reclaimed machine re-restored from
// the master checkpoint when possible, otherwise a fresh twin of the
// master. The simulated client is killed so the owner can drive the
// surviving function server host-side.
func (f *Fleet) Acquire() (*Instance, error) {
	var inst *Instance
	ck, restore := f.masterCk, "re-restore"
	if n := len(f.free); n > 0 && f.memoizable {
		inst = f.free[n-1]
		f.free = f.free[:n-1]
	} else {
		b, err := f.master.Twin()
		if err != nil {
			return nil, fmt.Errorf("loadgen: instance boot: %w", err)
		}
		penalty := f.masterNS
		if !f.memoizable {
			// Host-side service state is not in a checkpoint, so this
			// instance simulates its own container setup — the true
			// cold-start cost.
			ck, err = b.Setup()
			if err != nil {
				return nil, fmt.Errorf("loadgen: instance setup: %w", err)
			}
			penalty = b.SetupInsts()
		}
		reqCh, respCh := b.ClientChans()
		inst = &Instance{b: b, reqCh: reqCh, respCh: respCh, Penalty: penalty}
		restore = "restore"
	}
	if err := inst.b.M.Restore(ck); err != nil {
		return nil, fmt.Errorf("loadgen: %s: %w", restore, err)
	}
	if err := inst.b.M.KillProcess("client"); err != nil {
		return nil, err
	}
	inst.ID = f.nextID
	f.nextID++
	if f.onInstance != nil {
		f.onInstance(inst.ID, inst.b.ServiceBindings())
	}
	return inst, nil
}

// Release returns a reclaimed instance's machine to the free list so the
// next Acquire re-restores it instead of booting from scratch. Without a
// shared master checkpoint the machine cannot be recycled and is simply
// dropped.
func (f *Fleet) Release(inst *Instance) {
	if f.memoizable {
		f.free = append(f.free, inst)
	}
}

// Serve drives one invocation through inst's machine and returns the
// service time on the virtual clock plus whether the reply failed the
// spec's check.
func (f *Fleet) Serve(inst *Instance, invID int) (svcNS uint64, checkFailed bool, err error) {
	m := inst.b.M
	t0 := m.VirtNS()
	if err := m.K.Inject(inst.reqCh, f.reqMsg); err != nil {
		return 0, false, fmt.Errorf("loadgen: invocation %d on instance %d: %w", invID, inst.ID, err)
	}
	if err := m.RunUntilIdle(invokeBudget); err != nil {
		return 0, false, fmt.Errorf("loadgen: invocation %d on instance %d: %w", invID, inst.ID, err)
	}
	resp, ok := m.K.TakeMessage(inst.respCh)
	if !ok {
		return 0, false, fmt.Errorf("loadgen: invocation %d on instance %d: server produced no reply", invID, inst.ID)
	}
	if check := f.spec.Check; check != nil {
		if err := check(rpc.NewReader(resp)); err != nil {
			checkFailed = true
		}
	}
	return m.VirtNS() - t0, checkFailed, nil
}
