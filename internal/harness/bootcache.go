package harness

import (
	"sync"

	"svbench/internal/gemsys"
)

// BootCache memoizes post-boot checkpoints across runs. The key is the
// machine's boot fingerprint (see gemsys.BootFingerprint): runs whose
// architecture, configuration, kernel image and spawn sequence are
// identical execute the same setup phase, so only the first such run
// simulates it. Every later run restores the cached checkpoint itself:
// one image, shared by reference among any number of machines on any
// goroutines, since nothing writes to a checkpoint once it is taken.
//
// Concurrent lookups for the same fingerprint are single-flighted: one
// run (the leader) simulates setup while the others wait on the entry.
// If the leader fails, or its boot turns out not to be memoizable (setup
// touched a host-side native service — see Boot.Memoizable), the waiters
// run their own setup so each reports its own error with full fidelity.
//
// The zero BootCache is not usable; call NewBootCache. A nil *BootCache
// is valid everywhere and disables memoization.
type BootCache struct {
	mu      sync.Mutex
	entries map[string]*bootEntry

	hits     uint64 // runs served from a cached checkpoint
	misses   uint64 // runs that simulated setup as the entry's leader
	rejected uint64 // runs that found a negative entry (failed or non-memoizable boot)
}

type bootEntry struct {
	ready      chan struct{} // closed when the leader finished
	ck         *gemsys.Checkpoint
	setupInsts uint64
	ok         bool // checkpoint cached; false = failed or non-memoizable
}

// NewBootCache returns an empty cache ready for concurrent use.
func NewBootCache() *BootCache {
	return &BootCache{entries: map[string]*bootEntry{}}
}

// Stats returns the cache counters: hits (runs that skipped setup),
// misses (runs that simulated setup and led an entry), and rejected
// (runs that found a negative entry and ran their own setup).
func (c *BootCache) Stats() (hits, misses, rejected uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.rejected
}

// acquire returns the entry for fp and whether the caller is its leader.
func (c *BootCache) acquire(fp string) (*bootEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[fp]; ok {
		return e, false
	}
	e := &bootEntry{ready: make(chan struct{})}
	c.entries[fp] = e
	c.misses++
	return e, true
}

// finish publishes the leader's outcome: ck is the leader's own
// checkpoint, which the leader and every follower then restore; a nil ck
// records a negative entry.
func (c *BootCache) finish(e *bootEntry, ck *gemsys.Checkpoint, setupInsts uint64) {
	c.mu.Lock()
	e.ck = ck
	e.setupInsts = setupInsts
	e.ok = ck != nil
	c.mu.Unlock()
	close(e.ready)
}

func (c *BootCache) noteHit() {
	c.mu.Lock()
	c.hits++
	c.mu.Unlock()
}

func (c *BootCache) noteRejected() {
	c.mu.Lock()
	c.rejected++
	c.mu.Unlock()
}

// CheckpointFor returns a post-boot checkpoint for b, consulting the
// cache by boot fingerprint. The leader (first caller per fingerprint)
// simulates b's Setup and publishes its own checkpoint when the boot is
// memoizable; followers receive that same checkpoint, shared by
// reference (see gemsys.Checkpoint: nothing writes to a checkpoint once
// it is taken, and Restore only copies out of it). On a negative entry
// (failed or non-memoizable leader) the caller simulates its own setup
// and gets its boot's own checkpoint back. A nil cache always runs Setup
// directly. The returned setupInsts is the setup phase's instruction
// count — the load layer charges it as the cold-start boot penalty.
func (c *BootCache) CheckpointFor(b *Boot) (ck *gemsys.Checkpoint, setupInsts uint64, err error) {
	if c == nil {
		ck, err = b.Setup()
		return ck, b.SetupInsts(), err
	}
	fp := b.M.BootFingerprint()
	e, leader := c.acquire(fp)
	if leader {
		ck, err = b.Setup()
		switch {
		case err != nil:
			c.finish(e, nil, 0)
			return nil, 0, err
		case !b.Memoizable():
			c.finish(e, nil, 0)
		default:
			c.finish(e, ck, b.SetupInsts())
		}
		return ck, b.SetupInsts(), nil
	}
	<-e.ready
	if e.ok {
		c.noteHit()
		return e.ck, e.setupInsts, nil
	}
	// The leader failed or the boot is not memoizable: simulate our own
	// setup so this run's behavior (and any error) is its own.
	c.noteRejected()
	ck, err = b.Setup()
	return ck, b.SetupInsts(), err
}

// RunCached executes the methodology like RunWith, consulting cache for a
// memoized post-boot checkpoint (see CheckpointFor). A nil cache disables
// memoization. Either way the measured result is identical: the
// evaluation phase always runs on this call's own machine, restored from
// a checkpoint byte-equal to the one its own setup would have produced.
func RunCached(cfg gemsys.Config, spec Spec, cache *BootCache) (*Result, error) {
	b, err := BootSpec(cfg, spec)
	if err != nil {
		return nil, err
	}
	ck, setupInsts, err := cache.CheckpointFor(b)
	if err != nil {
		return nil, err
	}
	return b.Measure(ck, setupInsts)
}
