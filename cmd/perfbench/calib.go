package main

import (
	"sync"
	"time"
)

// The speed of a shared host drifts. On the 2-CPU reference host the same
// cold-churn trial took 1.75 s at one moment and 2.9 s five minutes
// later, and paper-report trials took 4.4 s in one hour and 8.2–10.2 s
// in the next, far more than trials of one run differ. Runs made minutes
// apart therefore cannot be compared by their raw times. The benchmark times a fixed calibration kernel
// between trials and scales each time by calRef / the kernel's median time
// in the run: the time the trial would take on a host as fast as the
// reference host at the moment its kernel took calRef. The kernel is part
// of the benchmark, not of the program, so a change to the program moves
// the scaled times as much as the raw ones.
const (
	// calRef is the kernel's time, in seconds, that the scaled times refer
	// to: roughly its time on the reference host when that host is quiet.
	calRef = 0.060
	// calSamples is how many kernel runs each calibration point times.
	calSamples = 3
	// calWords is each kernel worker's table: 64 MB, beyond the per-core
	// caches, so that the kernel, like the simulator with its large heap,
	// depends on the shared cache and memory as well as on the core.
	// Tables of 1 to 256 MB and purely memory-bound kernels tracked the
	// workloads no better (README.md, "Host speed").
	calWords = 1 << 23
	// calSteps is the number of interpreted steps per worker and kernel run.
	calSteps = 4_000_000
)

// calibrator times the calibration kernel: a small bytecode interpreter,
// like the simulator's own, run on one goroutine per trial worker, each
// over a table of its own.
type calibrator struct {
	prog    [4096]byte
	tables  [][]uint64
	samples []float64
	sink    uint64
}

func newCalibrator(workers int) *calibrator {
	c := &calibrator{}
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range c.prog {
		c.prog[i] = byte(next())
	}
	for w := 0; w < max(1, workers); w++ {
		t := make([]uint64, calWords)
		for i := range t {
			t[i] = next()
		}
		c.tables = append(c.tables, t)
	}
	return c
}

// sample times calSamples kernel runs and records each duration.
func (c *calibrator) sample() {
	for i := 0; i < calSamples; i++ {
		sums := make([]uint64, len(c.tables))
		var wg sync.WaitGroup
		t := time.Now()
		for w, tab := range c.tables {
			wg.Add(1)
			go func(w int, tab []uint64) {
				defer wg.Done()
				sums[w] = c.interpret(tab)
			}(w, tab)
		}
		wg.Wait()
		c.samples = append(c.samples, time.Since(t).Seconds())
		for _, s := range sums {
			c.sink += s
		}
	}
}

// interpret runs calSteps steps of prog over mem: register arithmetic,
// data-dependent loads and stores at random places in mem, and branches.
func (c *calibrator) interpret(mem []uint64) uint64 {
	var r [8]uint64
	r[0] = 1
	mask := uint64(len(mem) - 1)
	pc := 0
	for i := 0; i < calSteps; i++ {
		op := c.prog[pc]
		a, b := op>>3&7, op>>6&1
		switch op & 7 {
		case 0:
			r[a] += r[b] + 1
		case 1:
			r[a] ^= r[b] << 3
		case 2:
			r[a] = mem[r[b]&mask]
		case 3:
			mem[r[a]&mask] = r[b] + uint64(i)
		case 4:
			r[a] = r[a]*2654435761 + r[b]
		case 5:
			if r[a]&1 == 0 {
				pc = (pc + 17) % len(c.prog)
			}
		case 6:
			r[a] >>= 1
		default:
			r[a] -= r[b]
		}
		pc = (pc + 1) % len(c.prog)
	}
	return r[0] + r[1] + r[7]
}

// factor is calRef over the median kernel time so far: the factor that
// scales a time measured in this run to the reference host speed.
func (c *calibrator) factor() float64 { return calRef / median(c.samples) }

// residentMB is the memory the kernel's tables keep resident, which the
// trials' peak-memory readings exclude.
func (c *calibrator) residentMB() float64 { return float64(len(c.tables)*calWords*8) / (1 << 20) }
