package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// summary is one metric's distribution over a run's samples.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// summarize returns the median, min and max of vals (left unmodified).
func summarize(vals []float64) summary {
	if len(vals) == 0 {
		return summary{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return summary{Median: median(s), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// median of vals (left unmodified); the mean of the middle two for an
// even count, 0 for none.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// usage is the process's CPU time and memory high-water mark.
type usage struct {
	cpu    time.Duration // user + system, all threads
	peakMB float64       // max resident set size since the last resetPeak
}

func readUsage() (usage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}, fmt.Errorf("getrusage: %w", err)
	}
	u := usage{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if kib, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				n, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(kib, "kB")), 64)
				if err != nil {
					return usage{}, fmt.Errorf("VmHWM: %w", err)
				}
				u.peakMB = n / 1024
				return u, nil
			}
		}
	}
	// Without /proc the peak covers the whole process. Maxrss is in KiB
	// on Linux and in bytes on macOS.
	kib := float64(ru.Maxrss)
	if runtime.GOOS == "darwin" {
		kib /= 1024
	}
	u.peakMB = kib / 1024
	return u, nil
}

// resetPeak restarts the kernel's resident-set high-water mark, so the
// next readUsage reports one trial's peak (Linux only; elsewhere a no-op).
func resetPeak() {
	// The error is dropped on purpose: without the reset, readUsage
	// reports the process-wide peak, which is no smaller.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
