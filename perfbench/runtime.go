package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// memDelta is the Go runtime's work over an interval.
type memDelta struct {
	allocMB  float64
	gcCycles float64
	pauseMS  float64
}

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{
		allocMB:  float64(ms.TotalAlloc) / (1 << 20),
		gcCycles: float64(ms.NumGC),
		pauseMS:  float64(ms.PauseTotalNs) / 1e6,
	}
}

func (m memDelta) sub(o memDelta) memDelta {
	return memDelta{m.allocMB - o.allocMB, m.gcCycles - o.gcCycles, m.pauseMS - o.pauseMS}
}

func (m memDelta) add(o memDelta) memDelta {
	return memDelta{m.allocMB + o.allocMB, m.gcCycles + o.gcCycles, m.pauseMS + o.pauseMS}
}

// resetPeakRSS restarts a process's VmHWM from its current RSS, so the
// peak reported later covers only the measured window, not set-up.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// rssPeaks records a process's peak RSS over each measured serve phase.
// peak_rss_mb is their median: a Go process's peak depends on where GC
// cycles fall against its largest allocations, and the median keeps one
// phase where two large responses overlapped from setting the figure.
type rssPeaks struct {
	pid   int
	peaks []float64
}

// start resets the peak before a phase.
func (r *rssPeaks) start() error { return resetPeakRSS(r.pid) }

// end records the phase's peak.
func (r *rssPeaks) end() error {
	mb, err := peakRSSMB(r.pid)
	r.peaks = append(r.peaks, mb)
	return err
}
