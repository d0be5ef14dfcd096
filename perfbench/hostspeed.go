package main

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Host-speed scaling.
//
// On a shared host the speed of a core changes for minutes at a time with
// what the other tenants run: on the reference host the per-instance
// fastest synth calls of one process were 25% slower than those of a
// process five minutes earlier, on unchanged code. A small fixed kernel
// that uses none of the program's code, run in short slices between the
// program's calls, slowed by the same share: the program's per-instance
// fastest calls divided by the kernel's fastest slice stayed within about
// ±5% across such phases, where the calls alone moved ±10–25%. Every time
// metric is therefore reported at reference-host speed: multiplied by
// refSliceMS over the run's fastest slice (rates divided by it). The
// printed lines before the JSON give times as measured.
//
// The kernel must run interleaved with the program: slices run back to
// back in a loop of their own did not track the phases at all. Its array
// is 16 KiB, so it adds nothing to the peak RSS measured. Slices run
// between calls (synth, fallback) or every 10 ms in the load generator
// (serve). Only the fastest of a thousand or more slices counts, so the
// program's own load at some moments does not move it; a program that kept
// a core busy for the whole run would, and would then look faster. The
// kernel follows compute speed, not memory bandwidth: memory-heavy work
// (manthan3's incomplete sat2dqbf runs, serve's multi-megabyte
// certificates) still varies with the host by 10-20% between runs.

// refSliceMS is the kernel's fastest slice on the reference host (2 vCPUs
// at 2.1 GHz nominal) in a fast phase. It fixes the scale of every reported
// time and must not change between two runs that are compared.
const refSliceMS = 0.075

const (
	chaseLen   = 1 << 12 // 16 KiB of int32
	sliceSteps = 20000
)

// hostSpeed keeps the fastest kernel slice seen. It is safe for concurrent
// use.
type hostSpeed struct {
	chase []int32
	mu    sync.Mutex
	best  float64 // ms
	n     int     // slices run
}

func newHostSpeed() *hostSpeed {
	chase := make([]int32, chaseLen)
	perm := rand.New(rand.NewSource(1)).Perm(chaseLen)
	for i := range perm {
		chase[perm[i]] = int32(perm[(i+1)%chaseLen])
	}
	return &hostSpeed{chase: chase, best: math.Inf(1)}
}

// kernelSink keeps the slices' results live, so none is optimised away.
var kernelSink atomic.Int32

// sample runs k kernel slices and keeps the fastest.
func (h *hostSpeed) sample(k int) {
	best := math.Inf(1)
	for i := 0; i < k; i++ {
		t0 := time.Now()
		r := kernelSlice(h.chase)
		best = math.Min(best, float64(time.Since(t0))/float64(time.Millisecond))
		kernelSink.Add(r)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.best = math.Min(h.best, best)
	h.n += k
}

// every runs one slice per period until stop is closed; done is closed
// when it has returned.
func (h *hostSpeed) every(period time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			h.sample(1)
		}
	}
}

// kernelSlice chases pointers through a random cycle, hashing as it goes
// and jumping off the cycle on one step in eight.
func kernelSlice(chase []int32) int32 {
	j := int32(0)
	h := uint64(1469598103934665603)
	for s := 0; s < sliceSteps; s++ {
		j = chase[j]
		h = (h ^ uint64(j)) * 1099511628211
		if h&7 == 0 {
			j = chase[(int(j)+int(h>>40))%len(chase)]
		}
	}
	return j + int32(h&1)
}

// factor is what a time measured in this run is multiplied by to read at
// reference-host speed.
func (h *hostSpeed) factor() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return refSliceMS / h.best
}
