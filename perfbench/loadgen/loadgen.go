// Package loadgen is the benchmark's open-loop load generator. Requests are
// sent on a seeded schedule whether or not earlier ones have finished, and
// each request's latency is timed from when it was due, not from when it
// was sent: a stall that delays later sends shows up in their latency. The
// generator also records how late it ran itself (Record.Lag), which is a
// validity check on the run, not a property of the server.
package loadgen

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/perfbench/stats"
)

// Arrivals returns n arrival offsets in [0, d): evenly spaced, each moved
// by a seeded jitter of up to half a gap either way. Every seed offers the
// same number of requests at the same average rate; only their timing
// varies. (Poisson arrivals were tried first: their bursts, landing on the
// few requests that take 30x the median, made a rung's tail depend on the
// seed more than on the server.)
func Arrivals(seed int64, n int, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	gap := float64(d) / float64(n)
	out := make([]time.Duration, n)
	for i := range out {
		t := (float64(i) + 0.5 + rng.Float64() - 0.5) * gap
		out[i] = min(time.Duration(t), d-1)
	}
	slices.Sort(out)
	return out
}

// Record is one request's fate. Times are offsets from the run's start.
type Record struct {
	Due, Sent, Done time.Duration
	// OK is false for a request that failed or was refused; it then counts
	// as missing every latency limit.
	OK bool
}

// Latency is the time from due to done in milliseconds, or stats.Missed
// for a failed request.
func (r Record) Latency() float64 {
	if !r.OK {
		return stats.Missed
	}
	return ms(r.Done - r.Due)
}

// Lag is how late the generator sent the request, in milliseconds.
func (r Record) Lag() float64 { return ms(r.Sent - r.Due) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Run sends request i at offset due[i] from now by calling do(ctx, i) on
// its own goroutine, and returns once every request has finished. do
// reports whether the request succeeded and when its response was
// received, which may be before do returns (work on a received response
// is not the request's latency). Canceling ctx stops further sends;
// requests already sent see the canceled context.
func Run(ctx context.Context, due []time.Duration, do func(ctx context.Context, i int) (ok bool, received time.Time)) []Record {
	recs := make([]Record, len(due))
	start := time.Now()
	var wg sync.WaitGroup
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
			case <-t.C:
			}
		}
		if ctx.Err() != nil {
			recs = recs[:i]
			break
		}
		wg.Add(1)
		go func(i int, d time.Duration) {
			defer wg.Done()
			sent := time.Since(start)
			ok, received := do(ctx, i)
			recs[i] = Record{Due: d, Sent: sent, Done: received.Sub(start), OK: ok}
		}(i, d)
	}
	wg.Wait()
	return recs
}

// Outstanding counts the requests due by t that had not finished by t.
func Outstanding(recs []Record, t time.Duration) int {
	n := 0
	for _, r := range recs {
		if r.Due <= t && r.Done > t {
			n++
		}
	}
	return n
}

// BacklogGrows reports whether a step at rate per second lasting d built up
// more requests outstanding than could still finish within the latency
// limit slo: conns in service plus rate·slo queued. It takes the median of
// the outstanding count at ten instants over the step's second half, so a
// single slow request in flight at one instant does not count; a server
// falling behind accumulates past the limit at most of them.
func BacklogGrows(recs []Record, d time.Duration, rate float64, slo time.Duration, conns int) bool {
	limit := conns + int(math.Ceil(rate*slo.Seconds()))
	var counts []float64
	for k := 1; k <= 10; k++ {
		counts = append(counts, float64(Outstanding(recs, d/2+d*time.Duration(k)/20)))
	}
	return stats.Median(counts) > float64(limit)
}

// Step is one rung of a capacity ladder: an offered rate, the latency at
// the percentile held to the SLO (ms, +Inf if failures reach it), and
// whether the backlog grew.
type Step struct {
	Rate    float64
	Tail    float64
	Backlog bool
}

// MaxRate returns the highest rate at which the tail meets slo (ms) and the
// backlog does not grow, with steps in increasing rate. Between the last
// passing rung and the first failing one it interpolates the rate where the
// tail crosses slo, so host speed moves the answer smoothly rather than a
// whole rung at a time. It interpolates the logarithm of the tail: near
// capacity the tail grows about exponentially with the rate, and a linear
// interpolation put the crossing low whenever the failing rung's tail was
// large, which spread the result by 0.22 of its median over ten seeds
// against 0.18 this way. When even the first rung fails, the first rate is
// scaled down by how far its tail misses.
func MaxRate(steps []Step, slo float64) float64 {
	pass := func(s Step) bool { return s.Tail <= slo && !s.Backlog }
	if len(steps) == 0 {
		return 0
	}
	if !pass(steps[0]) {
		if math.IsInf(steps[0].Tail, 1) || steps[0].Tail <= slo {
			return 0
		}
		return steps[0].Rate * slo / steps[0].Tail
	}
	i := 0
	for i+1 < len(steps) && pass(steps[i+1]) {
		i++
	}
	if i+1 == len(steps) {
		return steps[i].Rate
	}
	a, b := steps[i], steps[i+1]
	if b.Tail <= slo || math.IsInf(b.Tail, 1) {
		// Failed on backlog alone, or on failures: no crossing to place.
		return a.Rate
	}
	return a.Rate + (b.Rate-a.Rate)*math.Log(slo/a.Tail)/math.Log(b.Tail/a.Tail)
}
