package stats

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{20, 57, 100, 169, 480, 1000, 1440, 5000} {
		p := TailPercentile(n)
		s := Summarize(seq(n))
		beyond := 0
		for _, x := range seq(n) {
			if x > s.Tail {
				beyond++
			}
		}
		if beyond < MinBeyond {
			t.Errorf("n=%d: p%d leaves %d beyond, want ≥ %d", n, p, beyond, MinBeyond)
		}
		if p < 99 {
			// The next percentile up must break the rule, or p was not the
			// highest one allowed.
			next := Quantile(seq(n), float64(p+1)/100)
			if above := n - int(next); above >= MinBeyond {
				t.Errorf("n=%d: p%d also leaves %d beyond; p%d is not the highest", n, p+1, above, p)
			}
		}
		if s.N != n || s.TailPct != p {
			t.Errorf("n=%d: summary reports N=%d p%d, want N=%d p%d", n, s.N, s.TailPct, n, p)
		}
	}
	if got := TailPercentile(169); got != 94 {
		t.Errorf("TailPercentile(169) = %d, want 94", got)
	}
	if got := TailPercentile(1000); got != 99 {
		t.Errorf("TailPercentile(1000) = %d, want 99", got)
	}
	if got := TailPercentile(12); got != 50 {
		t.Errorf("TailPercentile(12) = %d, want the median fallback 50", got)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of no samples should be NaN")
	}
}

func TestMissedSamplesMissEveryLimit(t *testing.T) {
	xs := seq(100)
	for i := 0; i < 11; i++ {
		xs[i] = Missed // eleven failures among one hundred requests
	}
	s := Summarize(xs)
	if s.Missed != 11 {
		t.Fatalf("Missed = %d, want 11", s.Missed)
	}
	if !math.IsInf(s.Tail, 1) {
		t.Fatalf("p%d with 11%% failed = %v, want +Inf (a failure misses any limit)", s.TailPct, s.Tail)
	}
	if math.IsInf(s.P50, 1) {
		t.Fatalf("median with 11%% failed = +Inf, want a real sample")
	}
}

func TestPerInstanceBest(t *testing.T) {
	// Instance 1 has slow passes; its fastest one stands. Instance 2 has a
	// single sample; instance 3 none and is dropped; instance 4 failed on
	// one pass, which a minimum must not hide.
	got := PerInstanceBest(map[int][]float64{
		2: {7},
		1: {5, 400, 6, 5, 6},
		3: nil,
		4: {3, Missed, 3},
	})
	want := []float64{5, 7, Missed}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// One outlier pass per instance moves no per-instance figure, so the
	// tail over instances stays put while a raw tail would not.
	samples := map[int][]float64{}
	var raw []float64
	for i := 0; i < 200; i++ {
		samples[i] = []float64{10, 10, 10}
		if i%10 == 0 {
			samples[i][1] = 500
		}
		raw = append(raw, samples[i]...)
	}
	if tail := Summarize(PerInstanceBest(samples)).Tail; tail != 10 {
		t.Errorf("tail over per-instance minima = %v, want 10", tail)
	}
	if tail := Summarize(raw).Tail; tail != 500 {
		t.Errorf("raw tail = %v, want the outlier 500 (the contrast this rule exists for)", tail)
	}
}
