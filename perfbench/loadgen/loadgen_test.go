package loadgen

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/perfbench/stats"
)

func TestArrivalsSeeded(t *testing.T) {
	a := Arrivals(7, 200, time.Second)
	b := Arrivals(7, 200, time.Second)
	c := Arrivals(8, 200, time.Second)
	if len(a) != 200 || len(c) != 200 {
		t.Fatalf("%d and %d arrivals, want 200 each", len(a), len(c))
	}
	if a[len(a)-1] != b[len(b)-1] || a[0] != b[0] {
		t.Fatal("same seed gave different schedules")
	}
	if a[len(a)-1] == c[len(c)-1] && a[0] == c[0] {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= time.Second {
			t.Fatalf("arrival %d at %v is out of order or past the phase", i, a[i])
		}
	}
}

// A server that stalls once must charge the stall to the requests that were
// due while it lasted: they queue behind the one connection, and their
// latency is measured from their due time, not their send.
func TestStallShowsInLaterLatency(t *testing.T) {
	const stall = 150 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 5 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()

	due := make([]time.Duration, 40)
	for i := range due {
		due[i] = time.Duration(i) * 10 * time.Millisecond
	}
	recs := Run(context.Background(), due, func(ctx context.Context, i int) (bool, time.Time) {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
		resp, err := client.Do(req)
		if err != nil {
			return false, time.Now()
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK, time.Now()
	})
	if len(recs) != len(due) {
		t.Fatalf("%d records, want %d", len(recs), len(due))
	}
	// Requests 5..9 were due 0..100ms into the stall; each waited for it.
	for i := 5; i < 10; i++ {
		if got := recs[i].Latency(); got < 40 {
			t.Errorf("request %d due during the stall: latency %.1fms, want ≥ 40ms", i, got)
		}
		if recs[i].Lag() > 30 {
			t.Errorf("request %d: generator lag %.1fms; the stall must not delay the send itself", i, recs[i].Lag())
		}
	}
	if got := recs[30].Latency(); got > 40 {
		t.Errorf("request 30, long after the stall: latency %.1fms, want it recovered", got)
	}
}

func TestFailedRequestMissesLimit(t *testing.T) {
	recs := []Record{
		{Due: 0, Sent: 0, Done: time.Millisecond, OK: true},
		{Due: 0, Sent: 0, Done: time.Millisecond, OK: false}, // shed or failed, however fast
	}
	if got := recs[1].Latency(); got != stats.Missed {
		t.Fatalf("failed request latency = %v, want stats.Missed", got)
	}
	if got := recs[0].Latency(); got != 1 {
		t.Fatalf("latency = %v, want 1ms", got)
	}
}

func TestBacklogDetection(t *testing.T) {
	const step = time.Second
	mk := func(rate float64, service time.Duration, conns int) []Record {
		// Simulate a server with conns parallel slots, each taking service
		// per request, fed at a steady rate for one step.
		free := make([]time.Duration, conns)
		var recs []Record
		for t := time.Duration(0); t < step; t += time.Duration(float64(time.Second) / rate) {
			k := 0
			for j := range free {
				if free[j] < free[k] {
					k = j
				}
			}
			start := max(t, free[k])
			free[k] = start + service
			recs = append(recs, Record{Due: t, Sent: t, Done: free[k], OK: true})
		}
		return recs
	}
	slo := 20 * time.Millisecond
	// 2 slots of 5ms serve 400/s; 200/s keeps up, 600/s falls behind.
	if BacklogGrows(mk(200, 5*time.Millisecond, 2), step, 200, slo, 2) {
		t.Error("backlog reported at half capacity")
	}
	if !BacklogGrows(mk(600, 5*time.Millisecond, 2), step, 600, slo, 2) {
		t.Error("no backlog reported at 1.5x capacity")
	}
	if got := Outstanding(mk(600, 5*time.Millisecond, 2), step); got < 100 {
		t.Errorf("outstanding at 1.5x capacity after 1s = %d, want ≈ 200", got)
	}
	// One 150ms stall just before the end of an otherwise easy step leaves a
	// burst outstanding at the end, but no growing backlog.
	recs := mk(200, 5*time.Millisecond, 2)
	for i := range recs {
		if recs[i].Due >= 900*time.Millisecond {
			recs[i].Done = max(recs[i].Done, 1050*time.Millisecond)
		}
	}
	if Outstanding(recs, step) <= 2+4 {
		t.Fatal("test setup: the stall should leave a burst outstanding at the end")
	}
	if BacklogGrows(recs, step, 200, slo, 2) {
		t.Error("a stall at the end of the step was reported as a growing backlog")
	}
}

func TestMaxRate(t *testing.T) {
	const slo = 25.0
	steps := []Step{{100, 8, false}, {150, 12, false}, {200, 20, false}, {250, 30, false}, {300, 90, true}}
	// The tail crosses 25 ms between 200/s (20 ms) and 250/s (30 ms), at
	// the rate where its logarithm does.
	if got, want := MaxRate(steps, slo), 200+50*math.Log(25.0/20)/math.Log(30.0/20); got != want {
		t.Errorf("MaxRate = %v, want %v", got, want)
	}
	// A growing backlog fails a rung even when its tail still meets the SLO.
	steps[3] = Step{250, 22, true}
	if got := MaxRate(steps, slo); got != 200 {
		t.Errorf("MaxRate with backlog at 250 = %v, want 200", got)
	}
	// A later rung passing again does not count: capacity is where it first
	// breaks.
	steps = []Step{{100, 8, false}, {150, 40, false}, {200, 20, false}}
	if got, want := MaxRate(steps, slo), 100+50*math.Log(25.0/8)/math.Log(40.0/8); got != want {
		t.Errorf("MaxRate = %v, want the crossing below 150 at %v", got, want)
	}
	if got := MaxRate([]Step{{100, 8, false}, {200, 9, false}}, slo); got != 200 {
		t.Errorf("every rung passes: MaxRate = %v, want the top rate 200", got)
	}
	if got := MaxRate([]Step{{100, 50, false}}, slo); got != 50 {
		t.Errorf("first rung at twice the SLO: MaxRate = %v, want 50", got)
	}
	// Failed requests count as missing the SLO.
	if got := MaxRate([]Step{{100, 8, false}, {200, stats.Missed, false}}, slo); got != 100 {
		t.Errorf("failures at 200/s: MaxRate = %v, want 100", got)
	}
}
