package main

import (
	"math"
	"testing"

	"repro/internal/backend"
	"repro/internal/service"
)

func TestParseGCTrace(t *testing.T) {
	line := "gc 12 @1.234s 3%: 0.021+1.5+0.034 ms clock, 0.043+0.21/0.9/0.3+0.069 ms cpu, 9->10->4 MB, 10 MB goal, 0 MB stacks, 0 MB globals, 2 P"
	g, ok := parseGCTrace(line)
	if !ok {
		t.Fatal("gctrace line not recognised")
	}
	if math.Abs(g.pauseMS-0.055) > 1e-9 || g.startMB != 9 || g.endMB != 4 {
		t.Fatalf("parsed %+v, want pause 0.055ms and heap 9->4 MB", g)
	}
	if _, ok := parseGCTrace("manthand: serving on http://127.0.0.1:1 (queue 64)"); ok {
		t.Fatal("a non-gctrace line was parsed")
	}
}

// Every phase must send the same instances on every seed: the mix does not
// depend on the seed, and the hot share cycles a fixed set while the walk
// covers every instance in order.
func TestRequestMixIsFixed(t *testing.T) {
	a, b := &requestMix{n: 169}, &requestMix{n: 169}
	hot := map[int]bool{}
	var walk []int
	for i := 0; i < hotEvery*169; i++ {
		x, y := a.next(), b.next()
		if x != y {
			t.Fatalf("request %d: %d vs %d from two identical mixes", i, x, y)
		}
		if i%hotEvery == 0 {
			hot[x] = true
		} else {
			walk = append(walk, x)
		}
	}
	if len(hot) != hotSet {
		t.Fatalf("hot share hit %d instances, want %d", len(hot), hotSet)
	}
	for j, x := range walk {
		if x != j%169 {
			t.Fatalf("walk request %d went to instance %d, want %d", j, x, j%169)
		}
	}
	if len(walk) < 169 {
		t.Fatalf("walk covered %d requests, want at least 169", len(walk))
	}
}

// A request the server's deadline decided must fail the run, whatever
// outcome the server gave it: the engine reports an expired context as a
// budget outcome, and a request that expired in the queue as canceled.
func TestDeadlineOutcomesFailTheRun(t *testing.T) {
	deadline := float64(callDeadline.Milliseconds())
	cases := []struct {
		name string
		resp service.Response
		want string
	}{
		{"budget at the deadline", service.Response{Outcome: backend.OutcomeBudget, QueueMS: 2, RunMS: deadline - 1}, outcomeDeadline},
		{"expired in the queue", service.Response{Outcome: backend.OutcomeCanceled, Error: "context canceled", QueueMS: deadline}, outcomeDeadline},
		{"error names the deadline", service.Response{Outcome: backend.OutcomeBudget, Error: "budget: context deadline exceeded", RunMS: 5}, outcomeDeadline},
		{"repair budget", service.Response{Outcome: backend.OutcomeBudget, Error: "repair budget exhausted", RunMS: 700}, backend.OutcomeBudget},
		{"answer", service.Response{Outcome: backend.OutcomeOK, RunMS: deadline}, backend.OutcomeOK},
	}
	for _, c := range cases {
		got := serverOutcome(c.resp, c.resp.Outcome)
		if got != c.want {
			t.Errorf("%s: outcome %q, want %q", c.name, got, c.want)
		}
		ans := newAnswers([]input{{name: "x"}})
		ans.record(0, got)
		failed := len(ans.check()) > 0
		if failed != (c.want == outcomeDeadline) {
			t.Errorf("%s: run failed = %v, want %v", c.name, failed, c.want == outcomeDeadline)
		}
	}
}
