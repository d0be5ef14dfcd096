package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/dqbf"
	"repro/perfbench/stats"
)

// callDeadline is far above the slowest input (about 1.5 s); a call that
// reaches it makes the run invalid rather than a data point.
const callDeadline = 60 * time.Second

// engineOpts pins every engine-internal pool to one worker, so which solver
// serves a query, and so the work done, depends on the input alone.
var engineOpts = backend.Options{Seed: 1, Workers: 1, PreprocWorkers: 1, VerifyWorkers: 1}

// callRec is one closed-loop call: parse the DQDIMACS text, then dispatch.
type callRec struct {
	start    time.Time
	inst     int
	pass     int
	traced   bool
	parse    time.Duration
	dispatch time.Duration
	outcome  string
}

func (c callRec) latencyMS() float64 { return float64(c.parse+c.dispatch) / float64(time.Millisecond) }

// closedRun is what a closed-loop run leaves for checking and metrics.
type closedRun struct {
	calls      []callRec
	fullPasses int
	passPeaks  []float64 // the program's peak RSS over each pass, in MiB
	checkPeak  float64   // the correctness check's peak RSS, in MiB
	answers    *answers
	tr         *tracer
	mem        memDelta // over the timed calls only
	elapsed    time.Duration
}

// runClosed drives one caller through seeded-order passes over the inputs
// until d has elapsed, finishing the call in flight. A warm-up of one pass
// or a tenth of d, whichever ends first, precedes the timed passes; its
// answers are checked but not measured. With trace set, every odd pass is
// traced so the run also measures tracing's own cost.
//
// Every call starts on a collected heap, so no call pays for the garbage of
// another. The Go runtime figures are read around each call alone. The
// returned vectors are checked after each pass, outside the pass's peak
// RSS, and the check's memory is then returned to the OS: the check's own
// peak is above the program's on synth, and its pages would otherwise stay
// in the RSS the next pass reads. After each call, host samples the host's
// speed (see hostspeed.go).
func runClosed(w workload, ins []input, seed int64, d time.Duration, trace bool, host *hostSpeed) (*closedRun, error) {
	be, err := backend.Resolve(w.spec)
	if err != nil {
		return nil, err
	}
	run := &closedRun{answers: newAnswers(ins)}
	type unchecked struct {
		i  int
		fv *dqbf.FuncVector
	}
	var pending []unchecked
	// checked runs one call, records its outcome and keeps its vector for
	// the check; with measure set, the call's memory work is recorded.
	checked := func(i int, measure bool) (callRec, *backend.Result, error) {
		runtime.GC()
		m0 := readMem()
		c, res, err := call(be, ins[i].text)
		m1 := readMem()
		if err != nil {
			return c, nil, fmt.Errorf("%s: %w", ins[i].name, err)
		}
		if measure {
			run.mem = run.mem.add(m1.sub(m0))
		}
		c.inst = i
		run.answers.record(i, c.outcome)
		if res != nil {
			pending = append(pending, unchecked{i, res.Vector})
		}
		host.sample(4)
		return c, res, nil
	}
	// checkPending verifies the vectors kept since the last check and
	// records the check's peak RSS.
	pid := os.Getpid()
	checkPending := func() error {
		if err := resetPeakRSS(pid); err != nil {
			return err
		}
		for _, p := range pending {
			run.answers.vector(p.i, p.fv)
		}
		pending = pending[:0]
		peak, err := peakRSSMB(pid)
		run.checkPeak = max(run.checkPeak, peak)
		debug.FreeOSMemory()
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	warm := time.Now()
	for _, i := range rng.Perm(len(ins)) {
		if time.Since(warm) >= d/10 {
			break
		}
		if _, _, err := checked(i, false); err != nil {
			return nil, err
		}
	}
	if err := checkPending(); err != nil {
		return nil, err
	}
	start := time.Now()
	run.tr = newTracer(start)
	for pass := 0; time.Since(start) < d; pass++ {
		traced := trace && pass%2 == 1
		complete := true
		if err := resetPeakRSS(pid); err != nil {
			return nil, err
		}
		for _, i := range rng.Perm(len(ins)) {
			if time.Since(start) >= d {
				complete = false
				break
			}
			c, res, err := checked(i, true)
			if err != nil {
				return nil, err
			}
			c.pass, c.traced = pass, traced
			if traced {
				t0 := run.tr.at(c.start)
				id := run.tr.newTrace()
				root := run.tr.add(id, 0, "call", t0, t0+c.latencyMS(), 0)
				run.tr.layout(id, root, t0, []child{
					{name: "dqbf.parse", d: c.parse},
					{name: "backend.dispatch", d: c.dispatch, kids: dispatchChildren(w.spec, res)},
				})
			}
			run.calls = append(run.calls, c)
		}
		peak, err := peakRSSMB(pid)
		if err != nil {
			return nil, err
		}
		run.passPeaks = append(run.passPeaks, peak)
		if err := checkPending(); err != nil {
			return nil, err
		}
		if complete {
			run.fullPasses++
		}
	}
	run.elapsed = time.Since(start)
	return run, nil
}

// call parses and dispatches one instance. A returned error means the
// benchmark itself cannot go on (unparseable input); engine outcomes are
// classified into the record.
func call(be backend.Backend, text string) (callRec, *backend.Result, error) {
	t0 := time.Now()
	in, err := dqbf.ParseDQDIMACS(strings.NewReader(text))
	t1 := time.Now()
	if err != nil {
		return callRec{}, nil, fmt.Errorf("parsing generated input: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), callDeadline)
	res, err := be.Synthesize(ctx, in, engineOpts)
	t2 := time.Now()
	outcome := backend.Classify(err)
	if ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) {
		outcome = outcomeDeadline
	}
	cancel()
	return callRec{start: t0, parse: t1.Sub(t0), dispatch: t2.Sub(t1), outcome: outcome}, res, nil
}

// runClosedWorkload runs synth or fallback and reduces it to metrics.
func runClosedWorkload(cfg runConfig) (*report, error) {
	none := func() (struct{}, error) { return struct{}{}, nil }
	ins, _, setup, err := setUp(cfg, none, func(struct{}) {})
	if err != nil {
		return nil, err
	}
	run, err := runClosed(cfg.w, ins, cfg.seed, cfg.d, cfg.trace, cfg.host)
	if err != nil {
		return nil, err
	}
	problems := run.answers.check()
	checkTimes := run.answers.checks
	attempted, failed, decFrac := run.answers.counts()
	fmt.Printf("workload %s: %d calls over %d instances in %.1fs, outcomes %v\n",
		cfg.w.name, len(run.calls), len(ins), run.elapsed.Seconds(), run.answers.outcomes)

	rep := &report{attempted: attempted, failed: failed, problems: problems}
	rep.e2e = closedE2E(cfg.w, run, func(c callRec) bool { return !c.traced }, true)
	rep.e2e["setup_s"] = setup
	rep.e2e["decided_frac"] = decFrac
	rep.e2e["peak_rss_mb"] = stats.Median(run.passPeaks)
	fmt.Printf("peak RSS: program %.1f MiB (median over %d passes), correctness check %.1f MiB (highest)\n",
		rep.e2e["peak_rss_mb"], len(run.passPeaks), run.checkPeak)
	if !cfg.trace {
		return rep, nil
	}
	printOverhead(rep.e2e, closedE2E(cfg.w, run, func(c callRec) bool { return c.traced }, false))
	for _, d := range checkTimes {
		// Checks run after the timed region; each is its own trace.
		t0 := run.tr.at(time.Now())
		run.tr.add(run.tr.newTrace(), 0, "dqbf.check", t0, t0+float64(d)/float64(time.Millisecond), 0)
	}
	roots := 0
	for _, c := range run.calls {
		if c.traced {
			roots++
		}
	}
	st, err := writeTrace(cfg, run.tr.spans, roots)
	if err != nil {
		return nil, err
	}
	rep.layers = layerMetrics(st, roots)
	rep.layers["dqbf.check_ms"] = meanMS(checkTimes)
	rep.layers["go.alloc_mb_per_verdict"] = run.mem.allocMB / float64(max(verdicts(run.calls), 1))
	rep.layers["go.gc_cycles"] = run.mem.gcCycles
	rep.layers["go.gc_pause_ms"] = run.mem.pauseMS
	return rep, nil
}

// closedE2E computes the end-to-end metrics over the calls keep selects,
// from complete passes only (when there is one), so every instance has the
// same number of samples. Each instance is reduced to its fastest call
// (stats.PerInstanceBest); an instance that gave no verdict on some call
// misses every verdict limit. verdict_* are the median and tail over
// instances, and verdicts_per_s is one pass over the input set at those
// per-instance times. In a one-caller closed loop the offered rate is the
// completion rate, so there is a single load level: lat_*.low and
// lat_*.high are the same distribution, every call's time whatever its
// outcome, and max_rate_at_slo is the call rate, scaled down by how far the
// call tail misses the workload's latency limit if it does.
func closedE2E(w workload, run *closedRun, keep func(callRec) bool, print bool) map[string]float64 {
	verdictMS := map[int][]float64{} // Missed for a call that gave no verdict
	callMS := map[int][]float64{}
	for _, c := range run.calls {
		if !keep(c) || (c.pass >= run.fullPasses && run.fullPasses > 0) {
			continue
		}
		lat := stats.Missed
		if decided(c.outcome) {
			lat = c.latencyMS()
		}
		verdictMS[c.inst] = append(verdictMS[c.inst], lat)
		callMS[c.inst] = append(callMS[c.inst], c.latencyMS())
	}
	best := stats.PerInstanceBest(callMS)
	var passMS float64
	for _, m := range best {
		passMS += m
	}
	verdictBest := stats.PerInstanceBest(verdictMS)
	undecided := 0
	for _, v := range verdictBest {
		if math.IsInf(v, 1) {
			undecided++
		}
	}
	verdict := stats.Summarize(verdictBest)
	lat := stats.Summarize(best)
	rate := 1000 * float64(len(best)) / passMS
	if lat.Tail > w.sloMS {
		rate *= w.sloMS / lat.Tail
	}
	if print {
		printSummary("verdict (per-instance fastest)", verdict)
		printSummary("call (per-instance fastest)", lat)
	}
	return map[string]float64{
		"verdicts_per_s":   1000 * float64(len(best)-undecided) / passMS,
		"verdict_p50_ms":   verdict.P50,
		"verdict_tail_ms":  verdict.Tail,
		"lat_p50_ms.low":   lat.P50,
		"lat_tail_ms.low":  lat.Tail,
		"lat_p50_ms.high":  lat.P50,
		"lat_tail_ms.high": lat.Tail,
		"max_rate_at_slo":  rate,
	}
}

func verdicts(calls []callRec) int {
	n := 0
	for _, c := range calls {
		if decided(c.outcome) {
			n++
		}
	}
	return n
}

func meanMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / float64(time.Millisecond)
}

// writeTrace writes the span file and self-time table for a traced run and
// returns the per-layer self times.
func writeTrace(cfg runConfig, spans []span, roots int) (map[string]*layerStat, error) {
	if err := writeSpans(cfg.outPrefix+"-spans.jsonl", spans); err != nil {
		return nil, err
	}
	st := selfTimes(spans)
	f, err := os.Create(cfg.outPrefix + "-selftime.txt")
	if err != nil {
		return nil, err
	}
	writeSelfTable(io.MultiWriter(f, os.Stdout), st, roots)
	if err := f.Close(); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %s-spans.jsonl (%d spans, %d traced roots)\n", cfg.outPrefix, len(spans), roots)
	return st, nil
}

// layerMetrics turns self times into per-root per-layer metrics. Every
// per-layer metric is present; a layer the workload does not run reads 0.
func layerMetrics(st map[string]*layerStat, roots int) map[string]float64 {
	out := make(map[string]float64, len(layerUnits))
	for k := range layerUnits {
		out[k] = 0
	}
	r := float64(max(roots, 1))
	for name, s := range st {
		if _, ok := layerUnits[name+"_ms"]; ok {
			out[name+"_ms"] = s.self / r
		}
		if _, ok := layerUnits[name+"_calls"]; ok {
			out[name+"_calls"] = float64(s.calls) / r
		}
	}
	if s := st["backend.dispatch"]; s != nil {
		out["backend.dispatch_self_ms"] = s.self / r
	}
	return out
}
