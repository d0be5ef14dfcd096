package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/backend"
	"repro/internal/service"
	"repro/perfbench/loadgen"
	"repro/perfbench/stats"
)

// Load shape for serve on its reference host (2 vCPUs, manthand with
// -concurrency 2 and one engine worker per pool, the load generator on the
// same host), where the rate at the SLO is about 170/s. The fixed rates sit
// at about a sixth and a half of it, and the ladder brackets it. At three
// quarters (120/s) the two server workers and the client contended for the
// two vCPUs often enough to amplify host-speed drift: the server's own
// run_ms p50 spread 21% over ten seeds against 9% in process. The rates
// are constants, not calibrated per run, so two runs offer the same load.
const (
	lowRPS  = 30.0
	highRPS = 90.0
	// ladderPct is the latency percentile the ladder holds to the SLO. Every
	// rung has at least 10/(1-0.90) = 100 requests at its lowest rate.
	ladderPct = 90
	hotSet    = 8 // instances cycled by the hot share of the requests
	// hotEvery sets the hot share: one request in hotEvery. With half of
	// the requests hot, the requests that miss every limit or return a
	// large certificate were 1.2% of a phase, so the high phase's p99 fell
	// on the edge between them and the rest and moved by a third between
	// runs; at one in four they are 1.8%, and the p99 falls among them.
	hotEvery = 4
)

var ladderRPS = []float64{120, 170, 220}

// Share of the measured time spent in each phase; warm-up precedes them.
// At 30 s the high phase sends 1026 requests, enough for a p99 with ten
// samples beyond it.
const (
	warmShare     = 0.04
	lowShare      = 0.20
	highShare     = 0.38
	saturateShare = 0.08
	ladderShare   = 0.30
)

// server is a running manthand child process.
type server struct {
	cmd      *exec.Cmd
	base     string
	done     chan struct{} // closed when stderr is drained (the process exited)
	stopOnce sync.Once

	mu sync.Mutex
	gc []gcLine // from GODEBUG=gctrace=1, traced runs only
}

// gcLine is one gctrace line: when it arrived, stop-the-world pause, and
// heap size at the cycle's start and end.
type gcLine struct {
	at             time.Time
	pauseMS        float64
	startMB, endMB float64
}

// startServer launches manthand on an ephemeral port with every engine pool
// at one worker and deadlines far above the slowest input, and waits until
// /readyz answers.
func startServer(bin string, gctrace bool) (*server, error) {
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-v",
		"-concurrency", strconv.Itoa(runtime.NumCPU()), "-queue", "64",
		"-j", "1", "-pp-workers", "1", "-verify-workers", "1",
		"-default-timeout", callDeadline.String(), "-max-timeout", callDeadline.String())
	cmd.Env = os.Environ()
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go s.readStderr(stderr, addr)
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.done:
		s.stop()
		return nil, fmt.Errorf("%s exited before listening", bin)
	case <-time.After(10 * time.Second):
		s.stop()
		return nil, fmt.Errorf("%s did not report its address", bin)
	}
	for t0 := time.Now(); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(s.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Since(t0) > 10*time.Second {
			s.stop()
			return nil, fmt.Errorf("server at %s not ready: %v", s.base, err)
		}
	}
}

// readStderr forwards the server's address once, keeps gctrace lines, and
// echoes anything else to our stderr.
func (s *server) readStderr(r io.Reader, addr chan<- string) {
	defer close(s.done)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "manthand: serving on http://"); ok {
			a, _, _ := strings.Cut(rest, " ")
			addr <- a
			continue
		}
		if g, ok := parseGCTrace(line); ok {
			g.at = time.Now()
			s.mu.Lock()
			s.gc = append(s.gc, g)
			s.mu.Unlock()
			continue
		}
		if !strings.HasPrefix(line, "manthand: drain") && !strings.HasPrefix(line, "manthand: terminated") {
			fmt.Fprintln(os.Stderr, line)
		}
	}
}

// parseGCTrace reads "gc N @Ts P%: a+b+c ms clock, ..., X->Y->Z MB, ...".
// The pause is the two stop-the-world phases, a and c.
func parseGCTrace(line string) (gcLine, bool) {
	if !strings.HasPrefix(line, "gc ") {
		return gcLine{}, false
	}
	_, rest, ok := strings.Cut(line, "%: ")
	if !ok {
		return gcLine{}, false
	}
	clock, rest, _ := strings.Cut(rest, " ms clock")
	p := strings.Split(clock, "+")
	if len(p) != 3 {
		return gcLine{}, false
	}
	a, err1 := strconv.ParseFloat(p[0], 64)
	c, err2 := strconv.ParseFloat(p[2], 64)
	var g gcLine
	for _, f := range strings.Split(rest, ", ") {
		if h, ok := strings.CutSuffix(f, " MB"); ok && strings.Contains(h, "->") {
			hs := strings.Split(h, "->")
			g.startMB, _ = strconv.ParseFloat(hs[0], 64)
			g.endMB, _ = strconv.ParseFloat(hs[len(hs)-1], 64)
		}
	}
	g.pauseMS = a + c
	return g, err1 == nil && err2 == nil
}

// gcBetween sums the server's GC work between two instants: cycles, pause,
// and an allocation estimate (heap at each cycle's start minus the live
// heap the previous cycle left).
func (s *server) gcBetween(from, to time.Time) memDelta {
	s.mu.Lock()
	defer s.mu.Unlock()
	var m memDelta
	prevEnd := -1.0
	for _, g := range s.gc {
		if g.at.After(from) && !g.at.After(to) {
			m.gcCycles++
			m.pauseMS += g.pauseMS
			if prevEnd >= 0 {
				m.allocMB += g.startMB - prevEnd
			}
		}
		prevEnd = g.endMB
	}
	return m
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// does not exit in time. Later calls do nothing.
func (s *server) stop() {
	s.stopOnce.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(20 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
		_ = s.cmd.Wait() // exit status of a drained server is not a benchmark result
	})
}

func (s *server) statz() (service.Statz, error) {
	var st service.Statz
	resp, err := http.Get(s.base + "/statz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// reqRec is one request's record.
type reqRec struct {
	rec      loadgen.Record
	inst     int
	phase    int
	traced   bool
	outcome  string
	resp     service.Response
	connWait time.Duration
}

// loadPhase is one phase of the serve run: open loop at a fixed rate, or,
// with rate 0, a closed loop in which every connection sends its next
// request as soon as the last one returns (saturation).
type loadPhase struct {
	name string
	rate float64
	d    time.Duration
}

// requestMix picks the instances a phase sends, in a fixed order: every
// hotEvery-th request cycles a fixed hot set (warm verify pools on the
// server), the others walk every instance in index order, more formulas
// than the server's verify cache holds. The order is not shuffled per seed:
// three tier-5 random instances return certificates of 3.6-5.8 MB, and
// each such request occupies both cores for about 200 ms (server rendering
// and encoding, client decoding). A shuffle lets two of them coincide on
// some seeds and not others, which moved a rung's p90 tenfold between
// seeds.
type requestMix struct {
	mu   sync.Mutex
	n, i int
}

func (m *requestMix) next() int {
	defer func() { m.i++ }()
	if m.i%hotEvery == 0 {
		return (m.i / hotEvery % hotSet) * m.n / hotSet
	}
	return (m.i - m.i/hotEvery - 1) % m.n
}

// loadClient sends one request body and decodes the response.
type loadClient struct {
	http   *http.Client
	url    string
	bodies [][]byte
}

func (c *loadClient) do(ctx context.Context, inst int) (out service.Response, outcome string, wait time.Duration, received time.Time) {
	sent := time.Now()
	var gotConn time.Time
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{GotConn: func(httptrace.GotConnInfo) { gotConn = time.Now() }})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(c.bodies[inst]))
	if err != nil {
		return out, "client-error", 0, time.Now()
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return out, "transport-error", 0, time.Now()
	}
	// The response counts as received once its body is read; decoding it
	// happens after the connection is back in the pool.
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	received = time.Now()
	wait = gotConn.Sub(sent)
	if err != nil {
		return out, "transport-error", wait, received
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return out, "transport-error", wait, received
	}
	if out.Outcome == "" {
		return out, fmt.Sprintf("http-%d", resp.StatusCode), wait, received
	}
	return out, out.Outcome, wait, received
}

// serverOutcome reclassifies a non-answer that the server's deadline
// caused. Such a request does not come back as "deadline": the engine turns
// an expired context into a budget outcome, and a request that expires in
// the queue comes back canceled. The client never cancels a request, so a
// canceled outcome, an error naming the deadline, or queue plus run time
// reaching the deadline all mean the deadline decided it.
func serverOutcome(resp service.Response, outcome string) string {
	if decided(outcome) {
		return outcome
	}
	if outcome == backend.OutcomeCanceled || strings.Contains(resp.Error, "deadline") ||
		resp.QueueMS+resp.RunMS >= 0.99*ms(callDeadline) {
		return outcomeDeadline
	}
	return outcome
}

// runServe drives manthand open loop: warm-up, the low and high fixed
// rates, then the capacity ladder.
func runServe(cfg runConfig) (*report, error) {
	ins, srv, setup, err := setUp(cfg,
		func() (*server, error) { return startServer(cfg.manthand, cfg.trace) },
		func(s *server) { s.stop() })
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	bodies := make([][]byte, len(ins))
	for i, in := range ins {
		if bodies[i], err = json.Marshal(service.Request{DQDIMACS: in.text, Spec: cfg.w.spec, TimeoutMS: callDeadline.Milliseconds(), Seed: 1}); err != nil {
			return nil, err
		}
	}
	conns := runtime.NumCPU()
	client := &loadClient{
		http:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}},
		url:    srv.base + "/synthesize",
		bodies: bodies,
	}
	defer client.http.CloseIdleConnections()

	phases := []loadPhase{
		{"warm", lowRPS, scale(cfg.d, warmShare)},
		{"low", lowRPS, scale(cfg.d, lowShare)},
		{"high", highRPS, scale(cfg.d, highShare)},
		{"saturate", 0, scale(cfg.d, saturateShare)},
	}
	for _, r := range ladderRPS {
		phases = append(phases, loadPhase{fmt.Sprintf("ladder-%g", r), r, scale(cfg.d, ladderShare/float64(len(ladderRPS)))})
	}
	mix := &requestMix{n: len(ins)}
	rss := &rssPeaks{pid: srv.cmd.Process.Pid}
	ans := newAnswers(ins)
	// The host's speed is sampled every few milliseconds for as long as
	// requests are sent (see hostspeed.go).
	stopSampling, sampled := make(chan struct{}), make(chan struct{})
	go cfg.host.every(10*time.Millisecond, stopSampling, sampled)
	endSampling := sync.OnceFunc(func() { close(stopSampling); <-sampled })
	defer endSampling()
	var recs []reqRec
	var statzFrom service.Statz
	var from time.Time
	var tracer *tracer
	for pi, ph := range phases {
		if pi == 1 {
			if statzFrom, err = srv.statz(); err != nil {
				return nil, err
			}
			from = time.Now()
			tracer = newTracer(from)
		}
		send := func(ctx context.Context, r *reqRec) (bool, time.Time) {
			resp, outcome, wait, received := client.do(ctx, r.inst)
			outcome = serverOutcome(resp, outcome)
			funcs := strings.Join(resp.Functions, "\n")
			resp.Functions = nil
			r.resp, r.outcome, r.connWait = resp, outcome, wait
			ans.record(r.inst, outcome)
			if outcome == backend.OutcomeOK {
				ans.text(r.inst, funcs)
			}
			return decided(outcome), received
		}
		if pi > 0 {
			if err := rss.start(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var out []reqRec
		if ph.rate == 0 {
			out = saturate(ph.d, conns, mix, send)
		} else {
			n := int(ph.rate * ph.d.Seconds())
			due := loadgen.Arrivals(cfg.seed*1000+int64(pi), n, ph.d)
			out = make([]reqRec, n)
			for i := range out {
				out[i].inst = mix.next()
			}
			lrecs := loadgen.Run(context.Background(), due, func(ctx context.Context, i int) (bool, time.Time) { return send(ctx, &out[i]) })
			for i := range lrecs {
				out[i].rec = lrecs[i]
			}
		}
		// A seeded coin picks the traced requests, so traced and untraced
		// ones get the same hot/walk mix.
		coin := rand.New(rand.NewSource(cfg.seed*1000 + int64(pi)))
		for i := range out {
			out[i].phase, out[i].traced = pi, cfg.trace && coin.Intn(2) == 1
			if pi > 0 && out[i].traced {
				traceRequest(tracer, start, out[i])
			}
		}
		if pi > 0 {
			recs = append(recs, out...)
			if err := rss.end(); err != nil {
				return nil, err
			}
		}
	}
	to := time.Now()
	endSampling()
	statzTo, err := srv.statz()
	if err != nil {
		return nil, err
	}
	srv.stop()

	problems := ans.check()
	checkTimes := ans.checks
	attempted, failed, decFrac := ans.counts()
	fmt.Printf("workload serve: %d requests over %d instances, outcomes %v\n",
		len(recs), len(ins), ans.outcomes)
	rep := &report{attempted: attempted, failed: failed, problems: problems}
	rep.e2e = serveE2E(phases, recs, cfg.w.sloMS, func(r reqRec) bool { return !r.traced }, true)
	rep.e2e["setup_s"] = setup
	rep.e2e["peak_rss_mb"] = stats.Median(rss.peaks)
	rep.e2e["decided_frac"] = decFrac
	if !cfg.trace {
		return rep, nil
	}
	traced := serveE2E(phases, recs, cfg.w.sloMS, func(r reqRec) bool { return r.traced }, false)
	delete(rep.e2e, "setup_s")
	delete(rep.e2e, "peak_rss_mb")
	delete(rep.e2e, "decided_frac")
	printOverhead(rep.e2e, traced)
	for _, d := range checkTimes {
		t0 := tracer.at(time.Now())
		tracer.add(tracer.newTrace(), 0, "dqbf.check", t0, t0+float64(d)/float64(time.Millisecond), 0)
	}
	roots := 0
	var lags []float64
	for _, r := range recs {
		lags = append(lags, r.rec.Lag())
		if r.traced {
			roots++
		}
	}
	st, err := writeTrace(cfg, tracer.spans, roots)
	if err != nil {
		return nil, err
	}
	rep.layers = layerMetrics(st, roots)
	rep.layers["dqbf.check_ms"] = meanMS(checkTimes)
	rep.layers["loadgen.lag_ms"] = stats.Quantile(sortedCopy(lags), 0.99)
	hits := statzTo.Verify.Hits - statzFrom.Verify.Hits
	misses := statzTo.Verify.Misses - statzFrom.Verify.Misses
	rep.layers["service.verify_hit_frac"] = float64(hits) / float64(max(hits+misses, 1))
	rep.layers["service.shed"] = float64(statzTo.Shed - statzFrom.Shed)
	gc := srv.gcBetween(from, to)
	dec := 0
	for _, r := range recs {
		if decided(r.outcome) {
			dec++
		}
	}
	rep.layers["go.alloc_mb_per_verdict"] = gc.allocMB / float64(max(dec, 1))
	rep.layers["go.gc_cycles"] = gc.gcCycles
	rep.layers["go.gc_pause_ms"] = gc.pauseMS
	return rep, nil
}

// saturate runs conns closed-loop senders for d and returns their records;
// each request is due when its sender's previous one returned.
func saturate(d time.Duration, conns int, mix *requestMix, send func(context.Context, *reqRec) (bool, time.Time)) []reqRec {
	var mu sync.Mutex
	var out []reqRec
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				mix.mu.Lock()
				r := reqRec{inst: mix.next()}
				mix.mu.Unlock()
				sent := time.Since(start)
				ok, received := send(context.Background(), &r)
				r.rec = loadgen.Record{Due: sent, Sent: sent, Done: received.Sub(start), OK: ok}
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

func scale(d time.Duration, share float64) time.Duration {
	return time.Duration(float64(d) * share)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// traceRequest lays out one request's spans: the generator's lateness and
// the wait for a connection on the client, then the server's reported
// queue and run times (run holding the engine's phases and the verify
// time), and the rest of the round trip (HTTP, JSON, DQDIMACS parse,
// fingerprint, client decode) as service.http.
func traceRequest(t *tracer, phaseStart time.Time, r reqRec) {
	base := t.at(phaseStart)
	id := t.newTrace()
	due := base + ms(r.rec.Due)
	root := t.add(id, 0, "request", due, base+ms(r.rec.Done), 0)
	if !decided(r.outcome) {
		return
	}
	q := time.Duration(r.resp.QueueMS * float64(time.Millisecond))
	run := time.Duration(r.resp.RunMS * float64(time.Millisecond))
	v := time.Duration(r.resp.VerifyMS * float64(time.Millisecond))
	server := r.rec.Done - r.rec.Sent - r.connWait
	// The server's run_ms covers dispatch, verification and rendering the
	// certificate, so the engine phases and verify are its children.
	var kids []child
	for _, p := range r.resp.Phases {
		kids = append(kids, child{name: "core." + p.Name, d: time.Duration(p.MS * float64(time.Millisecond)), calls: p.OracleCalls})
	}
	kids = append(kids, child{name: "service.verify", d: v})
	t.layout(id, root, due, []child{
		{name: "loadgen.lag", d: r.rec.Sent - r.rec.Due},
		{name: "client.conn_wait", d: r.connWait},
		{name: "service.queue", d: q},
		{name: "service.run", d: run, kids: kids},
		{name: "service.http", d: max(server-q-run, 0)},
	})
}

// serveE2E computes serve's end-to-end metrics over the requests keep
// selects.
func serveE2E(phases []loadPhase, recs []reqRec, slo float64, keep func(reqRec) bool, print bool) map[string]float64 {
	byPhase := make([][]float64, len(phases))
	done := make([]int, len(phases))     // verdicts returned within the phase
	decidedN := make([]int, len(phases)) // verdicts for requests sent in the phase
	lastDone := make([]time.Duration, len(phases))
	perInst := map[int][]float64{}
	var stepRecs = make([][]loadgen.Record, len(phases))
	for _, r := range recs {
		stepRecs[r.phase] = append(stepRecs[r.phase], r.rec)
		if !keep(r) {
			continue
		}
		byPhase[r.phase] = append(byPhase[r.phase], r.rec.Latency())
		if decided(r.outcome) {
			decidedN[r.phase]++
			if r.rec.Done <= phases[r.phase].d {
				done[r.phase]++
			}
		}
		lastDone[r.phase] = max(lastDone[r.phase], r.rec.Done)
		if phases[r.phase].name == "low" || phases[r.phase].name == "high" {
			run := stats.Missed
			if decided(r.outcome) {
				run = r.resp.RunMS
			}
			perInst[r.inst] = append(perInst[r.inst], run)
		}
	}
	out := map[string]float64{}
	verdict := stats.Summarize(stats.PerInstanceBest(perInst))
	out["verdict_p50_ms"], out["verdict_tail_ms"] = verdict.P50, verdict.Tail
	if print {
		printSummary("server run_ms (per-instance fastest)", verdict)
	}
	var ladder []loadgen.Step
	for pi, ph := range phases {
		s := stats.Summarize(byPhase[pi])
		switch {
		case ph.name == "low" || ph.name == "high":
			out["lat_p50_ms."+ph.name], out["lat_tail_ms."+ph.name] = s.P50, s.Tail
			if print {
				printSummary(fmt.Sprintf("latency %s (%g/s)", ph.name, ph.rate), s)
			}
		case ph.rate == 0:
			// Verdicts over the time the phase's requests took to return:
			// counting only those back by the phase's end dropped the
			// work of a large certificate still in flight, about 200 ms
			// of a 2.4 s phase.
			out["verdicts_per_s"] = float64(decidedN[pi]) / lastDone[pi].Seconds()
			if print {
				fmt.Printf("saturation (%d connections, closed loop): %.1f verdicts/s\n", runtime.NumCPU(), out["verdicts_per_s"])
			}
		case strings.HasPrefix(ph.name, "ladder"):
			sorted := sortedCopy(byPhase[pi])
			st := loadgen.Step{
				Rate:    ph.rate,
				Tail:    stats.Quantile(sorted, ladderPct/100.0),
				Backlog: loadgen.BacklogGrows(stepRecs[pi], ph.d, ph.rate, time.Duration(slo*float64(time.Millisecond)), runtime.NumCPU()),
			}
			ladder = append(ladder, st)
			rate := float64(done[pi]) / ph.d.Seconds()
			if print {
				fmt.Printf("ladder %5.0f/s: p%d %8.2f ms, %6.1f verdicts/s, backlog growing %v (n=%d)\n",
					st.Rate, ladderPct, st.Tail, rate, st.Backlog, len(sorted))
			}
		}
	}
	out["max_rate_at_slo"] = loadgen.MaxRate(ladder, slo)
	return out
}
