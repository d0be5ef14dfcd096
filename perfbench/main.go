// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the program's public entry points, checks every answer,
// and prints one JSON result as the last line of standard output:
//
//	go build -o perfbench . && ./perfbench --workload synth --seed 1 --seconds 30 --trace 0
//
// run.sh builds it and cmd/manthand from source and runs it from the
// repository root. See README.md for the workloads, metrics and the
// noise findings behind their design.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/perfbench/stats"

	_ "repro/internal/baselines/expand"
	_ "repro/internal/core"
)

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 15

// manifestPath is the input manifest, relative to the repository root the
// benchmark runs from.
var manifestPath = filepath.Join("perfbench", "manifest.json")

// metric units, by metric name.
var e2eUnits = map[string]string{
	"setup_s":          "s",
	"decided_frac":     "frac",
	"verdicts_per_s":   "1/s",
	"verdict_p50_ms":   "ms",
	"verdict_tail_ms":  "ms",
	"lat_p50_ms.low":   "ms",
	"lat_tail_ms.low":  "ms",
	"lat_p50_ms.high":  "ms",
	"lat_tail_ms.high": "ms",
	"max_rate_at_slo":  "1/s",
	"peak_rss_mb":      "MB",
}

var layerUnits = map[string]string{
	"dqbf.parse_ms":               "ms",
	"core.preprocess_ms":          "ms",
	"core.sample_ms":              "ms",
	"core.learn_ms":               "ms",
	"core.verify-repair_ms":       "ms",
	"core.preprocess_calls":       "count",
	"core.sample_calls":           "count",
	"core.verify-repair_calls":    "count",
	"backend.dispatch_self_ms":    "ms",
	"backend.attempt.manthan3_ms": "ms",
	"backend.attempt.expand_ms":   "ms",
	"expand.expand_ms":            "ms",
	"expand.solve_ms":             "ms",
	"expand.extract_ms":           "ms",
	"dqbf.check_ms":               "ms",
	"go.alloc_mb_per_verdict":     "MB",
	"go.gc_cycles":                "count",
	"go.gc_pause_ms":              "ms",
	"service.queue_ms":            "ms",
	"service.run_ms":              "ms",
	"service.verify_ms":           "ms",
	"service.http_ms":             "ms",
	"service.verify_hit_frac":     "frac",
	"service.shed":                "count",
	"loadgen.lag_ms":              "ms",
	"client.conn_wait_ms":         "ms",
}

// report is what a workload run hands back to main.
type report struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int
	failed    int
	problems  []string
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "synth", "workload: synth, fallback or serve")
	seed := flag.Int64("seed", 1, "workload seed: pass order and arrival schedule")
	seconds := flag.Int("seconds", 30, "measured time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	manthand := flag.String("manthand", filepath.Join(".bench_build", "bin", "manthand"), "manthand binary (serve)")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span files and self-time tables")
	writeMan := flag.Bool("write-manifest", false, "regenerate the input manifest and exit")
	flag.Parse()

	if *writeMan {
		if err := writeManifest(manifestPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg := runConfig{
		w: w, seed: *seed, d: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		manthand:  *manthand,
		host:      newHostSpeed(),
		outPrefix: filepath.Join(*outDir, fmt.Sprintf("%s-seed%d", w.name, *seed)),
	}
	var rep *report
	var err error
	if w.name == "serve" {
		rep, err = runServe(cfg)
	} else {
		rep, err = runClosedWorkload(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	f := cfg.host.factor()
	fmt.Printf("host speed: fastest of %d kernel slices %.4f ms (reference %.3f ms); times above are as measured, in the result times are x%.4f and rates /%.4f\n",
		cfg.host.n, cfg.host.best, refSliceMS, f, f)
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", p)
	}
	out := resultOut{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricOut{}}
	units, vals := e2eUnits, rep.e2e
	if cfg.trace {
		units, vals = layerUnits, rep.layers
	}
	for k, u := range units {
		v := vals[k]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", k, v)
			out.Correct = false
			v = -1
		}
		out.Metrics[k] = metricOut{Value: atReferenceSpeed(v, u, f), Unit: u}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(raw))
	if !out.Correct {
		return 1
	}
	return 0
}

// runConfig carries one run's settings.
type runConfig struct {
	w         workload
	seed      int64
	d         time.Duration
	trace     bool
	manthand  string
	outPrefix string
	host      *hostSpeed
}

// setUp generates and checks the inputs setupReps times, running extra
// after each (for serve: start the server), and returns the inputs, the
// last repetition's extra, and the median set-up time in seconds. Earlier
// repetitions' extras are released with drop.
func setUp[T any](cfg runConfig, extra func() (T, error), drop func(T)) ([]input, T, float64, error) {
	var ins []input
	var last T
	var times []float64
	for k := 0; k < setupReps; k++ {
		runtime.GC() // each repetition starts on a collected heap
		t0 := time.Now()
		var err error
		if ins, err = generate(cfg.w); err != nil {
			return nil, last, 0, err
		}
		if err := checkManifest(manifestPath, cfg.w, ins); err != nil {
			return nil, last, 0, err
		}
		x, err := extra()
		if err != nil {
			return nil, last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if k < setupReps-1 {
			drop(x)
		} else {
			last = x
		}
	}
	return ins, last, stats.Median(times), nil
}

// atReferenceSpeed scales a metric measured on this run's host to the
// reference host's speed (see hostspeed.go): times by f, rates by 1/f.
// Counts, fractions and sizes are left as measured.
func atReferenceSpeed(v float64, unit string, f float64) float64 {
	switch unit {
	case "ms", "s":
		return v * f
	case "1/s":
		return v / f
	}
	return v
}

// printSummary prints a latency summary with its sample count.
func printSummary(label string, s stats.Summary) {
	fmt.Printf("%-34s p50 %9.3f ms  p%d %9.3f ms  (n=%d, %d beyond the tail, %d missed)\n",
		label, s.P50, s.TailPct, s.Tail, s.N, s.N-int(math.Ceil(float64(s.TailPct)*float64(s.N)/100-1e-9)), s.Missed)
}

// printOverhead prints traced against untraced end-to-end numbers.
func printOverhead(untraced, traced map[string]float64) {
	fmt.Println("tracing overhead (same run, untraced vs traced samples):")
	keys := make([]string, 0, len(untraced))
	for k := range untraced {
		if _, ok := traced[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		u, t := untraced[k], traced[k]
		fmt.Printf("  %-20s untraced %12.4f  traced %12.4f  diff %+7.2f%%\n", k, u, t, 100*(t-u)/u)
	}
}
