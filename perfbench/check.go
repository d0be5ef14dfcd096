package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/boolfunc"
	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/gen"
)

// outcomeDeadline marks a call or request that ended because it reached a
// wall-clock deadline. Deadlines are set far above the slowest input, so
// such an outcome means the host, not the work, decided it: the run is
// invalid.
const outcomeDeadline = "deadline"

// answers is the correctness gate. It re-verifies every vector with
// dqbf.VerifyVector outside the timed region and cross-checks verdicts per
// instance. It keeps no parsed instance between checks: each check parses
// the instance's text afresh. It is safe for concurrent use.
type answers struct {
	mu        sync.Mutex
	ins       []input
	texts     []map[string]bool // serve: distinct function texts, checked at the end
	valid     []int             // verified vectors per instance
	falses    []int
	attempted []bool
	undecided []bool // some attempt on the instance was not a verdict
	outcomes  map[string]int
	problems  []string
	checks    []time.Duration // one per VerifyVector call, parse included
}

func newAnswers(ins []input) *answers {
	n := len(ins)
	a := &answers{ins: ins, texts: make([]map[string]bool, n),
		valid: make([]int, n), falses: make([]int, n), attempted: make([]bool, n), undecided: make([]bool, n),
		outcomes: map[string]int{}}
	for i := range ins {
		a.texts[i] = map[string]bool{}
	}
	return a
}

// record notes one outcome for instance i.
func (a *answers) record(i int, outcome string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.outcomes[outcome]++
	a.attempted[i] = true
	switch {
	case outcome == backend.OutcomeFalse:
		a.falses[i]++
	case !decided(outcome):
		a.undecided[i] = true
	}
}

// text keeps a returned certificate text for checking at the end; identical
// texts for one instance are checked once.
func (a *answers) text(i int, text string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.texts[i][text] = true
}

// vector verifies a returned vector for instance i. In process it runs
// right after the call, on the vector itself: rendering it to text first
// is not an option, as some vectors print to hundreds of megabytes.
func (a *answers) vector(i int, fv *dqbf.FuncVector) {
	t0 := time.Now()
	in, err := dqbf.ParseDQDIMACS(strings.NewReader(a.ins[i].text))
	var vr dqbf.VerifyResult
	if err == nil {
		vr, err = dqbf.VerifyVector(in, fv, -1)
	}
	d := time.Since(t0)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.checks = append(a.checks, d)
	switch {
	case err != nil:
		a.problems = append(a.problems, fmt.Sprintf("%s: vector rejected: %v", a.ins[i].name, err))
	case !vr.Valid:
		a.problems = append(a.problems, fmt.Sprintf("%s: vector is not a Henkin function vector", a.ins[i].name))
	default:
		a.valid[i]++
	}
}

// decided reports whether an outcome answers the instance.
func decided(outcome string) bool {
	return outcome == backend.OutcomeOK || outcome == backend.OutcomeFalse
}

// gaveUp reports a documented non-answer decided by the work itself: the
// repair-iteration or conflict budget, or the engine's incompleteness.
func gaveUp(outcome string) bool {
	switch outcome {
	case backend.OutcomeBudget, backend.OutcomeIncomplete, backend.OutcomeTooLarge, backend.OutcomeUnsupported:
		return true
	}
	return false
}

// counts returns attempted and failed over every recorded outcome (failed:
// neither a verdict nor a documented give-up), and decided_frac: the share
// of attempted instances whose every attempt was a verdict. A per-instance
// share does not depend on how many passes fit in the run.
func (a *answers) counts() (attempted, failed int, decidedFrac float64) {
	for o, n := range a.outcomes {
		attempted += n
		if !decided(o) && !gaveUp(o) {
			failed += n
		}
	}
	var tried, dec int
	for i := range a.ins {
		if a.attempted[i] {
			tried++
			if !a.undecided[i] {
				dec++
			}
		}
	}
	return attempted, failed, float64(dec) / float64(max(tried, 1))
}

// check verifies the kept certificate texts after re-parsing them with
// boolfunc.Parse, then cross-checks the verdicts. It returns every problem
// found during the run.
func (a *answers) check() []string {
	for i := range a.ins {
		for text := range a.texts[i] {
			fv, err := parseFunctions(text)
			if err != nil {
				a.problems = append(a.problems, fmt.Sprintf("%s: returned functions do not parse: %v", a.ins[i].name, err))
				continue
			}
			a.vector(i, fv)
		}
	}
	if n := a.outcomes[outcomeDeadline]; n > 0 {
		a.problems = append(a.problems, fmt.Sprintf("%d outcomes were caused by a deadline; the run is invalid", n))
	}
	for i, in := range a.ins {
		if a.falses[i] > 0 && in.known == gen.TruthTrue {
			a.problems = append(a.problems, fmt.Sprintf("%s: planted True but answered False", in.name))
		}
		if a.falses[i] > 0 && a.valid[i] > 0 {
			a.problems = append(a.problems, fmt.Sprintf("%s: answered False, contradicted by a verified vector", in.name))
		}
	}
	return a.problems
}

// parseFunctions reads "[v ]y<N> := <expr>" lines with boolfunc.Parse. It
// does not use dqbf.ParseCertificate, whose line scanner stops at 4 MiB:
// rendered functions of some tier-5 random instances are longer.
func parseFunctions(text string) (*dqbf.FuncVector, error) {
	fv := dqbf.NewFuncVector(nil)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		name, expr, ok := strings.Cut(strings.TrimPrefix(strings.TrimSpace(line), "v "), ":=")
		if !ok {
			return nil, fmt.Errorf("line %.40q: missing ':='", line)
		}
		v, err := strconv.Atoi(strings.TrimPrefix(strings.TrimSpace(name), "y"))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad variable %q", name)
		}
		f, err := boolfunc.Parse(fv.B, strings.TrimSpace(expr))
		if err != nil {
			return nil, fmt.Errorf("y%d: %w", v, err)
		}
		if _, dup := fv.Funcs[cnf.Var(v)]; dup {
			return nil, fmt.Errorf("duplicate function for y%d", v)
		}
		fv.Funcs[cnf.Var(v)] = f
	}
	return fv, nil
}
