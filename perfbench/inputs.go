package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/dqbf"
	"repro/internal/gen"
)

// generatorSeed is the internal/gen seed every workload's instances are
// generated at. It is fixed rather than taken from --seed: across generator
// seeds, the number of instances on which manthan3 runs to its repair budget
// changes (28 vs 30 of the 56 fallback-stratum instances at seeds 1 and 2,
// about 0.7 s each), which would swamp any code change. --seed varies the
// order of every pass and the serve arrival schedule instead.
const generatorSeed = 1

// stratum selects generated instances by generator-side properties only:
// a family, the indices whose index%mod == rem, and the range of indices.
// Hardness tiers cycle with the index (tier = 1 + index%5), so mod 5 picks
// one tier and larger multiples of 5 thin it.
type stratum struct {
	fam      gen.Family
	count    int // indices 0..count-1 exist in the family
	mod, rem int
}

func (s stratum) String() string {
	return fmt.Sprintf("%s index%%%d==%d of %d", s.fam, s.mod, s.rem, s.count)
}

// workload describes one benchmark workload's inputs and engine spec.
type workload struct {
	name   string
	spec   string
	strata []stratum
	// sloMS is the latency limit, in ms, that max_rate_at_slo holds the
	// tail to: the call tail in a closed loop, a ladder rung's p90 in serve.
	sloMS float64
}

var synthStrata = []stratum{
	{gen.FamilyRandom, 143, 1, 0},     // every random instance, tiers 1..5
	{gen.FamilyController, 130, 5, 0}, // controller tier 1
}

var workloads = map[string]workload{
	"synth": {name: "synth", spec: "manthan3", strata: synthStrata, sloMS: 100},
	"fallback": {name: "fallback", spec: "fallback:manthan3>expand", sloMS: 5000, strata: []stratum{
		{gen.FamilyEquiv, 150, 10, 0},      // equiv tier 1, every other one
		{gen.FamilyController, 130, 20, 1}, // controller tier 2, every fourth one
		{gen.FamilySAT2DQBF, 140, 4, 0},    // sat2dqbf, every fourth one
	}},
	"serve": {name: "serve", spec: "manthan3", strata: synthStrata, sloMS: 50},
}

// input is one generated instance as the program sees it: DQDIMACS text.
type input struct {
	name  string
	known gen.Truth
	text  string
	sum   string // SHA-256 of text, hex
}

// generate renders the workload's instances in stratum order.
func generate(w workload) ([]input, error) {
	var out []input
	for _, s := range w.strata {
		for i := s.rem; i < s.count; i += s.mod {
			n := gen.Generate(s.fam, i, generatorSeed)
			var sb strings.Builder
			if err := dqbf.WriteDQDIMACS(&sb, n.DQBF); err != nil {
				return nil, fmt.Errorf("rendering %s: %w", n.Name, err)
			}
			h := sha256.Sum256([]byte(sb.String()))
			out = append(out, input{name: n.Name, known: n.Known, text: sb.String(), sum: hex.EncodeToString(h[:])})
		}
	}
	return out, nil
}

// manifestEntry records one workload's selection rule and the identity of
// every instance it rendered.
type manifestEntry struct {
	Rule          string      `json:"rule"`
	GeneratorSeed int64       `json:"generator_seed"`
	Instances     [][2]string `json:"instances"` // name, sha256
}

func rule(w workload) string {
	parts := make([]string, len(w.strata))
	for i, s := range w.strata {
		parts[i] = s.String()
	}
	return "spec " + w.spec + "; " + strings.Join(parts, "; ")
}

func manifestFor(w workload, ins []input) manifestEntry {
	e := manifestEntry{Rule: rule(w), GeneratorSeed: generatorSeed}
	for _, in := range ins {
		e.Instances = append(e.Instances, [2]string{in.name, in.sum})
	}
	return e
}

// checkManifest fails when the regenerated inputs differ from the recorded
// ones: a silent internal/gen change would otherwise change what every
// later comparison measures.
func checkManifest(path string, w workload, ins []input) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading input manifest: %w", err)
	}
	var m map[string]manifestEntry
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("decoding input manifest %s: %w", path, err)
	}
	want, ok := m[w.name]
	if !ok {
		return fmt.Errorf("input manifest %s has no workload %q", path, w.name)
	}
	got := manifestFor(w, ins)
	if got.Rule != want.Rule || got.GeneratorSeed != want.GeneratorSeed {
		return fmt.Errorf("workload %s: selection rule %q (seed %d) differs from the manifest's %q (seed %d)",
			w.name, got.Rule, got.GeneratorSeed, want.Rule, want.GeneratorSeed)
	}
	if len(got.Instances) != len(want.Instances) {
		return fmt.Errorf("workload %s: %d instances generated, manifest has %d",
			w.name, len(got.Instances), len(want.Instances))
	}
	for i := range got.Instances {
		if got.Instances[i] != want.Instances[i] {
			return fmt.Errorf("workload %s: instance %d is %s %s, manifest has %s %s (internal/gen output changed)",
				w.name, i, got.Instances[i][0], got.Instances[i][1], want.Instances[i][0], want.Instances[i][1])
		}
	}
	return nil
}

// writeManifest regenerates the manifest for every workload.
func writeManifest(path string) error {
	m := make(map[string]manifestEntry)
	for name, w := range workloads {
		ins, err := generate(w)
		if err != nil {
			return err
		}
		m[name] = manifestFor(w, ins)
	}
	raw, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
