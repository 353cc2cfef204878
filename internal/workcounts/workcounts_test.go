// Package workcounts_test pins the repository's deterministic work counts in
// tier-1. Its test replays fixed inputs on a fresh engine — the formula
// universe through compile, classify and probe, the verify-protocols
// pairs, and a fixed containment, equivalence and emptiness sample — and
// compares each replay's counter deltas with testdata/work_counts.txt.
// The package holds nothing else, so no other test in its process moves
// the process-wide counters it reads. Regenerate the file deliberately,
// in a commit of its own, with
//
//	go test ./internal/workcounts -update
package workcounts_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/ltl"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/work_counts.txt from the current code")

// counters are the pinned work counts: construction sizes, decomposition
// work, refinement rounds and the engine's memo traffic.
var counters = []string{
	"compile.past2dfa.states",
	"core.compile_clause.calls",
	"autkern.scc.runs",
	"autkern.scc.nodes",
	"omega.product.states",
	"omega.lazy.states_materialized",
	"mc.lazy.nodes_materialized",
	"mc.refine.rounds",
	"engine.cache.hits",
	"engine.cache.misses",
}

// counts reads the pinned counters and the refinement-size histogram.
func counts() map[string]int64 {
	reg := obs.Default()
	out := map[string]int64{}
	for _, name := range counters {
		out[name] = reg.Counter(name).Value()
	}
	h := reg.Histogram("mc.refine.component_size")
	out["mc.refine.component_size.count"] = h.Count()
	out["mc.refine.component_size.sum"] = h.Sum()
	return out
}

// classifyFormulas is how many formulas of the universe the classify
// replay sends, the first classify-cold requests.
const classifyFormulas = 500

// replayClassify compiles, classifies and probes each formula of the
// universe, as temporald's /classify does.
func replayClassify(t *testing.T, ctx context.Context, eng *engine.Engine) {
	for _, text := range gen.FormulaUniverse(classifyFormulas) {
		f := ltl.MustParse(text)
		a, err := eng.CompileFormula(ctx, f, nil)
		if err != nil {
			t.Fatalf("compile %s: %v", text, err)
		}
		if _, err := eng.ClassifyAutomaton(ctx, a); err != nil {
			t.Fatalf("classify %s: %v", text, err)
		}
		if _, _, err := eng.PlanAutomaton(ctx, a); err != nil {
			t.Fatalf("probe %s: %v", text, err)
		}
	}
}

// replayVerify model-checks every verify-protocols pair and checks its
// known verdict.
func replayVerify(t *testing.T, ctx context.Context, eng *engine.Engine) {
	for _, p := range gen.Protocols() {
		for _, spec := range p.Specs {
			v, err := eng.Check(ctx, engine.CheckRequest{Kind: engine.CheckVerify, System: p.Sys, Formula: ltl.MustParse(spec.Formula)})
			if err != nil {
				t.Fatalf("%s ⊨ %s: %v", p.Name, spec.Formula, err)
			}
			if v.Holds != spec.Holds {
				t.Fatalf("%s ⊨ %s = %v, known verdict %v", p.Name, spec.Formula, v.Holds, spec.Holds)
			}
		}
	}
}

// replayCheck runs a fixed sample of planner queries over formulas of the
// universe: containments of consecutive formulas, equivalences of each
// formula with its double negation and with its successor, and the
// emptiness of formulas and of their conjunctions with a negated
// neighbour.
func replayCheck(t *testing.T, ctx context.Context, eng *engine.Engine) {
	u := gen.FormulaUniverse(120)
	f := func(i int) ltl.Formula { return ltl.MustParse(u[i]) }
	var reqs []engine.CheckRequest
	for i := 0; i < 40; i++ {
		reqs = append(reqs, engine.CheckRequest{Kind: engine.CheckContains, LeftFormula: f(2 * i), RightFormula: f(2*i + 1)})
	}
	for i := 80; i < 100; i++ {
		reqs = append(reqs,
			engine.CheckRequest{Kind: engine.CheckEquivalent, LeftFormula: f(i), RightFormula: ltl.Not{F: ltl.Not{F: f(i)}}},
			engine.CheckRequest{Kind: engine.CheckEquivalent, LeftFormula: f(i), RightFormula: f(i + 1)})
	}
	for i := 100; i < 120; i++ {
		reqs = append(reqs,
			engine.CheckRequest{Kind: engine.CheckEmptiness, LeftFormula: f(i)},
			engine.CheckRequest{Kind: engine.CheckEmptiness, LeftFormula: ltl.And{L: f(i), R: ltl.Not{F: f(i - 1)}}})
	}
	for i, req := range reqs {
		req.Props = gen.UniverseProps
		if _, err := eng.Check(ctx, req); err != nil {
			t.Fatalf("check %d: %v", i, err)
		}
	}
}

// TestWorkCounts replays each input set on a fresh engine and compares
// the counter deltas it causes with the pinned file.
func TestWorkCounts(t *testing.T) {
	ctx := context.Background()
	replays := []struct {
		name string
		run  func(*testing.T, context.Context, *engine.Engine)
	}{
		{"classify", replayClassify},
		{"verify", replayVerify},
		{"check", replayCheck},
	}
	var b bytes.Buffer
	for _, r := range replays {
		before := counts()
		r.run(t, ctx, engine.New())
		after := counts()
		names := append(append([]string(nil), counters...), "mc.refine.component_size.count", "mc.refine.component_size.sum")
		for _, name := range names {
			fmt.Fprintf(&b, "%s\t%s\t%d\n", r.name, name, after[name]-before[name])
		}
	}
	path := filepath.Join("testdata", "work_counts.txt")
	got := b.Bytes()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	var diff []string
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			diff = append(diff, fmt.Sprintf("  got %q, pinned %q", g, w))
		}
	}
	t.Fatalf("work counts moved from %s:\n%s", path, strings.Join(diff, "\n"))
}
