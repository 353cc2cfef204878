package mc_test

// Golden-trace suite: the verdict and counterexample lasso of every
// (system, spec) pair of the verify-protocols systems, and the path the
// invariant checker returns on every □χ spec, are pinned byte for byte
// in testdata/golden_traces.txt. A change to what the search costs must
// leave every verdict and trace unchanged. Regenerate deliberately, and
// review the diff, with
//
//	go test ./internal/mc -run GoldenTraces -update

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/ltl"
	"repro/internal/mc"
	"repro/internal/ts"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_traces.txt from the current checker")

const goldenTracesFile = "golden_traces.txt"

type goldenSystem struct {
	name  string
	sys   *ts.System
	specs []ts.ScenarioSpec
}

// violatedInvariants are two invariants each system breaks, so the
// golden file also pins violation paths (every □χ scenario spec holds).
var violatedInvariants = map[string][]string{
	"RingMutex(6,strong)": {"G !c0", "G (w0 -> c0)"},
	"RingMutex(8,strong)": {"G !c0", "G (w0 -> c0)"},
	"RingMutex(8,weak)":   {"G !c0", "G (w0 -> c0)"},
	"LeaderElection(5)":   {"G !leader4", "G !passive0"},
	"LeaderElection(6)":   {"G !leader5", "G !passive0"},
	"CacheCoherence(4)":   {"G !m0", "G (rd0 -> s0)"},
	"CacheCoherence(5)":   {"G !m0", "G (rd0 -> s0)"},
}

// goldenSystems builds the seven verify-protocols systems with their
// scenario specs plus two violated invariants per system.
func goldenSystems() []goldenSystem {
	var out []goldenSystem
	for _, p := range gen.Protocols() {
		specs := append([]ts.ScenarioSpec(nil), p.Specs...)
		for _, f := range violatedInvariants[p.Name] {
			specs = append(specs, ts.ScenarioSpec{Formula: f, Holds: false})
		}
		out = append(out, goldenSystem{p.Name, p.Sys, specs})
	}
	return out
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, " ")
}

func verdictWord(holds bool) string {
	if holds {
		return "holds"
	}
	return "fails"
}

// renderGolden runs every pair under ctx and renders one tab-separated
// line per Verify result and per Invariant result.
func renderGolden(t *testing.T, ctx context.Context, systems []goldenSystem) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, g := range systems {
		for _, spec := range g.specs {
			f := ltl.MustParse(spec.Formula)
			res, err := mc.VerifyCtx(ctx, g.sys, f)
			if err != nil {
				t.Fatalf("%s ⊨ %s: %v", g.name, spec.Formula, err)
			}
			if res.Holds != spec.Holds {
				t.Fatalf("%s ⊨ %s = %v, known verdict %v", g.name, spec.Formula, res.Holds, spec.Holds)
			}
			fmt.Fprintf(&b, "verify\t%s\t%s\t%s", g.name, spec.Formula, verdictWord(res.Holds))
			if cx := res.Counterexample; cx != nil {
				fmt.Fprintf(&b, "\tprefix %s\tloop %s", joinInts(cx.Prefix), joinInts(cx.Loop))
			}
			b.WriteByte('\n')
			al, ok := f.(ltl.Always)
			if !ok || !ltl.IsStateFormula(al.F) {
				continue
			}
			holds, path, err := mc.InvariantCtx(ctx, g.sys, al.F)
			if err != nil {
				t.Fatalf("%s: invariant %s: %v", g.name, spec.Formula, err)
			}
			fmt.Fprintf(&b, "invariant\t%s\t%s\t%s", g.name, spec.Formula, verdictWord(holds))
			if !holds {
				fmt.Fprintf(&b, "\tpath %s", joinInts(path))
			}
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

// TestVerifyGoldenTraces asserts that the checker reproduces the pinned
// verdicts and traces byte for byte.
func TestVerifyGoldenTraces(t *testing.T) {
	path := filepath.Join("testdata", goldenTracesFile)
	systems := goldenSystems()
	got := renderGolden(t, context.Background(), systems)
	if *updateGolden {
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
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from %s:\n got: %.300s\nwant: %.300s", i+1, path, gl[i], wl[i])
		}
	}
	t.Fatalf("%d lines, %s has %d", len(gl), path, len(wl))
}
