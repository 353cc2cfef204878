package mc_test

// Golden-trace suite: the verdict and counterexample lasso of every
// (system, spec) pair of the verify-protocols systems, and the path the
// invariant checker returns on every □χ spec, are pinned byte for byte
// in testdata/golden_traces.txt. A change to what the search costs must
// leave every verdict and trace unchanged at any worker count. Regenerate
// deliberately, and review the diff, with
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

	"repro/internal/ltl"
	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/ts"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_traces.txt from the current checker")

const goldenTracesFile = "golden_traces.txt"

type goldenSystem struct {
	name  string
	sys   *ts.System
	specs []ts.ScenarioSpec
}

// violated wraps invariants every system of a family breaks, so the
// golden file also pins violation paths (every □χ scenario spec holds).
func violated(specs []ts.ScenarioSpec, invariants ...string) []ts.ScenarioSpec {
	for _, f := range invariants {
		specs = append(specs, ts.ScenarioSpec{Formula: f, Holds: false})
	}
	return specs
}

// goldenSystems builds the seven verify-protocols systems with their
// scenario specs plus two violated invariants per family.
func goldenSystems(t *testing.T) []goldenSystem {
	t.Helper()
	var out []goldenSystem
	add := func(name string, sys *ts.System, err error, specs []ts.ScenarioSpec) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, goldenSystem{name, sys, specs})
	}
	for _, rc := range []struct {
		n    int
		fair ts.Fairness
	}{{6, ts.Strong}, {8, ts.Strong}, {8, ts.Weak}} {
		sys, err := ts.RingMutex(rc.n, rc.fair)
		add(fmt.Sprintf("RingMutex(%d,%s)", rc.n, rc.fair), sys, err,
			violated(ts.RingMutexSpecs(rc.n, rc.fair), "G !c0", "G (w0 -> c0)"))
	}
	for _, n := range []int{5, 6} {
		sys, err := ts.LeaderElection(n)
		add(fmt.Sprintf("LeaderElection(%d)", n), sys, err,
			violated(ts.LeaderElectionSpecs(n), fmt.Sprintf("G !leader%d", n-1), "G !passive0"))
	}
	for _, n := range []int{4, 5} {
		sys, err := ts.CacheCoherence(n)
		add(fmt.Sprintf("CacheCoherence(%d)", n), sys, err,
			violated(ts.CacheCoherenceSpecs(n), "G !m0", "G (rd0 -> s0)"))
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
// verdicts and traces byte for byte, sequentially and with two workers.
// The two-worker render runs at production shard thresholds and must
// shard at least one wave, so it does not silently repeat the sequential
// path.
func TestVerifyGoldenTraces(t *testing.T) {
	path := filepath.Join("testdata", goldenTracesFile)
	systems := goldenSystems(t)
	if *updateGolden {
		got := renderGolden(t, schedCtx(1, 0), systems)
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	waves := obs.NewCounter("mc.parallel.waves")
	for _, jobs := range []int{1, 2} {
		wavesBefore := waves.Value()
		got := renderGolden(t, schedCtx(jobs, 0), systems)
		if jobs > 1 && waves.Value() == wavesBefore {
			t.Fatalf("jobs=%d never engaged the sharded wave path", jobs)
		}
		if bytes.Equal(got, want) {
			continue
		}
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("jobs=%d: line %d differs from %s:\n got: %.300s\nwant: %.300s", jobs, i+1, path, gl[i], wl[i])
			}
		}
		t.Fatalf("jobs=%d: %d lines, %s has %d", jobs, len(gl), path, len(wl))
	}
}
