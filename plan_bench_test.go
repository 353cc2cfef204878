package temporal_test

// Benchmarks for the hierarchy-aware query planner (PR 7). Each family
// runs the same containment query three ways — planned (class-
// specialized fast path), lazy Streett, eager Streett — on inputs where
// containment HOLDS, so neither Streett path can early-exit: they pay
// the full product plus its acceptance analysis, while the planner's
// reachability-only procedures traverse the product once with no
// Streett machinery. scripts/bench.sh gates the safety family at
// planned ≤ lazy/2 ns/op. plan.ContainsWith is called directly (not
// through an Engine) so the verdict memo cache cannot serve iterations
// 2..N; the probes and the decision are hoisted out of the timed loop
// because the engine memoizes them per structural key — steady-state
// planned cost is the specialized procedure, not re-probing.

import (
	"context"
	"testing"

	"repro/internal/lang"
	"repro/internal/omega"
	"repro/internal/plan"
)

// safetyChainPair builds the safety benchmark operands: prefix-check
// chains A(a^64 Σ*) ⊆ A(a^32 Σ*). Both are semantically safety; the
// containment holds, so the planned bad-prefix BFS must close the whole
// ~65×33-state product, and the Streett paths must do that AND analyze
// acceptance.
func safetyChainPair(b *testing.B) (*omega.Automaton, *omega.Automaton) {
	b.Helper()
	container := lang.A(lang.MustRegex("a^32.*", lazyBenchAB))
	contained := lang.A(lang.MustRegex("a^64.*", lazyBenchAB))
	return container, contained
}

// guaranteeChainPair builds the guarantee operands: E(Σ* b a^16) ⊇
// E(Σ* b a^32) — "eventually the pattern b a^n occurs". Neither
// language is closed, so the planner runs the co-dead reachability
// procedure, not the safety one.
func guaranteeChainPair(b *testing.B) (*omega.Automaton, *omega.Automaton) {
	b.Helper()
	container := lang.E(lang.MustRegex(".*ba^16", lazyBenchAB))
	contained := lang.E(lang.MustRegex(".*ba^32", lazyBenchAB))
	return container, contained
}

// probedDecision probes both operands and plans L(a) ⊇ L(bb), as the
// engine does before its memo cache takes over.
func probedDecision(b *testing.B, a, bb *omega.Automaton) plan.Decision {
	b.Helper()
	ctx := context.Background()
	pa, err := plan.ProbeAutomaton(ctx, a)
	if err != nil {
		b.Fatal(err)
	}
	pb, err := plan.ProbeAutomaton(ctx, bb)
	if err != nil {
		b.Fatal(err)
	}
	return plan.DecideContains(pa, pb)
}

// requireTier pins the benchmark to its intended fast path: if a probe
// change reroutes the family, the numbers would silently measure the
// wrong procedure.
func requireTier(b *testing.B, a, bb *omega.Automaton, want plan.Tier) {
	b.Helper()
	d := probedDecision(b, a, bb)
	out, err := plan.ContainsWith(context.Background(), d, a, bb)
	if err != nil {
		b.Fatal(err)
	}
	if out.Tier != want || !out.Holds {
		b.Fatalf("family plans tier %v (holds=%v), want %v with containment holding", out.Tier, out.Holds, want)
	}
}

func benchPlanned(b *testing.B, a, bb *omega.Automaton) {
	ctx := context.Background()
	d := probedDecision(b, a, bb)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := plan.ContainsWith(ctx, d, a, bb)
		if err != nil || !out.Holds {
			b.Fatalf("verdict %v err %v", out.Holds, err)
		}
	}
}

func benchLazy(b *testing.B, a, bb *omega.Automaton) {
	for i := 0; i < b.N; i++ {
		ok, _, err := a.ContainsCtx(context.Background(), bb)
		if err != nil || !ok {
			b.Fatalf("verdict %v err %v", ok, err)
		}
	}
}

func benchEager(b *testing.B, a, bb *omega.Automaton) {
	for i := 0; i < b.N; i++ {
		ok, _, err := a.ContainsEagerCtx(context.Background(), bb)
		if err != nil || !ok {
			b.Fatalf("verdict %v err %v", ok, err)
		}
	}
}

func BenchmarkPlanSafetyContains(b *testing.B) {
	a, bb := safetyChainPair(b)
	requireTier(b, a, bb, plan.TierSafety)
	b.Run("planned", func(b *testing.B) { benchPlanned(b, a, bb) })
	b.Run("lazy", func(b *testing.B) { benchLazy(b, a, bb) })
	b.Run("eager", func(b *testing.B) { benchEager(b, a, bb) })
}

func BenchmarkPlanGuaranteeContains(b *testing.B) {
	a, bb := guaranteeChainPair(b)
	requireTier(b, a, bb, plan.TierGuarantee)
	b.Run("planned", func(b *testing.B) { benchPlanned(b, a, bb) })
	b.Run("lazy", func(b *testing.B) { benchLazy(b, a, bb) })
}
