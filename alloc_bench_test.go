package temporal_test

// Allocation benchmarks for the product/containment hot path. The
// unified graph kernel (internal/autkern) interns product states through
// packed uint64 pair keys instead of struct-keyed maps and shares cached
// reachability/SCC analyses across derived automata, so these paths
// should allocate markedly less than a naive per-call construction.
// scripts/bench.sh runs them with -benchmem and cmd/benchjson gates
// allocs/op regressions against the previous snapshot.

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/gen"
	"repro/internal/ltl"
	"repro/internal/omega"
)

// BenchmarkAllocProduct: eager pairwise product of two counter automata
// (13·17 reachable product states) — the pair-interner hot path.
func BenchmarkAllocProduct(b *testing.B) {
	x, y := gen.NestedCounters(lazyBenchAB, 13, 17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x.Intersect(y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocContainment: a holds-verdict containment over the same
// family — product construction plus emptiness (SCC) over the product,
// exercising the kernel's cached analyses.
func BenchmarkAllocContainment(b *testing.B) {
	x, y := gen.NestedCounters(lazyBenchAB, 13, 17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, _, err := x.Contains(y)
		if err != nil || !ok {
			b.Fatalf("verdict %v err %v", ok, err)
		}
	}
}

// BenchmarkAllocIntersectEmptiness: 3-way intersection emptiness on the
// diagonal family — repeated SCC passes over one shared kernel, where
// the cached SCC decomposition and reverse adjacency pay off.
func BenchmarkAllocIntersectEmptiness(b *testing.B) {
	autos := gen.EmptyIntersectionFamily(lazyBenchAB, 32, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prod, err := omega.IntersectAll(autos...)
		if err != nil {
			b.Fatal(err)
		}
		if !prod.IsEmpty() {
			b.Fatal("intersection should be empty")
		}
	}
}

// pastToDFAAllocBound caps the allocations of compiling the fixed
// 3-proposition formula of TestPastToDFAAllocs (a 12-state DFA). The
// dense-index compiler makes 310 of them; looking operands up by their
// printed form made 10,820.
const pastToDFAAllocBound = 400

// TestPastToDFAAllocs pins the allocation count of one past-formula
// compilation, so that per-(state, symbol) allocation cannot creep back
// into the BFS or the minimizer. Skipped under -race, which changes what
// allocates.
func TestPastToDFAAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	f := ltl.MustParse("(p S q) & H (r -> O p) & Y (q B r)")
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := compile.PastToDFA(f, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > pastToDFAAllocBound {
		t.Fatalf("PastToDFA(%v) made %.0f allocations, bound %d", f, allocs, pastToDFAAllocBound)
	}
}
