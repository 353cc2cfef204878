package ts

import (
	"fmt"
	"testing"
)

// TestRingMutexStructure checks the token-ring invariants directly on the
// reachable state space: exactly one token holder, at most one critical
// section, and the critical station always wants in.
func TestRingMutexStructure(t *testing.T) {
	for n := 2; n <= 5; n++ {
		for _, fair := range []Fairness{Weak, Strong} {
			sys, err := RingMutex(n, fair)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sys.NumStates(), n*3*(1<<(n-1)); got != want {
				t.Errorf("RingMutex(%d): %d states, want %d", n, got, want)
			}
			for s := 0; s < sys.NumStates(); s++ {
				v := sys.Valuation(s)
				toks, css := 0, 0
				for i := 0; i < n; i++ {
					if v[fmt.Sprintf("t%d", i)] {
						toks++
					}
					if v[fmt.Sprintf("c%d", i)] {
						css++
						if !v[fmt.Sprintf("w%d", i)] {
							t.Fatalf("RingMutex(%d) state %q: in critical section without wanting", n, sys.StateName(s))
						}
					}
				}
				if toks != 1 {
					t.Fatalf("RingMutex(%d) state %q: %d token holders", n, sys.StateName(s), toks)
				}
				if css > 1 {
					t.Fatalf("RingMutex(%d) state %q: %d critical sections", n, sys.StateName(s), css)
				}
				if (css == 1) != v["busy"] {
					t.Fatalf("RingMutex(%d) state %q: busy prop inconsistent", n, sys.StateName(s))
				}
			}
		}
	}
}

// TestLeaderElectionStructure checks that no reachable state elects a
// non-maximal node or two leaders, and that the elected prop tracks
// leadership.
func TestLeaderElectionStructure(t *testing.T) {
	for n := 2; n <= 5; n++ {
		sys, err := LeaderElection(n)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < sys.NumStates(); s++ {
			v := sys.Valuation(s)
			leaders := 0
			for i := 0; i < n; i++ {
				if v[fmt.Sprintf("leader%d", i)] {
					leaders++
					if i != n-1 {
						t.Fatalf("LeaderElection(%d) state %q: non-maximal node %d elected", n, sys.StateName(s), i)
					}
				}
			}
			if leaders > 1 {
				t.Fatalf("LeaderElection(%d) state %q: %d leaders", n, sys.StateName(s), leaders)
			}
			if (leaders > 0) != v["elected"] {
				t.Fatalf("LeaderElection(%d) state %q: elected prop inconsistent", n, sys.StateName(s))
			}
		}
	}
}

// TestCacheCoherenceStructure checks the MSI single-writer invariant on
// every reachable state: a Modified cache excludes every other cache from
// Shared and Modified.
func TestCacheCoherenceStructure(t *testing.T) {
	for n := 2; n <= 4; n++ {
		sys, err := CacheCoherence(n)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < sys.NumStates(); s++ {
			v := sys.Valuation(s)
			modified := -1
			for i := 0; i < n; i++ {
				if v[fmt.Sprintf("m%d", i)] {
					if modified >= 0 {
						t.Fatalf("CacheCoherence(%d) state %q: caches %d and %d both Modified", n, sys.StateName(s), modified, i)
					}
					modified = i
				}
			}
			if modified >= 0 {
				for i := 0; i < n; i++ {
					if i != modified && !v[fmt.Sprintf("i%d", i)] {
						t.Fatalf("CacheCoherence(%d) state %q: cache %d not Invalid while %d is Modified", n, sys.StateName(s), i, modified)
					}
				}
			}
		}
	}
}

// TestScenarioSizeValidation covers the parameter guards.
func TestScenarioSizeValidation(t *testing.T) {
	for _, n := range []int{-1, 0, 1, maxScenarioN + 1} {
		if _, err := RingMutex(n, Weak); err == nil {
			t.Errorf("RingMutex(%d): no error", n)
		}
		if _, err := LeaderElection(n); err == nil {
			t.Errorf("LeaderElection(%d): no error", n)
		}
		if _, err := CacheCoherence(n); err == nil {
			t.Errorf("CacheCoherence(%d): no error", n)
		}
	}
}

// TestScenarioGrowth pins the families' reachable sizes at small n — the
// scaling the verify-protocols benchmark relies on — and checks the builder
// is deterministic (two builds agree state for state).
func TestScenarioGrowth(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(int) (*System, error)
		sizes map[int]int
	}{
		{"RingMutex", func(n int) (*System, error) { return RingMutex(n, Strong) },
			map[int]int{2: 12, 4: 96, 6: 576}},
		{"LeaderElection", LeaderElection,
			map[int]int{2: 10, 4: 100, 6: 940}},
		{"CacheCoherence", CacheCoherence,
			map[int]int{2: 31, 4: 733}},
	} {
		for n, want := range tc.sizes {
			a, err := tc.build(n)
			if err != nil {
				t.Fatal(err)
			}
			if a.NumStates() != want {
				t.Errorf("%s(%d): %d states, want %d", tc.name, n, a.NumStates(), want)
			}
			b, err := tc.build(n)
			if err != nil {
				t.Fatal(err)
			}
			if a.NumStates() != b.NumStates() {
				t.Fatalf("%s(%d): nondeterministic size", tc.name, n)
			}
			for s := 0; s < a.NumStates(); s++ {
				if a.StateName(s) != b.StateName(s) {
					t.Fatalf("%s(%d): state %d named %q then %q", tc.name, n, s, a.StateName(s), b.StateName(s))
				}
			}
		}
	}
}

// TestScenarioSpecsWellFormed checks the known-verdict spec lists: every
// family builds and exports a non-empty list per size, with both holding
// and failing specs (a one-sided list can't catch an always-true or
// always-false checker). The verdicts themselves are checked against the
// model checker in internal/mc's scenario suite.
func TestScenarioSpecsWellFormed(t *testing.T) {
	for n := 2; n <= 5; n++ {
		for name, tc := range map[string]struct {
			sys   func() (*System, error)
			specs []ScenarioSpec
		}{
			"ring-weak":   {func() (*System, error) { return RingMutex(n, Weak) }, RingMutexSpecs(n, Weak)},
			"ring-strong": {func() (*System, error) { return RingMutex(n, Strong) }, RingMutexSpecs(n, Strong)},
			"leader":      {func() (*System, error) { return LeaderElection(n) }, LeaderElectionSpecs(n)},
			"coherence":   {func() (*System, error) { return CacheCoherence(n) }, CacheCoherenceSpecs(n)},
		} {
			if _, err := tc.sys(); err != nil {
				t.Fatal(err)
			}
			holds, fails := 0, 0
			for _, spec := range tc.specs {
				if spec.Formula == "" {
					t.Fatalf("%s(%d): empty formula", name, n)
				}
				if spec.Holds {
					holds++
				} else {
					fails++
				}
			}
			if holds == 0 || fails == 0 {
				t.Errorf("%s(%d): specs are one-sided (%d hold, %d fail)", name, n, holds, fails)
			}
		}
	}
}

// TestLegacyFamiliesStillBuild smoke-tests the pre-existing scenario
// builders alongside the new ones, plus the small String/Init accessors.
func TestLegacyFamiliesStillBuild(t *testing.T) {
	for _, policy := range []ElevatorPolicy{Nearest, Scan} {
		if policy.String() == "" {
			t.Fatal("empty policy name")
		}
		sys, err := Elevator(policy)
		if err != nil {
			t.Fatalf("Elevator(%v): %v", policy, err)
		}
		if len(sys.Init()) == 0 || sys.NumStates() == 0 {
			t.Fatalf("Elevator(%v): degenerate system", policy)
		}
	}
	for _, fair := range []Fairness{Unfair, Weak, Strong, Fairness(99)} {
		if fair.String() == "" {
			t.Fatal("empty fairness name")
		}
	}
	sys, err := DiningPhilosophers(3, true, Strong)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Init()) == 0 {
		t.Fatal("DiningPhilosophers: no initial states")
	}
}

func TestSuccessorsSharedMatchesSuccessors(t *testing.T) {
	sys, err := RingMutex(3, Weak)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range sys.Transitions() {
		for s := 0; s < sys.NumStates(); s++ {
			a, b := tr.Successors(s), tr.SuccessorsShared(s)
			if len(a) != len(b) {
				t.Fatalf("%s at %d: copy/shared length mismatch", tr.Name, s)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s at %d: copy/shared disagree", tr.Name, s)
				}
			}
		}
	}
}
