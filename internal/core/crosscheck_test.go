package core_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestClassifierAgreesWithCanonicalization cross-validates two fully
// independent decision procedures for each class: the Landweber/Wagner
// cycle analysis (ClassifyAutomaton) and the constructive
// canonicalization of Prop. 5.1 (omega.To*Automaton, which builds the
// normal form and checks exact language equivalence). They must agree on
// every automaton.
func TestClassifierAgreesWithCanonicalization(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for i := 0; i < 60; i++ {
		a := gen.RandomStreett(rng, ab, 3+rng.Intn(5), 1+rng.Intn(2), 0.3, 0.4)
		c := core.ClassifyAutomaton(a)

		_, errS := a.ToSafetyAutomaton()
		if (errS == nil) != c.Safety {
			t.Fatalf("iter %d: safety disagreement: classifier=%v canonicalization err=%v\n%v",
				i, c.Safety, errS, a)
		}
		_, errG := a.ToGuaranteeAutomaton()
		if (errG == nil) != c.Guarantee {
			t.Fatalf("iter %d: guarantee disagreement: classifier=%v canonicalization err=%v",
				i, c.Guarantee, errG)
		}
		_, errR := a.ToRecurrenceAutomaton()
		if (errR == nil) != c.Recurrence {
			t.Fatalf("iter %d: recurrence disagreement: classifier=%v canonicalization err=%v",
				i, c.Recurrence, errR)
		}
		_, errP := a.ToPersistenceAutomaton()
		if (errP == nil) != c.Persistence {
			t.Fatalf("iter %d: persistence disagreement: classifier=%v canonicalization err=%v",
				i, c.Persistence, errP)
		}
	}
}

// TestClassifierAgreesOnMultiPair runs the same cross-check on automata
// with more pairs and states (slower, fewer iterations).
func TestClassifierAgreesOnMultiPair(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for i := 0; i < 15; i++ {
		a := gen.RandomStreett(rng, abc, 4+rng.Intn(5), 2+rng.Intn(2), 0.25, 0.45)
		c := core.ClassifyAutomaton(a)
		_, errR := a.ToRecurrenceAutomaton()
		if (errR == nil) != c.Recurrence {
			t.Fatalf("iter %d: recurrence disagreement (classifier=%v, err=%v)", i, c.Recurrence, errR)
		}
		_, errP := a.ToPersistenceAutomaton()
		if (errP == nil) != c.Persistence {
			t.Fatalf("iter %d: persistence disagreement (classifier=%v, err=%v)", i, c.Persistence, errP)
		}
	}
}

// TestClassificationReadsPersistenceOffTheChain: classification reads
// persistence and the reactivity rank off one chain pass. On random
// Streett automata with one to three pairs both must equal what the
// separate searches return, Analysis.Persistence and ReactivityRank.
func TestClassificationReadsPersistenceOffTheChain(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	ctx := context.Background()
	verdicts, ranks := map[bool]int{}, map[int]int{}
	for i := 0; i < 400; i++ {
		a := gen.RandomStreett(rng, ab, 1+rng.Intn(16), 1+rng.Intn(3), 0.2, 0.5)
		c, err := core.ClassifyAutomatonCtx(ctx, a)
		if err != nil {
			t.Fatal(err)
		}
		an := core.Analyze(a)
		persistence, err := an.Persistence(ctx)
		if err != nil {
			t.Fatal(err)
		}
		rank, err := an.ReactivityRank(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if c.Persistence != persistence || c.ReactivityRank != rank {
			t.Fatalf("automaton %d: classified persistence=%v rank=%d, Persistence=%v ReactivityRank=%d\n%v",
				i, c.Persistence, c.ReactivityRank, persistence, rank, a)
		}
		verdicts[persistence]++
		ranks[rank]++
	}
	if verdicts[true] == 0 || verdicts[false] == 0 || ranks[2] == 0 {
		t.Fatalf("sample too narrow: persistence verdicts %v, ranks %v", verdicts, ranks)
	}
}
