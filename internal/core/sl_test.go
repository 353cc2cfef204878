package core_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/lang"
	"repro/internal/ltl"
	"repro/internal/omega"
)

func slCorpus(t *testing.T) []*omega.Automaton {
	t.Helper()
	ob, err := lang.SimpleObligation(lang.MustRegex("a^+", ab), lang.MustRegex(".*b", ab))
	if err != nil {
		t.Fatal(err)
	}
	return []*omega.Automaton{
		lang.A(lang.MustRegex("a^+b*", ab)),
		lang.E(lang.MustRegex(".*b", ab)),
		lang.R(lang.MustRegex(".*b", ab)),
		lang.P(lang.MustRegex(".*a", ab)),
		ob,
		omega.Universal(ab),
		omega.Empty(ab),
	}
}

// TestSLDecomposition verifies the paper's claim Π = Π_S ∩ Π_L with a
// liveness Π_L and safety Π_S, for every corpus property and for random
// single-pair automata.
func TestSLDecomposition(t *testing.T) {
	for i, a := range slCorpus(t) {
		if err := core.VerifySLDecomposition(a); err != nil {
			t.Errorf("corpus[%d]: %v", i, err)
		}
	}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 25; i++ {
		a := gen.RandomStreett(rng, ab, 3+rng.Intn(4), 1, 0.3, 0.4)
		if err := core.VerifySLDecomposition(a); err != nil {
			t.Errorf("random %d: %v", i, err)
		}
	}
}

// TestLivenessExtensionPreservesClass verifies the paper's observation
// that 𝓛(Π) of a κ-property is a live κ-property (κ non-safety).
func TestLivenessExtensionPreservesClass(t *testing.T) {
	tests := []struct {
		name string
		a    *omega.Automaton
		cl   core.Class
	}{
		{"guarantee", lang.E(lang.MustRegex(".*b", ab)), core.Guarantee},
		{"recurrence", lang.R(lang.MustRegex(".*b", ab)), core.Recurrence},
		{"persistence", lang.P(lang.MustRegex(".*a", ab)), core.Persistence},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			le := tt.a.LivenessExtension()
			if !core.IsLiveness(le) {
				t.Fatal("liveness extension must be live")
			}
			c := core.ClassifyAutomaton(le)
			if !c.In(tt.cl) {
				t.Errorf("𝓛(Π) lost class %v: %+v", tt.cl, c)
			}
		})
	}
}

func TestIsLiveness(t *testing.T) {
	if core.IsLiveness(lang.A(lang.MustRegex("a^+", ab))) {
		t.Error("a^ω is not live")
	}
	if !core.IsLiveness(lang.E(lang.MustRegex(".*b", ab))) {
		t.Error("◇b is live")
	}
}

// TestUniformLiveness exercises the liveness vs uniform-liveness
// distinction. The witness for "live but not uniformly live" is
// Π = "the first letter occurs only finitely often": every finite word
// extends into Π (repeat the other letter), but a uniform extension σ′
// would need finitely many a's and finitely many b's at once.
//
// Note: the paper's printed example (a·Σ*·aa·Σ^ω + b·Σ*·bb·Σ^ω) admits
// the uniform extension (aabb)^ω under the natural reading, so this
// repository substitutes the witness above (see EXPERIMENTS.md).
func TestUniformLiveness(t *testing.T) {
	f := ltl.MustParse("(a -> F G !a) & (!a -> F G a)")
	// Over the plain two-letter alphabet {a,b}: ¬a ⇔ b.
	aut, err := core.CompileFormulaOver(f, ab)
	if err != nil {
		t.Fatal(err)
	}
	if !core.IsLiveness(aut) {
		t.Fatal("first-letter-finitely-often should be a liveness property")
	}
	uniform, err := core.IsUniformLiveness(aut, 64)
	if err != nil {
		t.Fatal(err)
	}
	if uniform {
		t.Error("first-letter-finitely-often should NOT be uniformly live")
	}

	// ◇b is uniformly live: σ′ = b^ω works after any prefix.
	eb := lang.E(lang.MustRegex(".*b", ab))
	uniform, err = core.IsUniformLiveness(eb, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !uniform {
		t.Error("◇b should be uniformly live")
	}
}

func TestUniformLivenessCap(t *testing.T) {
	a := lang.R(lang.MustRegex(".*b", ab))
	if _, err := core.IsUniformLiveness(a, 1); !errors.Is(err, core.ErrTooLarge) {
		t.Errorf("tiny cap should fail with ErrTooLarge, got %v", err)
	}
}

// TestOrthogonality demonstrates the paper's "orthogonality" of the Borel
// and SL classifications: a liveness property exists in every non-safety
// class, and safety ∩ liveness = {Σ^ω}.
func TestOrthogonality(t *testing.T) {
	liveWitness := map[core.Class]*omega.Automaton{
		core.Guarantee:   lang.E(lang.MustRegex(".*b", ab)),
		core.Recurrence:  lang.R(lang.MustRegex(".*b", ab)),
		core.Persistence: lang.P(lang.MustRegex(".*a", ab)),
	}
	for cl, a := range liveWitness {
		if !core.IsLiveness(a) {
			t.Errorf("%v witness not live", cl)
		}
		if !core.ClassifyAutomaton(a).In(cl) {
			t.Errorf("%v witness not in class", cl)
		}
	}
	// A live safety property is universal.
	s := lang.A(lang.MustRegex("a^+b*", ab))
	if core.IsLiveness(s) {
		t.Error("a non-trivial safety property cannot be live")
	}
	if !core.IsLiveness(omega.Universal(ab)) {
		t.Error("Σ^ω is (trivially) live")
	}
}
