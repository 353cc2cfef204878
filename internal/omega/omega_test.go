package omega_test

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/gen"
	"repro/internal/lang"
	"repro/internal/omega"
	"repro/internal/regex"
	"repro/internal/word"
)

var ab = alphabet.MustLetters("ab")

// buchiRecurrence builds the recurrence automaton for R(Σ*b): infinitely
// many b's. State 0 = last symbol a (or none), state 1 = last symbol b.
func buchiRecurrence(t *testing.T) *omega.Automaton {
	t.Helper()
	return omega.MustNew(ab, [][]int{
		{0, 1},
		{0, 1},
	}, 0, []omega.Pair{{R: []bool{false, true}, P: []bool{false, false}}})
}

func TestNewValidation(t *testing.T) {
	pair := omega.Pair{R: []bool{false}, P: []bool{false}}
	tests := []struct {
		name  string
		trans [][]int
		start int
		pairs []omega.Pair
	}{
		{"no states", nil, 0, []omega.Pair{pair}},
		{"bad start", [][]int{{0, 0}}, 2, []omega.Pair{pair}},
		{"incomplete", [][]int{{0}}, 0, []omega.Pair{pair}},
		{"bad target", [][]int{{0, 5}}, 0, []omega.Pair{pair}},
		{"no pairs", [][]int{{0, 0}}, 0, nil},
		{"short pair", [][]int{{0, 0}, {1, 1}}, 0, []omega.Pair{pair}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := omega.New(ab, tt.trans, tt.start, tt.pairs); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestInfinitySet(t *testing.T) {
	a := buchiRecurrence(t)
	tests := []struct {
		w    word.Lasso
		want []int
	}{
		{word.MustLassoStrings("", "b"), []int{1}},
		{word.MustLassoStrings("", "a"), []int{0}},
		{word.MustLassoStrings("bbb", "a"), []int{0}},
		{word.MustLassoStrings("", "ab"), []int{0, 1}},
	}
	for _, tt := range tests {
		got, err := a.InfinitySet(tt.w)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(tt.want) {
			t.Fatalf("InfinitySet(%v) = %v, want %v", tt.w, got, tt.want)
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Fatalf("InfinitySet(%v) = %v, want %v", tt.w, got, tt.want)
			}
		}
	}
}

func TestAcceptsRecurrence(t *testing.T) {
	a := buchiRecurrence(t)
	accepts := func(w word.Lasso) bool {
		ok, err := a.Accepts(w)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	if !accepts(word.MustLassoStrings("", "ab")) {
		t.Error("should accept (ab)^ω")
	}
	if accepts(word.MustLassoStrings("b", "a")) {
		t.Error("should reject ba^ω")
	}
}

func TestAcceptsForeignSymbol(t *testing.T) {
	a := buchiRecurrence(t)
	if _, err := a.Accepts(word.MustLassoStrings("", "z")); err == nil {
		t.Error("foreign symbol should error")
	}
	if a.AcceptsOrFalse(word.MustLassoStrings("", "z")) {
		t.Error("AcceptsOrFalse should be false on foreign symbols")
	}
}

// agreesWithBuchi checks the automaton language against an ω-regex on an
// exhaustive lasso corpus.
func agreesWithBuchi(t *testing.T, a *omega.Automaton, expr string, label string) {
	t.Helper()
	b, err := regex.CompileOmegaString(expr, a.Alphabet())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range gen.Lassos(a.Alphabet(), 4, 4) {
		want := b.AcceptsLasso(w)
		got, err := a.Accepts(w)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: disagreement on %v: automaton %v, ω-regex %v", label, w, got, want)
		}
	}
}

func TestLangOperatorsMatchOmegaRegexes(t *testing.T) {
	// The paper's §2 operator table.
	phiAB := lang.MustRegex("a^+b*", ab)
	phiEndB := lang.MustRegex(".*b", ab)
	tests := []struct {
		name string
		a    *omega.Automaton
		expr string
	}{
		{"A(a+b*) = a^ω + a⁺b^ω", lang.A(phiAB), "a^w+a^+b^w"},
		{"E(a+b*) = a⁺b*Σ^ω", lang.E(phiAB), "a^+b*(a+b)^w"},
		{"R(Σ*b) = (a*b)^ω", lang.R(phiEndB), "(a*b)^w"},
		{"P(Σ*b) = Σ*b^ω", lang.P(phiEndB), ".*b^w"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			agreesWithBuchi(t, tt.a, tt.expr, tt.name)
		})
	}
}

func TestSimpleObligation(t *testing.T) {
	// A(a⁺) ∪ E(Σ*b a): either every prefix is all-a's, or some prefix
	// ends in "ba".
	phi := lang.MustRegex("a^+", ab)
	psi := lang.MustRegex(".*ba", ab)
	a, err := lang.SimpleObligation(phi, psi)
	if err != nil {
		t.Fatal(err)
	}
	agreesWithBuchi(t, a, "a^w + .*ba(a+b)^w", "simple obligation")
}

func TestSimpleReactivity(t *testing.T) {
	// R(Σ*a) ∪ P(Σ*b): infinitely many a's or eventually always ending
	// in b (any word ending b^ω). Over {a,b}: words with finitely many
	// a's end in b^ω, so this is everything. Use disjoint letters over a
	// 3-letter alphabet to make it non-trivial.
	abc := alphabet.MustLetters("abc")
	phi := lang.MustRegex(".*a", abc)
	psi := lang.MustRegex(".*b", abc)
	a, err := lang.SimpleReactivity(phi, psi)
	if err != nil {
		t.Fatal(err)
	}
	b, err := regex.CompileOmegaString("((b+c)*a)^w + .*b^w", abc)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range gen.Lassos(abc, 3, 3) {
		want := b.AcceptsLasso(w)
		got, err := a.Accepts(w)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("simple reactivity: disagreement on %v: got %v, want %v", w, got, want)
		}
	}
}

func TestIntersect(t *testing.T) {
	// R(Σ*a) ∩ R(Σ*b): infinitely many a's and infinitely many b's.
	ra := lang.R(lang.MustRegex(".*a", ab))
	rb := lang.R(lang.MustRegex(".*b", ab))
	both, err := ra.Intersect(rb)
	if err != nil {
		t.Fatal(err)
	}
	// Infinitely many a's and b's: maximal blocks alternate forever.
	agreesWithBuchi(t, both, "b*(a^+b^+)^w", "R∩R")
}

func TestIntersectAlphabetMismatch(t *testing.T) {
	abc := alphabet.MustLetters("abc")
	x := lang.R(lang.MustRegex(".*a", ab))
	y := lang.R(lang.MustRegex(".*a", abc))
	if _, err := x.Intersect(y); err == nil {
		t.Error("expected alphabet mismatch error")
	}
}

func TestEmptinessAndWitness(t *testing.T) {
	// R(Σ*b) is non-empty; witness must be accepted.
	a := buchiRecurrence(t)
	w, ok := a.WitnessLasso()
	if !ok {
		t.Fatal("expected witness")
	}
	if acc, _ := a.Accepts(w); !acc {
		t.Fatalf("witness %v rejected by its own automaton", w)
	}
	if a.IsEmpty() {
		t.Error("non-empty automaton reported empty")
	}

	// An automaton with unsatisfiable pair: R=∅, P=∅ over a looping
	// structure accepts nothing.
	empty := omega.Empty(ab)
	if !empty.IsEmpty() {
		t.Error("Empty() not empty")
	}
	if _, ok := empty.WitnessLasso(); ok {
		t.Error("Empty() produced a witness")
	}
}

func TestUniversal(t *testing.T) {
	u := omega.Universal(ab)
	ok, err := u.IsUniversal()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("Universal() not universal")
	}
	a := buchiRecurrence(t)
	ok, err = a.IsUniversal()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("R(Σ*b) should not be universal")
	}
}

func TestLiveStates(t *testing.T) {
	// A(a⁺): from the sink, nothing is accepted.
	a := lang.A(lang.MustRegex("a^+", ab))
	live := a.LiveStates()
	liveCount := 0
	for _, l := range live {
		if l {
			liveCount++
		}
	}
	if liveCount == 0 || liveCount == a.NumStates() {
		t.Fatalf("A(a+) should have both live and dead states, got %d/%d", liveCount, a.NumStates())
	}
}

// TestLiveVectorsComputedOnce: the live and co-live vectors are computed
// once per automaton and shared. A search under a canceled context
// aborts and publishes nothing, so the next call searches again and gets
// the true vector; after that, even a canceled context gets the same
// backing array back, because no search runs. An automaton over the
// same kernel with other pairs has its own vectors.
func TestLiveVectorsComputedOnce(t *testing.T) {
	ctx := context.Background()
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	a := gen.RandomStreett(rand.New(rand.NewSource(3)), ab, 12, 2, 0.3, 0.5)
	want := map[string][]bool{
		"live":    append([]bool(nil), a.LiveStates()...),
		"co-live": append([]bool(nil), a.CoLiveStates()...),
	}
	for name, search := range map[string]func(*omega.Automaton, context.Context) ([]bool, error){
		"live":    (*omega.Automaton).LiveStatesCtx,
		"co-live": (*omega.Automaton).CoLiveStatesCtx,
	} {
		fresh := omega.MustNew(ab, a.Kernel().Rows(), a.Start(), a.Pairs())
		if _, err := search(fresh, canceled); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s under a canceled context: %v, want context.Canceled", name, err)
		}
		first, err := search(fresh, ctx)
		if err != nil || !slices.Equal(first, want[name]) {
			t.Fatalf("%s after an aborted search: %v, %v; want %v", name, first, err, want[name])
		}
		again, err := search(fresh, canceled)
		if err != nil || &again[0] != &first[0] {
			t.Fatalf("%s: second call searched again (err %v)", name, err)
		}
	}
	flipped := a.Pairs()
	for i := range flipped {
		flipped[i].R, flipped[i].P = flipped[i].P, flipped[i].R
	}
	other, err := a.WithPairs(flipped)
	if err != nil {
		t.Fatal(err)
	}
	if live := other.LiveStates(); &live[0] == &a.LiveStates()[0] {
		t.Fatal("an automaton with other pairs shares the live vector")
	}
}

func TestSafetyClosure(t *testing.T) {
	// Safety closure of E(Σ*b) (= Σ*bΣ^ω, a guarantee property that is
	// dense) is Σ^ω.
	e := lang.E(lang.MustRegex(".*b", ab))
	cl := e.SafetyClosure()
	ok, err := cl.IsUniversal()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("cl(E(Σ*b)) should be Σ^ω")
	}

	// Safety closure of a safety property is itself.
	s := lang.A(lang.MustRegex("a^+b*", ab))
	cl2 := s.SafetyClosure()
	eq, _, err := s.Equivalent(cl2)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("safety property should equal its safety closure")
	}

	// Safety closure of (a*b)^ω is (a+b)^ω (the paper's example).
	r := lang.R(lang.MustRegex(".*b", ab))
	cl3 := r.SafetyClosure()
	ok, err = cl3.IsUniversal()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("cl((a*b)^ω) should be Σ^ω")
	}
	eq, _, err = r.Equivalent(cl3)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Error("(a*b)^ω must differ from its safety closure (it is not safety)")
	}
}

func TestLivenessExtension(t *testing.T) {
	// 𝓛(A(a⁺)): a^ω plus every word leaving a⁺ — i.e. everything:
	// A(a⁺) ∪ E(Σ⁺ − a⁺)... every word either stays in a's forever or has
	// a prefix with a b, which is not in Pref(a^ω) = a⁺. So 𝓛 = Σ^ω.
	a := lang.A(lang.MustRegex("a^+", ab))
	le := a.LivenessExtension()
	if !le.IsLivenessProperty() {
		t.Error("liveness extension must be a liveness property")
	}
	ok, err := le.IsUniversal()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("𝓛(a^ω) should be universal over {a,b}")
	}

	// Π = Π_S ∩ Π_L (the paper's decomposition claim), for Π = E(Σ*b).
	e := lang.E(lang.MustRegex(".*b", ab))
	inter, err := e.SafetyClosure().Intersect(e.LivenessExtension())
	if err != nil {
		t.Fatal(err)
	}
	eq, ce, err := e.Equivalent(inter)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("Π ≠ Π_S ∩ Π_L, counterexample %v", ce)
	}
}

func TestIsLivenessProperty(t *testing.T) {
	// E(Σ*b) is a liveness property; A(a⁺) is not; R(Σ*b) is.
	if !lang.E(lang.MustRegex(".*b", ab)).IsLivenessProperty() {
		t.Error("◇b should be live")
	}
	if lang.A(lang.MustRegex("a^+", ab)).IsLivenessProperty() {
		t.Error("□a should not be live")
	}
	if !lang.R(lang.MustRegex(".*b", ab)).IsLivenessProperty() {
		t.Error("□◇b should be live")
	}
}

func TestComplementSinglePair(t *testing.T) {
	// Complement of R(Σ*b) is P(Σ*a) (finitely many b's).
	r := lang.R(lang.MustRegex(".*b", ab))
	comp, err := r.ComplementSinglePair()
	if err != nil {
		t.Fatal(err)
	}
	agreesWithBuchi(t, comp, ".*a^w", "¬R(Σ*b)")

	multi, err := r.Intersect(lang.R(lang.MustRegex(".*a", ab)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := multi.ComplementSinglePair(); err == nil {
		t.Error("multi-pair complement should be rejected")
	}
}

func TestContainsAndEquivalent(t *testing.T) {
	// A(a⁺) = a^ω ⊆ P(Σ*a) = "finitely many b's", strictly.
	aPlus := lang.A(lang.MustRegex("a^+", ab))
	pAll := lang.P(lang.MustRegex(".*a", ab))
	ok, _, err := pAll.Contains(aPlus)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("a^ω ⊆ P(a*) expected")
	}
	ok, ce, err := aPlus.Contains(pAll)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("P(a*) ⊄ a^ω expected")
	} else {
		// The counterexample must be in P(a*) − A(a⁺), e.g. ba^ω.
		if acc, _ := pAll.Accepts(ce); !acc {
			t.Errorf("counterexample %v not in the larger language", ce)
		}
		if acc, _ := aPlus.Accepts(ce); acc {
			t.Errorf("counterexample %v in the smaller language", ce)
		}
	}
}

func TestEquivalentPaperClosureLaw(t *testing.T) {
	// R(Φ1) ∩ R(Φ2) = R(minex(Φ1, Φ2)) — the paper's central closure law,
	// checked exactly on automata.
	phi1 := lang.MustRegex("(ab)^+", ab)
	phi2 := lang.MustRegex("a.*", ab)
	lhs, err := lang.R(phi1).Intersect(lang.R(phi2))
	if err != nil {
		t.Fatal(err)
	}
	mx, err := phi1.Minex(phi2)
	if err != nil {
		t.Fatal(err)
	}
	rhs := lang.R(mx)
	eq, ce, err := lhs.Equivalent(rhs)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("R∩R ≠ R(minex), counterexample %v", ce)
	}
}

func TestTrimPreservesLanguage(t *testing.T) {
	a := lang.A(lang.MustRegex("a^+", ab))
	trimmed := a.Trim()
	eq, _, err := a.Equivalent(trimmed)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("Trim changed the language")
	}
}

func TestWithPairsAndPairsCopy(t *testing.T) {
	a := buchiRecurrence(t)
	pairs := a.Pairs()
	pairs[0].R[0] = true // mutate the copy
	if got := a.Pairs(); got[0].R[0] {
		t.Error("Pairs() must return a deep copy")
	}
	b, err := a.WithPairs(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Pairs()[0].R[0] {
		t.Error("WithPairs did not apply")
	}
}
