// Package temporal is a complete implementation of the safety–progress
// hierarchy of Manna & Pnueli's "A Hierarchy of Temporal Properties"
// (PODC 1990): the classification of temporal properties into safety,
// guarantee, obligation, recurrence, persistence and reactivity,
// characterized through the paper's four views —
//
//   - linguistic: the operators A, E, R, P building infinitary properties
//     from finitary ones (NewProperty, BuildA/BuildE/BuildR/BuildP, …);
//   - topological: closed/open/G_δ/F_σ/dense predicates and
//     closure/interior on ω-regular sets (IsClosed, Closure, …);
//   - temporal logic: LTL with past, canonical normal forms and the
//     syntactic classification (ParseFormula, Normalize, SyntacticClass);
//   - automata: deterministic Streett automata with the §5.1 decision
//     procedures and exact Wagner ranks (Classify, ClassifyAutomaton).
//
// It also provides the orthogonal safety–liveness classification
// (DecomposeSL, IsLiveness, IsUniformLiveness), and a model checker for
// fair transition systems demonstrating the proof principles attached to
// the classes (Check with CheckVerify, Invariant, CheckInductive,
// ExtractRanking).
//
// Check is the one entry point for containment, equivalence, emptiness
// and model checking. The package-level functions are context-free
// conveniences on a shared default engine; for cancellation, budgets or
// batches, construct an Engine with NewEngine and call its methods.
//
// Quick start:
//
//	c, err := temporal.Classify(temporal.MustParseFormula("G (req -> F ack)"))
//	// c.Lowest() == temporal.Recurrence: a response property.
package temporal

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/lang"
	"repro/internal/ltl"
	"repro/internal/mc"
	"repro/internal/omega"
	"repro/internal/topology"
	"repro/internal/ts"
	"repro/internal/word"
)

// Re-exported core types. The underlying packages stay internal; these
// aliases are the public API surface.
type (
	// Formula is a temporal-logic formula (LTL with past operators).
	Formula = ltl.Formula
	// Class is a level of the hierarchy.
	Class = core.Class
	// Classification records membership in every class plus exact ranks.
	Classification = core.Classification
	// NormalForm is the conjunctive normal form of §4.
	NormalForm = core.NormalForm
	// Automaton is a complete deterministic Streett predicate automaton.
	Automaton = omega.Automaton
	// Pair is one Streett acceptance pair.
	Pair = omega.Pair
	// Property is a finitary property Φ ⊆ Σ⁺ (a regular language).
	Property = lang.Property
	// Alphabet is a finite alphabet of computation states.
	Alphabet = alphabet.Alphabet
	// Symbol is a single computation state.
	Symbol = alphabet.Symbol
	// Valuation assigns truth values to atomic propositions.
	Valuation = alphabet.Valuation
	// Word is an ultimately periodic infinite word u·v^ω.
	Word = word.Lasso
	// FiniteWord is a finite word over an alphabet.
	FiniteWord = word.Finite
	// System is a fair transition system.
	System = ts.System
	// SystemBuilder assembles fair transition systems.
	SystemBuilder = ts.Builder
	// Fairness is a transition fairness requirement.
	Fairness = ts.Fairness
	// Trace is a lasso-shaped counterexample computation.
	Trace = mc.Trace
	// SLParts is the safety–liveness decomposition Π = Π_S ∩ Π_L.
	SLParts = core.SLParts
)

// The six classes of the hierarchy (Figure 1).
const (
	Safety      = core.Safety
	Guarantee   = core.Guarantee
	Obligation  = core.Obligation
	Recurrence  = core.Recurrence
	Persistence = core.Persistence
	Reactivity  = core.Reactivity
)

// Fairness levels for transition systems.
const (
	Unfair = ts.Unfair
	Weak   = ts.Weak
	Strong = ts.Strong
)

// ParseFormula parses an LTL+past formula; see internal/ltl.Parse for the
// grammar (X U W F G for future, Y Z S B O H for past).
func ParseFormula(s string) (Formula, error) { return ltl.Parse(s) }

// MustParseFormula is ParseFormula but panics on error.
func MustParseFormula(s string) Formula { return ltl.MustParse(s) }

// Letters builds an alphabet of single-character symbols, e.g. "ab".
func Letters(s string) (*Alphabet, error) { return alphabet.Letters(s) }

// NewProperty compiles a regular expression (the paper's notation: `+`
// union, juxtaposition, `*`, `^+`, `^n`, `.` for Σ) into a finitary
// property over the alphabet.
func NewProperty(regex string, alpha *Alphabet) (*Property, error) {
	return lang.FromRegex(regex, alpha)
}

// BuildA returns the safety property A(Φ): all prefixes in Φ.
func BuildA(phi *Property) *Automaton { return lang.A(phi) }

// BuildE returns the guarantee property E(Φ): some prefix in Φ.
func BuildE(phi *Property) *Automaton { return lang.E(phi) }

// BuildR returns the recurrence property R(Φ): infinitely many prefixes.
func BuildR(phi *Property) *Automaton { return lang.R(phi) }

// BuildP returns the persistence property P(Φ): all but finitely many.
func BuildP(phi *Property) *Automaton { return lang.P(phi) }

// SimpleObligation returns A(Φ) ∪ E(Ψ).
func SimpleObligation(phi, psi *Property) (*Automaton, error) {
	return lang.SimpleObligation(phi, psi)
}

// SimpleReactivity returns R(Φ) ∪ P(Ψ).
func SimpleReactivity(phi, psi *Property) (*Automaton, error) {
	return lang.SimpleReactivity(phi, psi)
}

// Classify classifies a formula semantically: it compiles the formula to
// a Streett automaton and runs the §5.1 decision procedures. It is the
// convenience form of Engine.ClassifyFormula on the default engine.
func Classify(f Formula) (Classification, error) {
	return defaultEngine.ClassifyFormula(context.Background(), f, nil)
}

// ClassifyAutomaton classifies the property specified by an automaton.
// It is the convenience form of Engine.ClassifyAutomaton on the default
// engine.
func ClassifyAutomaton(a *Automaton) (Classification, error) {
	return defaultEngine.ClassifyAutomaton(context.Background(), a)
}

// SyntacticClass classifies a formula by the shape of its normal form.
func SyntacticClass(f Formula) (Class, NormalForm, error) { return core.SyntacticClass(f) }

// Normalize rewrites a formula into the paper's conjunctive normal form.
func Normalize(f Formula) (NormalForm, error) { return core.Normalize(f) }

// CompileFormula builds a deterministic Streett automaton for the formula
// over the valuation alphabet of its propositions (Prop. 5.3). It is the
// convenience form of Engine.CompileFormula on the default engine.
func CompileFormula(f Formula, props []string) (*Automaton, error) {
	return defaultEngine.CompileFormula(context.Background(), f, props)
}

// Holds evaluates σ ⊨ f on an ultimately periodic word.
func Holds(f Formula, w Word) (bool, error) { return eval.Holds(f, w) }

// HoldsAt evaluates (σ, j) ⊨ f.
func HoldsAt(f Formula, w Word, j int) (bool, error) { return eval.At(f, w, j) }

// EndSatisfies evaluates the paper's finitary relation σ ⊩ p for a past
// formula on a finite word.
func EndSatisfies(p Formula, w FiniteWord) (bool, error) { return eval.EndSatisfies(p, w) }

// DecomposeSL returns the safety closure and liveness extension with
// Π = Π_S ∩ Π_L.
func DecomposeSL(a *Automaton) SLParts { return core.DecomposeSL(a) }

// IsLiveness reports whether the property is a liveness property.
func IsLiveness(a *Automaton) bool { return core.IsLiveness(a) }

// IsUniformLiveness reports whether a single extension word witnesses
// liveness uniformly.
func IsUniformLiveness(a *Automaton, maxStates int) (bool, error) {
	return core.IsUniformLiveness(a, maxStates)
}

// Topological view wrappers (§3): the Borel correspondence.

// IsClosed reports whether the property is closed (= safety).
func IsClosed(a *Automaton) bool { return topology.IsClosed(a) }

// IsOpen reports whether the property is open (= guarantee).
func IsOpen(a *Automaton) bool { return topology.IsOpen(a) }

// IsGdelta reports whether the property is G_δ (= recurrence).
func IsGdelta(a *Automaton) bool { return topology.IsGdelta(a) }

// IsFsigma reports whether the property is F_σ (= persistence).
func IsFsigma(a *Automaton) bool { return topology.IsFsigma(a) }

// IsDense reports whether the property is dense (= liveness).
func IsDense(a *Automaton) bool { return topology.IsDense(a) }

// Closure returns the topological closure (= safety closure).
func Closure(a *Automaton) *Automaton { return topology.Closure(a) }

// NewSystemBuilder starts building a fair transition system.
func NewSystemBuilder() *SystemBuilder { return ts.NewBuilder() }

// Peterson returns Peterson's mutual-exclusion algorithm as a fair
// transition system.
func Peterson() (*System, error) { return ts.Peterson() }

// Semaphore returns the semaphore mutex with the given acquire fairness.
func Semaphore(acquireFair Fairness) (*System, error) { return ts.Semaphore(acquireFair) }

// TrivialMutex returns the do-nothing "mutex" of the introduction.
func TrivialMutex() (*System, error) { return ts.TrivialMutex() }

// Invariant checks □χ by reachability (the safety proof obligation).
func Invariant(sys *System, chi Formula) (bool, []int, error) { return mc.Invariant(sys, chi) }

// CheckInductive applies the paper's invariance proof rule to a candidate
// state invariant.
func CheckInductive(sys *System, chi Formula) (mc.InductiveResult, error) {
	return mc.CheckInductive(sys, chi)
}

// ExtractRanking builds a well-founded ranking certificate for a
// fairness-free response property (the explicit-induction principle).
func ExtractRanking(sys *System, trigger, goal Formula) (mc.Ranking, error) {
	return mc.ExtractRanking(sys, trigger, goal)
}

// ParseWord builds the infinite word prefix·loop^ω. Each part is either a
// string of single-character symbols ("abab") or a sequence of valuation
// symbols in braces ("{req}{ack}{}"); the loop must be non-empty.
func ParseWord(prefix, loop string) (Word, error) {
	u, err := parseSymbols(prefix)
	if err != nil {
		return Word{}, err
	}
	v, err := parseSymbols(loop)
	if err != nil {
		return Word{}, err
	}
	return word.NewLasso(u, v)
}

// MustLasso is ParseWord but panics on error; for fixtures and examples.
func MustLasso(prefix, loop string) Word {
	w, err := ParseWord(prefix, loop)
	if err != nil {
		panic(err)
	}
	return w
}

func parseSymbols(s string) (FiniteWord, error) {
	if !strings.Contains(s, "{") {
		return word.FiniteFromString(s), nil
	}
	var out FiniteWord
	for len(s) > 0 {
		if s[0] != '{' {
			return nil, fmt.Errorf("temporal: expected '{' in valuation word at %q", s)
		}
		end := strings.IndexByte(s, '}')
		if end < 0 {
			return nil, fmt.Errorf("temporal: unterminated valuation symbol in %q", s)
		}
		sym := Symbol(s[:end+1])
		if _, err := alphabet.ParseValuation(sym); err != nil {
			return nil, err
		}
		out = append(out, sym)
		s = s[end+1:]
	}
	return out, nil
}

// ResponseCertificate is a machine-checkable chain-rule proof of a
// response property under justice (the paper's explicit-induction
// principle for the recurrence class).
type ResponseCertificate = mc.ResponseCertificate

// SynthesizeResponse builds a justice chain-rule certificate for
// □(trigger → ◇goal); it fails with mc.ErrNeedsCompassion when weak
// fairness cannot justify the property.
func SynthesizeResponse(sys *System, trigger, goal Formula) (ResponseCertificate, error) {
	return mc.SynthesizeResponse(sys, trigger, goal)
}
