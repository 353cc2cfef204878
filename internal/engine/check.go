package engine

import (
	"context"
	"errors"

	"repro/internal/budget"
	"repro/internal/ltl"
	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/omega"
	"repro/internal/plan"
	"repro/internal/ts"
	"repro/internal/word"
)

var cntCheck = obs.NewCounter("engine.check.calls")

// CheckKind selects the decision problem a Check request asks.
type CheckKind int

const (
	// CheckContains asks L(left) ⊇ L(right); a false verdict carries a
	// witness in L(right) − L(left).
	CheckContains CheckKind = iota
	// CheckEquivalent asks L(left) = L(right); a false verdict carries
	// a word in the symmetric difference.
	CheckEquivalent
	// CheckEmptiness asks L(left) = ∅; a false verdict carries an
	// accepted lasso.
	CheckEmptiness
	// CheckVerify asks sys ⊨ formula over the fair computations of
	// System; a false verdict carries a counterexample Trace.
	CheckVerify
)

// CheckRequest is the planner-backed query. Operands are given either
// as automata (Left/Right) or as formulas (LeftFormula/RightFormula,
// compiled over Props as in CompileFormula); CheckVerify instead takes
// System and Formula.
type CheckRequest struct {
	Kind        CheckKind
	Left, Right *omega.Automaton
	LeftFormula ltl.Formula
	// RightFormula is the second operand for containment/equivalence.
	RightFormula ltl.Formula
	Props        []string
	System       *ts.System
	Formula      ltl.Formula
}

// Verdict is a Check result: the answer plus its provenance — which
// plan tier produced it, why, what it cost, and whether it came from
// the memo cache or a fallback. Witness/Counterexample are populated
// exactly when the verdict calls for one.
type Verdict struct {
	Holds   bool
	Witness word.Lasso
	// Counterexample is set only for failed CheckVerify requests.
	Counterexample *mc.Trace
	// Tier produced the verdict; Planned is what the planner chose
	// (they differ only when Fallback is set).
	Tier     plan.Tier
	Planned  plan.Tier
	Reason   string
	Fallback bool
	// Cached reports a memo-cache hit; the provenance fields then
	// describe the run that populated the cache.
	Cached bool
	// Stored reports a disk-warm hit: the verdict was served from the
	// persistent store (written by an earlier process or run) rather
	// than computed or found in memory. For equivalence, Stored is set
	// when either direction came from disk.
	Stored bool
	// Cost is the work of the procedures that produced the verdict;
	// for equivalence it sums both containment directions.
	Cost plan.Cost
	// BudgetStates/BudgetSteps are the request's budget spend (0 when
	// the engine runs without caps and the caller attached no budget).
	BudgetStates, BudgetSteps int64
}

// Check runs one planned query under the engine's full governance
// envelope: per-request budget, tracing, recovery boundary, memo cache.
// It is the one entry point for containment, equivalence, emptiness and
// model checking.
func (e *Engine) Check(ctx context.Context, req CheckRequest) (Verdict, error) {
	cntCheck.Inc()
	return serve(ctx, e, "Check", func(ctx context.Context) (Verdict, error) {
		v, err := e.check(ctx, req)
		if b := budget.FromContext(ctx); b != nil {
			v.BudgetStates, v.BudgetSteps = b.States(), b.Steps()
		}
		return v, err
	})
}

func (e *Engine) check(ctx context.Context, req CheckRequest) (Verdict, error) {
	if err := ctx.Err(); err != nil {
		return Verdict{}, wrapErr(err)
	}
	resolve := func(a *omega.Automaton, f ltl.Formula) (*omega.Automaton, error) {
		if a != nil {
			return a, nil
		}
		if f == nil {
			return nil, errors.New("engine: check request needs an automaton or formula per operand")
		}
		return e.compileFormula(ctx, f, req.Props)
	}
	switch req.Kind {
	case CheckContains, CheckEquivalent:
		a, err := resolve(req.Left, req.LeftFormula)
		if err != nil {
			return Verdict{}, err
		}
		b, err := resolve(req.Right, req.RightFormula)
		if err != nil {
			return Verdict{}, err
		}
		out, src, err := e.contains(ctx, a, b)
		if err != nil {
			return Verdict{}, err
		}
		if req.Kind == CheckContains || !out.Holds {
			return verdictOf(out, src), nil
		}
		back, src2, err := e.contains(ctx, b, a)
		if err != nil {
			return Verdict{}, err
		}
		v := verdictOf(back, src2)
		v.Cost.ProductStates += out.Cost.ProductStates
		v.Cost.SCCPasses += out.Cost.SCCPasses
		v.Cached = src == srcMemo && src2 == srcMemo
		v.Stored = src == srcStore || src2 == srcStore
		v.Fallback = out.Fallback || back.Fallback
		return v, nil

	case CheckEmptiness:
		a, err := resolve(req.Left, req.LeftFormula)
		if err != nil {
			return Verdict{}, err
		}
		out, src, err := e.emptiness(ctx, a)
		if err != nil {
			return Verdict{}, err
		}
		return verdictOf(out, src), nil

	case CheckVerify:
		if req.System == nil || req.Formula == nil {
			return Verdict{}, errors.New("engine: CheckVerify needs System and Formula")
		}
		res, out, err := plan.Verify(ctx, req.System, req.Formula)
		if err != nil {
			return Verdict{}, wrapErr(err)
		}
		v := verdictOf(out, srcComputed)
		v.Holds = res.Holds
		v.Counterexample = res.Counterexample
		return v, nil
	}
	return Verdict{}, errors.New("engine: unknown check kind")
}

func verdictOf(out plan.Outcome, src verdictSource) Verdict {
	return Verdict{
		Holds:    out.Holds,
		Witness:  out.Witness,
		Tier:     out.Tier,
		Planned:  out.Planned,
		Reason:   out.Reason,
		Fallback: out.Fallback,
		Cached:   src == srcMemo,
		Stored:   src == srcStore,
		Cost:     out.Cost,
	}
}

// PlanAutomaton probes the automaton (memoized under its structural
// key) and reports which tier its queries land in — the introspection
// behind speccheck -explain and temporald's plan field.
func (e *Engine) PlanAutomaton(ctx context.Context, a *omega.Automaton) (plan.Probe, plan.Decision, error) {
	p, err := serve(ctx, e, "PlanAutomaton", func(ctx context.Context) (plan.Probe, error) {
		return e.probeAutomaton(ctx, a)
	})
	if err != nil {
		return plan.Probe{}, plan.Decision{}, err
	}
	return p, plan.DecideOperand(p), nil
}

// probeAutomaton memoizes plan.ProbeAutomaton per structural key. The
// probe is pure evidence about one automaton, so unlike verdicts it can
// be cached even when a later specialized run falls back.
func (e *Engine) probeAutomaton(ctx context.Context, a *omega.Automaton) (plan.Probe, error) {
	key := "probe|" + a.StructuralKey()
	if v, ok := e.cache.get(key); ok {
		return v.(plan.Probe), nil
	}
	p, err := plan.ProbeAutomaton(ctx, a)
	if err != nil {
		return plan.Probe{}, wrapErr(err)
	}
	e.cache.put(key, p)
	return p, nil
}

// emptiness runs an emptiness query with the same cache and persistence
// discipline as contains: verdicts are memoized (and persisted) under
// the structural key. Emptiness always runs the Streett search, so no
// probe is computed.
func (e *Engine) emptiness(ctx context.Context, a *omega.Automaton) (plan.Outcome, verdictSource, error) {
	if err := ctx.Err(); err != nil {
		return plan.Outcome{}, srcComputed, wrapErr(err)
	}
	key := "empty|" + a.StructuralKey()
	if v, ok := e.cache.get(key); ok {
		return v.(plan.Outcome), srcMemo, nil
	}
	if out, ok := e.storeGetOutcome(key); ok {
		e.cache.put(key, out)
		return out, srcStore, nil
	}
	out, err := plan.EmptinessWith(ctx, plan.DecideEmptiness(plan.Probe{}), a)
	if err != nil {
		return plan.Outcome{}, srcComputed, wrapErr(err)
	}
	e.cache.put(key, out)
	e.storePutOutcome(key, out)
	return out, srcComputed, nil
}
