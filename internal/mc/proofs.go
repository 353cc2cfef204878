package mc

import (
	"context"
	"fmt"

	"repro/internal/budget"
	"repro/internal/eval"
	"repro/internal/ltl"
	"repro/internal/ts"
	"repro/internal/word"
)

// This file implements the two proof principles the paper attaches to the
// hierarchy (§1): the invariance rule for safety properties (implicit
// computational induction) and well-founded ranking for guarantee- and
// response-style properties (explicit structural induction).

// StateHolds evaluates a state formula at a system state.
func StateHolds(sys *ts.System, state int, f ltl.Formula) (bool, error) {
	if !ltl.IsStateFormula(f) {
		return false, fmt.Errorf("mc: %v is not a state formula", f)
	}
	sym := sys.Symbol(state, ltl.Props(f))
	w := word.MustLasso(nil, word.Finite{sym})
	return eval.Holds(f, w)
}

// Invariant checks □χ for a state formula χ by exploring the reachable
// states (fairness is irrelevant for safety). On failure it returns a
// finite path from an initial state to a violating state — the
// counterexample prefix that safety properties always have.
func Invariant(sys *ts.System, chi ltl.Formula) (bool, []int, error) {
	return InvariantCtx(context.Background(), sys, chi)
}

// InvariantCtx is Invariant with resource governance: each explored
// system state is charged against the context's budget and cancellation
// is polled, so the planner can run the invariant fast path under the
// same envelope as the general model checker. The search walks dense
// arrays over the system's frozen successor table, and χ, which reads
// only its own propositions, is evaluated once per distinct valuation of
// them.
func InvariantCtx(ctx context.Context, sys *ts.System, chi ltl.Formula) (bool, []int, error) {
	if !ltl.IsStateFormula(chi) {
		return false, nil, fmt.Errorf("mc: invariant %v is not a state formula", chi)
	}
	holds := byValuation(sys, ltl.Props(chi), func(s int) (bool, error) { return StateHolds(sys, s, chi) })
	prev := make([]int, sys.NumStates()) // -2 unseen, -1 initial
	for i := range prev {
		prev[i] = -2
	}
	var queue []int
	for _, s := range sys.Init() {
		if prev[s] == -2 {
			prev[s] = -1
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		if err := budget.Poll(ctx, 0); err != nil {
			return false, nil, err
		}
		if err := budget.ChargeStates(ctx, 1); err != nil {
			return false, nil, err
		}
		ok, err := holds(s)
		if err != nil {
			return false, nil, err
		}
		if !ok {
			var rev []int
			for cur := s; cur != -1; cur = prev[cur] {
				rev = append(rev, cur)
			}
			path := make([]int, len(rev))
			for i := range rev {
				path[i] = rev[len(rev)-1-i]
			}
			return false, path, nil
		}
		for _, next := range sys.AllSuccessors(s) {
			if prev[next] == -2 {
				prev[next] = s
				queue = append(queue, next)
			}
		}
	}
	return true, nil, nil
}

// InductiveResult reports how a candidate invariant fares under the
// paper's invariance proof rule: χ must hold initially and be preserved
// by every transition. A χ can be a true invariant yet not inductive;
// the rule is sound but requires strengthening in that case.
type InductiveResult struct {
	Inductive bool
	// FailsInitially lists initial states violating χ.
	FailsInitially []int
	// BrokenBy maps transition names to a (from, to) step where χ holds
	// at from but not at to.
	BrokenBy map[string][2]int
}

// CheckInductive applies the invariance rule to a candidate state
// invariant: initial validity plus preservation over every program step.
// The induction over computation positions is implicit — exactly the
// paper's point about safety proofs.
func CheckInductive(sys *ts.System, chi ltl.Formula) (InductiveResult, error) {
	if !ltl.IsStateFormula(chi) {
		return InductiveResult{}, fmt.Errorf("mc: candidate %v is not a state formula", chi)
	}
	res := InductiveResult{Inductive: true, BrokenBy: map[string][2]int{}}
	for _, s := range sys.Init() {
		ok, err := StateHolds(sys, s, chi)
		if err != nil {
			return InductiveResult{}, err
		}
		if !ok {
			res.Inductive = false
			res.FailsInitially = append(res.FailsInitially, s)
		}
	}
	for _, tr := range sys.Transitions() {
		for s := 0; s < sys.NumStates(); s++ {
			okFrom, err := StateHolds(sys, s, chi)
			if err != nil {
				return InductiveResult{}, err
			}
			if !okFrom {
				continue
			}
			for _, to := range tr.Successors(s) {
				okTo, err := StateHolds(sys, to, chi)
				if err != nil {
					return InductiveResult{}, err
				}
				if !okTo {
					res.Inductive = false
					if _, dup := res.BrokenBy[tr.Name]; !dup {
						res.BrokenBy[tr.Name] = [2]int{s, to}
					}
				}
			}
		}
	}
	return res, nil
}

// Ranking is a well-founded ranking certificate for a response property
// □(trigger → ◇goal): Rank[s] is a natural number that strictly
// decreases along every step from a pending reachable state (trigger seen,
// goal not yet reached) — the explicit induction of liveness proofs.
// Valid only for properties that hold without needing fairness.
type Ranking struct {
	Rank []int // -1 for states where no rank is needed (non-pending)
}

// ExtractRanking attempts to build a ranking certificate for
// □(trigger → ◇goal) ignoring fairness: in the subgraph of non-goal
// states reachable from a trigger, every cycle would be a counterexample,
// so the subgraph must be a DAG and the longest-path length is a valid
// rank. Returns an error when the pending subgraph is cyclic (the
// property then needs a fairness argument; use Verify).
func ExtractRanking(sys *ts.System, trigger, goal ltl.Formula) (Ranking, error) {
	if !ltl.IsStateFormula(trigger) || !ltl.IsStateFormula(goal) {
		return Ranking{}, fmt.Errorf("mc: ranking needs state formulas")
	}
	n := sys.NumStates()
	isGoal := make([]bool, n)
	isTrigger := make([]bool, n)
	for s := 0; s < n; s++ {
		g, err := StateHolds(sys, s, goal)
		if err != nil {
			return Ranking{}, err
		}
		isGoal[s] = g
		tr, err := StateHolds(sys, s, trigger)
		if err != nil {
			return Ranking{}, err
		}
		isTrigger[s] = tr
	}
	// Pending states: non-goal states reachable (through non-goal states)
	// from a reachable trigger state.
	reach := map[int]bool{}
	for _, s := range sys.ReachableStates() {
		reach[s] = true
	}
	pending := make([]bool, n)
	var stack []int
	for s := 0; s < n; s++ {
		if reach[s] && isTrigger[s] && !isGoal[s] {
			pending[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range sys.AllSuccessors(s) {
			if !isGoal[next] && !pending[next] {
				pending[next] = true
				stack = append(stack, next)
			}
		}
	}
	// Longest path in the pending subgraph (must be a DAG).
	rank := make([]int, n)
	for i := range rank {
		rank[i] = -1
	}
	state := make([]int, n) // 0 unvisited, 1 in progress, 2 done
	var dfs func(s int) error
	dfs = func(s int) error {
		state[s] = 1
		best := 0
		for _, next := range sys.AllSuccessors(s) {
			if isGoal[next] || !pending[next] {
				continue
			}
			switch state[next] {
			case 1:
				return fmt.Errorf("mc: pending subgraph is cyclic at %q — the property needs a fairness argument", sys.StateName(next))
			case 0:
				if err := dfs(next); err != nil {
					return err
				}
			}
			if rank[next]+1 > best {
				best = rank[next] + 1
			}
		}
		rank[s] = best
		state[s] = 2
		return nil
	}
	for s := 0; s < n; s++ {
		if pending[s] && state[s] == 0 {
			if err := dfs(s); err != nil {
				return Ranking{}, err
			}
		}
	}
	return Ranking{Rank: rank}, nil
}

// Validate checks the ranking certificate: along every step between
// pending states the rank strictly decreases.
func (r Ranking) Validate(sys *ts.System) error {
	for s := 0; s < sys.NumStates(); s++ {
		if r.Rank[s] < 0 {
			continue
		}
		for _, next := range sys.AllSuccessors(s) {
			if r.Rank[next] >= 0 && r.Rank[next] >= r.Rank[s] {
				return fmt.Errorf("mc: rank does not decrease on %q → %q", sys.StateName(s), sys.StateName(next))
			}
		}
	}
	return nil
}
