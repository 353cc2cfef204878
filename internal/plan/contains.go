package plan

import (
	"context"
	"fmt"

	"repro/internal/autkern"
	"repro/internal/budget"
	"repro/internal/fault"
	"repro/internal/omega"
	"repro/internal/word"
)

// ContainsWith executes an already-made plan for L(a) ⊇ L(b). A
// specialized path that fails with a non-governance error is abandoned:
// the Streett path supplies the verdict, Outcome.Fallback is set, and
// plan.fallbacks is incremented. Governance errors propagate.
func ContainsWith(ctx context.Context, d Decision, a, b *omega.Automaton) (Outcome, error) {
	out := Outcome{Tier: d.Tier, Planned: d.Tier, Reason: d.Reason}
	pathCounter(d.Tier)
	if d.Tier != TierStreett {
		holds, w, cost, err := runContains(ctx, d.Tier, a, b)
		if err == nil {
			out.Holds, out.Witness, out.Cost = holds, w, cost
			return out, nil
		}
		if governance(err) {
			return Outcome{}, err
		}
		cntFallbacks.Inc()
		out.Fallback = true
		out.Tier = TierStreett
		out.Reason = fmt.Sprintf("%s; specialized path failed (%v), fell back to lazy Streett", d.Reason, err)
	}
	holds, w, err := a.ContainsCtx(ctx, b)
	if err != nil {
		return Outcome{}, err
	}
	out.Holds, out.Witness = holds, w
	return out, nil
}

// runContains dispatches to the tier's procedure. Every specialized
// entry passes the plan fault site first, so the differential suite can
// prove fallback hygiene.
func runContains(ctx context.Context, t Tier, a, b *omega.Automaton) (bool, word.Lasso, Cost, error) {
	if err := fault.Hit(fault.SitePlan); err != nil {
		return false, word.Lasso{}, Cost{}, err
	}
	if !a.Alphabet().Equal(b.Alphabet()) {
		// Match the Streett paths' diagnostic for mismatched operands;
		// this is a caller error, not a reason to fall back.
		return false, word.Lasso{}, Cost{}, fmt.Errorf("omega: product over different alphabets %v and %v", a.Alphabet(), b.Alphabet())
	}
	switch t {
	case TierSafety:
		return containsSafety(ctx, a, b)
	case TierGuarantee:
		return containsGuarantee(ctx, a, b)
	default:
		return false, word.Lasso{}, Cost{}, fmt.Errorf("plan: no specialized procedure for tier %v", t)
	}
}

// containsSafety decides L(a) ⊇ L(b) when a is semantically safety.
// L(a) is closed, so σ ∉ L(a) iff the a-run ever enters the dead region
// (dead states are absorbing and no accepted word's run touches them).
// Containment therefore fails iff the product reaches a state (qa, qb)
// with qa dead in a while qb still accepts some word — pure BFS, no
// Streett analysis of the product. The witness is the bad prefix that
// got there extended by any word b accepts from qb; its soundness needs
// nothing from b's class.
func containsSafety(ctx context.Context, a, b *omega.Automaton) (bool, word.Lasso, Cost, error) {
	liveA, err := a.LiveStatesCtx(ctx)
	if err != nil {
		return false, word.Lasso{}, Cost{}, err
	}
	liveB, err := b.LiveStatesCtx(ctx)
	if err != nil {
		return false, word.Lasso{}, Cost{}, err
	}
	if !liveB[b.Start()] {
		return true, word.Lasso{}, Cost{}, nil // L(b) = ∅
	}
	found, path, cost, err := productBFS(ctx, a, b,
		func(qa, qb int) bool { return liveB[qb] }, // only b-viable prefixes can start a witness
		func(qa, qb int) bool { return !liveA[qa] && liveB[qb] })
	if err != nil || !found {
		return err == nil, word.Lasso{}, cost, err
	}
	// path ends in (dead_a, live_b): extend by a word b accepts from qb.
	qb := b.Start()
	for _, s := range path {
		qb = b.Step(qb, s)
	}
	tail, ok, err := b.WithStart(qb).WitnessLassoCtx(ctx)
	if err != nil {
		return false, word.Lasso{}, cost, err
	}
	if !ok {
		return false, word.Lasso{}, cost, fmt.Errorf("plan: live state %d of b has no witness", qb)
	}
	w, err := word.NewLasso(path.Concat(tail.PrefixPart()), tail.LoopPart())
	if err != nil {
		return false, word.Lasso{}, cost, err
	}
	return false, w, cost, nil
}

// containsGuarantee decides L(a) ⊇ L(b) when both are guarantee (open)
// properties: a word is accepted iff its run ever enters the co-dead
// region. A witness σ ∈ L(b)−L(a) has a b-run entering coDead(b) while
// the a-run never enters coDead(a) — so the product BFS restricted to
// qa ∉ coDead(a) reaches (qa, qb ∈ coDead(b)) iff containment fails.
// The witness loop is any cycle through co-live a-states from qa; b
// accepts regardless of the continuation, a rejects because its run
// never goes co-dead.
func containsGuarantee(ctx context.Context, a, b *omega.Automaton) (bool, word.Lasso, Cost, error) {
	coLiveA, err := a.CoLiveStatesCtx(ctx)
	if err != nil {
		return false, word.Lasso{}, Cost{}, err
	}
	coLiveB, err := b.CoLiveStatesCtx(ctx)
	if err != nil {
		return false, word.Lasso{}, Cost{}, err
	}
	if !coLiveA[a.Start()] {
		return true, word.Lasso{}, Cost{}, nil // L(a) = Σ^ω
	}
	found, path, cost, err := productBFS(ctx, a, b,
		func(qa, qb int) bool { return coLiveA[qa] },
		func(qa, qb int) bool { return !coLiveB[qb] && coLiveA[qa] })
	if err != nil || !found {
		return err == nil, word.Lasso{}, cost, err
	}
	qa := a.Start()
	for _, s := range path {
		qa = a.Step(qa, s)
	}
	mid, loop, err := coLiveCycle(a, qa, coLiveA)
	if err != nil {
		return false, word.Lasso{}, cost, err
	}
	w, err := word.NewLasso(path.Concat(mid), loop)
	if err != nil {
		return false, word.Lasso{}, cost, err
	}
	return false, w, cost, nil
}

// productBFS explores the synchronous product lazily through states
// satisfying keep, reporting the first state satisfying hit and the
// symbol path to it. Parent links give path reconstruction; states are
// interned in BFS order so the parent array needs no map.
func productBFS(ctx context.Context, a, b *omega.Automaton,
	keep, hit func(qa, qb int) bool) (bool, word.Finite, Cost, error) {
	k := a.Alphabet().Size()
	in := autkern.NewPairInterner()
	in.Intern(a.Start(), b.Start())
	parent := []int{-1}
	psym := []int{-1}
	var cost Cost
	reconstruct := func(i int) word.Finite {
		var rev []int
		for ; parent[i] >= 0; i = parent[i] {
			rev = append(rev, psym[i])
		}
		w := make(word.Finite, len(rev))
		for j := range rev {
			w[j] = a.Alphabet().Symbol(rev[len(rev)-1-j])
		}
		return w
	}
	if qa, qb := a.Start(), b.Start(); hit(qa, qb) {
		cost.ProductStates = 1
		return true, word.Finite{}, cost, nil
	}
	for i := 0; i < in.Len(); i++ {
		if err := budget.Poll(ctx, 0); err != nil {
			return false, nil, cost, err
		}
		if err := budget.ChargeStates(ctx, 1); err != nil {
			return false, nil, cost, err
		}
		cost.ProductStates++
		qa, qb := in.Pair(i)
		for s := 0; s < k; s++ {
			na, nb := a.StepIndex(qa, s), b.StepIndex(qb, s)
			if !keep(na, nb) && !hit(na, nb) {
				continue
			}
			before := in.Len()
			j := in.Intern(na, nb)
			if j == before { // newly discovered
				parent = append(parent, i)
				psym = append(psym, s)
				if hit(na, nb) {
					cost.ProductStates = int64(in.Len())
					return true, reconstruct(j), cost, nil
				}
			}
		}
	}
	return false, nil, cost, nil
}

// coLiveCycle walks from qa through co-live states until a state
// repeats, returning the pre-cycle segment and the cycle word. From any
// co-live state some successor is co-live — a rejected word from q steps
// to a state that still rejects its tail — so the walk cannot get stuck.
func coLiveCycle(a *omega.Automaton, qa int, coLive []bool) (word.Finite, word.Finite, error) {
	k := a.Alphabet().Size()
	visited := map[int]int{qa: 0} // state → position in path
	states := []int{qa}
	var w word.Finite
	for {
		q := states[len(states)-1]
		next := -1
		var sym int
		for s := 0; s < k; s++ {
			if n := a.StepIndex(q, s); coLive[n] {
				next, sym = n, s
				break
			}
		}
		if next < 0 {
			return nil, nil, fmt.Errorf("plan: co-live state %d has no co-live successor", q)
		}
		w = append(w, a.Alphabet().Symbol(sym))
		if at, seen := visited[next]; seen {
			return w[:at], w[at:], nil
		}
		visited[next] = len(states)
		states = append(states, next)
	}
}
