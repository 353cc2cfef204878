package dfa

import (
	"context"

	"repro/internal/autkern"
	"repro/internal/budget"
	"repro/internal/fault"
	"repro/internal/obs"
)

// Minimize returns the canonical minimal DFA for L(d) (restricted to
// reachable states), using Hopcroft's partition-refinement algorithm.
// The result is complete and deterministic like its input; states are
// numbered in BFS order from the start state so that equal languages yield
// structurally identical automata. A DFA the minimizer returned is
// already minimal and canonical, and comes back unchanged.
func (d *DFA) Minimize() *DFA {
	m, err := d.MinimizeCtx(context.Background())
	if err != nil {
		// Only reachable under a context budget or test-only fault
		// injection; the background context carries neither.
		panic(err)
	}
	return m
}

// MinimizeCtx is Minimize with resource governance: each splitter pass of
// the refinement is charged as one step against the context's budget, so
// minimizing a huge automaton under a step cap aborts with
// budget.ErrBudgetExceeded. A DFA the minimizer returned is handed back
// as is, with no splitter pass.
func (d *DFA) MinimizeCtx(ctx context.Context) (*DFA, error) {
	if d.minimal {
		return d, nil
	}
	sp := obs.StartIn(ctx, "dfa.minimize").Int("in_states", d.NumStates())
	defer sp.End()
	r, err := d.refine(ctx)
	if err != nil {
		return nil, err
	}
	m := r.quotient(d)
	sp.Int("states", m.NumStates())
	return m, nil
}

// partition is the state of a Hopcroft refinement over the reachable
// states of a DFA. Unreachable states belong to no block.
type partition struct {
	elems      []int32 // reachable states, grouped by block
	loc        []int32 // position of each state in elems
	blk        []int32 // block of each state, -1 if unreachable
	first, end []int32 // block b holds elems[first[b]:end[b]]
}

// refine computes the coarsest partition of d's reachable states that
// respects acceptance and transitions. Splitters are (block, symbol)
// pairs on a stack; each pass charges one budget step and hits the
// dfa.minimize fault site.
func (d *DFA) refine(ctx context.Context) (*partition, error) {
	n := d.kern.NumStates()
	k := d.alpha.Size()
	reach := d.kern.Reachable()

	// Reverse transitions as offset/target arrays: the predecessors of q
	// on symbol s are src[off[s*n+q]:off[s*n+q+1]]. Counting sort over
	// the reachable states' edges.
	off := make([]int32, k*n+2)
	reachable := 0
	for q := 0; q < n; q++ {
		if !reach[q] {
			continue
		}
		reachable++
		for s, next := range d.kern.Row(q) {
			off[s*n+next+2]++
		}
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	src := make([]int32, reachable*k)
	for q := 0; q < n; q++ {
		if !reach[q] {
			continue
		}
		for s, next := range d.kern.Row(q) {
			i := s*n + next + 1
			src[off[i]] = int32(q)
			off[i]++
		}
	}

	// Initial blocks: accepting states, then rejecting ones.
	p := &partition{
		elems: make([]int32, 0, reachable),
		loc:   make([]int32, n),
		blk:   make([]int32, n),
		first: make([]int32, 0, reachable),
		end:   make([]int32, 0, reachable),
	}
	for _, acc := range []bool{true, false} {
		b := int32(len(p.first))
		start := int32(len(p.elems))
		for q := 0; q < n; q++ {
			if reach[q] && d.accept[q] == acc {
				p.loc[q] = int32(len(p.elems))
				p.blk[q] = b
				p.elems = append(p.elems, int32(q))
			}
		}
		if int32(len(p.elems)) > start {
			p.first = append(p.first, start)
			p.end = append(p.end, int32(len(p.elems)))
		}
	}
	for q := 0; q < n; q++ {
		if !reach[q] {
			p.blk[q] = -1
		}
	}

	// Splitter stack, with a queued flag per (block, symbol): b*k+s.
	inWork := make([]bool, reachable*k)
	work := make([]int, 0, len(p.first)*k)
	push := func(w int) {
		if !inWork[w] {
			inWork[w] = true
			work = append(work, w)
		}
	}
	for b := range p.first {
		for s := 0; s < k; s++ {
			push(b*k + s)
		}
	}

	inX := make([]bool, n)                 // X marks
	xs := make([]int32, 0, reachable)      // X as a list
	nmark := make([]int32, reachable)      // marked states at the front of each block
	touched := make([]int32, 0, reachable) // blocks with a marked state
	for len(work) > 0 {
		if err := fault.Hit(fault.SiteDFAMinimize); err != nil {
			return nil, err
		}
		if err := budget.Poll(ctx, 1); err != nil {
			return nil, err
		}
		w := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[w] = false
		b, s := w/k, w%k

		// X = states with a transition on symbol s into block b.
		xs = xs[:0]
		for _, q := range p.elems[p.first[b]:p.end[b]] {
			lo, hi := off[s*n+int(q)], off[s*n+int(q)+1]
			for _, x := range src[lo:hi] {
				if !inX[x] {
					inX[x] = true
					xs = append(xs, x)
				}
			}
		}
		// Move each marked state to the front of its block.
		touched = touched[:0]
		for _, x := range xs {
			inX[x] = false
			c := p.blk[x]
			if nmark[c] == 0 {
				touched = append(touched, c)
			}
			at, to := p.loc[x], p.first[c]+nmark[c]
			y := p.elems[to]
			p.elems[to], p.elems[at] = x, y
			p.loc[x], p.loc[y] = to, at
			nmark[c]++
		}
		// Split every touched block by membership in X. The smaller half
		// takes the new block id, so relabelling costs O(n log n) in all,
		// and Hopcroft's rule queues the new block for every symbol: if
		// (c, s) is queued both halves must be, otherwise the smaller one.
		for _, c := range touched {
			m := nmark[c]
			nmark[c] = 0
			if m == p.end[c]-p.first[c] {
				continue
			}
			nb := int32(len(p.first))
			if 2*m <= p.end[c]-p.first[c] {
				p.first = append(p.first, p.first[c])
				p.end = append(p.end, p.first[c]+m)
				p.first[c] += m
			} else {
				p.first = append(p.first, p.first[c]+m)
				p.end = append(p.end, p.end[c])
				p.end[c] = p.first[c] + m
			}
			for _, q := range p.elems[p.first[nb]:p.end[nb]] {
				p.blk[q] = nb
			}
			for s := 0; s < k; s++ {
				push(int(nb)*k + s)
			}
		}
	}
	return p, nil
}

// quotient builds the minimal DFA on the partition's blocks, numbered in
// BFS order from the start block for a canonical presentation.
func (p *partition) quotient(d *DFA) *DFA {
	k := d.alpha.Size()
	nb := len(p.first)
	pos := make([]int32, nb)
	for i := range pos {
		pos[i] = -1
	}
	order := make([]int32, 0, nb)
	startBlock := p.blk[d.kern.Start()]
	pos[startBlock] = 0
	order = append(order, startBlock)
	for i := 0; i < len(order); i++ {
		rep := p.elems[p.first[order[i]]]
		for _, next := range d.kern.Row(int(rep)) {
			if b := p.blk[next]; pos[b] < 0 {
				pos[b] = int32(len(order))
				order = append(order, b)
			}
		}
	}
	flat := make([]int, len(order)*k)
	rows := make([][]int, len(order))
	accept := make([]bool, len(order))
	for i, b := range order {
		rep := p.elems[p.first[b]]
		row := flat[i*k : (i+1)*k : (i+1)*k]
		for s, next := range d.kern.Row(int(rep)) {
			row[s] = int(pos[p.blk[next]])
		}
		rows[i] = row
		accept[i] = d.accept[rep]
	}
	return &DFA{alpha: d.alpha, kern: autkern.New(rows, k, 0), accept: accept, minimal: true}
}
