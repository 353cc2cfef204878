package autkern

import (
	"context"

	"repro/internal/budget"
)

// Quotient is the repository's one coarsest-partition routine: Hopcroft's
// refinement over arrays, on a complete kernel. It computes the coarsest
// partition of the reachable states that refines color (one small
// non-negative integer per state) and is stable: two states share a
// block only if, on every symbol, their successors do. dfa colors by
// acceptance to minimize, omega by R/P membership to quotient bisimilar
// states.
//
// The initial blocks are the non-empty color classes in ascending color
// order, each holding its states in ascending order, and every (block,
// symbol) splitter is queued on a stack. Each splitter pass first calls
// pass, when set — an error aborts, and a caller's fault site sits
// there — then polls ctx and charges one budget step.
//
// It returns the quotient's rows, with blocks numbered in BFS order from
// the start state's block, so equal inputs give structurally identical
// quotients, and rep[i], one state of block i. Unreachable states belong
// to no block.
func (kn *Kernel) Quotient(ctx context.Context, color []int32, pass func() error) (rows [][]int, rep []int, err error) {
	p, err := kn.refine(ctx, color, pass)
	if err != nil {
		return nil, nil, err
	}
	rows, rep = p.quotient(kn)
	return rows, rep, nil
}

// partition is the state of a Hopcroft refinement over the reachable
// states of a kernel. Unreachable states belong to no block.
type partition struct {
	elems      []int32 // reachable states, grouped by block
	loc        []int32 // position of each state in elems
	blk        []int32 // block of each state, -1 if unreachable
	first, end []int32 // block b holds elems[first[b]:end[b]]
}

func (kn *Kernel) refine(ctx context.Context, color []int32, pass func() error) (*partition, error) {
	n := kn.NumStates()
	k := kn.width
	reach := kn.Reachable()

	// Reverse transitions as offset/target arrays: the predecessors of q
	// on symbol s are src[off[s*n+q]:off[s*n+q+1]]. Counting sort over
	// the reachable states' edges.
	off := make([]int32, k*n+2)
	reachable, ncolors := 0, 0
	for q := 0; q < n; q++ {
		if !reach[q] {
			continue
		}
		reachable++
		ncolors = max(ncolors, int(color[q])+1)
		for s, next := range kn.rows[q] {
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
		for s, next := range kn.rows[q] {
			i := s*n + next + 1
			src[off[i]] = int32(q)
			off[i]++
		}
	}

	// Initial blocks: a counting sort of the reachable states by color;
	// fill[c] is where color c's next state goes.
	p := &partition{
		elems: make([]int32, reachable),
		loc:   make([]int32, n),
		blk:   make([]int32, n),
		first: make([]int32, 0, reachable),
		end:   make([]int32, 0, reachable),
	}
	fill := make([]int32, ncolors+1)
	for q := 0; q < n; q++ {
		if reach[q] {
			fill[color[q]+1]++
		}
	}
	for c := 0; c < ncolors; c++ {
		lo, hi := fill[c], fill[c]+fill[c+1]
		if hi > lo {
			p.first = append(p.first, lo)
			p.end = append(p.end, hi)
		}
		fill[c+1] = hi
	}
	for q := 0; q < n; q++ {
		if !reach[q] {
			p.blk[q] = -1
			continue
		}
		i := fill[color[q]]
		fill[color[q]]++
		p.elems[i], p.loc[q] = int32(q), i
	}
	for b := range p.first {
		for _, q := range p.elems[p.first[b]:p.end[b]] {
			p.blk[q] = int32(b)
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
		if pass != nil {
			if err := pass(); err != nil {
				return nil, err
			}
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

// quotient numbers the partition's blocks in BFS order from the start
// block and returns their rows and one state of each.
func (p *partition) quotient(kn *Kernel) ([][]int, []int) {
	k := kn.width
	nb := len(p.first)
	pos := make([]int32, nb)
	for i := range pos {
		pos[i] = -1
	}
	rep := make([]int, 0, nb)
	start := p.blk[kn.start]
	pos[start] = 0
	rep = append(rep, int(p.elems[p.first[start]]))
	for i := 0; i < len(rep); i++ {
		for _, next := range kn.rows[rep[i]] {
			if b := p.blk[next]; pos[b] < 0 {
				pos[b] = int32(len(rep))
				rep = append(rep, int(p.elems[p.first[b]]))
			}
		}
	}
	flat := make([]int, len(rep)*k)
	rows := make([][]int, len(rep))
	for i, q := range rep {
		row := flat[i*k : (i+1)*k : (i+1)*k]
		for s, next := range kn.rows[q] {
			row[s] = int(pos[p.blk[next]])
		}
		rows[i] = row
	}
	return rows, rep
}
