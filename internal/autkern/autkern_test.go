package autkern

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/budget"
)

// diamond: 0 -> {1,2}, 1 -> {3,3}, 2 -> {3,3}, 3 -> {3,3} over a
// 2-symbol alphabet; 4 is unreachable and loops to itself.
func diamond() *Kernel {
	return New([][]int{
		{1, 2},
		{3, 3},
		{3, 3},
		{3, 3},
		{4, 4},
	}, 2, 0)
}

// twoCycles: 0<->1 and 2<->3, bridge 1->2 on symbol 1.
func twoCycles() *Kernel {
	return New([][]int{
		{1, 1},
		{0, 2},
		{3, 3},
		{2, 2},
	}, 2, 0)
}

func TestReachableCachedAndShared(t *testing.T) {
	kn := diamond()
	r1 := kn.Reachable()
	r2 := kn.Reachable()
	if &r1[0] != &r2[0] {
		t.Fatalf("Reachable not cached: distinct backing arrays")
	}
	want := []bool{true, true, true, true, false}
	if !reflect.DeepEqual(r1, want) {
		t.Fatalf("Reachable = %v, want %v", r1, want)
	}
}

func TestReachableFromSet(t *testing.T) {
	kn := diamond()
	got := kn.ReachableFromSet([]int{1, 4})
	want := []bool{false, true, false, true, true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ReachableFromSet = %v, want %v", got, want)
	}
	if n := kn.ReachableFromSet(nil); reflect.DeepEqual(n, want) {
		t.Fatalf("empty seed set should reach nothing")
	}
}

func TestWithStartSharesStartIndependentCaches(t *testing.T) {
	kn := twoCycles()
	rev := kn.Reverse()
	sccs := kn.SCCs(nil)
	_ = kn.Reachable()

	w := kn.WithStart(2)
	if w.Start() != 2 {
		t.Fatalf("WithStart start = %d", w.Start())
	}
	if got := w.rev.Load(); got == nil || &(*got)[0] != &rev[0] {
		t.Fatalf("WithStart did not share reverse-adjacency cache")
	}
	if got := w.sccsAll.Load(); got == nil || &(*got)[0] != &sccs[0] {
		t.Fatalf("WithStart did not share SCC cache")
	}
	if w.reach.Load() != nil {
		t.Fatalf("WithStart must not share the reachable-set cache")
	}
	r := w.Reachable()
	want := []bool{false, false, true, true}
	if !reflect.DeepEqual(r, want) {
		t.Fatalf("WithStart(2).Reachable = %v, want %v", r, want)
	}

	defer func() {
		if recover() == nil {
			t.Fatalf("WithStart out of range must panic")
		}
	}()
	kn.WithStart(99)
}

func TestSCCsOrderAndRestriction(t *testing.T) {
	kn := twoCycles()
	got := kn.SCCs(nil)
	// Tarjan from root 0: the sink cycle {2,3} completes first.
	want := [][]int{{2, 3}, {0, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SCCs(nil) = %v, want %v", got, want)
	}
	again := kn.SCCs(nil)
	if &got[0][0] != &again[0][0] {
		t.Fatalf("SCCs(nil) not cached")
	}
	restricted := kn.SCCs([]bool{true, true, false, false})
	if !reflect.DeepEqual(restricted, [][]int{{0, 1}}) {
		t.Fatalf("SCCs(restricted) = %v", restricted)
	}
}

func TestSCCsFuncSelfLoopAndSingletons(t *testing.T) {
	// 0 -> 1 -> 2, self-loop on 2 only.
	rows := [][]int{{1}, {2}, {2}}
	got := SCCsFunc(3,
		func(q int) int { return len(rows[q]) },
		func(q, i int) int { return rows[q][i] },
		nil)
	want := [][]int{{2}, {1}, {0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SCCsFunc = %v, want %v", got, want)
	}
}

func TestSCCsCtxBudget(t *testing.T) {
	kn := twoCycles()
	ctx := budget.With(context.Background(), budget.New(0, 1))
	comps, err := kn.SCCsCtx(ctx, nil)
	if err != nil {
		t.Fatalf("SCCsCtx within budget: %v", err)
	}
	if !reflect.DeepEqual(comps, kn.SCCs(nil)) {
		t.Fatalf("SCCsCtx disagrees with SCCs")
	}
	// The single step is spent; a second governed pass must trip.
	if _, err := New(kn.Rows(), kn.Width(), 0).SCCsCtx(ctx, nil); err == nil {
		t.Fatalf("SCCsCtx over an exhausted step budget must fail")
	}
}

func TestIsCyclic(t *testing.T) {
	kn := twoCycles()
	if !kn.IsCyclic([]int{0, 1}) {
		t.Fatalf("{0,1} is a cycle")
	}
	if kn.IsCyclic([]int{1}) {
		t.Fatalf("singleton without self-loop is not cyclic")
	}
	if !kn.IsCyclic([]int{2}) && kn.IsCyclic([]int{2}) {
		t.Fatalf("unreachable branch")
	}
	kn2 := diamond()
	if !kn2.IsCyclic([]int{3}) {
		t.Fatalf("self-loop singleton is cyclic")
	}
	if kn2.IsCyclic([]int{1, 2}) {
		t.Fatalf("{1,2} in diamond has no internal edge")
	}
}

// cyclicBitset is IsCyclic's definition over a membership bitset: the
// set holds an edge internal to it.
func cyclicBitset(kn *Kernel, set []int) bool {
	in := NewBitSet(kn.NumStates())
	for _, q := range set {
		in.Set(q)
	}
	for _, q := range set {
		for _, next := range kn.Row(q) {
			if in.Get(next) {
				return true
			}
		}
	}
	return false
}

// TestIsCyclicMatchesBitset compares the binary-search check with the
// bitset definition on random graphs, some states without edges: on
// every component of the full decomposition and of a restricted one,
// and on random sorted sets.
func TestIsCyclicMatchesBitset(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		width := 1 + rng.Intn(3)
		rows := make([][]int, n)
		allowed := make([]bool, n)
		for q := range rows {
			for i := rng.Intn(width + 1); i > 0; i-- {
				rows[q] = append(rows[q], rng.Intn(n))
			}
			allowed[q] = rng.Intn(3) > 0
		}
		kn := New(rows, width, 0)
		sets := append(append([][]int(nil), kn.SCCs(nil)...), kn.SCCs(allowed)...)
		for i := 0; i < 20; i++ {
			var set []int
			for q := 0; q < n; q++ {
				if rng.Intn(4) == 0 {
					set = append(set, q)
				}
			}
			sets = append(sets, set)
		}
		for _, set := range sets {
			if got, want := kn.IsCyclic(set), cyclicBitset(kn, set); got != want {
				t.Fatalf("trial %d: IsCyclic(%v) = %v, bitset definition %v (rows %v)", trial, set, got, want, rows)
			}
		}
	}
}

func TestBackwardClosure(t *testing.T) {
	kn := diamond()
	got := kn.BackwardClosure([]bool{false, false, false, true, false})
	want := []bool{true, true, true, true, false}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BackwardClosure = %v, want %v", got, want)
	}
}

func TestBitSet(t *testing.T) {
	b := NewBitSet(130)
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
	}
	if b.Count() != 4 {
		t.Fatalf("Count = %d", b.Count())
	}
	if !b.Get(64) || b.Get(65) {
		t.Fatalf("membership wrong")
	}
	b.Clear(64)
	if b.Get(64) || b.Count() != 3 {
		t.Fatalf("Clear failed")
	}
}

func TestPairInterner(t *testing.T) {
	in := NewPairInterner()
	if id := in.Intern(3, 7); id != 0 {
		t.Fatalf("first id = %d", id)
	}
	if id := in.Intern(7, 3); id != 1 {
		t.Fatalf("swapped pair must be distinct, id = %d", id)
	}
	if id := in.Intern(3, 7); id != 0 {
		t.Fatalf("repeat lookup = %d", id)
	}
	x, y := in.Pair(1)
	if x != 7 || y != 3 {
		t.Fatalf("Pair(1) = (%d,%d)", x, y)
	}
	if in.Len() != 2 {
		t.Fatalf("Len = %d", in.Len())
	}
}

func TestKeyAndTupleInterner(t *testing.T) {
	ki := NewKeyInterner()
	id, fresh := ki.Intern([]byte("ab"))
	if id != 0 || !fresh {
		t.Fatalf("first intern = %d, %v", id, fresh)
	}
	id, fresh = ki.Intern([]byte("ab"))
	if id != 0 || fresh {
		t.Fatalf("repeat intern = %d, %v", id, fresh)
	}
	if ki.Len() != 1 {
		t.Fatalf("Len = %d", ki.Len())
	}

	ti := NewTupleInterner()
	a, fresh := ti.InternInts([]int{1, 2, 3})
	if a != 0 || !fresh {
		t.Fatalf("tuple intern = %d, %v", a, fresh)
	}
	b, fresh := ti.Intern32([]int32{1, 2, 3})
	if b != 0 || fresh {
		t.Fatalf("int32 view of same tuple = %d, %v", b, fresh)
	}
	c, _ := ti.InternInts([]int{1, 2})
	if c != 1 {
		t.Fatalf("shorter tuple must be distinct, id = %d", c)
	}
}

func TestGenericInterner(t *testing.T) {
	type st struct{ q, j, flag int }
	in := NewInterner[st]()
	a := in.Intern(st{1, 2, 0})
	b := in.Intern(st{1, 2, 1})
	if a != 0 || b != 1 {
		t.Fatalf("ids = %d, %d", a, b)
	}
	if in.Intern(st{1, 2, 0}) != 0 {
		t.Fatalf("repeat lookup failed")
	}
	if in.Key(1) != (st{1, 2, 1}) {
		t.Fatalf("Key(1) = %v", in.Key(1))
	}
}

func TestMembers(t *testing.T) {
	got := Members(4, []int{0, 2})
	if !reflect.DeepEqual(got, []bool{true, false, true, false}) {
		t.Fatalf("Members = %v", got)
	}
}

func TestSCCsMatchNaiveOnRandomish(t *testing.T) {
	// A few fixed graphs; verify every allowed node lands in exactly one
	// component and components are internally sorted.
	graphs := [][][]int{
		{{0, 0}},
		{{1, 2}, {0, 2}, {2, 2}},
		{{1, 1}, {2, 2}, {0, 3}, {3, 3}},
	}
	for gi, rows := range graphs {
		kn := New(rows, 2, 0)
		comps := kn.SCCs(nil)
		seen := make([]int, len(rows))
		for _, c := range comps {
			if !sort.IntsAreSorted(c) {
				t.Fatalf("graph %d: component %v not sorted", gi, c)
			}
			for _, q := range c {
				seen[q]++
			}
		}
		for q, n := range seen {
			if n != 1 {
				t.Fatalf("graph %d: state %d in %d components", gi, q, n)
			}
		}
	}
}
