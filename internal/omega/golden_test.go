package omega_test

// Golden-witness suite: the verdict and witness lasso of every violated
// containment and equivalence and of every non-empty intersection in the
// differential corpus, from both the lazy procedures and the eager
// oracle, are pinned byte for byte in testdata/golden_witnesses.txt. A
// change to what the searches cost must leave every witness unchanged.
// Regenerate deliberately, in a commit of its own, with
//
//	go test ./internal/omega -run GoldenWitnesses -update

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/omega"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_witnesses.txt from the current procedures")

// goldenPairs is the full differential corpus size, whatever -short says:
// the pinned file covers every query the full suite makes.
const goldenPairs = 5000

// renderWitnesses replays the differential suite's three corpora (same
// seeds, same draws) and renders one line per violated or non-empty
// query.
func renderWitnesses(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	rng := rand.New(rand.NewSource(20260806))
	for i := 0; i < goldenPairs; i++ {
		a, bb := randomPair(rng)
		ok, w, err := a.Contains(bb)
		if err != nil {
			t.Fatalf("contains %d: %v", i, err)
		}
		eok, ew, err := a.ContainsEager(bb)
		if err != nil {
			t.Fatalf("contains %d eager: %v", i, err)
		}
		if !ok || !eok {
			fmt.Fprintf(&b, "contains\t%d\tlazy %v\teager %v\n", i, w, ew)
		}
	}
	rng = rand.New(rand.NewSource(97))
	for i := 0; i < goldenPairs/2; i++ {
		a, bb := randomPair(rng)
		if i%4 == 0 {
			bb = a.Trim()
		}
		ok, w, err := a.Equivalent(bb)
		if err != nil {
			t.Fatalf("equivalent %d: %v", i, err)
		}
		eok, ew, err := a.EquivalentEagerCtx(context.Background(), bb)
		if err != nil {
			t.Fatalf("equivalent %d eager: %v", i, err)
		}
		if !ok || !eok {
			fmt.Fprintf(&b, "equivalent\t%d\tlazy %v\teager %v\n", i, w, ew)
		}
	}
	rng = rand.New(rand.NewSource(4242))
	for i := 0; i < goldenPairs/2; i++ {
		k := 2 + rng.Intn(2)
		autos := make([]*omega.Automaton, k)
		for j := range autos {
			autos[j] = gen.RandomStreett(rng, ab, 2+rng.Intn(3), 1+rng.Intn(2), 0.4, 0.4)
		}
		w, ok, err := omega.IntersectWitness(autos...)
		if err != nil {
			t.Fatalf("intersect %d: %v", i, err)
		}
		prod, err := omega.IntersectAll(autos...)
		if err != nil {
			t.Fatalf("intersect %d eager: %v", i, err)
		}
		ew, eok := prod.WitnessLasso()
		if ok || eok {
			fmt.Fprintf(&b, "intersect\t%d\tlazy %v\teager %v\n", i, w, ew)
		}
	}
	return b.Bytes()
}

// TestGoldenWitnesses asserts that the lazy and eager procedures
// reproduce the pinned verdicts and witnesses byte for byte.
func TestGoldenWitnesses(t *testing.T) {
	path := filepath.Join("testdata", "golden_witnesses.txt")
	got := renderWitnesses(t)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from %s:\n got: %.300s\nwant: %.300s", i+1, path, gl[i], wl[i])
		}
	}
	t.Fatalf("%d lines, %s has %d", len(gl), path, len(wl))
}
