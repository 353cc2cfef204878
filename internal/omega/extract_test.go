package omega

// A failed loop extraction, forced through the extractor seam, must come
// back from every witness-producing procedure as an error — never as an
// "empty" or "contained" verdict.

import (
	"context"
	"errors"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/autkern"
)

func TestFailedExtractionIsAnError(t *testing.T) {
	defer func(orig func(*autkern.Streett, []int, []bool, []int, []int) ([]autkern.Edge, []autkern.Edge, error)) {
		lasso = orig
	}(lasso)
	lasso = func(*autkern.Streett, []int, []bool, []int, []int) ([]autkern.Edge, []autkern.Edge, error) {
		return nil, nil, autkern.ErrNoLasso
	}
	ctx := context.Background()
	alpha := alphabet.MustLetters("ab")
	all, none := Universal(alpha), Empty(alpha)
	if _, ok, err := all.WitnessLassoCtx(ctx); !errors.Is(err, autkern.ErrNoLasso) {
		t.Errorf("WitnessLassoCtx = %v, %v; want ErrNoLasso", ok, err)
	}
	if ok, _, err := none.ContainsCtx(ctx, all); !errors.Is(err, autkern.ErrNoLasso) {
		t.Errorf("ContainsCtx = %v, %v; want ErrNoLasso", ok, err)
	}
	if ok, _, err := none.ContainsEagerCtx(ctx, all); !errors.Is(err, autkern.ErrNoLasso) {
		t.Errorf("ContainsEagerCtx = %v, %v; want ErrNoLasso", ok, err)
	}
	if ok, _, err := all.EquivalentCtx(ctx, none); !errors.Is(err, autkern.ErrNoLasso) {
		t.Errorf("EquivalentCtx = %v, %v; want ErrNoLasso", ok, err)
	}
	if _, ok, err := IntersectWitnessCtx(ctx, all, all); !errors.Is(err, autkern.ErrNoLasso) {
		t.Errorf("IntersectWitnessCtx = %v, %v; want ErrNoLasso", ok, err)
	}
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, autkern.ErrNoLasso) {
			t.Errorf("IsEmpty recovered %v; want a panic with ErrNoLasso", err)
		}
	}()
	all.IsEmpty()
	t.Error("IsEmpty returned instead of panicking")
}
