package fault

import (
	"errors"
	"strings"
	"testing"
)

// The injection registry is process-global, so these tests run
// sequentially and clean up with Reset.

func TestHitDisarmedIsNil(t *testing.T) {
	Reset()
	for i := 0; i < 100; i++ {
		if err := Hit(SiteDFAProduct); err != nil {
			t.Fatalf("disarmed Hit returned %v", err)
		}
	}
}

func TestInjectErrorFiresAtNthHit(t *testing.T) {
	Reset()
	want := errors.New("boom")
	defer InjectError(SiteDFAProduct, 3, want)()
	if err := Hit(SiteDFAProduct); err != nil {
		t.Fatalf("hit 1 fired early: %v", err)
	}
	if err := Hit(SiteDFAProduct); err != nil {
		t.Fatalf("hit 2 fired early: %v", err)
	}
	if err := Hit(SiteDFAProduct); !errors.Is(err, want) {
		t.Fatalf("hit 3 should fire the injected error, got %v", err)
	}
	if !Fired(SiteDFAProduct) {
		t.Fatal("Fired should report true after firing")
	}
	// Once fired, the site disarms: further hits are clean.
	if err := Hit(SiteDFAProduct); err != nil {
		t.Fatalf("hit after firing returned %v", err)
	}
}

func TestInjectErrorOtherSitesUnaffected(t *testing.T) {
	Reset()
	defer InjectError(SiteDFAProduct, 1, errors.New("boom"))()
	if err := Hit(SiteOmegaProduct); err != nil {
		t.Fatalf("unarmed site fired: %v", err)
	}
}

func TestInjectPanic(t *testing.T) {
	Reset()
	defer InjectPanic(SiteOmegaEmptiness, 1, "wedged")()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("armed Hit should panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, SiteOmegaEmptiness) || !strings.Contains(msg, "wedged") {
			t.Fatalf("panic value %v should name the site and message", r)
		}
	}()
	Hit(SiteOmegaEmptiness)
}

func TestCleanupDisarms(t *testing.T) {
	Reset()
	cleanup := InjectError(SiteDFAMinimize, 5, errors.New("boom"))
	cleanup()
	for i := 0; i < 10; i++ {
		if err := Hit(SiteDFAMinimize); err != nil {
			t.Fatalf("hit after cleanup fired: %v", err)
		}
	}
	if Fired(SiteDFAMinimize) {
		t.Fatal("disarmed site should not report fired")
	}
}

func TestResetDisarmsEverything(t *testing.T) {
	InjectError(SiteDFAProduct, 1, errors.New("a"))
	InjectError(SiteOmegaMerge, 1, errors.New("b"))
	Reset()
	if err := Hit(SiteDFAProduct); err != nil {
		t.Fatalf("site survived Reset: %v", err)
	}
	if err := Hit(SiteOmegaMerge); err != nil {
		t.Fatalf("site survived Reset: %v", err)
	}
}

func TestInjectValidation(t *testing.T) {
	Reset()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s should panic", name)
			}
		}()
		fn()
	}
	mustPanic("InjectError n=0", func() { InjectError(SiteDFAProduct, 0, errors.New("x")) })
	mustPanic("InjectError nil err", func() { InjectError(SiteDFAProduct, 1, nil) })
	mustPanic("InjectPanic empty msg", func() { InjectPanic(SiteDFAProduct, 1, "") })
}
