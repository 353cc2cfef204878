package engine_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/ltl"
	"repro/internal/obs"
)

func storePath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "verdicts.log")
}

// TestWarmRestartClassification is the tentpole contract end to end: a
// second engine on the same store path serves a classification from
// disk — same verdict, zero recomputation visible as a store hit — and
// promotes it into its own memo tier.
func TestWarmRestartClassification(t *testing.T) {
	path := storePath(t)
	ctx := context.Background()
	f := ltl.MustParse("G (req -> F ack)")

	cold := engine.New(engine.WithPersistentStore(path))
	want, err := cold.ClassifyFormula(ctx, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.StoreStats(); !st.Enabled || st.Records == 0 {
		t.Fatalf("cold engine store stats: %+v", st)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm := engine.New(engine.WithPersistentStore(path))
	defer warm.Close()
	got, err := warm.ClassifyFormula(ctx, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("warm verdict %+v != cold %+v", got, want)
	}
	if warm.StoreStats().Hits == 0 {
		t.Fatal("StoreStats saw no hits")
	}
	// The disk-warm verdict is promoted: a third ask is a memo hit, not
	// another store read.
	before := warm.StoreStats().Hits
	if _, err := warm.ClassifyFormula(ctx, f, nil); err != nil {
		t.Fatal(err)
	}
	if warm.StoreStats().Hits != before {
		t.Fatal("repeat ask went back to disk instead of the memo tier")
	}
}

// TestVerdictStoredProvenance pins the three-way provenance on Check:
// computed (neither flag), disk-warm (Stored), then memo (Cached).
func TestVerdictStoredProvenance(t *testing.T) {
	path := storePath(t)
	ctx := context.Background()
	req := engine.CheckRequest{Kind: engine.CheckEmptiness, LeftFormula: ltl.MustParse("G p")}

	cold := engine.New(engine.WithPersistentStore(path))
	v, err := cold.Check(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if v.Cached || v.Stored {
		t.Fatalf("cold verdict claims cache provenance: %+v", v)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm := engine.New(engine.WithPersistentStore(path))
	defer warm.Close()
	disk, err := warm.Check(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !disk.Stored || disk.Cached {
		t.Fatalf("warm verdict not marked disk-warm: %+v", disk)
	}
	if disk.Holds != v.Holds || disk.Tier != v.Tier {
		t.Fatalf("disk verdict %+v disagrees with computed %+v", disk, v)
	}
	memo, err := warm.Check(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !memo.Cached || memo.Stored {
		t.Fatalf("third ask not marked memo-cached: %+v", memo)
	}
}

// TestFallbackNeverPersisted: an injected specialized-path failure
// forces a fallback outcome; like the memo cache, the store must refuse
// it — the next process must re-run the fast path, not inherit a
// verdict whose provenance says "something went wrong".
func TestFallbackNeverPersisted(t *testing.T) {
	defer fault.Reset()
	path := storePath(t)
	ctx := context.Background()

	eng := engine.New(engine.WithPersistentStore(path))
	fault.InjectError(fault.SitePlan, 1, errors.New("injected specialized failure"))
	v, err := eng.Check(ctx, engine.CheckRequest{
		Kind:         engine.CheckContains,
		LeftFormula:  ltl.MustParse("G p"),
		RightFormula: ltl.MustParse("G (p & q)"),
		Props:        []string{"p", "q"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Fallback {
		t.Skip("injection did not force a fallback on this plan; nothing to assert")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// The only record a fallback run may leave behind is none: the
	// reopened store must hold zero outcome records for this query.
	warm := engine.New(engine.WithPersistentStore(path))
	defer warm.Close()
	if n := warm.StoreStats().Records; n != 0 {
		t.Fatalf("fallback run persisted %d records", n)
	}
}

// TestFaultedQueriesNeverPersisted: a query that errors out (a fault
// injected into classification) must leave nothing on disk.
func TestFaultedQueriesNeverPersisted(t *testing.T) {
	defer fault.Reset()
	path := storePath(t)
	ctx := context.Background()

	eng := engine.New(engine.WithPersistentStore(path))
	fault.InjectError(fault.SiteOmegaEmptiness, 1, errors.New("injected classification failure"))
	if _, err := eng.ClassifyFormula(ctx, ltl.MustParse("G (a -> F b)"), nil); err == nil {
		t.Fatal("injected classification fault did not error")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	warm := engine.New(engine.WithPersistentStore(path))
	defer warm.Close()
	if n := warm.StoreStats().Records; n != 0 {
		t.Fatalf("faulted query persisted %d records", n)
	}
}

// TestStoreReadFaultDegradesNotFails is the read-side governance proof:
// with the store's read path faulted, a decision query still succeeds
// (computed in-memory), the verdict matches a store-less engine, and
// the store reports itself disabled.
func TestStoreReadFaultDegradesNotFails(t *testing.T) {
	defer fault.Reset()
	path := storePath(t)
	ctx := context.Background()
	f := ltl.MustParse("G (req -> F ack)")

	clean := engine.New()
	want, err := clean.ClassifyFormula(ctx, f, nil)
	if err != nil {
		t.Fatal(err)
	}

	eng := engine.New(engine.WithPersistentStore(path))
	defer eng.Close()
	fault.InjectError(fault.SiteStoreRead, 1, errors.New("disk gone"))
	got, err := eng.ClassifyFormula(ctx, f, nil)
	if err != nil {
		t.Fatalf("failing store failed the query: %v", err)
	}
	if got != want {
		t.Fatalf("degraded verdict %+v != clean %+v", got, want)
	}
	st := eng.StoreStats()
	if st.Enabled || !strings.Contains(st.Reason, "disk gone") {
		t.Fatalf("store not disabled after read fault: %+v", st)
	}
}

// TestStoreWriteFaultDegradesNotFails is the write-side proof: a failing
// append disables the store but the query that triggered it — and every
// later one — still answers correctly.
func TestStoreWriteFaultDegradesNotFails(t *testing.T) {
	defer fault.Reset()
	path := storePath(t)
	ctx := context.Background()
	f := ltl.MustParse("F done")

	clean := engine.New()
	want, err := clean.ClassifyFormula(ctx, f, nil)
	if err != nil {
		t.Fatal(err)
	}

	eng := engine.New(engine.WithPersistentStore(path))
	defer eng.Close()
	fault.InjectError(fault.SiteStoreWrite, 1, errors.New("write fault"))
	got, err := eng.ClassifyFormula(ctx, f, nil)
	if err != nil {
		t.Fatalf("failing store failed the query: %v", err)
	}
	if got != want {
		t.Fatalf("verdict %+v != clean %+v", got, want)
	}
	// The write is asynchronous; flush via Close, then check the breaker.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Later queries on the same engine still answer.
	again, err := eng.ClassifyFormula(ctx, ltl.MustParse("G safe"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Lowest().String() == "" {
		t.Fatal("empty classification after store shutdown")
	}
}

// TestCorruptStoreNeverServesWrongVerdict is the randomized end-to-end
// safety proof: seed a store from real queries, flip random bytes in the
// file, reopen an engine over it, and re-ask everything — every answer
// must equal a store-less engine's, whatever the damage did.
func TestCorruptStoreNeverServesWrongVerdict(t *testing.T) {
	path := storePath(t)
	ctx := context.Background()
	suite := []string{
		"G !(c1 & c2)", "F done", "G p | F q",
		"G (req -> F ack)", "F G stable", "G F e -> G F t",
	}

	seed := engine.New(engine.WithPersistentStore(path))
	want := make([]string, len(suite))
	for i, src := range suite {
		c, err := seed.ClassifyFormula(ctx, ltl.MustParse(src), nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprintf("%+v", c)
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(0xdead))
	for trial := 0; trial < 10; trial++ {
		data := append([]byte{}, pristine...)
		for flips := 0; flips < 1+trial; flips++ {
			data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		eng := engine.New(engine.WithPersistentStore(path))
		for i, src := range suite {
			c, err := eng.ClassifyFormula(ctx, ltl.MustParse(src), nil)
			if err != nil {
				t.Fatalf("trial %d: corrupted store failed query %q: %v", trial, src, err)
			}
			if got := fmt.Sprintf("%+v", c); got != want[i] {
				t.Fatalf("trial %d: corrupted store produced WRONG verdict for %q:\n got %s\nwant %s", trial, src, got, want[i])
			}
		}
		eng.Close()
		// Restore the pristine bytes: damage must not accumulate across
		// trials through recovery truncation.
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreOpenFailureLeavesEngineFunctional: an unopenable store (bad
// magic) is a degraded start, not a failed one.
func TestStoreOpenFailureLeavesEngineFunctional(t *testing.T) {
	path := storePath(t)
	if err := os.WriteFile(path, []byte("this is not a verdict store!"), 0o644); err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.WithPersistentStore(path))
	defer eng.Close()
	st := eng.StoreStats()
	if st.Enabled || st.Reason == "" {
		t.Fatalf("unopenable store not reported: %+v", st)
	}
	c, err := eng.ClassifyFormula(context.Background(), ltl.MustParse("G p"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Safety {
		t.Fatalf("degraded engine misclassified G p: %+v", c)
	}
}

// TestRegisterStatsGauges pins the satellite observability contract:
// per-tier entries/hits/misses and the store-enabled gauge appear in a
// registry snapshot with the tier label, and track the engine live.
func TestRegisterStatsGauges(t *testing.T) {
	path := storePath(t)
	eng := engine.New(engine.WithPersistentStore(path))
	defer eng.Close()
	reg := obs.NewRegistry()
	eng.RegisterStatsGauges(reg)

	if _, err := eng.ClassifyFormula(context.Background(), ltl.MustParse("G p"), nil); err != nil {
		t.Fatal(err)
	}
	vals := map[string]int64{}
	for _, m := range reg.Snapshot() {
		vals[m.FullName()] = m.Value
	}
	for _, name := range []string{
		`engine.tier.entries{tier="memory"}`,
		`engine.tier.hits{tier="memory"}`,
		`engine.tier.misses{tier="memory"}`,
		`engine.tier.evictions{tier="memory"}`,
		`engine.tier.hit_ratio_pct{tier="memory"}`,
		`engine.tier.entries{tier="store"}`,
		`engine.tier.hits{tier="store"}`,
		`engine.tier.misses{tier="store"}`,
		`engine.tier.hit_ratio_pct{tier="store"}`,
		`engine.store.enabled`,
	} {
		if _, ok := vals[name]; !ok {
			t.Errorf("gauge %s missing from snapshot", name)
		}
	}
	if vals[`engine.tier.entries{tier="memory"}`] == 0 {
		t.Error("memory tier reports zero entries after a classification")
	}
	if vals[`engine.tier.entries{tier="store"}`] == 0 {
		t.Error("store tier reports zero records after a classification")
	}
	if vals[`engine.store.enabled`] != 1 {
		t.Error("store-enabled gauge is not 1 for a healthy store")
	}

	// After Close the computed gauge must follow the engine's state.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	for _, m := range reg.Snapshot() {
		if m.FullName() == `engine.store.enabled` && m.Value != 0 {
			t.Error("store-enabled gauge still 1 after Close")
		}
	}
}
