package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/lang"
	"repro/internal/ltl"
	"repro/internal/obs"
	"repro/internal/ts"
)

// TestRequestEnvelopeStampsTraceID is the end-to-end check for
// request-scoped tracing at the engine boundary: with a JSONL sink
// attached, each call of an exported entry point yields exactly one
// engine.request span, and every span record of the request carries the
// same trace id. It holds only while exported methods never call each
// other, since each opens its own envelope.
func TestRequestEnvelopeStampsTraceID(t *testing.T) {
	ctx := context.Background()
	sys, err := ts.Peterson()
	if err != nil {
		t.Fatal(err)
	}
	a := lang.R(lang.MustRegex(".*b", ab))
	b := lang.P(lang.MustRegex(".*b", ab))
	gp, gfp := ltl.MustParse("G p"), ltl.MustParse("G F p")
	check := func(req engine.CheckRequest) func(*engine.Engine) error {
		return func(eng *engine.Engine) error {
			_, err := eng.Check(ctx, req)
			return err
		}
	}
	calls := []struct {
		name, op string
		call     func(*engine.Engine) error
	}{
		{"ClassifyFormula", "ClassifyFormula", func(eng *engine.Engine) error {
			_, err := eng.ClassifyFormula(ctx, gfp, nil)
			return err
		}},
		{"CompileFormula", "CompileFormula", func(eng *engine.Engine) error {
			_, err := eng.CompileFormula(ctx, gfp, nil)
			return err
		}},
		{"ClassifyAutomaton", "ClassifyAutomaton", func(eng *engine.Engine) error {
			_, err := eng.ClassifyAutomaton(ctx, a)
			return err
		}},
		{"PlanAutomaton", "PlanAutomaton", func(eng *engine.Engine) error {
			_, _, err := eng.PlanAutomaton(ctx, a)
			return err
		}},
		{"CheckContains", "Check", check(engine.CheckRequest{Kind: engine.CheckContains, LeftFormula: gfp, RightFormula: gp})},
		{"CheckEquivalent", "Check", check(engine.CheckRequest{Kind: engine.CheckEquivalent, Left: a, Right: b})},
		{"CheckEmptiness", "Check", check(engine.CheckRequest{Kind: engine.CheckEmptiness, LeftFormula: gfp})},
		{"CheckVerify", "Check", check(engine.CheckRequest{Kind: engine.CheckVerify, System: sys, Formula: ltl.MustParse("G (w1 -> F c1)")})},
		{"Batch", "Batch.item", func(eng *engine.Engine) error {
			return eng.Batch(ctx, []engine.Request{{Formula: gfp}})[0].Err
		}},
	}
	for _, tc := range calls {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			j := obs.NewJSONLSink(&buf)
			obs.Attach(j)
			defer obs.Detach()
			if err := tc.call(engine.New()); err != nil {
				t.Fatal(err)
			}
			obs.Detach()
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			var roots int
			ids := map[string]bool{}
			for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
				var rec struct {
					Record  string `json:"record"`
					Name    string `json:"name"`
					TraceID string `json:"trace_id"`
					Attrs   map[string]any
				}
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatalf("bad JSONL line %q: %v", line, err)
				}
				// Batch's own span sits outside its per-item envelopes.
				if rec.Record != "span" || rec.Name == "engine.batch" {
					continue
				}
				if rec.TraceID == "" {
					t.Fatalf("span %q has no trace_id", rec.Name)
				}
				ids[rec.TraceID] = true
				if rec.Name == "engine.request" {
					roots++
					if rec.Attrs["op"] != tc.op {
						t.Errorf("engine.request op = %v, want %s", rec.Attrs["op"], tc.op)
					}
				}
			}
			if roots != 1 {
				t.Fatalf("got %d engine.request spans, want 1 (entry points must not nest envelopes)", roots)
			}
			if len(ids) != 1 {
				t.Fatalf("spans carry %d distinct trace ids, want 1", len(ids))
			}
		})
	}
}

// TestClassifySpanTree: one classification request records core's
// per-class spans, each exactly once and each a child of the request's
// classify.automaton span.
func TestClassifySpanTree(t *testing.T) {
	var buf bytes.Buffer
	j := obs.NewJSONLSink(&buf)
	obs.Attach(j)
	defer obs.Detach()
	if _, err := engine.New().ClassifyAutomaton(context.Background(), lang.R(lang.MustRegex(".*b", ab))); err != nil {
		t.Fatal(err)
	}
	obs.Detach()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seen, under := map[string]int{}, map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec struct {
			Record, Name, Parent string
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if rec.Record != "span" {
			continue
		}
		seen[rec.Name]++
		if rec.Parent == "classify.automaton" {
			under[rec.Name]++
		}
	}
	for _, name := range []string{"classify.safety", "classify.guarantee", "classify.recurrence", "classify.persistence", "classify.ranks"} {
		if seen[name] != 1 || under[name] != 1 {
			t.Errorf("span %s: %d in trace, %d under classify.automaton; want 1 and 1", name, seen[name], under[name])
		}
	}
}

// TestCallerTraceIDWins: a trace id already on the context (the daemon's
// per-HTTP-request id) must be used rather than a fresh mint.
func TestCallerTraceIDWins(t *testing.T) {
	var buf bytes.Buffer
	j := obs.NewJSONLSink(&buf)
	obs.Attach(j)
	defer obs.Detach()

	ctx := obs.WithTraceID(context.Background(), obs.TraceID("deadbeefcafef00d"))
	eng := engine.New()
	if _, err := eng.ClassifyFormula(ctx, ltl.MustParse("F p"), nil); err != nil {
		t.Fatal(err)
	}
	obs.Detach()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"trace_id":"deadbeefcafef00d"`) {
		t.Fatal("caller-supplied trace id not propagated into span records")
	}
}

// TestEnvelopeFreeWhenOff: with no sink attached and no trace id on the
// context, entry points must not allocate envelope state.
func TestEnvelopeFreeWhenOff(t *testing.T) {
	obs.Detach()
	eng := engine.New(engine.WithParallelism(4))
	ctx := context.Background()
	if _, err := eng.ClassifyFormula(ctx, ltl.MustParse("G p"), nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := eng.ClassifyFormula(ctx, ltl.MustParse("G p"), nil); err != nil {
			t.Fatal(err)
		}
	})
	// 13 allocs is the cached-classify baseline (budget context, capture
	// closure, key build) measured before the envelope existed; a skipped
	// envelope must not add to it.
	if allocs > 13 {
		t.Errorf("disabled-path allocs = %.1f, want ≤ 13 (envelope must be free when off)", allocs)
	}
}
