// Package engine is the memo-and-governance layer over internal/core.
// The procedures are core's: compilation (core.CompileFormulaOverCtx)
// and classification (core.ClassifyAutomatonCtx) run on the caller's
// goroutine, and the engine adds what a long-lived service needs around
// them. Results are memoized under canonical keys (BFS structural
// encodings for automata, normalized renderings for formulas and their
// clauses), so repeated and structurally identical work is answered from
// cache; Batch is the one place the engine runs work concurrently.
//
// All entry points take a context.Context and stop promptly when it is
// canceled, reporting ErrCanceled.
//
// The engine is also the pipeline's fault boundary. With WithStateBudget
// and WithStepBudget configured, every request runs under a budget
// carried in its context and aborts with budget.ErrBudgetExceeded when a
// construction blows up, instead of exhausting memory. Every request and
// every Batch item runs inside a recovery boundary that converts internal
// panics into a typed *InternalError carrying the operation name and
// stack, so one poisoned request can neither kill the process nor fail
// its neighbours.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ltl"
	"repro/internal/obs"
	"repro/internal/omega"
	"repro/internal/plan"
	"repro/internal/store"
)

var (
	cntClassify = obs.NewCounter("engine.classify.calls")
	cntCompile  = obs.NewCounter("engine.compile.calls")
	cntBatch    = obs.NewCounter("engine.batch.calls")
)

// ErrCanceled is reported (via errors.Is) by every engine entry point
// when the operation stopped because its context was canceled or its
// deadline expired. The context's own error is wrapped alongside, so
// errors.Is(err, context.Canceled) keeps working too.
var ErrCanceled = errors.New("engine: operation canceled")

// DefaultCacheSize is the memo-cache entry bound used when no
// WithCacheSize option is given.
const DefaultCacheSize = 1024

// Engine is a memoizing façade over the core procedures. The zero value
// is not usable; construct with New. An Engine is safe for concurrent
// use and is meant to be long-lived — the memo cache only pays off
// across calls.
type Engine struct {
	workers   int
	cacheSize int
	maxStates int64
	maxSteps  int64
	sem       chan struct{}
	cache     *memoCache

	// Persistent verdict tier (WithPersistentStore). store is nil when
	// unconfigured or the open failed; storeErr keeps the open failure
	// for StoreStats. The engine never fails a query on store trouble —
	// the store self-disables and the engine runs in-memory.
	storePath string
	store     *store.Store
	storeErr  error
}

// Option configures an Engine.
type Option func(*Engine)

// WithParallelism bounds how many Batch items run at once; n < 1 is
// clamped to 1 (fully sequential). The default is runtime.GOMAXPROCS(0).
// Every other request runs on its caller's goroutine.
func WithParallelism(n int) Option {
	return func(e *Engine) { e.workers = n }
}

// WithCacheSize bounds the memo cache to n entries; n <= 0 disables
// caching entirely. The default is DefaultCacheSize.
func WithCacheSize(n int) Option {
	return func(e *Engine) { e.cacheSize = n }
}

// New builds an Engine with the given options.
func New(opts ...Option) *Engine {
	e := &Engine{workers: runtime.GOMAXPROCS(0), cacheSize: DefaultCacheSize}
	for _, o := range opts {
		o(e)
	}
	if e.workers < 1 {
		e.workers = 1
	}
	e.sem = make(chan struct{}, e.workers)
	e.cache = newMemoCache(e.cacheSize)
	e.openStore()
	return e
}

// CacheStats returns a snapshot of this engine's memo-cache traffic.
func (e *Engine) CacheStats() CacheStats { return e.cache.stats() }

// wrapErr maps context errors to ErrCanceled (wrapping the original so
// errors.Is matches both) and passes everything else — including
// budget.ErrBudgetExceeded and *InternalError — through. Idempotent, so
// inner procedures can apply it before serve does.
func wrapErr(err error) error {
	if err == nil || errors.Is(err, ErrCanceled) {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return err
}

// serve runs one top-level request inside the engine's envelope, and
// is the only place the envelope is opened: the request's governance
// context (withBudget), its observability span (startRequest), the
// recovery boundary (capture) and the ErrCanceled mapping (wrapErr).
// Exported methods call serve once and reach the procedures only
// through their unexported forms, so no request nests a second
// envelope.
func serve[T any](ctx context.Context, e *Engine, op string, fn func(context.Context) (T, error)) (T, error) {
	ctx = e.withBudget(ctx)
	ctx, done := e.startRequest(ctx, op)
	var v T
	err := capture(op, func() (err error) {
		v, err = fn(ctx)
		return
	})
	done(&err)
	if err != nil {
		var zero T
		return zero, wrapErr(err)
	}
	return v, nil
}

// ClassifyAutomaton classifies the property specified by a deterministic
// Streett automaton (§5.1, core.ClassifyAutomatonCtx). The result is
// memoized under the automaton's structural key, so automata with the
// same reachable structure (not just the same pointer) share one
// classification.
//
// The call runs under the engine's resource governance: a fresh budget
// (if caps are configured and the caller didn't attach one) and a
// recovery boundary converting internal panics into *InternalError.
func (e *Engine) ClassifyAutomaton(ctx context.Context, a *omega.Automaton) (core.Classification, error) {
	return serve(ctx, e, "ClassifyAutomaton", func(ctx context.Context) (core.Classification, error) {
		return e.classifyAutomaton(ctx, a)
	})
}

func (e *Engine) classifyAutomaton(ctx context.Context, a *omega.Automaton) (core.Classification, error) {
	if err := ctx.Err(); err != nil {
		return core.Classification{}, wrapErr(err)
	}
	cntClassify.Inc()
	key := "classify|" + a.StructuralKey()
	// A hit records the stage span core records for a miss, so a trace
	// names the stage whichever tier answered.
	hit := func(attr string) {
		obs.StartIn(ctx, "classify.automaton").Int("states", a.NumStates()).Int("pairs", a.NumPairs()).Bool(attr, true).End()
	}
	if v, ok := e.cache.get(key); ok {
		hit("cached")
		return v.(core.Classification), nil
	}
	if c, ok := e.storeGetClass(key); ok {
		// Disk-warm hit: promote into the memo tier so the rest of the
		// process is answered from memory.
		hit("stored")
		e.cache.put(key, c)
		return c, nil
	}
	c, err := core.ClassifyAutomatonCtx(ctx, a)
	if err != nil {
		return core.Classification{}, wrapErr(err)
	}
	// Terminal verdict: memoize and persist. Faulted or budget-aborted
	// classifications returned above on the error path, so — exactly as
	// for the memo cache — they can never reach the disk tier.
	e.cache.put(key, c)
	e.storePutClass(key, c)
	return c, nil
}

// CompileFormula builds the deterministic Streett automaton of the
// formula over the valuation alphabet 2^props (Prop. 5.3,
// core.CompileFormulaCtx). Both the whole formula and each clause of its
// normal form are memoized, so requests that share clauses (a common
// fairness conjunct, say) compile the shared sub-automaton once.
//
// The call runs under the engine's resource governance: a fresh budget
// (if caps are configured and the caller didn't attach one) and a
// recovery boundary converting internal panics into *InternalError.
func (e *Engine) CompileFormula(ctx context.Context, f ltl.Formula, props []string) (*omega.Automaton, error) {
	return serve(ctx, e, "CompileFormula", func(ctx context.Context) (*omega.Automaton, error) {
		return e.compileFormula(ctx, f, props)
	})
}

func (e *Engine) compileFormula(ctx context.Context, f ltl.Formula, props []string) (*omega.Automaton, error) {
	if err := ctx.Err(); err != nil {
		return nil, wrapErr(err)
	}
	cntCompile.Inc()
	props = core.CompileProps(f, props)
	propsKey := strings.Join(props, "\x1f")
	key := "compile|" + propsKey + "|" + f.String()
	if v, ok := e.cache.get(key); ok {
		obs.StartIn(ctx, "compile.formula").Stringer("formula", f).Bool("cached", true).End()
		return v.(*omega.Automaton), nil
	}
	alpha, err := alphabet.Valuations(props)
	if err != nil {
		return nil, err
	}
	res, err := core.CompileFormulaOverCtx(ctx, f, alpha, func(ctx context.Context, c core.Clause, alpha *alphabet.Alphabet) (*omega.Automaton, error) {
		ck := "clause|" + propsKey + "|" + c.Formula().String()
		if v, ok := e.cache.get(ck); ok {
			return v.(*omega.Automaton), nil
		}
		a, err := core.CompileClauseOver(ctx, c, alpha)
		if err != nil {
			return nil, err
		}
		e.cache.put(ck, a)
		return a, nil
	})
	if err != nil {
		return nil, wrapErr(err)
	}
	e.cache.put(key, res)
	return res, nil
}

// ClassifyFormula compiles the formula and classifies the resulting
// automaton; both steps hit the memo cache and draw from one shared
// per-request budget.
func (e *Engine) ClassifyFormula(ctx context.Context, f ltl.Formula, props []string) (core.Classification, error) {
	return serve(ctx, e, "ClassifyFormula", func(ctx context.Context) (core.Classification, error) {
		a, err := e.compileFormula(ctx, f, props)
		if err != nil {
			return core.Classification{}, err
		}
		return e.classifyAutomaton(ctx, a)
	})
}

// verdictSource says which tier answered a planned query: computed
// fresh, served from the in-memory memo cache, or served disk-warm from
// the persistent store. Check surfaces it as Verdict.Cached/Stored.
type verdictSource int

const (
	srcComputed verdictSource = iota
	srcMemo
	srcStore
)

// contains is the planned-containment procedure behind Check.
// Verdicts are memoized with their provenance, so a cache hit still
// reports which tier originally answered; fallback outcomes are never
// cached or persisted — the failure that forced the fallback may have
// been injected or transient, and caching would both hide the fast path
// forever and freeze a verdict whose provenance says "something went
// wrong".
func (e *Engine) contains(ctx context.Context, a, b *omega.Automaton) (plan.Outcome, verdictSource, error) {
	if err := ctx.Err(); err != nil {
		return plan.Outcome{}, srcComputed, wrapErr(err)
	}
	key := "contains|" + a.StructuralKey() + "|" + b.StructuralKey()
	if v, ok := e.cache.get(key); ok {
		return v.(plan.Outcome), srcMemo, nil
	}
	if out, ok := e.storeGetOutcome(key); ok {
		e.cache.put(key, out)
		return out, srcStore, nil
	}
	pa, err := e.probeAutomaton(ctx, a)
	if err != nil {
		return plan.Outcome{}, srcComputed, err
	}
	pb, err := e.probeAutomaton(ctx, b)
	if err != nil {
		return plan.Outcome{}, srcComputed, err
	}
	out, err := plan.ContainsWith(ctx, plan.DecideContains(pa, pb), a, b)
	if err != nil {
		return plan.Outcome{}, srcComputed, wrapErr(err)
	}
	if !out.Fallback {
		e.cache.put(key, out)
		e.storePutOutcome(key, out)
	}
	return out, srcComputed, nil
}

// Request is one Batch work item: exactly one of Formula or Automaton
// must be set. Props qualifies a Formula request as in CompileFormula.
type Request struct {
	Formula   ltl.Formula
	Props     []string
	Automaton *omega.Automaton
}

// Result is the outcome of one Batch item, positionally matching the
// request slice. Automaton is the classified automaton (the compiled one
// for formula requests).
type Result struct {
	Classification core.Classification
	Automaton      *omega.Automaton
	Err            error
}

// requestKey validates a request and returns its dedup key.
func requestKey(r Request) (string, error) {
	switch {
	case r.Formula != nil && r.Automaton != nil:
		return "", errors.New("engine: batch request sets both Formula and Automaton")
	case r.Formula != nil:
		props := core.CompileProps(r.Formula, r.Props)
		return "f|" + strings.Join(props, "\x1f") + "|" + r.Formula.String(), nil
	case r.Automaton != nil:
		return "a|" + r.Automaton.StructuralKey(), nil
	default:
		return "", errors.New("engine: empty batch request (need Formula or Automaton)")
	}
}

// Batch classifies many formulas and automata at once. Structurally
// identical requests are deduplicated up front — each distinct property
// is classified exactly once and its result copied back to every
// requesting position — and distinct items run concurrently, at most
// WithParallelism at a time, each on its own goroutine. Item errors are
// reported per position, never as a panic; when the context is
// canceled, remaining items report ErrCanceled.
//
// Batch degrades gracefully under faults: each item runs under its own
// budget (when caps are configured) and its own recovery boundary, so an
// item that panics reports an *InternalError at its position while the
// rest of the batch completes normally.
func (e *Engine) Batch(ctx context.Context, reqs []Request) []Result {
	cntBatch.Inc()
	sp := obs.StartIn(ctx, "engine.batch").Int("items", len(reqs))
	defer sp.End()
	results := make([]Result, len(reqs))

	type group struct {
		rep     Request
		indices []int
	}
	groups := make(map[string]*group, len(reqs))
	var order []string
	for i, r := range reqs {
		key, err := requestKey(r)
		if err != nil {
			results[i] = Result{Err: err}
			continue
		}
		g, ok := groups[key]
		if !ok {
			g = &group{rep: r}
			groups[key] = g
			order = append(order, key)
		}
		g.indices = append(g.indices, i)
	}
	sp.Int("unique", len(order))

	var wg sync.WaitGroup
	for _, key := range order {
		g := groups[key]
		select {
		case <-ctx.Done():
			err := wrapErr(ctx.Err())
			for _, i := range g.indices {
				results[i] = Result{Err: err}
			}
			continue
		case e.sem <- struct{}{}:
		}
		wg.Add(1)
		go func(g *group) {
			defer wg.Done()
			defer func() { <-e.sem }()
			res := e.runRequest(ctx, g.rep)
			for _, i := range g.indices {
				results[i] = res
			}
		}(g)
	}
	wg.Wait()
	return results
}

// runRequest executes one deduplicated Batch item as its own request:
// its envelope attaches a per-item budget (so the compile and classify
// stages draw from one budget), mints a fresh TraceID (Batch itself
// stays outside the per-item envelopes, so per-item slow-op records are
// individually correlatable) and wraps the whole item in a recovery
// boundary, so an injected or real panic poisons only this item.
func (e *Engine) runRequest(ctx context.Context, r Request) Result {
	res, err := serve(ctx, e, "Batch.item", func(ctx context.Context) (Result, error) {
		if err := fault.Hit(fault.SiteEngineBatch); err != nil {
			return Result{}, err
		}
		a := r.Automaton
		if a == nil {
			var err error
			if a, err = e.compileFormula(ctx, r.Formula, r.Props); err != nil {
				return Result{}, err
			}
		}
		c, err := e.classifyAutomaton(ctx, a)
		return Result{Classification: c, Automaton: a}, err
	})
	res.Err = err
	return res
}
