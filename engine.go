package temporal

import (
	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ltl"
	"repro/internal/omega"
	"repro/internal/store"
)

// Engine is the memoizing execution layer for classification and model
// checking. Each request runs the core procedures on the caller's
// goroutine under a per-request budget and recovery boundary, and
// results are memoized under structural keys in a size-bounded LRU
// cache, so repeated and structurally identical properties are answered
// without recomputation. Batch runs its distinct items concurrently.
//
// Construct one with NewEngine and reuse it — the cache only pays off
// across calls. Its methods take a context.Context for cancellation;
// the package-level free functions (Classify, ClassifyAutomaton, Check,
// …) are context-free convenience forms on a shared default engine.
type Engine = engine.Engine

// EngineOption configures an Engine at construction.
type EngineOption = engine.Option

// CacheStats is a snapshot of an engine's memo-cache traffic.
type CacheStats = engine.CacheStats

// BatchRequest is one Engine.Batch work item: exactly one of Formula or
// Automaton must be set; Props qualifies a formula request as in
// CompileFormula.
type BatchRequest = engine.Request

// BatchResult is the outcome of one Batch item, positionally matching
// the request slice.
type BatchResult = engine.Result

// NewEngine builds an Engine. By default Batch runs up to
// runtime.GOMAXPROCS(0) items at once and the memo cache holds
// engine.DefaultCacheSize entries; override with WithParallelism and
// WithCacheSize.
func NewEngine(opts ...EngineOption) *Engine { return engine.New(opts...) }

// WithParallelism bounds how many Batch items the engine runs at once
// (n < 1 means one at a time). Every other request runs on its caller's
// goroutine.
func WithParallelism(n int) EngineOption { return engine.WithParallelism(n) }

// WithCacheSize bounds the engine's memo cache to n entries; n <= 0
// disables caching.
func WithCacheSize(n int) EngineOption { return engine.WithCacheSize(n) }

// WithStateBudget caps the number of automaton states any single engine
// request may materialize across all its constructions (subset
// construction, products, canonicalization merges). A request exceeding
// the cap fails with ErrBudgetExceeded instead of exhausting memory;
// n <= 0 means unlimited (the default).
func WithStateBudget(n int64) EngineOption { return engine.WithStateBudget(n) }

// WithStepBudget caps the abstract work steps (partition refinements,
// SCC passes, emptiness refinements) any single engine request may
// spend; n <= 0 means unlimited (the default). Use context.WithTimeout
// for wall-clock deadlines.
func WithStepBudget(n int64) EngineOption { return engine.WithStepBudget(n) }

// WithPersistentStore adds a crash-safe, disk-backed verdict tier behind
// the memo cache: terminal classification and planned verdicts persist
// to the append-only log at path, and a fresh process re-serves them
// from disk (warm start; Verdict.Stored marks such answers). Corruption
// or I/O trouble self-disables the store while the engine degrades to
// in-memory operation — a failing disk never fails a query. Call
// Engine.Close before exit to flush write-behind verdicts; StoreStats
// reports the tier's health and traffic.
func WithPersistentStore(path string) EngineOption { return engine.WithPersistentStore(path) }

// StoreStats is a snapshot of an engine's persistent verdict store:
// circuit state (Enabled/Reason), resident records and traffic counters.
type StoreStats = store.Stats

// Typed sentinel errors, matchable with errors.Is (and errors.As for
// *ParseError).
var (
	// ErrCanceled is reported by the Engine methods when the operation
	// stopped because its context was canceled; the context's own error
	// is wrapped alongside.
	ErrCanceled = engine.ErrCanceled
	// ErrNotOmegaDeterministic is reported when an automaton definition
	// is not complete deterministic (missing, duplicate or out-of-range
	// transitions).
	ErrNotOmegaDeterministic = omega.ErrNotOmegaDeterministic
	// ErrNotInClass is reported by the canonicalizers when the property
	// lies outside the requested class.
	ErrNotInClass = omega.ErrNotInClass
	// ErrNotNormalizable is reported for formulas outside the
	// normalizable fragment of §4.
	ErrNotNormalizable = core.ErrNotNormalizable
	// ErrBudgetExceeded is reported when a request exceeds a configured
	// state or step budget (WithStateBudget/WithStepBudget); the concrete
	// error details which resource ran out.
	ErrBudgetExceeded = budget.ErrBudgetExceeded
)

// InternalError is reported when a panic escaped from inside an engine
// operation; the engine converts every panic at its boundary, so one
// poisoned request cannot kill the process. Match with errors.As.
type InternalError = engine.InternalError

// ParseError is the typed error returned by ParseFormula; it carries the
// input and the byte offset of the offending token.
type ParseError = ltl.ParseError

// defaultEngine backs the package-level convenience functions. It is
// constructed once with the default options; programs wanting their own
// parallelism/cache bounds, budgets or cancellation should construct an
// Engine with NewEngine and call its methods.
var defaultEngine = engine.New()
