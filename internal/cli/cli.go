// Package cli is the shared flag and bootstrap helper for the repo's
// command-line tools. cmd/classify, cmd/speccheck and cmd/temporald all
// expose the same observability and governance knobs; defining them here
// once keeps names, defaults and help strings aligned across the tools
// (and the step-budget derivation identical), instead of three drifting
// copies.
//
// Usage pattern:
//
//	fs := flag.NewFlagSet("mytool", flag.ContinueOnError)
//	c := cli.Register(fs, cli.FlagObs|cli.FlagBudget|cli.FlagTimeout|cli.FlagJobs)
//	fs.Parse(args)
//	finish, err := c.SetupObs(stderr)      // obs pipeline + optional /metrics listener
//	ctx, cancel := c.Context(context.Background())
//	eng := temporal.NewEngine(c.EngineOptions()...)
//
// Tools with divergent semantics for one knob (temporald's -timeout is
// per-request, not per-run) omit that bit from the mask and register the
// flag themselves on the exported Common field.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/obshttp"
)

// Flag selects which shared flags Register defines.
type Flag uint

const (
	// FlagStats defines -stats (span tree + metrics to stderr).
	FlagStats Flag = 1 << iota
	// FlagTrace defines -trace FILE (JSONL span/metric export).
	FlagTrace
	// FlagSlowOp defines -slow-op DUR (slow-span JSONL logging).
	FlagSlowOp
	// FlagMetricsAddr defines -metrics-addr (ephemeral /metrics server).
	FlagMetricsAddr
	// FlagBudget defines -budget N (per-request state budget; a step
	// budget is derived from it, see EngineOptions).
	FlagBudget
	// FlagTimeout defines -timeout DUR (whole-run wall-clock deadline).
	FlagTimeout
	// FlagJobs defines -jobs N (engine worker-pool bound).
	FlagJobs
	// FlagStore defines -store PATH (persistent verdict store for
	// cross-process warm starts).
	FlagStore

	// FlagObs bundles the four observability flags.
	FlagObs = FlagStats | FlagTrace | FlagSlowOp | FlagMetricsAddr
	// FlagAll bundles everything.
	FlagAll = FlagObs | FlagBudget | FlagTimeout | FlagJobs | FlagStore
)

// Common holds the parsed shared flags. Fields whose flags were not
// selected keep their zero values, which every consumer treats as
// "off"; a tool may also set a field itself (temporald binds -timeout
// to Timeout with its own default and usage string).
type Common struct {
	Stats       bool
	TracePath   string
	SlowOp      time.Duration
	MetricsAddr string
	Budget      int64
	Timeout     time.Duration
	Jobs        int
	StorePath   string

	// SlowOpW overrides the slow-op JSONL destination (default: the
	// stderr writer passed to SetupObs). temporald points it at the
	// -slow-op-log file.
	SlowOpW io.Writer
}

// Register defines the selected shared flags on fs and returns the
// struct their values land in.
func Register(fs *flag.FlagSet, mask Flag) *Common {
	c := &Common{}
	if mask&FlagStats != 0 {
		fs.BoolVar(&c.Stats, "stats", false, "print span tree, stage summary and metrics to stderr")
	}
	if mask&FlagTrace != 0 {
		fs.StringVar(&c.TracePath, "trace", "", "write spans and metrics as JSON lines to this file")
	}
	if mask&FlagSlowOp != 0 {
		fs.DurationVar(&c.SlowOp, "slow-op", 0, "log spans at or above this duration as JSONL (0 = off)")
	}
	if mask&FlagMetricsAddr != 0 {
		fs.StringVar(&c.MetricsAddr, "metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address for the run's duration")
	}
	if mask&FlagBudget != 0 {
		fs.Int64Var(&c.Budget, "budget", 0, "state budget per request: abort any request that materializes more automaton states (0 = unlimited)")
	}
	if mask&FlagTimeout != 0 {
		fs.DurationVar(&c.Timeout, "timeout", 0, "wall-clock deadline for the whole run, e.g. 30s (0 = none)")
	}
	if mask&FlagJobs != 0 {
		fs.IntVar(&c.Jobs, "jobs", 0, "engine worker-pool bound (0 = number of CPUs)")
	}
	if mask&FlagStore != 0 {
		fs.StringVar(&c.StorePath, "store", "", "persistent verdict store file: warm-start from it and persist new terminal verdicts (created if absent)")
	}
	return c
}

// SetupObs starts the observability pipeline from the parsed flags:
// obs.Setup with -stats/-trace/-slow-op, plus an obshttp listener when
// -metrics-addr was given (its bound address is announced on stderr).
// The returned finish must be called once at the end of the run; it
// flushes the trace file and reports any deferred write error.
func (c *Common) SetupObs(stderr io.Writer) (finish func() error, err error) {
	slowW := c.SlowOpW
	if slowW == nil {
		slowW = stderr
	}
	finish, err = obs.Setup(obs.Config{
		Stats:     c.Stats,
		TracePath: c.TracePath,
		SlowOp:    c.SlowOp,
		SlowOpW:   slowW,
	}, stderr)
	if err != nil {
		return nil, err
	}
	if c.MetricsAddr != "" {
		addr, lerr := obshttp.Listen(c.MetricsAddr, nil)
		if lerr != nil {
			return nil, lerr
		}
		fmt.Fprintf(stderr, "metrics: http://%s/metrics\n", addr)
	}
	return finish, nil
}

// Context derives the run context: when the pipeline is live a TraceID
// is minted up front so every engine request of the run shares it in
// the JSONL records, and -timeout (if set) becomes the deadline. The
// returned cancel is never nil.
func (c *Common) Context(parent context.Context) (context.Context, context.CancelFunc) {
	ctx := parent
	if obs.Enabled() {
		ctx, _ = obs.EnsureTraceID(ctx)
	}
	if c.Timeout > 0 {
		return context.WithTimeout(ctx, c.Timeout)
	}
	return ctx, func() {}
}

// EngineOptions translates the governance flags into engine options.
// The -budget flag caps states directly; a step budget of 64x is
// derived from it, because the iterative analyses (refinements, SCC
// passes, planner probes) do a bounded amount of work per materialized
// state — generous for legitimate inputs while still bounding runaway
// refinement. This derivation lives here so every tool governs requests
// identically.
func (c *Common) EngineOptions(extra ...engine.Option) []engine.Option {
	var opts []engine.Option
	if c.Jobs > 0 {
		opts = append(opts, engine.WithParallelism(c.Jobs))
	}
	if c.Budget > 0 {
		opts = append(opts, engine.WithStateBudget(c.Budget),
			engine.WithStepBudget(64*c.Budget))
	}
	if c.StorePath != "" {
		opts = append(opts, engine.WithPersistentStore(c.StorePath))
	}
	return append(opts, extra...)
}

// FinishEngine is the end-of-run counterpart to EngineOptions: it
// flushes and closes the engine's persistent store (making write-behind
// verdicts durable for the next process) and, when a store was
// configured but is not healthy, reports why on stderr — degraded
// operation is deliberate, but never silent. Engines without a store
// finish trivially.
func (c *Common) FinishEngine(eng *engine.Engine, stderr io.Writer) error {
	err := eng.Close()
	if st := eng.StoreStats(); c.StorePath != "" && !st.Enabled && st.Reason != "closed" {
		fmt.Fprintf(stderr, "store: disabled (%s); ran in-memory\n", st.Reason)
	}
	return err
}
