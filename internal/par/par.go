// Package par holds WithJobs, a context option that sets no
// parallelism: each request runs on one goroutine, and the engine's
// Batch bound (engine.WithParallelism) is the only parallelism bound.
// The package stays because the benchmark module compiles against
// WithJobs.
package par

import "context"

// WithJobs returns ctx unchanged; n has no effect.
func WithJobs(ctx context.Context, n int) context.Context {
	return ctx
}
