// Package obs is the zero-dependency observability layer of the
// classification and model-checking pipeline: hierarchical timed spans,
// process-wide counters/gauges/histograms, and pluggable sinks (an
// in-memory collector whose trees WriteTree prints, a per-stage summary,
// a slow-operation logger, and a JSON-lines exporter with flat,
// CSV-friendly records).
//
// The design goal is that instrumentation is effectively free when no
// sink is attached: Start performs a single atomic load and returns a
// nil *Span, and every Span method is a no-op on a nil receiver. Hot
// paths therefore call obs.Start / span.Int / span.End unconditionally.
// Attribute helpers take scalar arguments (no variadic []Attr at the
// call site) so that the disabled path allocates nothing; expensive
// renderings (formula strings) are deferred with Span.Stringer and only
// evaluated when a sink consumes the span.
//
// Spans nest implicitly: Start parents the new span under the most
// recently started, not-yet-ended span of the process-wide tracer, which
// matches the synchronous, single-goroutine pipeline (formula →
// automaton → product → classification / fair-SCC search). StartIn
// additionally stamps the span with the trace id a context.Context
// carries, for sites that concurrent requests reach at once.
package obs

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value attribute of a span. Value is an int64, string,
// bool, or fmt.Stringer (rendered lazily by sinks).
type Attr struct {
	Key   string
	Value any
}

// ValueString renders the attribute value.
func (a Attr) ValueString() string {
	switch v := a.Value.(type) {
	case string:
		return v
	case fmt.Stringer:
		return v.String()
	default:
		return fmt.Sprint(v)
	}
}

func (a Attr) String() string { return a.Key + "=" + a.ValueString() }

// Span is one timed stage of the pipeline. A nil *Span is a valid no-op
// span — it is what Start returns while no sink is attached — so
// instrumented code never needs to branch on Enabled.
type Span struct {
	Name     string
	TraceID  TraceID // request correlation id; inherited from the parent span
	Began    time.Time
	Duration time.Duration
	Attrs    []Attr
	Children []*Span

	parent *Span
	st     *state
}

// Int attaches an integer attribute; returns the span for chaining.
func (s *Span) Int(key string, v int) *Span {
	if s == nil {
		return nil
	}
	s.Attrs = append(s.Attrs, Attr{key, int64(v)})
	return s
}

// Int64 attaches an int64 attribute.
func (s *Span) Int64(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	s.Attrs = append(s.Attrs, Attr{key, v})
	return s
}

// Str attaches a string attribute.
func (s *Span) Str(key, v string) *Span {
	if s == nil {
		return nil
	}
	s.Attrs = append(s.Attrs, Attr{key, v})
	return s
}

// Bool attaches a boolean attribute.
func (s *Span) Bool(key string, v bool) *Span {
	if s == nil {
		return nil
	}
	s.Attrs = append(s.Attrs, Attr{key, v})
	return s
}

// Stringer attaches a lazily rendered attribute: v.String() is called
// only when a sink consumes the span, so instrumented code can pass
// formulas and automata without paying for rendering up front.
func (s *Span) Stringer(key string, v fmt.Stringer) *Span {
	if s == nil {
		return nil
	}
	s.Attrs = append(s.Attrs, Attr{key, v})
	return s
}

// Attr returns the value of the named attribute and whether it is set.
func (s *Span) Attr(key string) (any, bool) {
	if s == nil {
		return nil, false
	}
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return nil, false
}

// End closes the span, records its duration, and delivers it — to its
// parent while one is open, otherwise to the attached sinks as the root
// of a finished span tree.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.Duration = time.Since(s.Began)
	s.st.finish(s)
}

// state is the process-wide tracer: the open-span stack plus the sinks.
// It exists only while a sink is attached.
type state struct {
	mu    sync.Mutex
	stack []*Span
	sinks []Sink
}

var active atomic.Pointer[state]

// Enabled reports whether a sink is attached. Instrumented code does not
// need it (nil spans are no-ops); it is for guarding expensive attribute
// computations that the lazy Stringer form cannot express.
func Enabled() bool { return active.Load() != nil }

// Attach installs the sinks and enables span collection, replacing any
// previous attachment. Attach with no sinks is Detach.
func Attach(sinks ...Sink) {
	if len(sinks) == 0 {
		Detach()
		return
	}
	active.Store(&state{sinks: sinks})
}

// Detach disables span collection. Spans still open keep a reference to
// the old state and drain into its sinks when ended.
func Detach() { active.Store(nil) }

// Start opens a span as a child of the most recently started open span
// (or as a root). While no sink is attached it returns nil, a valid
// no-op span, after a single atomic load.
func Start(name string) *Span {
	st := active.Load()
	if st == nil {
		return nil
	}
	return st.start(name, "")
}

// start opens a span stamped with id, or with its parent's trace id when
// id is empty. The id is set before the span is pushed, under st.mu, so a
// child started on another goroutine reads it race-free.
func (st *state) start(name string, id TraceID) *Span {
	s := &Span{Name: name, Began: time.Now(), st: st, TraceID: id}
	st.mu.Lock()
	if n := len(st.stack); n > 0 {
		s.parent = st.stack[n-1]
		if id == "" {
			s.TraceID = s.parent.TraceID
		}
	}
	st.stack = append(st.stack, s)
	st.mu.Unlock()
	return s
}

func (st *state) finish(s *Span) {
	st.mu.Lock()
	// Pop s; spans left open above it (early returns that skipped End)
	// are abandoned with it rather than corrupting the stack.
	for i := len(st.stack) - 1; i >= 0; i-- {
		if st.stack[i] == s {
			st.stack = st.stack[:i]
			break
		}
	}
	if s.parent != nil {
		s.parent.Children = append(s.parent.Children, s)
		st.mu.Unlock()
		return
	}
	sinks := st.sinks
	st.mu.Unlock()
	for _, sink := range sinks {
		sink.RootEnded(s)
	}
}

// Walk visits the span and every descendant depth-first, reporting each
// span's depth (the receiver is depth 0).
func (s *Span) Walk(visit func(sp *Span, depth int)) {
	if s == nil {
		return
	}
	var rec func(sp *Span, depth int)
	rec = func(sp *Span, depth int) {
		visit(sp, depth)
		for _, c := range sp.Children {
			rec(c, depth+1)
		}
	}
	rec(s, 0)
}

// StartIn starts a span like Start and stamps it with the context's
// trace id. The implicit-stack parenting already propagates trace ids on
// the synchronous path; StartIn is for sites that concurrent requests
// (Batch items, daemon handlers) reach at once, where the stack top may
// belong to a different request — the context is the authoritative
// carrier there.
func StartIn(ctx context.Context, name string) *Span {
	st := active.Load()
	if st == nil {
		return nil
	}
	return st.start(name, TraceIDFrom(ctx))
}
