package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Sink consumes finished span trees. RootEnded is called once per root
// span, after its whole subtree has ended.
type Sink interface {
	RootEnded(root *Span)
}

// Collector is the in-memory sink for tests and the CLIs' -stats mode:
// it retains up to MaxRoots finished span trees (0 = unlimited) and
// counts the rest, so long runs with millions of root spans stay
// bounded.
type Collector struct {
	MaxRoots int

	mu      sync.Mutex
	roots   []*Span
	dropped int
}

// RootEnded implements Sink.
func (c *Collector) RootEnded(root *Span) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.MaxRoots > 0 && len(c.roots) >= c.MaxRoots {
		c.dropped++
		return
	}
	c.roots = append(c.roots, root)
}

// Roots returns the collected span trees in completion order.
func (c *Collector) Roots() []*Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Span(nil), c.roots...)
}

// Dropped returns how many roots were discarded by the MaxRoots cap.
func (c *Collector) Dropped() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Reset discards everything collected so far.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.roots, c.dropped = nil, 0
}

// Find returns the first collected span with the given name, searching
// each tree depth-first; nil if absent.
func (c *Collector) Find(name string) *Span {
	var found *Span
	for _, r := range c.Roots() {
		r.Walk(func(sp *Span, _ int) {
			if found == nil && sp.Name == name {
				found = sp
			}
		})
		if found != nil {
			return found
		}
	}
	return nil
}

// Tree renders every collected span tree.
func (c *Collector) Tree() string {
	var b strings.Builder
	WriteTree(&b, c.Roots())
	if d := c.Dropped(); d > 0 {
		fmt.Fprintf(&b, "… %d further root spans dropped (MaxRoots=%d)\n", d, c.MaxRoots)
	}
	return b.String()
}

// WriteTree renders span trees as an indented, duration-annotated list:
//
//	classify.automaton              152µs  states=6 pairs=2
//	  omega.livestates               41µs  states=6
func WriteTree(w io.Writer, roots []*Span) {
	for _, r := range roots {
		r.Walk(func(sp *Span, depth int) {
			label := strings.Repeat("  ", depth) + sp.Name
			fmt.Fprintf(w, "%-36s %9s", label, formatDuration(sp.Duration))
			for _, a := range sp.Attrs {
				fmt.Fprintf(w, "  %s", a.String())
			}
			fmt.Fprintln(w)
		})
	}
}

// formatDuration trims sub-microsecond noise so columns stay readable.
func formatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}

// WriteMetrics renders the current metric snapshot as an aligned table,
// omitting zero-valued metrics.
func WriteMetrics(w io.Writer) {
	for _, m := range Snapshot() {
		if m.Value == 0 && m.Count == 0 {
			continue
		}
		switch m.Kind {
		case "histogram":
			mean := float64(0)
			if m.Count > 0 {
				mean = float64(m.Value) / float64(m.Count)
			}
			fmt.Fprintf(w, "%-36s %9s  count=%d mean=%.1f max=%d\n",
				m.FullName(), m.Kind, m.Count, mean, m.Max)
		default:
			fmt.Fprintf(w, "%-36s %9s  %d\n", m.FullName(), m.Kind, m.Value)
		}
	}
}

// StageSummary aggregates inclusive time and call counts per span name —
// the "which stage dominated" view, constant-memory even for runs with
// millions of spans. It backs the benchmark harness's -obs.stats hook.
type StageSummary struct {
	mu     sync.Mutex
	stages map[string]*stageAgg
}

type stageAgg struct {
	count int64
	total time.Duration
}

// NewStageSummary returns an empty aggregating sink.
func NewStageSummary() *StageSummary {
	return &StageSummary{stages: map[string]*stageAgg{}}
}

// RootEnded implements Sink.
func (s *StageSummary) RootEnded(root *Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	root.Walk(func(sp *Span, _ int) {
		agg := s.stages[sp.Name]
		if agg == nil {
			agg = &stageAgg{}
			s.stages[sp.Name] = agg
		}
		agg.count++
		agg.total += sp.Duration
	})
}

// Write renders the per-stage table, slowest total first.
func (s *StageSummary) Write(w io.Writer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	type row struct {
		name  string
		count int64
		total time.Duration
	}
	rows := make([]row, 0, len(s.stages))
	for name, agg := range s.stages {
		rows = append(rows, row{name, agg.count, agg.total})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].total != rows[j].total {
			return rows[i].total > rows[j].total
		}
		return rows[i].name < rows[j].name
	})
	for _, r := range rows {
		fmt.Fprintf(w, "%-36s %9s  calls=%d\n", r.name, formatDuration(r.total), r.count)
	}
}

// String renders the summary table.
func (s *StageSummary) String() string {
	var b strings.Builder
	s.Write(&b)
	return b.String()
}

// spanRecord is the flat JSON-lines form of one span. One line per span,
// depth-first, so the file is trivially convertible to CSV. The same
// shape, with Record "slowop" and ThresholdNS set, is emitted by
// SlowOpSink.
type spanRecord struct {
	Record      string         `json:"record"` // "span" or "slowop"
	Name        string         `json:"name"`
	TraceID     string         `json:"trace_id,omitempty"`
	Depth       int            `json:"depth"`
	Parent      string         `json:"parent,omitempty"`
	StartUnixNS int64          `json:"start_unix_ns"`
	DurationNS  int64          `json:"duration_ns"`
	ThresholdNS int64          `json:"threshold_ns,omitempty"`
	Attrs       map[string]any `json:"attrs,omitempty"`
}

// attrMap renders a span's attributes for a JSON record (nil when the
// span has none). Lazy Stringer attributes are rendered here, at sink
// time.
func attrMap(sp *Span) map[string]any {
	if len(sp.Attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(sp.Attrs))
	for _, a := range sp.Attrs {
		switch v := a.Value.(type) {
		case int64, string, bool:
			m[a.Key] = v
		default:
			m[a.Key] = a.ValueString()
		}
	}
	return m
}

// metricRecord is the flat JSON-lines form of one metric snapshot row.
type metricRecord struct {
	Record string `json:"record"` // "metric"
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Value  int64  `json:"value"`
	Count  int64  `json:"count,omitempty"`
	Max    int64  `json:"max,omitempty"`
}

// ErrSinkClosed is the sticky error recorded when a JSONLSink is written
// to after Close.
var ErrSinkClosed = errors.New("obs: jsonl sink is closed")

// JSONLSink streams finished spans as JSON lines through an internal
// buffer. It is safe for concurrent writers (the daemon ends spans from
// many request goroutines); each record is encoded and buffered under
// one lock, so lines never interleave. Errors are sticky and reported by
// Err (sinks are called from span.End, which cannot fail). Call Close
// when done: it flushes the buffer and, when the underlying writer is a
// file, syncs it to stable storage.
type JSONLSink struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	enc    *json.Encoder
	syncer interface{ Sync() error }
	closed bool
	err    error
}

// NewJSONLSink returns a sink writing JSON lines to w. Output is
// buffered: nothing is guaranteed on disk until Close (or a buffer
// flush) — callers that attach the sink must pair it with Close.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	j := &JSONLSink{bw: bw, enc: json.NewEncoder(bw)}
	if s, ok := w.(interface{ Sync() error }); ok {
		j.syncer = s
	}
	return j
}

// RootEnded implements Sink: it writes one line per span of the tree.
func (j *JSONLSink) RootEnded(root *Span) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.checkOpen() != nil {
		return
	}
	root.Walk(func(sp *Span, depth int) {
		if j.err != nil {
			return
		}
		rec := spanRecord{
			Record:      "span",
			Name:        sp.Name,
			TraceID:     string(sp.TraceID),
			Depth:       depth,
			StartUnixNS: sp.Began.UnixNano(),
			DurationNS:  sp.Duration.Nanoseconds(),
			Attrs:       attrMap(sp),
		}
		if sp.parent != nil {
			rec.Parent = sp.parent.Name
		}
		j.err = j.enc.Encode(rec)
	})
}

// WriteMetrics appends one line per registered metric with a non-zero
// value; call it once at the end of a run.
func (j *JSONLSink) WriteMetrics() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.checkOpen(); err != nil {
		return err
	}
	for _, m := range Snapshot() {
		if j.err != nil {
			return j.err
		}
		if m.Value == 0 && m.Count == 0 {
			continue
		}
		j.err = j.enc.Encode(metricRecord{
			Record: "metric", Name: m.FullName(), Kind: m.Kind,
			Value: m.Value, Count: m.Count, Max: m.Max,
		})
	}
	return j.err
}

// checkOpen records the sticky closed error on writes after Close.
// Callers must hold j.mu.
func (j *JSONLSink) checkOpen() error {
	if j.closed {
		if j.err == nil {
			j.err = ErrSinkClosed
		}
		return ErrSinkClosed
	}
	return nil
}

// Close flushes buffered lines to the underlying writer, syncs it when
// it is a file, and marks the sink closed: later writes record
// ErrSinkClosed instead of being silently buffered and lost. Close is
// idempotent and safe to race with concurrent RootEnded calls — whole
// lines are either flushed or reported as errors, never torn. It returns
// the first error of the sink's lifetime.
func (j *JSONLSink) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return j.err
	}
	j.closed = true
	if err := j.bw.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	if j.syncer != nil {
		if err := j.syncer.Sync(); err != nil && j.err == nil {
			j.err = err
		}
	}
	return j.err
}

// Err returns the first write error, if any.
func (j *JSONLSink) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}
