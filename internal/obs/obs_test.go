package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// withCollector attaches a fresh collector for the test and detaches it
// on cleanup.
func withCollector(t *testing.T) *Collector {
	t.Helper()
	c := &Collector{}
	Attach(c)
	t.Cleanup(Detach)
	return c
}

func TestDisabledSpanIsNoOp(t *testing.T) {
	Detach()
	sp := Start("noop")
	if sp != nil {
		t.Fatalf("Start with no sink = %v, want nil", sp)
	}
	// Every method must be safe on the nil span.
	sp.Int("k", 1).Str("s", "v").Bool("b", true).Int64("i", 2)
	if _, ok := sp.Attr("k"); ok {
		t.Error("nil span reported an attribute")
	}
	sp.Walk(func(*Span, int) { t.Error("nil span walked") })
	sp.End()
	if Enabled() {
		t.Error("Enabled() = true with no sink")
	}
}

// TestSpanTreeNestsRecursive is the regression test for implicit
// parenting: spans opened by recursive calls must form a chain, and
// siblings opened after a child ends must attach to the same parent.
func TestSpanTreeNestsRecursive(t *testing.T) {
	c := withCollector(t)

	var recurse func(depth int)
	recurse = func(depth int) {
		sp := Start("rec").Int("depth", depth)
		if depth > 0 {
			recurse(depth - 1)
			recurse(depth - 1)
		}
		sp.End()
	}
	root := Start("root")
	recurse(2)
	root.End()

	roots := c.Roots()
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want 1", len(roots))
	}
	// root → rec(2) → two rec(1) children → two rec(0) leaves each.
	r := roots[0]
	if r.Name != "root" || len(r.Children) != 1 {
		t.Fatalf("root = %q with %d children, want root/1", r.Name, len(r.Children))
	}
	lvl2 := r.Children[0]
	if d, _ := lvl2.Attr("depth"); d != int64(2) {
		t.Fatalf("first child depth = %v, want 2", d)
	}
	if len(lvl2.Children) != 2 {
		t.Fatalf("rec(2) has %d children, want 2", len(lvl2.Children))
	}
	for _, lvl1 := range lvl2.Children {
		if d, _ := lvl1.Attr("depth"); d != int64(1) {
			t.Fatalf("grandchild depth = %v, want 1", d)
		}
		if len(lvl1.Children) != 2 {
			t.Fatalf("rec(1) has %d children, want 2", len(lvl1.Children))
		}
		for _, lvl0 := range lvl1.Children {
			if len(lvl0.Children) != 0 {
				t.Fatal("rec(0) must be a leaf")
			}
		}
	}
	total := 0
	r.Walk(func(sp *Span, depth int) {
		total++
		if depth > 3 {
			t.Errorf("span %q at depth %d, want ≤ 3", sp.Name, depth)
		}
	})
	if total != 8 { // root + 1 + 2 + 4
		t.Errorf("walked %d spans, want 8", total)
	}
}

func TestUnbalancedEndDoesNotCorruptStack(t *testing.T) {
	c := withCollector(t)
	outer := Start("outer")
	_ = Start("leaked") // never ended explicitly
	outer.End()         // must pop the leaked span too
	after := Start("after")
	after.End()
	roots := c.Roots()
	if len(roots) != 2 || roots[0].Name != "outer" || roots[1].Name != "after" {
		t.Fatalf("roots = %v", roots)
	}
	if len(roots[1].Children) != 0 {
		t.Error("span after unbalanced End inherited a stale parent")
	}
}

func TestCollectorCapAndFind(t *testing.T) {
	c := &Collector{MaxRoots: 2}
	Attach(c)
	t.Cleanup(Detach)
	for i := 0; i < 5; i++ {
		Start("burst").Int("i", i).End()
	}
	if got := len(c.Roots()); got != 2 {
		t.Fatalf("kept %d roots, want 2", got)
	}
	if c.Dropped() != 3 {
		t.Fatalf("dropped %d, want 3", c.Dropped())
	}
	if c.Find("burst") == nil || c.Find("absent") != nil {
		t.Error("Find misbehaved")
	}
	if !strings.Contains(c.Tree(), "further root spans dropped") {
		t.Error("Tree() must report dropped roots")
	}
	c.Reset()
	if len(c.Roots()) != 0 || c.Dropped() != 0 {
		t.Error("Reset left state behind")
	}
}

func TestMetrics(t *testing.T) {
	ResetMetrics()
	cnt := NewCounter("test.counter")
	if cnt != NewCounter("test.counter") {
		t.Fatal("NewCounter is not idempotent")
	}
	cnt.Inc()
	cnt.Add(4)
	if cnt.Value() != 5 {
		t.Fatalf("counter = %d, want 5", cnt.Value())
	}
	g := NewGauge("test.gauge")
	g.Set(7)
	g.Max(3)
	g.Max(11)
	if g.Value() != 11 {
		t.Fatalf("gauge = %d, want 11", g.Value())
	}
	h := NewHistogram("test.hist")
	for _, v := range []int64{0, 1, 3, 100, -5} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 104 || h.MaxValue() != 100 {
		t.Fatalf("hist count=%d sum=%d max=%d", h.Count(), h.Sum(), h.MaxValue())
	}
	if bs := h.Buckets(); len(bs) == 0 {
		t.Fatal("histogram has no buckets")
	}

	snap := Snapshot()
	byName := map[string]MetricValue{}
	for _, m := range snap {
		byName[m.Name] = m
	}
	if byName["test.counter"].Value != 5 || byName["test.gauge"].Value != 11 {
		t.Fatalf("snapshot = %+v", byName)
	}
	if m := byName["test.hist"]; m.Count != 5 || m.Value != 104 || m.Max != 100 {
		t.Fatalf("histogram snapshot = %+v", m)
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name > snap[i].Name {
			t.Fatal("snapshot not sorted by name")
		}
	}

	ResetMetrics()
	if cnt.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.MaxValue() != 0 {
		t.Error("ResetMetrics left values behind")
	}
}

func TestWriteTreeAndSummary(t *testing.T) {
	c := withCollector(t)
	summary := NewStageSummary()
	Attach(c, summary)

	outer := Start("stage.outer").Int("states", 42)
	Start("stage.inner").End()
	outer.End()

	var buf bytes.Buffer
	WriteTree(&buf, c.Roots())
	tree := buf.String()
	if !strings.Contains(tree, "stage.outer") || !strings.Contains(tree, "  stage.inner") {
		t.Fatalf("tree missing spans or indentation:\n%s", tree)
	}
	if !strings.Contains(tree, "states=42") {
		t.Fatalf("tree missing attributes:\n%s", tree)
	}
	sum := summary.String()
	if !strings.Contains(sum, "stage.outer") || !strings.Contains(sum, "calls=1") {
		t.Fatalf("summary wrong:\n%s", sum)
	}
}

func TestJSONLSink(t *testing.T) {
	ResetMetrics()
	var buf bytes.Buffer
	j := NewJSONLSink(&buf)
	Attach(j)
	t.Cleanup(Detach)

	parent := Start("jsonl.parent").Int("states", 3).Str("kind", "test")
	Start("jsonl.child").End()
	parent.End()
	NewCounter("jsonl.counter").Add(9)
	if err := j.WriteMetrics(); err != nil {
		t.Fatal(err)
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	// Output is buffered; Close flushes it to the writer.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 3 {
		t.Fatalf("got %d JSONL lines, want ≥ 3:\n%s", len(lines), buf.String())
	}
	var sawParent, sawChild, sawMetric bool
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("invalid JSON line %q: %v", line, err)
		}
		switch {
		case rec["record"] == "span" && rec["name"] == "jsonl.parent":
			sawParent = true
			attrs := rec["attrs"].(map[string]any)
			if attrs["states"] != float64(3) || attrs["kind"] != "test" {
				t.Fatalf("parent attrs = %v", attrs)
			}
			if rec["depth"] != float64(0) {
				t.Fatalf("parent depth = %v", rec["depth"])
			}
		case rec["record"] == "span" && rec["name"] == "jsonl.child":
			sawChild = true
			if rec["depth"] != float64(1) || rec["parent"] != "jsonl.parent" {
				t.Fatalf("child record = %v", rec)
			}
		case rec["record"] == "metric" && rec["name"] == "jsonl.counter":
			sawMetric = true
			if rec["value"] != float64(9) {
				t.Fatalf("metric record = %v", rec)
			}
		}
	}
	if !sawParent || !sawChild || !sawMetric {
		t.Fatalf("missing records: parent=%v child=%v metric=%v", sawParent, sawChild, sawMetric)
	}
}

func TestSetupStatsAndTrace(t *testing.T) {
	ResetMetrics()
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	var stats bytes.Buffer
	finish, err := Setup(Config{Stats: true, TracePath: trace}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	sp := Start("setup.work").Int("states", 2)
	NewCounter("setup.counter").Inc()
	sp.End()
	if err := finish(); err != nil {
		t.Fatal(err)
	}
	if Enabled() {
		t.Error("finish must detach")
	}
	out := stats.String()
	for _, want := range []string{"span tree", "setup.work", "stage summary", "metrics", "setup.counter"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if !json.Valid([]byte(line)) {
			t.Fatalf("trace line is not valid JSON: %q", line)
		}
	}

	// The disabled form must be a no-op.
	finish, err = Setup(Config{}, &stats)
	if err != nil || finish() != nil {
		t.Fatal("no-op Setup failed")
	}
}
