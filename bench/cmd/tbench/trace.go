package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/plan"
)

// traceOps is how many operations of a workload the traced run replays.
const traceOps = 1000

// span is one timed call the traced run made. Spans are kept in memory
// and written out when the run ends.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for the operation's root span
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Span names, in the order the per-layer metrics list them. The engine.*
// spans time the engine's public API with its caches as in the
// end-to-end run; the others time the same work replayed through the
// lower layers' public functions, for operations that missed the cache.
var spanNames = []string{
	"engine.compile", "engine.classify", "engine.plan", "engine.check",
	"ltl.parse", "core.normalize", "core.compile_clause", "omega.intersect",
	"omega.reduce", "core.classify", "plan.probe",
	"plan.tier.safety", "plan.tier.guarantee", "plan.tier.obligation",
	"plan.tier.recurrence", "plan.tier.persistence", "plan.tier.streett",
	"mc.verify", "encode.json",
}

var tiers = []plan.Tier{
	plan.TierSafety, plan.TierGuarantee, plan.TierObligation,
	plan.TierRecurrence, plan.TierPersistence, plan.TierStreett,
}

// layerCounters are the program's own counters read around each layer
// replay; the per-layer counts are their movement during replays only,
// so they do not depend on how long the end-to-end phase ran.
var layerCounters = []string{
	"omega.product.states", "compile.past2dfa.states", "autkern.scc.nodes",
	"omega.lazy.states_materialized", "omega.lazy.early_exits",
	"mc.lazy.nodes_materialized", "mc.refine.rounds",
	"omega.parallel.shards", "mc.parallel.shards",
	"omega.parallel.steals", "mc.parallel.steals",
	"plan.fallbacks",
}

func readCounters() map[string]int64 {
	reg := obs.Default()
	out := make(map[string]int64, len(layerCounters)+len(tiers))
	for _, name := range layerCounters {
		out[name] = reg.Counter(name).Value()
	}
	for _, t := range tiers {
		out["plan.path."+t.String()] = reg.Counter("plan.path", obs.Label{Key: "tier", Value: t.String()}).Value()
	}
	return out
}

// tracer records spans and layer counts for one traced run.
type tracer struct {
	t0     time.Time
	spans  []span
	counts map[string]int64
	// extra holds per-layer figures the replay takes from the engine it
	// drives (cache and store statistics).
	extra metrics
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]int64{}, extra: metrics{}}
}

// span runs f as a span named name, child of parent, for operation op,
// and returns f's error. f receives the new span's id for its children.
func (t *tracer) span(name string, parent, op int, f func(id int) error) error {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNS: int64(time.Since(t.t0))})
	err := f(id)
	t.spans[id].EndNS = int64(time.Since(t.t0))
	return err
}

// replay runs f, which replays an operation's work through the lower
// layers, and adds the counters it moved to the layer counts.
func (t *tracer) replay(f func() error) error {
	before := readCounters()
	err := f()
	for k, v := range readCounters() {
		t.counts[k] += v - before[k]
	}
	return err
}

// selfTimes returns each span's duration minus the time its children
// cover.
func (t *tracer) selfTimes() []time.Duration {
	children := make([][]int, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].StartNS < t.spans[kids[b]].StartNS })
		covered, end := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(t.spans[k].StartNS, end), t.spans[k].EndNS
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		self[i] = time.Duration(s.EndNS - s.StartNS - covered)
	}
	return self
}

// engineMSPerOp returns, per operation, the time its engine.* spans took.
func (t *tracer) engineMSPerOp() []float64 {
	per := map[int]time.Duration{}
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, "engine.") {
			per[s.Op] += time.Duration(s.EndNS - s.StartNS)
		}
	}
	out := make([]float64, 0, len(per))
	for _, d := range per {
		out = append(out, float64(d)/float64(time.Millisecond))
	}
	sort.Float64s(out)
	return out
}

// addMetrics adds the span and counter metrics of the run to m: for
// every span name its calls, total self time and median duration.
func (t *tracer) addMetrics(m metrics) {
	self := t.selfTimes()
	durs := map[string][]time.Duration{}
	selfSum := map[string]time.Duration{}
	for i, s := range t.spans {
		durs[s.Name] = append(durs[s.Name], time.Duration(s.EndNS-s.StartNS))
		selfSum[s.Name] += self[i]
	}
	for _, name := range spanNames {
		d := durs[name]
		m.set(name+".calls", float64(len(d)), "count")
		m.set(name+".self_ms", float64(selfSum[name])/float64(time.Millisecond), "ms")
		us := millis(d)
		for i := range us {
			us[i] *= 1000
		}
		m.set(name+".p50_us", quantile(us, 0.5), "us")
	}
	c := t.counts
	m.set("omega.product.states", float64(c["omega.product.states"]), "count")
	m.set("compile.past2dfa.states", float64(c["compile.past2dfa.states"]), "count")
	m.set("autkern.scc.nodes", float64(c["autkern.scc.nodes"]), "count")
	dispatched := int64(0)
	for _, tr := range tiers {
		n := c["plan.path."+tr.String()]
		dispatched += n
		m.set("plan.path."+tr.String(), float64(n), "count")
	}
	m.set("plan.fallback_ratio", ratio(c["plan.fallbacks"], dispatched), "ratio")
	m.set("omega.lazy.states_materialized", float64(c["omega.lazy.states_materialized"]), "count")
	m.set("omega.lazy.early_exit_ratio", ratio(c["omega.lazy.early_exits"], c["lazy.contains"]), "ratio")
	m.set("mc.lazy.nodes_materialized", float64(c["mc.lazy.nodes_materialized"]), "count")
	m.set("mc.refine.rounds", float64(c["mc.refine.rounds"]), "count")
	m.set("par.shards", float64(c["omega.parallel.shards"]+c["mc.parallel.shards"]), "count")
	m.set("par.steals", float64(c["omega.parallel.steals"]+c["mc.parallel.steals"]), "count")
}

// addCacheStats records the replay engine's cache hit ratio and
// evictions between two readings of its statistics.
func (t *tracer) addCacheStats(before, after engine.CacheStats) {
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	t.extra.set("engine.cache.hit_ratio", ratio(hits, hits+misses), "ratio")
	t.extra.set("engine.cache.evictions", float64(after.Evictions-before.Evictions), "count")
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// write stores the spans as dir/trace.jsonl, one JSON object per line.
func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
