package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/par"
)

// workload is one traffic mix. A run generates its inputs from the seed
// (untimed), sets it up setupReps times (the median is setup_s), runs the
// timed phase and checks every answer, then, with -trace 1, replays the
// first operations in-process with spans.
type workload interface {
	// setup prepares the program for the timed phase: boot, compile,
	// warm-up, cold fill. It is timed.
	setup(ctx context.Context) error
	// teardown releases what setup acquired.
	teardown()
	// measure runs the timed phase and checks the answers, counting
	// each slot's operations in t.
	measure(ctx context.Context, t *tally) (*measurement, error)
	// traceReplay replays the first operations with spans.
	traceReplay(ctx context.Context, tr *tracer) error
}

// workloadSpec names a workload and fixes what its metrics mean.
type workloadSpec struct {
	name string
	// limit is the latency within which a correct answer counts as good.
	limit time.Duration
	// tailQ is the percentile of each rate slot's latencies whose median
	// over slots tail_ms reports, fixed per workload: p99.9 for
	// check-mixed, whose 20,000-call slots leave 20 beyond it; p99 for
	// classify-*, whose closed-loop slots leave at least 15 beyond it,
	// and for verify-protocols, where it is about the slowest pair's time
	// in a cycle.
	tailQ float64
	make  func(cfg *config) (workload, error)
}

var workloads = []workloadSpec{
	{"classify-cold", 50 * time.Millisecond, 0.99, newClassifyCold},
	{"classify-hot", 50 * time.Millisecond, 0.99, newClassifyHot},
	{"classify-restart", 50 * time.Millisecond, 0.99, newClassifyRestart},
	{"check-mixed", 50 * time.Millisecond, 0.999, newCheckMixed},
	{"verify-protocols", 500 * time.Millisecond, 0.99, newVerifyProtocols},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// The timed phase is cut into slots of about a second: one open- or
// closed-loop burst (classify-*), 20,000 calls (check-mixed) or one cycle
// over every pair (verify-protocols). A slot's kind says which metrics it
// feeds.
const (
	// latencySlot: its median latency goes into p50_ms.
	latencySlot = 1 << iota
	// rateSlot: its goodput goes into goodput_ops_s, its tail latency
	// into tail_ms.
	rateSlot
)

// tally accumulates the timed operations of a run, slot by slot. The
// timing metrics are medians over slots: a shared host's processors slow
// down by tens of percent for seconds at a time, and a median over the
// slots of a run moves little when such a stretch covers a few of them,
// where a figure pooled over the run moves with every one.
type tally struct {
	limit                    time.Duration
	tailQ                    float64
	ops, failed, wrong, good int
	// p50s holds the median latency, in ms, of each latency slot; rates
	// and tails the goodput, per second, and the tailQ-quantile of the
	// latencies, in ms, of each rate slot.
	p50s, rates, tails []float64
	// latencies and tailSamples count the samples behind p50s and tails.
	latencies, tailSamples int
}

// slot counts the operations of one slot that ran for secs seconds.
// failed[i] means operation i got no answer (transport error, non-200
// status, engine error); wrong[i], that its answer failed the checks. A
// correct answer within the limit is good.
func (t *tally) slot(ts []timing, failed, wrong []bool, secs float64, kind int) {
	good := 0
	lat := make([]time.Duration, len(ts))
	for i, tm := range ts {
		lat[i] = tm.latency()
		t.ops++
		if failed[i] || wrong[i] {
			t.failed++
		} else if lat[i] <= t.limit {
			good++
		}
		if wrong[i] {
			t.wrong++
		}
	}
	t.good += good
	if len(lat) == 0 {
		return
	}
	ms := millis(lat)
	if kind&latencySlot != 0 {
		t.p50s = append(t.p50s, quantile(ms, 0.5))
		t.latencies += len(ms)
	}
	if kind&rateSlot != 0 {
		t.rates = append(t.rates, float64(good)/secs)
		t.tails = append(t.tails, quantile(ms, t.tailQ))
		t.tailSamples += len(ms)
	}
}

// measurement is what a workload's timed phase produced.
type measurement struct {
	*tally
	// rssMB is the peak resident set of the process that did the work.
	rssMB float64
	// repeatFrac is the share of timed operations whose request the
	// program had already received in this run, set-up included.
	repeatFrac float64
	// layer holds per-layer figures taken from the end-to-end phase.
	layer metrics
}

func runWorkload(ctx context.Context, cfg *config, spec workloadSpec) (*result, error) {
	w, err := spec.make(cfg)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	defer w.teardown()
	res := &result{Workload: spec.name, Meta: newMeta(cfg), EndToEnd: metrics{}}
	for r := 0; r < cfg.setupReps(); r++ {
		if r > 0 {
			w.teardown()
		}
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.Meta.SetupRuns = append(res.Meta.SetupRuns, time.Since(start).Seconds())
	}
	m, err := w.measure(ctx, &tally{limit: spec.limit, tailQ: spec.tailQ})
	if err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}

	res.Attempted, res.Failed, res.Wrong = m.ops, m.failed, m.wrong
	if res.Attempted == 0 || len(m.p50s) == 0 || len(m.rates) == 0 {
		return nil, fmt.Errorf("no complete slot in %gs", cfg.seconds)
	}
	res.Correct = res.Failed == 0
	res.ErrorFrac = float64(res.Failed) / float64(res.Attempted)
	e := res.EndToEnd
	e.set("setup_s", median(res.Meta.SetupRuns), "s")
	e.set("p50_ms", median(m.p50s), "ms")
	e.set("tail_ms", median(m.tails), "ms")
	e.set("goodput_ops_s", median(m.rates), "1/s")
	e.set("ok_frac", float64(m.good)/float64(res.Attempted), "frac")
	e.set("rss_peak_mb", m.rssMB, "MiB")
	res.Meta.Samples["p50_ms"] = m.latencies
	res.Meta.Samples["tail_ms"] = m.tailSamples
	res.Meta.Slots = map[string]int{"p50_ms": len(m.p50s), "tail_ms": len(m.tails), "goodput_ops_s": len(m.rates)}
	res.Meta.TailQuantile = spec.tailQ
	res.Meta.TailBeyond = beyond(m.tailSamples/len(m.tails), spec.tailQ)

	if !cfg.trace {
		return res, nil
	}
	tr := newTracer()
	// The replay's direct layer calls get the worker bound the engine
	// attaches to its own requests, so they shard waves as it does.
	if err := w.traceReplay(par.WithJobs(ctx, runtime.GOMAXPROCS(0)), tr); err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	if err := tr.write(filepath.Join(cfg.traceDir, spec.name)); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	res.PerLayer = metrics{}
	tr.addMetrics(res.PerLayer)
	for name, unit := range workloadLayer {
		v, ok := m.layer[name]
		if !ok {
			v, ok = tr.extra[name]
		}
		if !ok {
			v = metric{Unit: unit}
		}
		res.PerLayer[name] = v
	}
	res.PerLayer.set("workload.repeat_frac", m.repeatFrac, "frac")
	perOp := tr.engineMSPerOp()
	res.PerLayer.set("trace.overhead_frac", quantile(perOp, 0.5)/e["p50_ms"].Value, "ratio")
	res.Meta.Samples["trace.engine_ms_per_op"] = len(perOp)
	return res, nil
}

// workloadLayer holds the per-layer metrics, with their units, that a
// workload supplies from its end-to-end phase or its traced replay; a
// workload without the layer reports 0.
var workloadLayer = map[string]string{
	"temporald.transport_p50_us": "us", "temporald.handler_p50_us": "us",
	"engine.cache.hit_ratio": "ratio", "engine.cache.evictions": "count",
	"store.open_ms": "ms", "store.hit_ratio": "ratio", "store.writes": "count",
	"store.dropped_writes": "count", "loadgen.late_p99_ms": "ms",
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// lateP99 is how late, at the 99th percentile, an open-loop generator
// sent its operations.
func lateP99(ts []timing) float64 {
	late := make([]time.Duration, len(ts))
	for i, t := range ts {
		late[i] = t.late()
	}
	return quantile(millis(late), 0.99)
}
