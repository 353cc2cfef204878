package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ltl"
	"repro/internal/omega"
	"repro/internal/plan"
	"repro/internal/store"
)

// A closed-loop slot gets this many inputs per second of slot, about
// three times the measured throughput. A faster program ends the slot early,
// which its goodput, taken over the time the slot ran, still measures.
const (
	coldClosedPerSec = 5000
	hotClosedPerSec  = 40000
)

// refSamples is how many answers of a run are compared with the
// reference engine.
const refSamples = 500

// classifyLoad drives temporald's POST /classify from the benchmark
// process, over at most nproc connections.
type classifyLoad struct {
	cfg     *config
	variant string
	rate    float64 // open-loop requests per second
	// The timed phase alternates pairs of an open-loop slot, of perOpen
	// requests, and a closed-loop slot, of at most perClosed, each
	// slotSecs long, so both sample the host over the whole run.
	pairs, perOpen, perClosed int
	slotSecs                  float64
	// fill is sent during set-up; open and closed hold the formula of
	// each timed operation, perOpen and perClosed a slot.
	fill, open, closed []string
	bodies             map[string][]byte
	useStore           bool

	dir         string
	d           *daemon
	fillMetrics map[string]float64 // /metrics of the daemon that filled the store
	producedLog string             // copy of the store log the fill produced

	// The answer checks' state, kept across the slots of a run.
	syn    map[string]expectation
	ref    *engine.Engine
	refAns map[string]classifyResponse
	refRng *rand.Rand
}

// newClassifyLoad cuts the timed phase into pairs of slots of one to one
// and a half seconds (two halves of a run shorter than 2 s): open-loop
// slots at rate, closed-loop slots with closedPerSec inputs a second.
func newClassifyLoad(cfg *config, variant string, rate, closedPerSec float64) *classifyLoad {
	c := &classifyLoad{cfg: cfg, variant: variant, rate: rate}
	c.pairs = max(1, int(cfg.seconds/2))
	c.slotSecs = cfg.seconds / float64(2*c.pairs)
	c.perOpen = max(1, int(rate*c.slotSecs))
	c.perClosed = max(1, int(closedPerSec*c.slotSecs))
	return c
}

// distinctFormulas returns the first n formulas of the universe, their
// propositions renamed as rng picks.
func distinctFormulas(rng *rand.Rand, n int) []string {
	return rename(formulaUniverse(n), seedProps(rng))
}

// classify-cold: every formula is distinct, so compile, classify and
// probe do the work and the memo cache is bypassed. The open-loop slots
// send a fixed slice of the universe in seeded order; the closed-loop
// slots send the universe in order, so whatever throughput the program
// reaches, it meets the same formulas as on any other seed.
func newClassifyCold(cfg *config) (workload, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	c := newClassifyLoad(cfg, "classify-cold", 250, coldClosedPerSec)
	const warm = 500
	nOpen := c.pairs * c.perOpen
	all := distinctFormulas(rng, warm+nOpen+c.pairs*c.perClosed)
	c.fill, c.open, c.closed = all[:warm], all[warm:warm+nOpen], all[warm+nOpen:]
	rng.Shuffle(len(c.open), func(i, j int) { c.open[i], c.open[j] = c.open[j], c.open[i] })
	return c, c.encode()
}

// classify-hot: formulas drawn Zipf(1.1) from 128, all sent once in
// set-up, followed by 2,000 warm-up draws; about 640 memo entries fit
// the default 1,024, so almost every request hits the cache.
func newClassifyHot(cfg *config) (workload, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	c := newClassifyLoad(cfg, "classify-hot", 400, hotClosedPerSec)
	pool := distinctFormulas(rng, 128)
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(pool)-1))
	draw := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = pool[z.Uint64()]
		}
		return out
	}
	c.fill = append(pool, draw(2000)...)
	c.open = draw(c.pairs * c.perOpen)
	c.closed = draw(c.pairs * c.perClosed)
	return c, c.encode()
}

// restartFormulas is how many distinct formulas classify-restart stores.
const restartFormulas = 2500

// classify-restart: set-up fills the store with the formulas and
// restarts the daemon on it; the timed slots send them again, each pass
// reshuffled. A formula comes back only after every other one, so the
// memo cache, far smaller than the set, does not serve the repeats; the
// store does. -store is passed only when temporald lists it, so without a
// store the workload still means "restart, then serve the same traffic".
func newClassifyRestart(cfg *config) (workload, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	c := newClassifyLoad(cfg, "classify-restart", 250, coldClosedPerSec)
	c.fill = distinctFormulas(rng, restartFormulas)
	passes := func(n int) []string {
		var out []string
		for len(out) < n {
			for _, j := range rng.Perm(len(c.fill)) {
				out = append(out, c.fill[j])
			}
		}
		return out[:n]
	}
	c.open = passes(c.pairs * c.perOpen)
	c.closed = passes(c.pairs * c.perClosed)
	c.useStore = daemonHasFlag(cfg.temporald, "store")
	return c, c.encode()
}

func (c *classifyLoad) encode() error {
	c.bodies = map[string][]byte{}
	for _, list := range [][]string{c.fill, c.open, c.closed} {
		for _, s := range list {
			if _, ok := c.bodies[s]; ok {
				continue
			}
			b, err := json.Marshal(map[string]string{"formula": s})
			if err != nil {
				return err
			}
			c.bodies[s] = b
		}
	}
	return nil
}

func (c *classifyLoad) daemonFlags() []string {
	if !c.useStore {
		return nil
	}
	return []string{"-store", filepath.Join(c.dir, "v.log")}
}

func (c *classifyLoad) setup(ctx context.Context) error {
	dir, err := os.MkdirTemp(c.cfg.work, c.variant+"-")
	if err != nil {
		return err
	}
	c.dir = dir
	if c.d, err = startDaemon(c.cfg.temporald, dir, runtime.NumCPU(), c.daemonFlags()...); err != nil {
		return err
	}
	if err := c.send(c.fill); err != nil {
		return fmt.Errorf("fill: %w", err)
	}
	if c.variant != "classify-restart" {
		return nil
	}
	if c.fillMetrics, err = c.d.metrics(); err != nil {
		return err
	}
	err = c.d.stop()
	c.d = nil
	if err != nil {
		return fmt.Errorf("stop after fill: %w", err)
	}
	if c.cfg.trace && c.useStore {
		c.producedLog = filepath.Join(dir, "produced.log")
		if err := copyFile(filepath.Join(dir, "v.log"), c.producedLog); err != nil {
			return err
		}
	}
	c.d, err = startDaemon(c.cfg.temporald, dir, runtime.NumCPU(), c.daemonFlags()...)
	return err
}

// send posts every formula once, on nproc connections.
func (c *classifyLoad) send(texts []string) error {
	errs := make([]error, len(texts))
	closedLoop(time.Hour, len(texts), runtime.NumCPU(), func(i int) {
		_, errs[i] = c.d.classify(c.bodies[texts[i]])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (c *classifyLoad) teardown() {
	if c.d != nil {
		_ = c.d.stop()
		c.d = nil
	}
	if c.dir != "" {
		_ = os.RemoveAll(c.dir)
		c.dir = ""
	}
}

type classifyAnswer struct {
	resp classifyResponse
	err  error
}

// expectation is what the syntactic check expects of a formula's answer.
type expectation struct {
	formula, class string
	err            error
}

// measure runs the slots, each open-loop one before its closed-loop one,
// and checks a slot's answers after it, with the clock stopped.
func (c *classifyLoad) measure(ctx context.Context, t *tally) (*measurement, error) {
	conns := runtime.NumCPU()
	c.syn, c.refAns = map[string]expectation{}, map[string]classifyResponse{}
	c.ref = engine.New(engine.WithCacheSize(0))
	c.refRng = rand.New(rand.NewSource(c.cfg.seed))
	refPerSlot := (refSamples + 2*c.pairs - 1) / (2 * c.pairs)

	m := &measurement{tally: t, layer: metrics{}}
	seen := map[string]bool{}
	for _, s := range c.fill {
		seen[s] = true
	}
	repeats := 0
	var open []timing
	var transport, handler []time.Duration
	for k := 0; k < c.pairs; k++ {
		for _, kind := range []int{latencySlot, rateSlot} {
			texts := c.open[k*c.perOpen : (k+1)*c.perOpen]
			if kind == rateSlot {
				texts = c.closed[k*c.perClosed : (k+1)*c.perClosed]
			}
			// Each slot starts with the benchmark's own garbage collected.
			runtime.GC()
			raw := make([][]byte, len(texts))
			ans := make([]classifyAnswer, len(texts))
			do := func(i int) { raw[i], ans[i].err = c.d.classify(c.bodies[texts[i]]) }
			start := time.Now()
			var ts []timing
			if kind == latencySlot {
				ts = openLoop(len(texts), c.rate, conns, do)
			} else {
				ts = closedLoop(time.Duration(c.slotSecs*float64(time.Second)), len(texts), conns, do)
			}
			secs := time.Since(start).Seconds()
			texts, ans = texts[:len(ts)], ans[:len(ts)]
			for i := range ans {
				if ans[i].err == nil {
					ans[i].err = json.Unmarshal(raw[i], &ans[i].resp)
				}
			}
			if c.cfg.plantWrong && t.ops == 0 && ans[0].err == nil {
				ans[0].resp.Classes = nil
			}
			failed, wrong := c.check(ctx, texts, ans, refPerSlot)
			t.slot(ts, failed, wrong, secs, kind)
			for _, s := range texts {
				if seen[s] {
					repeats++
				}
				seen[s] = true
			}
			if kind == latencySlot {
				open = append(open, ts...)
				for i, tm := range ts {
					if ans[i].err == nil {
						h := time.Duration(ans[i].resp.DurationUS) * time.Microsecond
						handler = append(handler, h)
						transport = append(transport, tm.end.Sub(tm.start)-h)
					}
				}
			}
		}
	}
	m.repeatFrac = float64(repeats) / float64(t.ops)

	var err error
	if m.rssMB, err = c.d.peakRSSMB(); err != nil {
		return nil, err
	}
	after, err := c.d.metrics()
	if err != nil {
		return nil, err
	}
	if c.variant == "classify-restart" {
		hits, misses := after["store_hits"], after["store_misses"]
		if hits+misses > 0 {
			m.layer.set("store.hit_ratio", hits/(hits+misses), "ratio")
		}
		m.layer.set("store.dropped_writes", c.fillMetrics["store_dropped_writes"], "count")
	}
	m.layer.set("temporald.transport_p50_us", 1000*quantile(millis(transport), 0.5), "us")
	m.layer.set("temporald.handler_p50_us", 1000*quantile(millis(handler), 0.5), "us")
	m.layer.set("loadgen.late_p99_ms", lateP99(open), "ms")
	return m, nil
}

// check verifies one slot's answers: each must include its formula's
// syntactic class, and a seeded sample of them must equal the answers of
// a cache-less, store-less engine.
func (c *classifyLoad) check(ctx context.Context, texts []string, ans []classifyAnswer, sample int) (failed, wrong []bool) {
	failed = make([]bool, len(ans))
	wrong = make([]bool, len(ans))
	var answered []int
	for i, a := range ans {
		if a.err != nil {
			failed[i] = true
			c.report(texts[i], a.err)
			continue
		}
		answered = append(answered, i)
		e, ok := c.syn[texts[i]]
		if !ok {
			f, err := ltl.Parse(texts[i])
			if err == nil {
				var cl core.Class
				cl, _, err = core.SyntacticClass(f)
				e = expectation{formula: f.String(), class: cl.String(), err: err}
			} else {
				e.err = err
			}
			c.syn[texts[i]] = e
		}
		switch {
		case e.err != nil:
			wrong[i] = true
			c.report(texts[i], e.err)
		case a.resp.Formula != e.formula || !slices.Contains(a.resp.Classes, e.class):
			wrong[i] = true
			c.report(texts[i], fmt.Errorf("answer %+v lacks the syntactic class %s", a.resp, e.class))
		}
	}

	c.refRng.Shuffle(len(answered), func(i, j int) { answered[i], answered[j] = answered[j], answered[i] })
	for _, i := range answered[:min(sample, len(answered))] {
		want, ok := c.refAns[texts[i]]
		if !ok {
			var err error
			if want, err = reference(ctx, c.ref, texts[i]); err != nil {
				wrong[i] = true
				c.report(texts[i], err)
				continue
			}
			c.refAns[texts[i]] = want
		}
		if got := ans[i].resp; !equalAnswers(got, want) {
			wrong[i] = true
			c.report(texts[i], fmt.Errorf("answer %+v, reference %+v", got, want))
		}
	}
	return failed, wrong
}

// reference computes the answer temporald's handler gives, on eng.
func reference(ctx context.Context, eng *engine.Engine, text string) (classifyResponse, error) {
	f, err := ltl.Parse(text)
	if err != nil {
		return classifyResponse{}, err
	}
	a, err := eng.CompileFormula(ctx, f, nil)
	if err != nil {
		return classifyResponse{}, err
	}
	cl, err := eng.ClassifyAutomaton(ctx, a)
	if err != nil {
		return classifyResponse{}, err
	}
	_, dec, err := eng.PlanAutomaton(ctx, a)
	if err != nil {
		return classifyResponse{}, err
	}
	return response(f, a, cl, dec), nil
}

func response(f ltl.Formula, a *omega.Automaton, cl core.Classification, dec plan.Decision) classifyResponse {
	r := classifyResponse{
		Formula:        f.String(),
		Class:          cl.Lowest().String(),
		ObligationRank: cl.ObligationRank,
		ReactivityRank: cl.ReactivityRank,
		States:         a.NumStates(),
		Pairs:          a.NumPairs(),
		Plan:           dec.Tier.String(),
	}
	for _, k := range cl.Classes() {
		r.Classes = append(r.Classes, k.String())
	}
	return r
}

// equalAnswers compares everything but the duration.
func equalAnswers(a, b classifyResponse) bool {
	return a.Formula == b.Formula && a.Class == b.Class && slices.Equal(a.Classes, b.Classes) &&
		a.ObligationRank == b.ObligationRank && a.ReactivityRank == b.ReactivityRank &&
		a.States == b.States && a.Pairs == b.Pairs && a.Plan == b.Plan
}

func (c *classifyLoad) report(text string, err error) {
	fmt.Fprintf(c.cfg.stderr, "%s: %q: %v\n", c.variant, text, err)
}

// traceReplay replays the first operations on an in-process engine
// prepared as the daemon was: warmed with the same fill, or, for
// classify-restart, opened on a copy of the store log the fill produced.
func (c *classifyLoad) traceReplay(ctx context.Context, tr *tracer) error {
	var opts []engine.Option
	if c.producedLog != "" {
		var opens []float64
		for k := 0; k < 3; k++ {
			p := filepath.Join(c.dir, fmt.Sprintf("open%d.log", k))
			if err := copyFile(c.producedLog, p); err != nil {
				return err
			}
			start := time.Now()
			st, err := store.Open(p)
			if err != nil {
				return err
			}
			opens = append(opens, float64(time.Since(start))/float64(time.Millisecond))
			tr.extra.set("store.writes", float64(st.Stats().Records), "count")
			if err := st.Close(); err != nil {
				return err
			}
		}
		tr.extra.set("store.open_ms", median(opens), "ms")
		p := filepath.Join(c.dir, "replay.log")
		if err := copyFile(c.producedLog, p); err != nil {
			return err
		}
		opts = append(opts, engine.WithPersistentStore(p))
	}
	eng := engine.New(opts...)
	defer eng.Close()
	if c.variant != "classify-restart" {
		for _, text := range c.fill {
			if _, err := reference(ctx, eng, text); err != nil {
				return err
			}
		}
	}
	before := eng.CacheStats()
	ops := append(slices.Clip(c.open), c.closed...)
	for i, text := range ops[:min(c.cfg.traceOps(), len(ops))] {
		if err := c.traceOne(ctx, tr, eng, i, text); err != nil {
			return err
		}
	}
	tr.addCacheStats(before, eng.CacheStats())
	return nil
}

// traceOne times one request's engine calls as the daemon's handler
// makes them, then replays through the lower layers whatever missed the
// cache.
func (c *classifyLoad) traceOne(ctx context.Context, tr *tracer, eng *engine.Engine, op int, text string) error {
	return tr.span("op.classify", -1, op, func(root int) error {
		var (
			f   ltl.Formula
			a   *omega.Automaton
			cl  core.Classification
			dec plan.Decision
			err error
		)
		if err := tr.span("ltl.parse", root, op, func(int) error { f, err = ltl.Parse(text); return err }); err != nil {
			return err
		}
		c0 := eng.CacheStats()
		if err := tr.span("engine.compile", root, op, func(int) error { a, err = eng.CompileFormula(ctx, f, nil); return err }); err != nil {
			return err
		}
		c1, s1 := eng.CacheStats(), eng.StoreStats()
		if err := tr.span("engine.classify", root, op, func(int) error { cl, err = eng.ClassifyAutomaton(ctx, a); return err }); err != nil {
			return err
		}
		c2, s2 := eng.CacheStats(), eng.StoreStats()
		if err := tr.span("engine.plan", root, op, func(int) error { _, dec, err = eng.PlanAutomaton(ctx, a); return err }); err != nil {
			return err
		}
		c3 := eng.CacheStats()
		if err := tr.span("encode.json", root, op, func(int) error {
			_, err := json.Marshal(response(f, a, cl, dec))
			return err
		}); err != nil {
			return err
		}
		compiled := c1.Misses > c0.Misses
		classified := c2.Misses > c1.Misses && s2.Hits == s1.Hits
		probed := c3.Misses > c2.Misses
		return tr.replay(func() error {
			if compiled {
				if err := replayCompile(ctx, tr, root, op, f); err != nil {
					return err
				}
			}
			if classified {
				if err := tr.span("core.classify", root, op, func(int) error { return replayClassify(ctx, a) }); err != nil {
					return err
				}
			}
			if probed {
				return tr.span("plan.probe", root, op, func(int) error { _, err := plan.ProbeAutomaton(ctx, a); return err })
			}
			return nil
		})
	})
}

// replayCompile compiles f as the engine does, one span per layer call.
func replayCompile(ctx context.Context, tr *tracer, parent, op int, f ltl.Formula) error {
	ps := ltl.Props(f)
	if len(ps) == 0 {
		ps = []string{"p"}
	}
	alpha, err := alphabet.Valuations(ps)
	if err != nil {
		return err
	}
	var nf core.NormalForm
	if err := tr.span("core.normalize", parent, op, func(int) error { nf, err = core.Normalize(f); return err }); err != nil {
		return err
	}
	autos := make([]*omega.Automaton, len(nf.Clauses))
	for i, cl := range nf.Clauses {
		if err := tr.span("core.compile_clause", parent, op, func(int) error {
			autos[i], err = core.CompileClauseOver(ctx, cl, alpha)
			return err
		}); err != nil {
			return err
		}
	}
	if len(autos) == 0 {
		return nil
	}
	var prod *omega.Automaton
	if err := tr.span("omega.intersect", parent, op, func(int) error { prod, err = omega.IntersectAllCtx(ctx, autos...); return err }); err != nil {
		return err
	}
	return tr.span("omega.reduce", parent, op, func(int) error { prod.Reduce(); return nil })
}

// replayClassify runs the class checks and rank checks the engine runs
// for one classification.
func replayClassify(ctx context.Context, a *omega.Automaton) error {
	an := core.Analyze(a)
	var v [4]bool
	var err error
	for i, check := range []func(context.Context) (bool, error){an.Safety, an.Guarantee, an.Recurrence, an.Persistence} {
		if v[i], err = check(ctx); err != nil {
			return err
		}
	}
	if _, err := an.ReactivityRank(ctx); err != nil {
		return err
	}
	if core.Resolve(v[0], v[1], v[2], v[3]).Obligation {
		_, err = an.ObligationRank(ctx)
	}
	return err
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
