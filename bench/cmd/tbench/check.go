package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alphabet"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/ltl"
	"repro/internal/omega"
	"repro/internal/plan"
	"repro/internal/word"
)

const (
	// poolSize is the number of operands per stratum.
	poolSize = 400
	// warmOps check operations run in set-up, before timing.
	warmOps = 2000
	// Each "holds" verdict must survive probesPerCheck refutation
	// probes, drawn from probePool seeded random lassos.
	probePool      = 64
	probesPerCheck = 8
)

// Seeds of the operation streams, offset from the run seed so the
// warm-up, the timed phase and the probe draws are independent.
const (
	warmSalt  = 0x77a3
	probeSalt = 0x9b1d
)

// strata are the paper's canonical shapes over random past formulas π,
// one per class of the hierarchy, so every plan tier gets a fixed share
// of the operations.
var strata = []func(past func() ltl.Formula) ltl.Formula{
	func(p func() ltl.Formula) ltl.Formula { return ltl.Always{F: p()} },
	func(p func() ltl.Formula) ltl.Formula { return ltl.Eventually{F: p()} },
	func(p func() ltl.Formula) ltl.Formula {
		return ltl.Or{L: ltl.Always{F: p()}, R: ltl.Eventually{F: p()}}
	},
	func(p func() ltl.Formula) ltl.Formula { return ltl.Always{F: ltl.Eventually{F: p()}} },
	func(p func() ltl.Formula) ltl.Formula { return ltl.Eventually{F: ltl.Always{F: p()}} },
	func(p func() ltl.Formula) ltl.Formula {
		return ltl.Or{L: ltl.Always{F: ltl.Eventually{F: p()}}, R: ltl.Eventually{F: ltl.Always{F: p()}}}
	},
}

type operand struct {
	f ltl.Formula
	a *omega.Automaton

	once sync.Once
	// onProbe has bit p set when f holds on refutation probe p.
	onProbe  uint64
	probeErr error
}

// truth evaluates the operand on every refutation probe, once.
func (o *operand) truth(probes []word.Lasso) (uint64, error) {
	o.once.Do(func() {
		for p, w := range probes {
			holds, err := eval.Holds(o.f, w)
			if err != nil {
				o.probeErr = err
				return
			}
			if holds {
				o.onProbe |= 1 << p
			}
		}
	})
	return o.onProbe, o.probeErr
}

// checkOp is one engine.Check query over operands of one stratum.
type checkOp struct {
	kind          engine.CheckKind
	stratum, l, r int
}

type checkAnswer struct {
	v   engine.Verdict
	err error
}

// checkLoad calls engine.Check in-process from one caller, a library
// user waiting on each verdict.
type checkLoad struct {
	cfg    *config
	props  []string
	pools  [][]*operand
	probes []word.Lasso
	eng    *engine.Engine
}

// newCheckMixed draws each stratum's operands from a universe fixed by
// universeSeed, renamed by the run's seed, for the reason given there.
func newCheckMixed(cfg *config) (workload, error) {
	urng := rand.New(rand.NewSource(universeSeed))
	past := func() ltl.Formula {
		return gen.RandomFormula(urng, gen.FormulaOpts{Props: universeProps, MaxDepth: 2, AllowPast: true})
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	c := &checkLoad{cfg: cfg, props: seedProps(rng), pools: make([][]*operand, len(strata))}
	for s, shape := range strata {
		seen := map[string]bool{}
		var universe []string
		for tries := 0; len(universe) < poolSize; tries++ {
			if tries > 100*poolSize {
				return nil, fmt.Errorf("stratum %d: fewer than %d distinct operands", s, poolSize)
			}
			if f := shape(past).String(); !seen[f] {
				seen[f] = true
				universe = append(universe, f)
			}
		}
		for _, t := range rename(universe, c.props) {
			f, err := ltl.Parse(t)
			if err != nil {
				return nil, err
			}
			c.pools[s] = append(c.pools[s], &operand{f: f})
		}
	}
	alpha, err := alphabet.Valuations(c.props)
	if err != nil {
		return nil, err
	}
	for i := 0; i < probePool; i++ {
		c.probes = append(c.probes, gen.RandomLasso(rng, alpha, 4, 4))
	}
	return c, nil
}

// parallel calls f(0), ..., f(n-1) on nproc goroutines and waits for
// them.
func parallel(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// op derives operation i of the stream seed: strata in turn, contains
// 4/6, equivalent 1/6 and emptiness 1/6 of the time, operands uniform.
func (c *checkLoad) op(seed int64, i int) checkOp {
	h := mix(seed, i)
	op := checkOp{kind: engine.CheckContains, stratum: i % len(strata),
		l: int((h >> 16) % poolSize), r: int((h >> 40) % poolSize)}
	switch h % 6 {
	case 4:
		op.kind = engine.CheckEquivalent
	case 5:
		op.kind, op.r = engine.CheckEmptiness, 0
	}
	return op
}

func (c *checkLoad) request(op checkOp) engine.CheckRequest {
	req := engine.CheckRequest{Kind: op.kind, Left: c.pools[op.stratum][op.l].a}
	if op.kind != engine.CheckEmptiness {
		req.Right = c.pools[op.stratum][op.r].a
	}
	return req
}

// setup compiles the operands on a separate engine, so the measured one
// starts with no compile work cached, and warms the measured engine.
func (c *checkLoad) setup(ctx context.Context) error {
	compiler := engine.New()
	for _, pool := range c.pools {
		for _, o := range pool {
			a, err := compiler.CompileFormula(ctx, o.f, c.props)
			if err != nil {
				return err
			}
			o.a = a
		}
	}
	c.eng = engine.New()
	return c.warm(ctx, c.eng)
}

func (c *checkLoad) warm(ctx context.Context, eng *engine.Engine) error {
	for i := 0; i < warmOps; i++ {
		if _, err := eng.Check(ctx, c.request(c.op(c.cfg.seed+warmSalt, i))); err != nil {
			return err
		}
	}
	return nil
}

func (c *checkLoad) teardown() { c.eng = nil }

// measure runs the closed loop in slots of slotOps operations, the
// last one cut short by the time limit. Between slots the clock stops
// while the slot's answers are checked and dropped, so the process's
// memory, which rss_peak_mb reports, does not grow with the engine's
// throughput.
func (c *checkLoad) measure(ctx context.Context, t *tally) (*measurement, error) {
	const slotOps = 20000
	// seen is a bitset over every possible operation, fixed in size.
	seen := make([]uint64, (3*len(strata)*poolSize*poolSize+63)/64)
	repeated := func(op checkOp) bool {
		k := ((int(op.kind)*len(strata)+op.stratum)*poolSize+op.l)*poolSize + op.r
		old := seen[k/64]&(1<<(k%64)) != 0
		seen[k/64] |= 1 << (k % 64)
		return old
	}
	for i := 0; i < warmOps; i++ {
		repeated(c.op(c.cfg.seed+warmSalt, i))
	}
	repeats := 0
	budget := time.Duration(c.cfg.seconds * float64(time.Second))
	var elapsed time.Duration
	for base := 0; elapsed < budget; {
		ops := make([]checkOp, 0, slotOps)
		ans := make([]checkAnswer, 0, slotOps)
		start := time.Now()
		// One caller, so do runs on one goroutine and may append.
		timings := closedLoop(budget-elapsed, slotOps, 1, func(i int) {
			op := c.op(c.cfg.seed, base+i)
			v, err := c.eng.Check(ctx, c.request(op))
			ops = append(ops, op)
			ans = append(ans, checkAnswer{v, err})
		})
		took := time.Since(start)
		elapsed += took
		if c.cfg.plantWrong && base == 0 {
			for i := range ans {
				if ans[i].err == nil && ans[i].v.Holds {
					ans[i].v.Holds, ans[i].v.Witness = false, word.Lasso{}
					break
				}
			}
		}
		failed, wrong := c.check(base, ops, ans)
		t.slot(timings, failed, wrong, took.Seconds(), latencySlot|rateSlot)
		for _, op := range ops {
			if repeated(op) {
				repeats++
			}
		}
		base += len(ops)
		// Collect the checks' garbage before the clock restarts.
		runtime.GC()
	}
	m := &measurement{tally: t, repeatFrac: float64(repeats) / float64(t.ops)}
	var err error
	if m.rssMB, err = peakRSSMB("self"); err != nil {
		return nil, err
	}
	return m, nil
}

// check confirms every verdict with the LTL evaluator on the operands'
// source formulas, on nproc goroutines. ops are the timed operations
// base, base+1, ...
func (c *checkLoad) check(base int, ops []checkOp, ans []checkAnswer) (failed, wrong []bool) {
	failed = make([]bool, len(ops))
	wrong = make([]bool, len(ops))
	errs := make([]error, len(ops))
	parallel(len(ops), func(i int) {
		if ans[i].err == nil {
			errs[i] = c.verdictError(base+i, ops[i], ans[i].v)
		}
	})
	for i, err := range errs {
		switch {
		case ans[i].err != nil:
			failed[i] = true
			c.report(ops[i], ans[i].err)
		case err != nil:
			wrong[i] = true
			c.report(ops[i], err)
		}
	}
	return failed, wrong
}

// verdictError says why the verdict of timed operation i is wrong, or
// returns nil: a false verdict's witness must separate the operands, and
// a true verdict must survive probesPerCheck seeded refutation probes.
func (c *checkLoad) verdictError(i int, op checkOp, v engine.Verdict) error {
	l, r := c.pools[op.stratum][op.l], c.pools[op.stratum][op.r]
	if !v.Holds {
		if v.Witness.IsZero() {
			return errors.New("does not hold, but carries no witness")
		}
		inL, e1 := eval.Holds(l.f, v.Witness)
		inR, e2 := eval.Holds(r.f, v.Witness)
		if err := errors.Join(e1, e2); err != nil {
			return err
		}
		if !refutes(op.kind, inL, inR) {
			return fmt.Errorf("does not hold, but witness %v does not separate the operands", v.Witness)
		}
		return nil
	}
	tl, e1 := l.truth(c.probes)
	tr, e2 := r.truth(c.probes)
	if err := errors.Join(e1, e2); err != nil {
		return err
	}
	h := mix(c.cfg.seed+probeSalt, i)
	for k := 0; k < probesPerCheck; k++ {
		p := (h >> (6 * k)) % probePool
		if refutes(op.kind, tl>>p&1 == 1, tr>>p&1 == 1) {
			return fmt.Errorf("holds, but probe %v refutes it", c.probes[p])
		}
	}
	return nil
}

// refutes reports whether a word on which the left and right operands
// take the given truth values contradicts a "holds" verdict.
func refutes(kind engine.CheckKind, inL, inR bool) bool {
	switch kind {
	case engine.CheckContains:
		return inR && !inL
	case engine.CheckEquivalent:
		return inL != inR
	default:
		return inL
	}
}

func (c *checkLoad) report(op checkOp, err error) {
	l, r := c.pools[op.stratum][op.l].f, c.pools[op.stratum][op.r].f
	fmt.Fprintf(c.cfg.stderr, "check-mixed: kind %d, %v / %v: %v\n", op.kind, l, r, err)
}

// traceReplay replays the first operations on a fresh engine warmed as
// in set-up.
func (c *checkLoad) traceReplay(ctx context.Context, tr *tracer) error {
	eng := engine.New()
	if err := c.warm(ctx, eng); err != nil {
		return err
	}
	before := eng.CacheStats()
	for i := 0; i < c.cfg.traceOps(); i++ {
		op := c.op(c.cfg.seed, i)
		err := tr.span("op.check", -1, i, func(root int) error {
			var v engine.Verdict
			if err := tr.span("engine.check", root, i, func(int) (err error) {
				v, err = eng.Check(ctx, c.request(op))
				return err
			}); err != nil {
				return err
			}
			if v.Cached || v.Stored {
				return nil
			}
			return tr.replay(func() error { return c.replayCheck(ctx, tr, root, i, op) })
		})
		if err != nil {
			return err
		}
	}
	tr.addCacheStats(before, eng.CacheStats())
	return nil
}

// replayCheck runs one query through the planner's public functions:
// probe each operand, decide, and run the chosen tier's procedure.
func (c *checkLoad) replayCheck(ctx context.Context, tr *tracer, root, op int, q checkOp) error {
	probe := func(a *omega.Automaton) (p plan.Probe, err error) {
		err = tr.span("plan.probe", root, op, func(int) error { p, err = plan.ProbeAutomaton(ctx, a); return err })
		return p, err
	}
	tier := func(d plan.Decision, run func() (plan.Outcome, error)) (out plan.Outcome, err error) {
		err = tr.span("plan.tier."+d.Tier.String(), root, op, func(int) error { out, err = run(); return err })
		return out, err
	}
	left := c.pools[q.stratum][q.l].a
	pl, err := probe(left)
	if err != nil {
		return err
	}
	if q.kind == engine.CheckEmptiness {
		d := plan.DecideEmptiness(pl)
		_, err := tier(d, func() (plan.Outcome, error) { return plan.EmptinessWith(ctx, d, left) })
		return err
	}
	right := c.pools[q.stratum][q.r].a
	pr, err := probe(right)
	if err != nil {
		return err
	}
	contains := func(a, b *omega.Automaton, pa, pb plan.Probe) (plan.Outcome, error) {
		d := plan.DecideContains(pa, pb)
		out, err := tier(d, func() (plan.Outcome, error) { return plan.ContainsWith(ctx, d, a, b) })
		if out.Tier == plan.TierStreett {
			tr.counts["lazy.contains"]++
		}
		return out, err
	}
	out, err := contains(left, right, pl, pr)
	if err != nil || q.kind != engine.CheckEquivalent || !out.Holds {
		return err
	}
	_, err = contains(right, left, pr, pl)
	return err
}
