package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/ltl"
	"repro/internal/plan"
	"repro/internal/ts"
)

// protocol is one scenario system with its known-verdict specifications.
type protocol struct {
	name  string
	build func() (*ts.System, error)
	specs []ts.ScenarioSpec
}

// The 3,000-state systems exceed the 256-state threshold above which
// model checking shards its search waves.
var protocols = []protocol{
	{"RingMutex(6,Strong)", func() (*ts.System, error) { return ts.RingMutex(6, ts.Strong) }, ts.RingMutexSpecs(6, ts.Strong)},
	{"RingMutex(8,Strong)", func() (*ts.System, error) { return ts.RingMutex(8, ts.Strong) }, ts.RingMutexSpecs(8, ts.Strong)},
	{"RingMutex(8,Weak)", func() (*ts.System, error) { return ts.RingMutex(8, ts.Weak) }, ts.RingMutexSpecs(8, ts.Weak)},
	{"LeaderElection(5)", func() (*ts.System, error) { return ts.LeaderElection(5) }, ts.LeaderElectionSpecs(5)},
	{"LeaderElection(6)", func() (*ts.System, error) { return ts.LeaderElection(6) }, ts.LeaderElectionSpecs(6)},
	{"CacheCoherence(4)", func() (*ts.System, error) { return ts.CacheCoherence(4) }, ts.CacheCoherenceSpecs(4)},
	{"CacheCoherence(5)", func() (*ts.System, error) { return ts.CacheCoherence(5) }, ts.CacheCoherenceSpecs(5)},
}

// verifyPair is one (system, specification) query with its known verdict.
type verifyPair struct {
	sys   int
	f     ltl.Formula
	holds bool
}

// verifyLoad calls engine.Check{Kind: CheckVerify} in-process from one
// caller, cycling through every pair in a seeded order.
type verifyLoad struct {
	cfg     *config
	pairs   []verifyPair
	order   []int
	systems []*ts.System
	eng     *engine.Engine
}

func newVerifyProtocols(cfg *config) (workload, error) {
	v := &verifyLoad{cfg: cfg}
	for s, p := range protocols {
		for _, spec := range p.specs {
			f, err := ltl.Parse(spec.Formula)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			v.pairs = append(v.pairs, verifyPair{sys: s, f: f, holds: spec.Holds})
		}
	}
	v.order = rand.New(rand.NewSource(cfg.seed)).Perm(len(v.pairs))
	return v, nil
}

func (v *verifyLoad) pair(i int) verifyPair { return v.pairs[v.order[i%len(v.order)]] }

func (v *verifyLoad) request(p verifyPair) engine.CheckRequest {
	return engine.CheckRequest{Kind: engine.CheckVerify, System: v.systems[p.sys], Formula: p.f}
}

// setup builds the systems and runs one warm-up cycle over every pair.
func (v *verifyLoad) setup(ctx context.Context) error {
	v.systems = make([]*ts.System, len(protocols))
	for i, p := range protocols {
		sys, err := p.build()
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		v.systems[i] = sys
	}
	v.eng = engine.New()
	for _, p := range v.pairs {
		if _, err := v.eng.Check(ctx, v.request(p)); err != nil {
			return err
		}
	}
	return nil
}

func (v *verifyLoad) teardown() { v.systems, v.eng = nil, nil }

// measure runs whole cycles over every pair until the time is up; each
// cycle is a slot, so every slot does the same work.
func (v *verifyLoad) measure(ctx context.Context, t *tally) (*measurement, error) {
	budget := time.Duration(v.cfg.seconds * float64(time.Second))
	for start := time.Now(); time.Since(start) < budget; {
		ans := make([]checkAnswer, 0, len(v.order))
		cycle := time.Now()
		// One caller, so do runs on one goroutine and may append.
		timings := closedLoop(time.Hour, len(v.order), 1, func(i int) {
			res, err := v.eng.Check(ctx, v.request(v.pair(i)))
			ans = append(ans, checkAnswer{res, err})
		})
		secs := time.Since(cycle).Seconds()
		if v.cfg.plantWrong && t.ops == 0 {
			ans[0].v.Holds = !ans[0].v.Holds
		}
		failed := make([]bool, len(ans))
		wrong := make([]bool, len(ans))
		for i, a := range ans {
			p := v.pair(i)
			err := a.err
			switch {
			case err != nil:
				failed[i] = true
			case a.v.Holds != p.holds:
				wrong[i] = true
				err = fmt.Errorf("verdict %v, known verdict %v", a.v.Holds, p.holds)
			case !a.v.Holds && a.v.Counterexample == nil:
				wrong[i] = true
				err = errors.New("does not hold, but carries no counterexample")
			}
			if err != nil {
				fmt.Fprintf(v.cfg.stderr, "verify-protocols: %s ⊨ %v: %v\n", protocols[p.sys].name, p.f, err)
			}
		}
		t.slot(timings, failed, wrong, secs, latencySlot|rateSlot)
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	// The warm-up cycle ran every pair once, so every timed pair repeats.
	return &measurement{tally: t, rssMB: rss, repeatFrac: 1}, nil
}

// traceReplay replays three cycles of pairs: each takes up to tens of
// milliseconds and runs twice, so 1,000 operations would not fit a run.
func (v *verifyLoad) traceReplay(ctx context.Context, tr *tracer) error {
	eng := engine.New()
	n := min(v.cfg.traceOps(), 3*len(v.pairs))
	for i := 0; i < n; i++ {
		p := v.pair(i)
		err := tr.span("op.verify", -1, i, func(root int) error {
			if err := tr.span("engine.check", root, i, func(int) error {
				_, err := eng.Check(ctx, v.request(p))
				return err
			}); err != nil {
				return err
			}
			return tr.replay(func() error {
				return tr.span("mc.verify", root, i, func(int) error {
					_, _, err := plan.Verify(ctx, v.systems[p.sys], p.f)
					return err
				})
			})
		})
		if err != nil {
			return err
		}
	}
	return nil
}
