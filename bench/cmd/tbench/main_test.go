package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/alphabet"
	"repro/internal/engine"
	"repro/internal/ltl"
	"repro/internal/word"
)

// digest hashes the inputs a workload generates from seed.
func digest(t *testing.T, name string, seed int64) string {
	t.Helper()
	spec, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	cfg := &config{seed: seed, seconds: 1, temporald: filepath.Join(t.TempDir(), "absent"), stderr: io.Discard}
	w, err := spec.make(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	h := sha256.New()
	switch w := w.(type) {
	case *classifyLoad:
		fmt.Fprint(h, w.fill, w.open, w.closed)
	case *checkLoad:
		for _, pool := range w.pools {
			for _, o := range pool {
				fmt.Fprint(h, o.f.String(), ";")
			}
		}
		fmt.Fprint(h, w.probes)
		for i := 0; i < 1000; i++ {
			fmt.Fprint(h, w.op(seed, i), w.op(seed+warmSalt, i))
		}
	case *verifyLoad:
		fmt.Fprint(h, w.order)
	default:
		t.Fatalf("%s: unexpected workload type %T", name, w)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames() {
		a, b, c := digest(t, name, 7), digest(t, name, 7), digest(t, name, 8)
		if a != b {
			t.Errorf("%s: seed 7 gave two different inputs", name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
}

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		left int
	}{
		{500, 0.99, 5},
		{999, 0.99, 9},
		{1000, 0.99, 10},
		{9999, 0.99, 99},
		{9999, 0.999, 9},
		{10000, 0.999, 10},
		{200000, 0.999, 200},
	} {
		if got := beyond(tc.n, tc.q); got != tc.left {
			t.Errorf("beyond(%d, %v) = %d, want %d", tc.n, tc.q, got, tc.left)
		}
	}
	sorted := make([]float64, 1001)
	for i := range sorted {
		sorted[i] = float64(i)
	}
	if got := quantile(sorted, 0.99); got != 990 {
		t.Errorf("p99 of 0..1000 = %v, want 990", got)
	}
	if got := quantile(sorted, 0.5); got != 500 {
		t.Errorf("p50 of 0..1000 = %v, want 500", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// A stalled operation delays the ones due behind it; their latency must
// count that wait, because it is measured from the due time.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	ts := openLoop(4, 100, 1, func(i int) {
		if i == 0 {
			time.Sleep(stall)
		}
	})
	for i := 1; i < len(ts); i++ {
		if gap := ts[i].due.Sub(ts[i-1].due); gap != 10*time.Millisecond {
			t.Errorf("op %d due %v after op %d, want 10ms", i, gap, i-1)
		}
	}
	// Op 1 was due 10ms in but could only start after the stall.
	if late := ts[1].late(); late < stall-10*time.Millisecond-time.Millisecond {
		t.Errorf("op 1 late by %v, want about %v", late, stall-10*time.Millisecond)
	}
	if lat, service := ts[1].latency(), ts[1].end.Sub(ts[1].start); lat < service+ts[1].late() {
		t.Errorf("op 1 latency %v does not include its wait %v", lat, ts[1].late())
	}
}

// A slow slot moves the medians over slots no further than to the next
// slot's figure. Latency slots feed p50_ms; rate slots goodput_ops_s and
// tail_ms.
func TestSlotMedians(t *testing.T) {
	tl := &tally{limit: 10 * time.Millisecond, tailQ: 0.99}
	ops := func(n int, lat time.Duration) ([]timing, []bool, []bool) {
		ts := make([]timing, n)
		t0 := time.Unix(0, 0)
		for i := range ts {
			ts[i] = timing{due: t0, start: t0, end: t0.Add(lat)}
		}
		return ts, make([]bool, n), make([]bool, n)
	}
	for _, s := range []struct {
		n    int
		lat  time.Duration
		secs float64
		kind int
	}{
		{100, time.Millisecond, 1, latencySlot | rateSlot},
		{100, 2 * time.Millisecond, 1, latencySlot | rateSlot},
		{40, 50 * time.Millisecond, 1, latencySlot | rateSlot}, // a stall: slow and over the limit
		{1000, 90 * time.Millisecond, 1, 0},
		{300, time.Millisecond, 2, rateSlot},
	} {
		ts, failed, wrong := ops(s.n, s.lat)
		tl.slot(ts, failed, wrong, s.secs, s.kind)
	}
	if got, want := median(tl.p50s), 2.0; got != want {
		t.Errorf("median of slot p50s = %v ms, want %v", got, want)
	}
	// Goodputs 100, 100, 0 and 150 per second.
	if got, want := median(tl.rates), 100.0; got != want {
		t.Errorf("median of slot goodputs = %v/s, want %v", got, want)
	}
	if got, want := median(tl.tails), 1.5; got != want {
		t.Errorf("median of slot p99s = %v ms, want %v", got, want)
	}
	if tl.ops != 1540 || tl.good != 500 || tl.latencies != 240 || tl.tailSamples != 540 {
		t.Errorf("ops %d, good %d, samples %d and %d; want 1540, 500, 240 and 540", tl.ops, tl.good, tl.latencies, tl.tailSamples)
	}
}

// checkFixture is a one-stratum check workload over the formulas, whose
// proposition p stands for the run's first proposition.
func checkFixture(t *testing.T, formulas ...string) *checkLoad {
	t.Helper()
	w, err := newCheckMixed(&config{seed: 1, stderr: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	c := w.(*checkLoad)
	c.pools = [][]*operand{nil}
	for _, s := range rename(formulas, c.props) {
		c.pools[0] = append(c.pools[0], &operand{f: ltl.MustParse(s)})
	}
	return c
}

func TestCheckRejectsWrongVerdicts(t *testing.T) {
	c := checkFixture(t, "G p", "F p", "p & !p")
	p := alphabet.Symbol("{" + c.props[0] + "}")
	lasso := func(prefix, loop alphabet.Symbol) word.Lasso {
		return word.MustLasso(word.Finite{prefix}, word.Finite{loop})
	}
	for _, tc := range []struct {
		name string
		op   checkOp
		v    engine.Verdict
		bad  bool
	}{
		{"witness in both", checkOp{kind: engine.CheckContains, l: 1, r: 0}, engine.Verdict{Witness: lasso(p, p)}, true},
		{"no witness", checkOp{kind: engine.CheckContains, l: 0, r: 1}, engine.Verdict{}, true},
		{"separating witness", checkOp{kind: engine.CheckContains, l: 0, r: 1}, engine.Verdict{Witness: lasso(p, "{}")}, false},
		{"empty language", checkOp{kind: engine.CheckEmptiness, l: 2}, engine.Verdict{Holds: true}, false},
		{"witness outside the language", checkOp{kind: engine.CheckEmptiness, l: 2}, engine.Verdict{Witness: lasso(p, "{}")}, true},
		// Among the 8 probes some word has p somewhere but not
		// everywhere, which separates G p from F p.
		{"refuted equivalence", checkOp{kind: engine.CheckEquivalent, l: 0, r: 1}, engine.Verdict{Holds: true}, true},
	} {
		if err := c.verdictError(0, tc.op, tc.v); (err != nil) != tc.bad {
			t.Errorf("%s: verdictError = %v, want error %v", tc.name, err, tc.bad)
		}
	}
}

// runTbench runs the command in-process and returns its exit code and
// the result line.
func runTbench(t *testing.T, args ...string) (int, line, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	var l line
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l); err != nil && code != 2 {
		t.Fatalf("tbench %v: last line %q: %v\n%s", args, lines[len(lines)-1], err, stderr.String())
	}
	return code, l, stderr.String()
}

func TestPlantedWrongVerdictFailsTheRun(t *testing.T) {
	work := t.TempDir()
	code, l, stderr := runTbench(t, "-workload", "verify-protocols", "-quick", "-plant-wrong", "-work", work)
	if code == 0 || l.Correct || l.Failed == 0 {
		t.Fatalf("planted wrong verdict: exit %d, result %+v\n%s", code, l, stderr)
	}
}

// benchmarkDef is the part of BENCHMARK.json the smoke test checks.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []bound `json:"per_layer"`
}

// TestQuickSmokePrintsEveryMetric runs every workload for about a second
// with the traced replay and checks that each metric BENCHMARK.json names
// is reported with its unit and that every answer was right.
func TestQuickSmokePrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds temporald and runs every workload")
	}
	b, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkDef
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, tbench runs %d", len(def.Workloads), len(workloads))
	}
	for _, w := range def.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to tbench", w.Name)
		}
	}

	dir := t.TempDir()
	daemon := filepath.Join(dir, "temporald")
	build := exec.Command("go", "build", "-o", daemon, "repro/cmd/temporald")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build temporald: %v\n%s", err, out)
	}
	for _, w := range workloads {
		out := filepath.Join(dir, w.name+".json")
		code, l, stderr := runTbench(t, "-workload", w.name, "-quick", "-trace", "1", "-seed", "3",
			"-temporald", daemon, "-work", dir, "-trace-dir", filepath.Join(dir, "trace"), "-out", out)
		if code != 0 || !l.Correct || l.Failed != 0 || l.Attempted == 0 {
			t.Errorf("%s: exit %d, result correct=%v attempted=%d failed=%d\n%s", w.name, code, l.Correct, l.Attempted, l.Failed, stderr)
			continue
		}
		var res result
		if b, err := os.ReadFile(out); err != nil {
			t.Fatal(err)
		} else if err := json.Unmarshal(b, &res); err != nil {
			t.Fatal(err)
		}
		if len(l.Metrics) != len(def.PerLayer) {
			t.Errorf("%s: traced run printed %d metrics, BENCHMARK.json names %d per-layer ones", w.name, len(l.Metrics), len(def.PerLayer))
		}
		for _, set := range []struct {
			got  metrics
			want []bound
		}{{res.EndToEnd, def.EndToEnd}, {l.Metrics, def.PerLayer}} {
			for _, m := range set.want {
				got, ok := set.got[m.Name]
				if !ok {
					t.Errorf("%s: metric %s missing", w.name, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", w.name, m.Name, got.Unit, m.Unit)
				}
			}
		}
		for _, m := range def.EndToEnd {
			if res.EndToEnd[m.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, m.Name, res.EndToEnd[m.Name].Value)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "trace", w.name, "trace.jsonl")); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

// The traced replay must produce the same layer counts on every run.
func TestTraceCountsRepeat(t *testing.T) {
	counts := func() map[string]float64 {
		cfg := &config{seed: 5, seconds: 1, quick: true, stderr: io.Discard}
		w, err := newCheckMixed(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := w.setup(ctx); err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		if err := w.traceReplay(ctx, tr); err != nil {
			t.Fatal(err)
		}
		m := metrics{}
		tr.addMetrics(m)
		out := map[string]float64{}
		for name, v := range m {
			if v.Unit == "count" && name != "par.steals" {
				out[name] = v.Value
			}
		}
		return out
	}
	a, b := counts(), counts()
	for name, v := range a {
		if b[name] != v {
			t.Errorf("%s: %v then %v", name, v, b[name])
		}
	}
	if a["engine.check.calls"] == 0 || a["plan.probe.calls"] == 0 {
		t.Errorf("replay recorded no checks or probes: %v", a)
	}
}
