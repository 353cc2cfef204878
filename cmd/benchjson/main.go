// Command benchjson turns `go test -bench` output into a stable JSON
// snapshot and gates benchmark regressions.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | benchjson -pr pr4 -o BENCH_pr4.json
//	benchjson -i bench.txt -compare BENCH_pr3.json -tolerance 0.25
//
// The snapshot records, per benchmark, ns/op, allocs/op and — when the
// benchmark reports the custom metric — states/op (product states
// materialized per operation, the lazy-exploration layer's figure of
// merit). It also records the host it was taken on: nproc, the CPUs the
// process may run on, and GOMAXPROCS, so a figure that depends on
// parallelism names the machine it was measured on. Run benchjson on the
// host that ran the benchmarks, as scripts/bench.sh does.
//
// Two gates, both optional:
//
//   - -compare PREV [-tolerance T] [-allocs-tolerance A]: every
//     benchmark present in both snapshots must not regress its ns/op by
//     more than the tolerance fraction (default 0.25), nor its allocs/op
//     by more than the allocs tolerance (default 0.25; negative
//     disables). New and removed benchmarks are reported but do not fail
//     the gate.
//   - -lazy-gate FAMILIES (default "Shallow,Witness"): for every
//     benchmark family X matching one of the comma-separated substrings
//     and exposing both X/lazy and X/eager variants, the lazy variant
//     must materialize at most half the eager variant's states/op; with
//     -ns-gate, it must additionally not be slower than the eager
//     variant. The states gate is deterministic (state counts do not
//     jitter), so it runs even at -benchtime=1x; the ns gate is only
//     meaningful on real benchtimes. Pass -lazy-gate "" to disable.
//
// Exit status 1 on any gate violation, with one diagnostic per line on
// stderr.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's measurements.
type Benchmark struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	StatesPerOp float64 `json:"states_per_op,omitempty"`
}

// Snapshot is the JSON document benchjson reads and writes. NProc and
// GOMAXPROCS describe the host; the -compare gate ignores them.
type Snapshot struct {
	PR         string      `json:"pr"`
	NProc      int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	pr := flag.String("pr", "", "PR label recorded in the snapshot")
	in := flag.String("i", "", "input file with go test -bench output (default stdin)")
	out := flag.String("o", "", "write the JSON snapshot here (default stdout)")
	compare := flag.String("compare", "", "previous snapshot to gate ns/op regressions against")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional ns/op regression vs -compare")
	allocsTolerance := flag.Float64("allocs-tolerance", 0.25,
		"allowed fractional allocs/op regression vs -compare (negative disables)")
	lazyGate := flag.String("lazy-gate", "Shallow,Witness",
		"comma-separated family substrings whose lazy variant must materialize ≤ half the eager states (empty disables)")
	nsGate := flag.Bool("ns-gate", false, "also require lazy ≤ eager ns/op on the gated families")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	snap, err := parse(r, *pr)
	if err != nil {
		return err
	}
	if len(snap.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines in input")
	}

	var failures []string
	if *lazyGate != "" {
		failures = append(failures, gateLazy(snap, strings.Split(*lazyGate, ","), *nsGate)...)
	}
	if *compare != "" {
		prev, err := load(*compare)
		if err != nil {
			return err
		}
		failures = append(failures, gateRegression(prev, snap, *tolerance, *allocsTolerance)...)
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
	} else {
		os.Stdout.Write(data)
	}

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchjson: FAIL:", f)
		}
		return fmt.Errorf("%d gate violation(s)", len(failures))
	}
	return nil
}

// parse extracts benchmark result lines from go test output. Repeated
// runs of one benchmark (from -count) are averaged.
func parse(r io.Reader, pr string) (*Snapshot, error) {
	sums := map[string]*Benchmark{}
	counts := map[string]int{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name := stripProcSuffix(m[1])
		b := sums[name]
		if b == nil {
			b = &Benchmark{Name: name}
			sums[name] = b
		}
		counts[name]++
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark %s: bad value %q", name, fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp += v
			case "allocs/op":
				b.AllocsPerOp += v
			case "B/op":
				b.BytesPerOp += v
			case "states/op":
				b.StatesPerOp += v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	snap := &Snapshot{PR: pr, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for name, b := range sums {
		n := float64(counts[name])
		snap.Benchmarks = append(snap.Benchmarks, Benchmark{
			Name:        name,
			NsPerOp:     b.NsPerOp / n,
			AllocsPerOp: b.AllocsPerOp / n,
			BytesPerOp:  b.BytesPerOp / n,
			StatesPerOp: b.StatesPerOp / n,
		})
	}
	sort.Slice(snap.Benchmarks, func(i, j int) bool {
		return snap.Benchmarks[i].Name < snap.Benchmarks[j].Name
	})
	return snap, nil
}

// stripProcSuffix removes the -GOMAXPROCS suffix go test appends to
// benchmark names, so snapshots compare across machines.
func stripProcSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &s, nil
}

// gateLazy enforces the lazy-vs-eager contract on matching families.
func gateLazy(snap *Snapshot, families []string, nsGate bool) []string {
	byName := map[string]Benchmark{}
	for _, b := range snap.Benchmarks {
		byName[b.Name] = b
	}
	var failures []string
	gated := 0
	for _, b := range snap.Benchmarks {
		if !strings.HasSuffix(b.Name, "/lazy") {
			continue
		}
		family := strings.TrimSuffix(b.Name, "/lazy")
		match := false
		for _, f := range families {
			if f != "" && strings.Contains(family, f) {
				match = true
				break
			}
		}
		if !match {
			continue
		}
		eager, ok := byName[family+"/eager"]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s has no /eager counterpart to gate against", b.Name))
			continue
		}
		gated++
		if b.StatesPerOp <= 0 || eager.StatesPerOp <= 0 {
			failures = append(failures, fmt.Sprintf("%s: states/op metric missing (lazy %.1f, eager %.1f)",
				family, b.StatesPerOp, eager.StatesPerOp))
			continue
		}
		if b.StatesPerOp > eager.StatesPerOp/2 {
			failures = append(failures, fmt.Sprintf(
				"%s: lazy materializes %.1f states/op, want ≤ half of eager's %.1f",
				family, b.StatesPerOp, eager.StatesPerOp))
		}
		if nsGate && b.NsPerOp > eager.NsPerOp {
			failures = append(failures, fmt.Sprintf(
				"%s: lazy %.0f ns/op slower than eager %.0f ns/op",
				family, b.NsPerOp, eager.NsPerOp))
		}
	}
	if gated == 0 {
		failures = append(failures, fmt.Sprintf(
			"no benchmark family matched the lazy gate %v — wrong -bench filter?", families))
	}
	return failures
}

// gateRegression compares ns/op (and, unless disabled, allocs/op)
// against a previous snapshot. Allocation counts are near-deterministic,
// so the allocs gate catches hot-path regressions that timing jitter
// would hide.
func gateRegression(prev, cur *Snapshot, tolerance, allocsTolerance float64) []string {
	prevBy := map[string]Benchmark{}
	for _, b := range prev.Benchmarks {
		prevBy[b.Name] = b
	}
	var failures []string
	for _, b := range cur.Benchmarks {
		p, ok := prevBy[b.Name]
		if !ok {
			continue // new benchmark: nothing to compare
		}
		if p.NsPerOp > 0 {
			ratio := b.NsPerOp / p.NsPerOp
			if ratio > 1+tolerance && !almostEqual(b.NsPerOp, p.NsPerOp) {
				failures = append(failures, fmt.Sprintf(
					"%s: %.0f ns/op vs %s's %.0f (%.2fx > allowed %.2fx)",
					b.Name, b.NsPerOp, prev.PR, p.NsPerOp, ratio, 1+tolerance))
			}
		}
		if allocsTolerance >= 0 && p.AllocsPerOp > 0 {
			ratio := b.AllocsPerOp / p.AllocsPerOp
			if ratio > 1+allocsTolerance && !almostEqual(b.AllocsPerOp, p.AllocsPerOp) {
				failures = append(failures, fmt.Sprintf(
					"%s: %.1f allocs/op vs %s's %.1f (%.2fx > allowed %.2fx)",
					b.Name, b.AllocsPerOp, prev.PR, p.AllocsPerOp, ratio, 1+allocsTolerance))
			}
		}
	}
	return failures
}

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) < 1e-9
}
