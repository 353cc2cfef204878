// Command tbench is the end-to-end benchmark of the temporal-hierarchy
// stack. It runs named workloads against the temporald daemon (as a child
// process, over HTTP) and against engine.Check (in-process), checks every
// answer against a reference that does not trust the code under test,
// and prints each metric by name with its unit. Workload inputs come from
// -seed; the program under test only ever receives the generated inputs.
//
// One workload per process:
//
//	tbench -workload check-mixed -seed 3 -seconds 10 -trace 0
//
// prints, as its last line, {"correct","attempted","failed","metrics"}:
// the end-to-end metrics with -trace 0, the per-layer metrics of a traced
// replay with -trace 1. -workload all runs every workload, each in a fresh
// child process; -repeat N runs the suite N times on seeds seed..seed+N-1
// and reports each metric's median, quartiles and spread against its
// bound in BENCHMARK.json. The exit code is 1 when an answer was wrong or
// an operation failed. bench/run.sh builds the binaries and runs tbench.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		killLive()
		os.Exit(1)
	}()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	traceDir   string
	out        string
	repeat     int
	quick      bool
	temporald  string
	work       string
	plantWrong bool
	stderr     io.Writer
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up serves the timed phase.
func (c *config) setupReps() int {
	if c.quick {
		return 1
	}
	return 5
}

// traceOps is how many operations the traced replay covers.
func (c *config) traceOps() int {
	if c.quick {
		return 100
	}
	return traceOps
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase of each workload, in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1: after the timed phase, replay the first operations with spans and print the per-layer metrics")
	fs.StringVar(&cfg.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "directory the traced run writes <workload>/trace.jsonl to")
	fs.StringVar(&cfg.out, "out", "", "also write the full result, with run metadata, as JSON to this file")
	fs.IntVar(&cfg.repeat, "repeat", 0, "run the suite this many times and report medians, quartiles and spreads against the bounds")
	fs.BoolVar(&cfg.quick, "quick", false, "smoke run: about one second per workload, one set-up, short traced replay")
	fs.StringVar(&cfg.temporald, "temporald", filepath.Join(".bench_build", "bin", "temporald"), "temporald binary")
	fs.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "tmp"), "directory for temporary stores and daemon logs")
	fs.BoolVar(&cfg.plantWrong, "plant-wrong", false, "corrupt one answer before the checks, to show that they catch it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "tbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	cfg.trace = traceFlag == 1
	cfg.stderr = stderr
	if cfg.quick {
		cfg.seconds = 1
	}
	if cfg.seconds <= 0 || traceFlag < 0 || traceFlag > 1 {
		fmt.Fprintln(stderr, "tbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "tbench:", err)
		return 1
	}

	switch {
	case cfg.repeat > 0:
		return runRepeat(&cfg, stdout, stderr)
	case cfg.workload == "all":
		return runSuite(&cfg, stdout, stderr)
	}
	spec, ok := findWorkload(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "tbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	// A run must end within 180 s; the watchdog stops it, and its
	// daemons, shortly before.
	watchdog := time.AfterFunc(170*time.Second, func() {
		killLive()
		fmt.Fprintln(stderr, "tbench: run exceeded 170s")
		os.Exit(1)
	})
	defer watchdog.Stop()
	res, err := runWorkload(context.Background(), &cfg, spec)
	if err != nil {
		fmt.Fprintf(stderr, "tbench: %s: %v\n", spec.name, err)
		return 1
	}
	if err := emit(&cfg, res, res, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "tbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// meta records what a result depends on besides the code.
type meta struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitHead    string  `json:"git_head"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Quick      bool    `json:"quick"`
	// Samples is the number of samples behind each percentile metric.
	Samples map[string]int `json:"samples"`
	// Slots is the number of slots behind each median over slots.
	Slots        map[string]int `json:"slots"`
	TailQuantile float64        `json:"tail_quantile"`
	// TailBeyond is the number of samples a slot of average size ranks
	// above its tail percentile.
	TailBeyond int       `json:"tail_beyond"`
	SetupRuns  []float64 `json:"setup_runs_s"`
}

func newMeta(cfg *config) meta {
	return meta{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitHead:    gitHead(),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		Quick:      cfg.quick,
		Samples:    map[string]int{},
	}
}

// result is one workload run.
type result struct {
	Workload  string  `json:"workload"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Wrong     int     `json:"wrong"`
	ErrorFrac float64 `json:"error_frac"`
	Meta      meta    `json:"meta"`
	EndToEnd  metrics `json:"end_to_end"`
	PerLayer  metrics `json:"per_layer,omitempty"`
}

// line is the last line of standard output.
type line struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// emit prints the metric table to stderr, writes the -out file and
// prints the result line: the end-to-end metrics, or with -trace 1 the
// per-layer ones.
func emit(cfg *config, res *result, outFile any, stdout, stderr io.Writer) error {
	l := line{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.EndToEnd}
	if cfg.trace {
		l.Metrics = res.PerLayer
	}
	printTable(stderr, res.Workload, l.Metrics)
	mb, _ := json.Marshal(res.Meta)
	fmt.Fprintf(stderr, "%s: attempted %d, failed %d, wrong %d; meta %s\n", res.Workload, res.Attempted, res.Failed, res.Wrong, mb)
	if cfg.out != "" {
		b, err := json.MarshalIndent(outFile, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

func printTable(w io.Writer, workload string, m metrics) {
	for _, name := range sortedKeys(m) {
		fmt.Fprintf(w, "%-18s %-40s %14.6g %s\n", workload, name, m[name].Value, m[name].Unit)
	}
}

// gitHead returns the commit checked out in the nearest enclosing git
// repository, or "unknown" outside one.
func gitHead() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		gitDir := filepath.Join(dir, ".git")
		if b, err := os.ReadFile(filepath.Join(gitDir, "HEAD")); err == nil {
			head := strings.TrimSpace(string(b))
			ref, ok := strings.CutPrefix(head, "ref: ")
			if !ok {
				return head
			}
			if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
				return strings.TrimSpace(string(b))
			}
			if b, err := os.ReadFile(filepath.Join(gitDir, "packed-refs")); err == nil {
				for _, l := range strings.Split(string(b), "\n") {
					if f := strings.Fields(l); len(f) == 2 && f[1] == ref {
						return f[0]
					}
				}
			}
			return "unknown"
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}
