package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
)

// runChild runs one workload in a fresh tbench process, so each
// workload's memory and GC state are its own, and returns its result. A
// child that answered wrongly still returns its result, with Correct
// false.
func runChild(cfg *config, workload string, seed int64, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(cfg.work, fmt.Sprintf("result-%d-%s-%d.json", os.Getpid(), workload, seed))
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", trace,
		"-trace-dir", cfg.traceDir,
		"-temporald", cfg.temporald,
		"-work", cfg.work,
		"-out", out,
	}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = io.Discard, stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	runErr := cmd.Run()
	b, err := os.ReadFile(out)
	if err != nil {
		return nil, fmt.Errorf("%s: no result (%v)", workload, runErr)
	}
	_ = os.Remove(out)
	var res result
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	return &res, nil
}

// runSuite runs every workload once, each in its own process, and prints
// one combined result line with metrics named <workload>/<metric>.
func runSuite(cfg *config, stdout, stderr io.Writer) int {
	all := &result{Workload: "all", Correct: true, EndToEnd: metrics{}, PerLayer: metrics{}}
	var results []*result
	for _, w := range workloads {
		res, err := runChild(cfg, w.name, cfg.seed, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "tbench:", err)
			all.Correct = false
			continue
		}
		results = append(results, res)
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		all.Wrong += res.Wrong
		for name, m := range res.EndToEnd {
			all.EndToEnd[w.name+"/"+name] = m
		}
		for name, m := range res.PerLayer {
			all.PerLayer[w.name+"/"+name] = m
		}
	}
	all.Meta = newMeta(cfg)
	if err := emit(cfg, all, results, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "tbench:", err)
		return 1
	}
	if !all.Correct {
		return 1
	}
	return 0
}

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds(path string) ([]bound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return def.EndToEnd, nil
}

// spreadRow is one metric of one workload across the repeated runs.
type spreadRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Values   []float64 `json:"values"`
	Q1       float64   `json:"q1"`
	Median   float64   `json:"median"`
	Q3       float64   `json:"q3"`
	// Spread is (Q3-Q1)/Median, the share of the median the middle half
	// of the runs spans; it must stay within Bound.
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
	Within bool    `json:"within"`
}

// runRepeat runs the suite cfg.repeat times, on seeds seed, seed+1, ...,
// and reports each end-to-end metric's median, quartiles and spread
// against its bound. It fails when a run answered wrongly or a spread,
// other than setup_s's, exceeds its bound.
func runRepeat(cfg *config, stdout, stderr io.Writer) int {
	bounds, err := loadBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "tbench:", err)
		return 1
	}
	names := workloadNames()
	if cfg.workload != "all" {
		names = []string{cfg.workload}
	}
	values := map[string]map[string][]float64{}
	ok := true
	for r := 0; r < cfg.repeat; r++ {
		for _, w := range names {
			res, err := runChild(cfg, w, cfg.seed+int64(r), stderr)
			if err != nil {
				fmt.Fprintln(stderr, "tbench:", err)
				ok = false
				continue
			}
			ok = ok && res.Correct
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for name, m := range res.EndToEnd {
				values[w][name] = append(values[w][name], m.Value)
			}
		}
	}
	var rows []spreadRow
	fmt.Fprintf(stdout, "%-18s %-14s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, w := range names {
		for _, b := range bounds {
			vals := values[w][b.Name]
			q1, med, q3 := quartiles(vals)
			spread := math.Abs(q3-q1) / math.Abs(med)
			row := spreadRow{Workload: w, Metric: b.Name, Values: vals, Q1: q1, Median: med, Q3: q3,
				Spread: spread, Bound: b.Bound, Within: spread <= b.Bound}
			rows = append(rows, row)
			mark := ""
			if !row.Within {
				mark = "  over bound"
				ok = ok && b.Name == "setup_s"
			}
			fmt.Fprintf(stdout, "%-18s %-14s %12.6g %12.6g %12.6g %8.4f %6.3g%s\n", w, b.Name, q1, med, q3, spread, b.Bound, mark)
		}
	}
	if cfg.out != "" {
		b, err := json.MarshalIndent(struct {
			Meta meta        `json:"meta"`
			Rows []spreadRow `json:"rows"`
		}{newMeta(cfg), rows}, "", "  ")
		if err == nil {
			err = os.WriteFile(cfg.out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "tbench:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}
