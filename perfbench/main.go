// Command perfbench is the repository benchmark. It runs one workload
// against the program's browser stack, prints every metric by name and
// unit, and fails on any correctness check:
//
//	bash perfbench/run.sh --workload browse --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced runs;
// with --trace 1 it adds a separate traced run and reports per-layer
// metrics. BENCHMARK.json at the repository root lists the workloads
// and metrics; LAYERS.md beside this file maps each layer to the
// end-to-end metric and workload it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

type config struct {
	wl      *workload
	seed    int64
	seconds int
	trace   bool
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's metrics and failures.
type report struct {
	result
	problems []error
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) fail(err error) {
	if err != nil {
		r.problems = append(r.problems, err)
	}
}

// tally folds a window's loads and failures into the report.
func (r *report) tally(win *window) {
	r.Attempted += win.loads
	r.Failed += len(win.errs)
	for i, err := range win.errs {
		if i == 3 {
			r.fail(fmt.Errorf("... and %d more failed loads", len(win.errs)-3))
			break
		}
		r.fail(err)
	}
}

// run prints progress and the human-readable figures to stdout, ending
// with the one-line JSON result, and failures to stderr. It exits 0
// when every check passed, 1 when a check failed, 2 when the run could
// not complete.
func run(args []string) int {
	stderr := os.Stderr
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: browse, script-dom or gateway-h2")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 adds the traced run and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (%v)\n", err)
		return 2
	}
	cfg := config{wl: wl, seed: *seed, seconds: *seconds, trace: *trace == 1}
	rep := &report{result: result{Metrics: map[string]metric{}}}
	var runErr error
	if cfg.trace {
		runErr = tracedRun(cfg, rep)
	} else {
		runErr = timedRun(cfg, rep)
	}
	if runErr != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", runErr)
		return 2
	}
	rep.Correct = len(rep.problems) == 0 && rep.Failed == 0 && rep.Attempted > 0
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "perfbench: FAIL: %v\n", p)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// setup builds a world and warms it: one untraced cycle per session,
// so caches fill and lazy set-up finishes before any window. It
// returns the time it took and the slowest session's warm cycle.
func setup(cfg config, traced bool) (*world, time.Duration, time.Duration, error) {
	start := time.Now()
	w, err := newWorld(cfg.wl, cfg.seed, traced)
	if err != nil {
		return nil, 0, 0, err
	}
	warm, err := w.closedLoop(0, 1)
	if err == nil && len(warm.errs) > 0 {
		err = warm.errs[0]
	}
	if err != nil {
		w.close()
		return nil, 0, 0, fmt.Errorf("warm-up: %w", err)
	}
	return w, time.Since(start), warm.elapsed, nil
}
