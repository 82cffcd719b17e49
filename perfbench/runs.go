package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// setupRepeats is how many times a timed run sets its world up; setup_s
// is their median.
const setupRepeats = 5

// timedRun measures the end-to-end metrics with tracing off, then runs
// the correctness checks.
func timedRun(cfg config, rep *report) error {
	var times []float64
	var w *world
	for i := 0; i < setupRepeats; i++ {
		nw, d, _, err := setup(cfg, false)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		times = append(times, d.Seconds())
		if w != nil {
			w.close()
		}
		w = nw
	}
	defer w.close()
	rep.set("setup_s", medianFloat(times), "s")
	fmt.Printf("setup  %d runs, median %.3f s\n", setupRepeats, medianFloat(times))

	measure := time.Duration(cfg.seconds) * time.Second
	wl := cfg.wl
	var allocs, loads uint64
	var heap []float64
	addHeap := func(win *window) {
		for _, p := range win.heapPeaks {
			heap = append(heap, float64(p)/(1<<20))
		}
	}
	// Latency and saturated throughput come from a closed loop on every
	// workload: its samples are service times, which an idle vCPU's
	// wake-up delay barely touches. The open loop's due-time tail on
	// the reference VM measured the hypervisor more than the program.
	closed := measure
	if wl.open {
		closed = measure / 2
	}
	win, err := w.closedLoop(closed, 0)
	if err != nil {
		return err
	}
	rep.tally(win)
	rate := float64(win.loads) / win.elapsed.Seconds()
	fmt.Printf("closed %d sessions, %d loads in %.2f s: %.1f loads/s, %d policy pushes\n",
		nSessions, win.loads, win.elapsed.Seconds(), rate, win.flips)
	p99, err := reportLatency(rep, win)
	if err != nil {
		return err
	}
	rep.set("loads_per_s", rate, "1/s")
	allocs, loads = win.mallocs, uint64(win.loads)
	addHeap(win)
	if !wl.open {
		atSLO := 0.0
		if p99 <= wl.limit {
			atSLO = rate
		}
		rep.set("max_rate_at_slo", atSLO, "1/s")
	} else {
		rng := rand.New(rand.NewSource(cfg.seed))
		span := (measure - closed) / time.Duration(len(wl.rates))
		best := 0.0
		for _, rate := range wl.rates {
			win, err := w.openLoop(schedule(rng, rate, span, 0))
			if err != nil {
				return err
			}
			rep.tally(win)
			achieved := float64(win.completedIn) / win.arrivalSpan.Seconds()
			allocs += win.mallocs
			loads += uint64(win.loads)
			addHeap(win)
			p99, err := win.lat.quantile(0.99)
			meets := err == nil && p99 <= wl.limit && float64(win.backlog) <= rate*wl.limit.Seconds()
			fmt.Printf("open   %6.0f/s offered: %5d loads, %.1f/s completed in window, backlog %d, p99 %s, %d flips, meets %v\n",
				rate, win.loads, achieved, win.backlog, fmtQuantile(p99, err, len(win.lat)), win.flips, meets)
			if meets {
				best = achieved
			}
		}
		rep.set("max_rate_at_slo", best, "1/s")
	}
	rep.set("allocs_per_load", float64(allocs)/float64(max(loads, 1)), "count")
	if len(heap) == 0 {
		return fmt.Errorf("no whole second of heap samples")
	}
	rep.set("heap_peak_mb", medianFloat(heap), "MB")
	checks(cfg, w, rep)
	return nil
}

// checks runs the untimed correctness checks on an untraced world.
func checks(cfg config, w *world, rep *report) {
	rep.fail(checkCorpus())
	rep.fail(w.checkShapes())
	if w.gw != nil {
		rep.fail(w.checkWireEquivalence(cfg.seed))
	}
}

// reportLatency sets load_p50_ms and load_p99_ms from a window's
// loads and returns the p99.
func reportLatency(rep *report, win *window) (time.Duration, error) {
	var p99 time.Duration
	for _, q := range []struct {
		name string
		q    float64
	}{{"load_p50_ms", 0.5}, {"load_p99_ms", 0.99}} {
		v, chunks, err := chunked(win.lat, win.at, q.q)
		if err != nil {
			return 0, err
		}
		fmt.Printf("       %s %.3f ms: median of %d chunks of %d loads (n=%d)\n", q.name, ms(v), chunks, chunkSize, len(win.lat))
		rep.set(q.name, ms(v), "ms")
		p99 = v
	}
	return p99, nil
}

func fmtQuantile(q time.Duration, err error, n int) string {
	if err != nil {
		return fmt.Sprintf("n/a (n=%d)", n)
	}
	return fmt.Sprintf("%.3f ms (n=%d)", ms(q), n)
}

// tracedCycles picks how many whole cycles each session runs in the
// two count-bounded windows of a traced run: a multiple of ten (so the
// first and last tenth are whole cycles) filling about budget, and
// enough for a chunk of loads.
func tracedCycles(budget, perCycle time.Duration, loadsPerCycle int) int {
	n := int(math.Round(budget.Seconds()/perCycle.Seconds()/10)) * 10
	least := (chunkSize/loadsPerCycle/10 + 1) * 10
	return max(n, least)
}

// tracedRun measures the per-layer metrics: an untraced count-bounded
// window, then the same load traced, then the checks that tie the two
// together.
func tracedRun(cfg config, rep *report) error {
	wl := cfg.wl
	w, _, warm, err := setup(cfg, false)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	budget := time.Duration(cfg.seconds) * time.Second * 2 / 5
	steps := len(w.sessions[0].steps)
	var cycles int
	var due []time.Duration
	window := func(w *world) (*window, error) {
		if !wl.open {
			return w.closedLoop(0, cycles)
		}
		return w.openLoop(due)
	}
	if wl.open {
		rate := wl.rates[0]
		cycles = tracedCycles(budget, time.Duration(float64(steps*nSessions)/rate*float64(time.Second)), steps*nSessions)
		due = schedule(rand.New(rand.NewSource(cfg.seed)), rate, 0, cycles*steps*nSessions)
	} else {
		cycles = tracedCycles(budget, warm, steps*nSessions)
	}
	plain, err := window(w)
	if err != nil {
		w.close()
		return err
	}
	rep.tally(plain)
	checks(cfg, w, rep)
	// Retire the untraced world before the traced one is built: both
	// windows then run with the same live heap, and so the same GC
	// pacing, which trace.overhead_fraction compares.
	w.close()
	w = nil

	tw, _, _, err := setup(cfg, true)
	if err != nil {
		return fmt.Errorf("traced setup: %w", err)
	}
	defer tw.close()
	traced, err := window(tw)
	if err != nil {
		return err
	}
	rep.tally(traced)
	fmt.Printf("trace  %d cycles of %d steps per session: untraced %.2f s, traced %.2f s\n",
		cycles, steps, plain.elapsed.Seconds(), traced.elapsed.Seconds())
	return layerReport(rep, tw, plain, traced)
}
