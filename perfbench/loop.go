package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/httpd"
	"repro/internal/script"
)

// window is one measured stretch of load: raw per-step latencies plus
// the counter deltas taken around it.
type window struct {
	lat samples
	// at is each load's offset into the window: when it completed in a
	// closed loop, when it was due in an open one.
	at      []time.Duration
	loads   int
	errs    []error
	elapsed time.Duration

	mallocs uint64
	gcs     uint32
	pauseNs uint64
	// heapPeaks is the live-object heap's peak in each whole second.
	heapPeaks []uint64

	batch   core.BatchStats
	cache   core.CacheStats
	compile [2]uint64 // script compile-cache hits, misses

	// Open loop only: generator lag, completions inside the arrival
	// window, and the backlog left when it closed.
	lag          samples
	completedIn  int
	backlog      int
	arrivalSpan  time.Duration
	flips        int
	pushTotal    time.Duration
	gw           httpd.Stats
	client       httpd.ClientStats
	handlerNs    int64
	handlerCalls int64
}

// counters are the process-wide readings a window differences.
type counters struct {
	mem     runtime.MemStats
	batch   core.BatchStats
	cache   core.CacheStats
	compile [2]uint64
	gw      httpd.Stats
	client  httpd.ClientStats
}

func (w *world) readCounters() counters {
	var c counters
	runtime.ReadMemStats(&c.mem)
	c.batch = core.ReadBatchStats()
	c.cache = w.cache.Stats()
	c.compile[0], c.compile[1] = script.CompileCacheStats()
	if w.gw != nil {
		c.gw = w.gw.Stats()
		c.client = w.ct.Stats()
	}
	return c
}

// begin prepares every session to start a fresh cycle (outside the
// window), zeroes the traced tallies, and returns the opening counters.
func (w *world) begin() counters {
	for _, s := range w.sessions {
		s.recycle()
		s.audited = 0
		s.cycleNodes = nil
		if s.tr != nil {
			*s.tr = tracer{}
		}
	}
	if w.handlers != nil {
		w.handlers.ns.Store(0)
		w.handlers.calls.Store(0)
	}
	if w.gw != nil {
		w.gw.ResetQueueHighWater()
	}
	runtime.GC()
	return w.readCounters()
}

func (w *world) end(win *window, start counters) {
	c := w.readCounters()
	win.mallocs = c.mem.Mallocs - start.mem.Mallocs
	win.gcs = c.mem.NumGC - start.mem.NumGC
	win.pauseNs = c.mem.PauseTotalNs - start.mem.PauseTotalNs
	win.batch = c.batch.Sub(start.batch)
	win.cache = c.cache.Sub(start.cache)
	win.compile = [2]uint64{c.compile[0] - start.compile[0], c.compile[1] - start.compile[1]}
	if w.gw != nil {
		win.gw = c.gw.Sub(start.gw)
		win.client = c.client.Sub(start.client)
	}
	if w.handlers != nil {
		win.handlerNs = w.handlers.ns.Load()
		win.handlerCalls = w.handlers.calls.Load()
	}
}

// heapWatch samples the live-object heap until stopped and records
// its peak in every whole second. runtime/metrics reads without
// stopping the world.
type heapWatch struct {
	stop chan struct{}
	done chan []uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan []uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peaks []uint64
		var peak uint64
		second := time.Now().Add(time.Second)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			if time.Now().After(second) {
				peaks = append(peaks, peak)
				peak, second = 0, second.Add(time.Second)
			}
			select {
			case <-h.stop:
				h.done <- peaks
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// peaks stops the watch and returns the per-second peaks.
func (h *heapWatch) peaks() []uint64 {
	close(h.stop)
	return <-h.done
}

// closedLoop runs every session back to back, for d or, when cycles
// is positive, for exactly that many cycles per session.
func (w *world) closedLoop(d time.Duration, cycles int) (*window, error) {
	win := &window{}
	start := w.begin()
	hw := watchHeap()
	stopFlips := w.startFlips(win)
	per := make([]*window, len(w.sessions))
	t0 := time.Now()
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	for i, s := range w.sessions {
		pw := &window{}
		per[i] = pw
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := cycles * len(s.steps)
			for k := 0; ; k++ {
				if cycles > 0 && k == n {
					return
				}
				if cycles == 0 && !time.Now().Before(deadline) {
					return
				}
				lat, err := s.next()
				pw.lat = append(pw.lat, lat)
				pw.at = append(pw.at, time.Since(t0))
				pw.loads++
				if err != nil {
					pw.errs = append(pw.errs, fmt.Errorf("session %d: %w", s.id, err))
				}
			}
		}()
	}
	wg.Wait()
	flipErr := stopFlips()
	win.elapsed = time.Since(t0)
	win.heapPeaks = hw.peaks()
	w.end(win, start)
	if flipErr != nil {
		return nil, flipErr
	}
	for _, pw := range per {
		win.lat = append(win.lat, pw.lat...)
		win.at = append(win.at, pw.at...)
		win.loads += pw.loads
		win.errs = append(win.errs, pw.errs...)
	}
	return win, nil
}

// startFlips pushes a policy change at the workload's cadence until the
// returned stop is called, counting pushes and their cost into win.
func (w *world) startFlips(win *window) (stop func() error) {
	every := w.wl.flipEvery
	if every == 0 || w.gw == nil {
		return func() error { return nil }
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var err error
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				d, ferr := w.flip()
				if ferr != nil {
					err = fmt.Errorf("policy push: %w", ferr)
					return
				}
				win.flips++
				win.pushTotal += d
			}
		}
	}()
	return func() error {
		close(done)
		wg.Wait()
		return err
	}
}

// schedule draws Poisson arrival offsets at rate per second: for span,
// or exactly count arrivals when count is positive.
func schedule(rng *rand.Rand, rate float64, span time.Duration, count int) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if (count > 0 && len(out) == count) || (count == 0 && at >= span) {
			return out
		}
		out = append(out, at)
	}
}

// openLoop offers the arrivals on schedule whatever the sessions'
// progress: arrival i goes to session i mod nSessions, which serves
// its arrivals in order, and each load's latency counts from its due
// time, so a stall charges every load queued behind it.
func (w *world) openLoop(due []time.Duration) (*window, error) {
	win := &window{}
	start := w.begin()
	hw := watchHeap()
	queues := make([]chan int, len(w.sessions))
	done := make([]time.Time, len(due))
	errs := make([]error, len(due))
	lat := make(samples, len(due))
	for i := range queues {
		// Sized to every arrival, so the generator never blocks on a
		// busy session.
		queues[i] = make(chan int, len(due))
	}
	t0 := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for i, s := range w.sessions {
		q := queues[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range q {
				_, err := s.next()
				done[k] = time.Now()
				lat[k] = done[k].Sub(t0.Add(due[k]))
				if err != nil {
					errs[k] = fmt.Errorf("session %d: %w", s.id, err)
				}
			}
		}()
	}
	stopFlips := w.startFlips(win)
	win.lag = make(samples, 0, len(due))
	for k, d := range due {
		at := t0.Add(d)
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		win.lag = append(win.lag, time.Since(at))
		queues[k%len(queues)] <- k
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	flipErr := stopFlips()
	win.elapsed = time.Since(t0)
	win.heapPeaks = hw.peaks()
	w.end(win, start)
	if flipErr != nil {
		return nil, flipErr
	}
	win.lat, win.at = lat, due
	win.loads = len(due)
	if len(due) > 0 {
		win.arrivalSpan = due[len(due)-1]
	}
	closeAt := t0.Add(win.arrivalSpan)
	for k := range due {
		if errs[k] != nil {
			win.errs = append(win.errs, errs[k])
		}
		if !done[k].After(closeAt) {
			win.completedIn++
		}
	}
	win.backlog = win.loads - win.completedIn
	return win, nil
}
