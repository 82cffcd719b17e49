// Command escudo-serve is the concurrent load driver for the engine:
// it replays the Figure-4 scenario pages, a logged-in phpBB browsing
// workload, and a mixed workload (concurrent phpBB + PHP-Calendar +
// mashup-portal sessions against one network) across a pool of N
// independent browser sessions sharing one decision cache, then
// replays the §6.4 attack corpus across the same pool, and emits
// BENCH_engine.json with p50/p99 task latency, decisions/sec, cache
// hit rates, and batched-authorization dedup per phase.
//
// With -http it additionally mounts the same origins on a real
// net/http gateway (internal/httpd) over loopback, re-runs the
// figure-4 and mixed workloads plus the attack replay through
// httpd.ClientTransport — real sockets, Host-header virtual hosting,
// per-origin worker queues, cross-request page cache — and extends
// the report with an "http" section (reqs/sec, p50/p99, queue depth,
// 503 count, cache hit rate). The attack verdicts over sockets are
// cross-checked against the in-memory verdicts: any divergence fails
// the run, because the protection model is transport-independent.
//
// The multi-process modes (see cluster.go) split the deployment
// across real OS processes: -serve-only runs the gateway alone until
// SIGTERM, -connect runs a loadgen worker against a remote gateway,
// and -cluster N fork/execs one server plus N workers and merges
// their BENCH shards into a `cluster` section. -tls terminates https
// on the gateway with an ephemeral in-memory CA in any gateway mode.
//
// Usage:
//
//	escudo-serve [-sessions N] [-iters N] [-phpbb-iters N]
//	             [-mixed-iters N] [-procs N] [-procs-bench N]
//	             [-mode escudo|sop] [-attacks] [-uncached]
//	             [-http addr] [-http-workers N] [-http-queue N] [-tls]
//	             [-pprof] [-cpuprofile f] [-memprofile f]
//	             [-cluster N | -serve-only | -connect addr]
//	             [-out BENCH_engine.json]
package main

import (
	"crypto/tls"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/attack"
	"repro/internal/browser"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/httpd"
	"repro/internal/metrics"
	"repro/internal/nonce"
	"repro/internal/obs"
	"repro/internal/origin"
	"repro/internal/policy"
	"repro/internal/scenarios"
	"repro/internal/slo"
	"repro/internal/template"
	"repro/internal/web"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "escudo-serve:", err)
		os.Exit(1)
	}
}

// cacheJSON is the cache section of one phase.
type cacheJSON struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
	Entries int     `json:"entries"`
}

// attacksJSON is the attack-replay section.
type attacksJSON struct {
	Total       int `json:"total"`
	Neutralized int `json:"neutralized"`
	Succeeded   int `json:"succeeded"`
}

// batchJSON is the batched-authorization section of one phase: how
// many DOM nodes flowed through the batched path vs. how many
// distinct decisions were actually computed.
type batchJSON struct {
	NodesAuthorized   uint64  `json:"nodes_authorized"`
	DistinctDecisions uint64  `json:"distinct_decisions"`
	DedupRatio        float64 `json:"dedup_ratio"`
}

// obsJSON is the observability section of BENCH_engine.json: the
// process's build stamp, the runtime sampler's summary over the whole
// run (goroutines, heap, GC), and the decision-trace ring's traffic.
// In cluster runs the workers' equivalents are merged into
// cluster.obs; this section always describes the driving process.
type obsJSON struct {
	Version obs.Stamp        `json:"version"`
	Sampler obs.SamplerStats `json:"sampler"`
	// DecisionEventsRecorded counts every decision-trace event recorded
	// over the run; DecisionEventsRetained is how many the ring still
	// holds (min of recorded and ring capacity).
	DecisionEventsRecorded uint64 `json:"decision_events_recorded"`
	DecisionEventsRetained int    `json:"decision_events_retained"`
}

// phaseJSON is one benchmark phase in BENCH_engine.json.
type phaseJSON struct {
	Name  string `json:"name"`
	Tasks uint64 `json:"tasks"`
	// Errors counts harness-level task failures (0 on a clean run).
	Errors    int     `json:"errors"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	MeanMs    float64 `json:"mean_ms"`
	ElapsedMs float64 `json:"elapsed_ms"`
	// Decisions counts reference-monitor verdicts during the phase:
	// audit-log records for pool phases, cache lookups for the attack
	// replay (whose environments own their audit logs).
	Decisions       uint64       `json:"decisions"`
	DecisionsPerSec float64      `json:"decisions_per_sec"`
	Cache           *cacheJSON   `json:"cache,omitempty"`
	Batch           *batchJSON   `json:"batch,omitempty"`
	Attacks         *attacksJSON `json:"attacks,omitempty"`
}

// httpPhaseJSON is one loopback loadgen phase of the http section.
// Tasks/latency are measured at the client sessions; requests, 503s,
// and cache traffic are the gateway's deltas for the phase, and
// queue_depth_max is the phase's own high-water mark (the gauge is
// reset at each phase start).
type httpPhaseJSON struct {
	Name          string  `json:"name"`
	Tasks         uint64  `json:"tasks"`
	Errors        int     `json:"errors"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	MeanMs        float64 `json:"mean_ms"`
	ElapsedMs     float64 `json:"elapsed_ms"`
	Requests      uint64  `json:"requests"`
	ReqsPerSec    float64 `json:"reqs_per_sec"`
	Rejected503   uint64  `json:"rejected_503"`
	QueueDepthMax int64   `json:"queue_depth_max"`
	CacheHits     uint64  `json:"page_cache_hits"`
	CacheMisses   uint64  `json:"page_cache_misses"`
	CacheHitRate  float64 `json:"page_cache_hit_rate"`
	CacheEvicted  uint64  `json:"page_cache_evictions"`
	// AllocsPerRequest is the process-wide heap-allocation count per
	// gateway-served request during the phase (client sessions, wire,
	// gateway, and handlers all included — the whole request path the
	// allocation diet targets). Measured on http-figure4 only.
	AllocsPerRequest float64 `json:"allocs_per_request,omitempty"`
}

// httpJSON is the http section of BENCH_engine.json: the same
// workloads replayed over real sockets through the gateway.
type httpJSON struct {
	Addr       string `json:"addr"`
	TLS        bool   `json:"tls"`
	Workers    int    `json:"workers_per_origin"`
	QueueDepth int    `json:"queue_depth_per_origin"`
	// Proto is the negotiated wire protocol of the loadgen traffic:
	// "h2" on the TLS paths (ALPN + ForceAttemptHTTP2), "h1" on plain
	// keep-alive loopback.
	Proto string `json:"proto"`
	// AllocsPerRequest mirrors the http-figure4 phase's figure — the
	// headline number the allocation-diet CI gate asserts.
	AllocsPerRequest float64         `json:"allocs_per_request,omitempty"`
	Phases           []httpPhaseJSON `json:"phases"`
	Gateway          httpd.Stats     `json:"gateway"`
	// Client is the loadgen transport's connection accounting (new
	// vs reused keep-alive connections).
	Client *cluster.ClientJSON `json:"client,omitempty"`
	// AttackClient is the attack replay's wire accounting, summed over
	// the per-environment transports; its requests equal the
	// http-attacks phase's gateway-served count.
	AttackClient *cluster.ClientJSON `json:"attack_client,omitempty"`
	// PolicyzOrigins counts the policy documents the admin /policyz
	// endpoint served, cross-checked against the mounted set.
	PolicyzOrigins int          `json:"policyz_origins"`
	Attacks        *attacksJSON `json:"attacks,omitempty"`
	// AttacksMatchMemory reports that every attack's verdict over
	// sockets equaled its in-memory verdict — the transport-
	// independence invariant, asserted at runtime.
	AttacksMatchMemory *bool `json:"attacks_match_memory,omitempty"`
}

// policyJSON is the policy section of BENCH_engine.json: the unified
// documents derived for the substrate's origins, a serialization
// round-trip check, and the delegated-session phase — the §7 monitor
// mounted into a pool of real sessions via MonitorFactory.
type policyJSON struct {
	// Origins lists the origins with a derived policy document.
	Origins []string `json:"origins"`
	// Delegations counts delegation rows across the documents.
	Delegations int `json:"delegations"`
	// RoundTripOK reports Parse(Marshal(p)) == p for every document.
	RoundTripOK bool `json:"round_trip_ok"`
	// Phases holds the delegated-session phase measurements.
	Phases []phaseJSON `json:"phases"`
}

// benchJSON is the whole BENCH_engine.json document.
type benchJSON struct {
	Sessions int    `json:"sessions"`
	Mode     string `json:"mode"`
	Uncached bool   `json:"uncached"`
	// ProcsRequested is the -procs flag value (0 when unset);
	// GoMaxProcs is the effective setting after clamping to the
	// machine's CPU count.
	ProcsRequested int         `json:"procs_requested,omitempty"`
	GoMaxProcs     int         `json:"gomaxprocs"`
	Phases         []phaseJSON `json:"phases"`
	// ProcsVariant re-runs the figure4 phase at -procs-bench GOMAXPROCS
	// after the 1-CPU phases, so the report carries serial and parallel
	// numbers side by side.
	ProcsVariant *procsVariantJSON `json:"procs_variant,omitempty"`
	Policy       *policyJSON       `json:"policy,omitempty"`
	// Script is the engine-vs-engine section: the tree-walking
	// interpreter against the compiled VM on the shared corpus (see
	// scriptbench.go). Measured after the workload phases so the
	// compile-cache counters reflect real <script> traffic.
	Script *scriptJSON `json:"script,omitempty"`
	HTTP   *httpJSON   `json:"http,omitempty"`
	// Cluster is the multi-process deployment's merged section: one
	// serve-only gateway process, N loadgen workers, shards merged by
	// the supervisor (written by -cluster runs; other sections of an
	// existing report are preserved).
	Cluster *cluster.Report `json:"cluster,omitempty"`
	// Control is the policy control plane section (written by -control
	// runs): the invalidation storm, the multi-tenant mount scale, and
	// the noisy-neighbor isolation figures.
	Control *controlJSON `json:"control,omitempty"`
	// Obs is the run's observability summary: build stamp, runtime
	// sampler series, decision-trace ring traffic.
	Obs *obsJSON `json:"obs,omitempty"`
	// SLO is the open-loop section (written by -openloop runs): offered
	// vs achieved rate, per-stage latency percentiles, error budget,
	// exemplar traces, and the leak verdict for the window. In -cluster
	// runs the merged fleet view lives at Cluster.SLO instead.
	SLO     *slo.Result `json:"slo,omitempty"`
	TotalMs float64     `json:"total_ms"`
}

// procsVariantJSON is the GOMAXPROCS>1 bench variant published
// alongside the 1-CPU numbers (satellite of the perf PR): the figure4
// phase re-run with the runtime widened to -procs-bench cores.
type procsVariantJSON struct {
	// Procs is the requested width; GoMaxProcs the effective one after
	// clamping to the machine.
	Procs      int         `json:"procs"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Phases     []phaseJSON `json:"phases"`
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// portalHandler serves the mashup-portal host page: ring-1 chrome, a
// row of ring-2 AC-tagged widget slots, a cross-origin widget iframe,
// and a ring-1 script that snapshots the slot region via innerHTML —
// the batched region-read path — on every load.
//
// The page is generated once at construction, same as
// scenarios.Handler: its content is a fixed benchmark fixture with no
// user-influenced markup, so reusing one nonce set across responses
// does not weaken the §5 randomization defense (which matters only
// when injected content could anticipate the nonces).
func portalHandler() web.Handler {
	bld := template.NewACBuilder(nonce.CryptoSource{})
	var b strings.Builder
	b.WriteString("<html><head><title>portal</title></head><body>")
	b.WriteString(bld.Wrap(1, core.UniformACL(1), "id=chrome", "<h1>My Portal</h1>"))
	var slots strings.Builder
	for i := 0; i < 8; i++ {
		slots.WriteString(bld.Wrap(2, core.UniformACL(2), fmt.Sprintf("id=slot%d", i),
			fmt.Sprintf("<p>widget slot %d: forecasts markets mail feeds</p>", i)))
	}
	b.WriteString(bld.Wrap(1, core.UniformACL(2), "id=slots", slots.String()))
	b.WriteString(`<iframe src="http://widget.example/widget"></iframe>`)
	b.WriteString(bld.Wrap(1, core.UniformACL(1), "id=refresh",
		`<script id=reader>var snapshot = document.getElementById("slots").innerHTML;</script>`))
	b.WriteString("</body></html>")
	page := b.String()
	return web.HandlerFunc(func(req *web.Request) *web.Response {
		resp := web.HTML(page)
		resp.Header.Set(core.HeaderMaxRing, core.DefaultMaxRing.String())
		// The body is a fixed fixture: the HTTP gateway may serve it
		// from its cross-request page cache.
		resp.Header.Set("Cache-Control", "public, immutable")
		return resp
	})
}

// mixedTask builds the mixed-workload session task: the sessions split
// three ways across one substrate — phpBB browsing (sessions must
// already be logged in), PHP-Calendar event tracking (logs in itself),
// and a mashup portal with cross-origin widgets. The same task runs
// over the in-memory network and over the HTTP gateway, which is what
// makes the two phases comparable.
func mixedTask(forumO, calO, portalO origin.Origin, topicID, iters int) engine.Task {
	return func(s *engine.Session) error {
		switch s.ID % 3 {
		case 0: // phpBB browsing.
			for i := 0; i < iters; i++ {
				if _, err := s.Browser.Navigate(forumO.URL("/")); err != nil {
					return err
				}
				if _, err := s.Browser.Navigate(forumO.URL(fmt.Sprintf("/viewtopic?t=%d", topicID))); err != nil {
					return err
				}
			}
		case 1: // PHP-Calendar: log in, add events, re-render the month.
			p, err := s.Browser.Navigate(calO.URL("/"))
			if err != nil {
				return err
			}
			if form := p.Doc.ByID("loginform"); form != nil {
				if _, err := p.SubmitForm(form, map[string][]string{
					"username": {fmt.Sprintf("user%d", s.ID)}, "password": {"pw"},
				}); err != nil {
					return err
				}
			}
			for i := 0; i < iters; i++ {
				mp, err := s.Browser.Navigate(calO.URL("/"))
				if err != nil {
					return err
				}
				if i%4 == 3 {
					form := mp.Doc.ByID("newevent")
					if form == nil {
						return fmt.Errorf("no newevent form")
					}
					if _, err := mp.SubmitForm(form, map[string][]string{
						"day": {fmt.Sprintf("%d", i%28+1)}, "text": {fmt.Sprintf("event s%d r%d", s.ID, i)},
					}); err != nil {
						return err
					}
				}
			}
		default: // mashup portal: host page + cross-origin widget frames.
			for i := 0; i < iters; i++ {
				p, err := s.Browser.Navigate(portalO.URL("/"))
				if err != nil {
					return err
				}
				if len(p.ScriptErrors) > 0 {
					return fmt.Errorf("portal script: %v", p.ScriptErrors[0])
				}
			}
		}
		return nil
	}
}

// runPhase executes fn between stat resets and packages the phase
// measurements. The phase name also labels the pool's slow-ring
// exemplars for the duration.
func runPhase(pool *engine.Pool, name string, fn func()) phaseJSON {
	pool.SetPhase(name)
	pool.ResetStats()
	var before engine.Stats
	if pool.Cache() != nil {
		before.Cache = pool.Cache().Stats()
	}
	start := time.Now()
	fn()
	elapsed := time.Since(start)

	st := pool.Stats()
	ph := phaseJSON{
		Name:      name,
		Tasks:     st.Tasks,
		Errors:    len(st.Errors),
		P50Ms:     ms(st.P50),
		P99Ms:     ms(st.P99),
		MeanMs:    ms(st.Mean),
		ElapsedMs: ms(elapsed),
		Decisions: st.Decisions,
	}
	if pool.Cache() != nil {
		delta := st.Cache.Sub(before.Cache)
		ph.Cache = &cacheJSON{
			Hits:    delta.Hits,
			Misses:  delta.Misses,
			HitRate: delta.HitRate(),
			Entries: st.Cache.Entries,
		}
		if ph.Decisions == 0 {
			// Attack environments keep their own audit logs; the
			// shared cache still sees every mediated decision.
			ph.Decisions = delta.Hits + delta.Misses
		}
	}
	if st.Batch.Nodes > 0 {
		ph.Batch = &batchJSON{
			NodesAuthorized:   st.Batch.Nodes,
			DistinctDecisions: st.Batch.Distinct,
			DedupRatio:        st.Batch.DedupRatio(),
		}
	}
	if secs := elapsed.Seconds(); secs > 0 {
		ph.DecisionsPerSec = float64(ph.Decisions) / secs
	}
	for _, err := range st.Errors {
		fmt.Fprintf(os.Stderr, "escudo-serve: %s: %v\n", name, err)
	}
	return ph
}

// httpSectionConfig parameterizes the loopback replay.
type httpSectionConfig struct {
	addr           string
	workers, queue int
	sessions       int
	iters          int
	mixedIters     int
	attacksOn      bool
	tls            bool
	pprofOn        bool
	mode           browser.Mode
	uncached       bool
	cache          *core.DecisionCache
	net            *web.Network
	policies       map[string]policy.Policy
	bench          origin.Origin
	forum          origin.Origin
	cal            origin.Origin
	portal         origin.Origin
	topicID        int
	memAttacks     []attack.Result
	// reg and ring are the run's shared observability plane: the
	// gateway exports reg on /varz and ring on /tracez, and the loadgen
	// sessions record every mediated decision into ring.
	reg  *obs.Registry
	ring *obs.DecisionRing
	// stages and slow are the latency-attribution plane: per-stage
	// histograms (escudo_stage_seconds) and the slowest-N exemplar ring
	// (/slowz), shared by the gateway and the loadgen pool.
	stages *obs.StageSet
	slow   *obs.SlowRing
	// soak, when positive, appends an http-soak phase: mixed load
	// looped until the deadline, long enough for the runtime sampler to
	// establish whether goroutines and heap return to baseline.
	soak time.Duration
}

// fillGatewayStats writes the gateway-side fields of a phase row from
// one stats delta — the single mapping both the loadgen phases (main
// gateway) and the attack phase (aggregated per-env gateways) use.
func fillGatewayStats(ph *httpPhaseJSON, st httpd.Stats) {
	ph.Requests = st.Served
	ph.Rejected503 = st.Rejected503
	ph.QueueDepthMax = st.MaxQueueDepth
	ph.CacheHits = st.Cache.Hits
	ph.CacheMisses = st.Cache.Misses
	ph.CacheHitRate = st.Cache.HitRate()
	ph.CacheEvicted = st.Cache.Evictions
	ph.ReqsPerSec = 0
	if secs := ph.ElapsedMs / 1000; secs > 0 {
		ph.ReqsPerSec = float64(st.Served) / secs
	}
}

// runClientPhase measures the client side of one loopback phase:
// per-task latency across the pool's sessions. Gateway-side fields
// are filled separately, because different phases read different
// gateways (the loadgen phases the shared one, the attack phase an
// aggregate of per-environment ones).
func runClientPhase(pool *engine.Pool, name string, fn func()) httpPhaseJSON {
	pool.SetPhase(name)
	pool.ResetStats()
	start := time.Now()
	fn()
	elapsed := time.Since(start)

	st := pool.Stats()
	ph := httpPhaseJSON{
		Name:      name,
		Tasks:     st.Tasks,
		Errors:    len(st.Errors),
		P50Ms:     ms(st.P50),
		P99Ms:     ms(st.P99),
		MeanMs:    ms(st.Mean),
		ElapsedMs: ms(elapsed),
	}
	for _, err := range st.Errors {
		fmt.Fprintf(os.Stderr, "escudo-serve: %s: %v\n", name, err)
	}
	return ph
}

// runHTTPPhase is runClientPhase plus the shared gateway's
// served/503/queue/cache deltas for the phase.
func runHTTPPhase(pool *engine.Pool, gw *httpd.Gateway, name string, fn func()) httpPhaseJSON {
	before := gw.Stats()
	gw.ResetQueueHighWater()
	ph := runClientPhase(pool, name, fn)
	fillGatewayStats(&ph, gw.Stats().Sub(before))
	return ph
}

// fetchPolicyz reads the admin /policyz endpoint, over https when the
// gateway terminates TLS (ca non-nil).
func fetchPolicyz(addr string, ca *httpd.CA) (map[string]policy.Policy, error) {
	client := http.DefaultClient
	scheme := "http"
	if ca != nil {
		scheme = "https"
		client = &http.Client{
			Transport: &http.Transport{TLSClientConfig: &tls.Config{RootCAs: ca.Pool(), MinVersion: tls.VersionTLS12}},
			Timeout:   10 * time.Second,
		}
	}
	resp, err := client.Get(scheme + "://" + addr + "/policyz")
	if err != nil {
		return nil, fmt.Errorf("fetching /policyz: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/policyz: status %d", resp.StatusCode)
	}
	var doc struct {
		Generation uint64                   `json:"generation"`
		Policies   map[string]policy.Policy `json:"policies"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding /policyz: %w", err)
	}
	return doc.Policies, nil
}

// runHTTPSection mounts the substrate on a gateway, replays the
// figure-4 and mixed workloads through fresh sessions speaking real
// HTTP over loopback, replays the attack corpus against per-
// environment gateways, and cross-checks every verdict against the
// in-memory run.
func runHTTPSection(cfg httpSectionConfig) (*httpJSON, error) {
	// Every origin with a derived policy document gets it mounted, so
	// the gateway serves it at the well-known path and lists it on
	// /policyz — policy as data on the wire, enforcement staying
	// browser-side.
	originCfgs := map[string]httpd.OriginConfig{}
	for o, doc := range cfg.policies {
		doc := doc
		originCfgs[o] = httpd.OriginConfig{Policy: &doc}
	}
	// The loadgen transport is created by WrapNetwork below, but the
	// gateway config needs the stats hook now — late-bind through an
	// atomic pointer so /metricsz can surface connection reuse.
	var clientRef atomic.Pointer[httpd.ClientTransport]
	gwCfg := httpd.Config{
		DefaultWorkers:    cfg.workers,
		DefaultQueueDepth: cfg.queue,
		Origins:           originCfgs,
		EnablePprof:       cfg.pprofOn,
		Obs:               cfg.reg,
		Ring:              cfg.ring,
		Stages:            cfg.stages,
		Slow:              cfg.slow,
		ClientStatsFunc: func() any {
			if c := clientRef.Load(); c != nil {
				return c.Stats()
			}
			return nil
		},
	}
	var ca *httpd.CA
	if cfg.tls {
		c, err := httpd.NewCA()
		if err != nil {
			return nil, err
		}
		ca = c
		gwCfg.TLS = ca
	}
	gw, ct, gwCleanup, err := httpd.WrapNetwork(cfg.net, gwCfg, cfg.addr)
	if err != nil {
		return nil, err
	}
	defer gwCleanup()
	clientRef.Store(ct)

	httpPool, err := engine.NewPool(engine.Config{
		Sessions:  cfg.sessions,
		Transport: ct,
		Options:   browser.Options{Mode: cfg.mode, DecisionRing: cfg.ring},
		Cache:     cfg.cache,
		Uncached:  cfg.uncached,
		Stages:    cfg.stages,
		Slow:      cfg.slow,
	})
	if err != nil {
		return nil, err
	}
	defer httpPool.Close()

	section := &httpJSON{Addr: gw.Addr(), TLS: cfg.tls, Workers: cfg.workers, QueueDepth: cfg.queue}

	// Wire-delivery cross-check: /policyz must serve every mounted
	// document back equal to what was mounted.
	served, err := fetchPolicyz(gw.Addr(), ca)
	if err != nil {
		return nil, err
	}
	if len(served) != len(cfg.policies) {
		return nil, fmt.Errorf("policyz served %d documents, mounted %d", len(served), len(cfg.policies))
	}
	for o, doc := range cfg.policies {
		got, ok := served[o]
		if !ok || !got.Equal(doc) {
			return nil, fmt.Errorf("policyz document for %s diverges from the mounted one", o)
		}
	}
	section.PolicyzOrigins = len(served)

	// Unmeasured warm round: establish the scenario session cookie and
	// the phpBB logins the mixed workload's browsing arm assumes.
	paths := scenarios.Paths()
	httpPool.Each(func(s *engine.Session) error {
		if _, err := s.Browser.Navigate(cfg.bench.URL(paths[0])); err != nil {
			return err
		}
		p, err := s.Browser.Navigate(cfg.forum.URL("/"))
		if err != nil {
			return err
		}
		form := p.Doc.ByID("loginform")
		if form == nil {
			return fmt.Errorf("no loginform over http")
		}
		_, err = p.SubmitForm(form, map[string][]string{
			"username": {fmt.Sprintf("user%d", s.ID)}, "password": {"pw"},
		})
		return err
	})
	if st := httpPool.Stats(); len(st.Errors) > 0 {
		return nil, fmt.Errorf("http warmup: %w", st.Errors[0])
	}

	// The figure4 replay doubles as the allocation gate: the phase's
	// process-wide Mallocs delta over the gateway's served count is the
	// allocs-per-request figure CI asserts. A GC cycle beforehand keeps
	// the previous phases' garbage out of the window.
	runtime.GC()
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	fig4 := runHTTPPhase(httpPool, gw, "http-figure4", func() {
		for r := 0; r < cfg.iters; r++ {
			for _, path := range paths {
				p := path
				httpPool.Submit(func(s *engine.Session) error {
					_, err := s.Browser.Navigate(cfg.bench.URL(p))
					return err
				})
			}
		}
		httpPool.Wait()
	})
	runtime.ReadMemStats(&memAfter)
	if fig4.Requests > 0 {
		fig4.AllocsPerRequest = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(fig4.Requests)
	}
	section.AllocsPerRequest = fig4.AllocsPerRequest
	section.Phases = append(section.Phases, fig4)

	if cfg.mixedIters > 0 {
		section.Phases = append(section.Phases, runHTTPPhase(httpPool, gw, "http-mixed", func() {
			httpPool.Each(mixedTask(cfg.forum, cfg.cal, cfg.portal, cfg.topicID, cfg.mixedIters))
		}))
	}

	// Soak: mixed load looped until the deadline. The phase exists for
	// the runtime sampler — long enough wall-clock for goroutine and
	// heap series to show whether the process returns to its idle shape
	// (the CI soak gate asserts exactly that on the obs section).
	if cfg.soak > 0 {
		deadline := time.Now().Add(cfg.soak)
		section.Phases = append(section.Phases, runHTTPPhase(httpPool, gw, "http-soak", func() {
			for time.Now().Before(deadline) {
				httpPool.Each(mixedTask(cfg.forum, cfg.cal, cfg.portal, cfg.topicID, 1))
			}
		}))
	}

	// Attack replay over sockets: each environment's private network
	// gets its own loopback gateway, and each verdict must equal the
	// in-memory one — transport independence, asserted. The phase's
	// traffic counters aggregate the per-environment gateways (the
	// main gateway sees none of this traffic). Each of those gateways
	// counts into a private registry: on the shared one, every
	// g.Stats() would read the fleet-wide counter, and the phase would
	// sum 18 cumulative readings.
	if cfg.attacksOn {
		envCfg := gwCfg
		envCfg.Obs = nil
		var attackGW struct {
			mu     sync.Mutex
			st     httpd.Stats
			client httpd.ClientStats
		}
		wrapper := func(n *web.Network) (web.Transport, func(), error) {
			g, c, envCleanup, err := httpd.WrapNetwork(n, envCfg, "127.0.0.1:0")
			if err != nil {
				return nil, nil, err
			}
			cleanup := func() {
				attackGW.mu.Lock()
				attackGW.st = attackGW.st.Add(g.Stats())
				attackGW.client = attackGW.client.Add(c.Stats())
				attackGW.mu.Unlock()
				envCleanup()
			}
			return c, cleanup, nil
		}
		corpus := attack.Corpus()
		httpResults := make([]attack.Result, len(corpus))
		ph := runClientPhase(httpPool, "http-attacks", func() {
			for i, atk := range corpus {
				i, atk := i, atk
				httpPool.Submit(func(*engine.Session) error {
					httpResults[i] = attack.RunOneOver(atk, cfg.mode, cfg.cache, wrapper)
					return httpResults[i].Err
				})
			}
			httpPool.Wait()
		})
		attackGW.mu.Lock()
		agg := attackGW.st
		attackClient := cluster.FromClientStats(attackGW.client)
		attackGW.mu.Unlock()
		fillGatewayStats(&ph, agg)
		section.AttackClient = &attackClient
		section.Phases = append(section.Phases, ph)
		aj := &attacksJSON{Total: len(corpus)}
		matches := true
		for i, r := range httpResults {
			if r.Neutralized() {
				aj.Neutralized++
			} else {
				aj.Succeeded++
			}
			if i < len(cfg.memAttacks) && cfg.memAttacks[i].Succeeded != r.Succeeded {
				matches = false
				fmt.Fprintf(os.Stderr,
					"escudo-serve: VERDICT DIVERGENCE %s: in-memory succeeded=%v, sockets succeeded=%v\n",
					corpus[i].Name, cfg.memAttacks[i].Succeeded, r.Succeeded)
			}
		}
		section.Attacks = aj
		section.AttacksMatchMemory = &matches
		if !matches {
			return nil, fmt.Errorf("attack verdicts diverge between in-memory and socket transports")
		}
	}

	section.Gateway = gw.Stats()
	clientStats := cluster.FromClientStats(ct.Stats())
	section.Client = &clientStats
	section.Proto = ct.Stats().Proto()
	return section, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("escudo-serve", flag.ContinueOnError)
	sessionsN := fs.Int("sessions", 8, "number of concurrent browser sessions")
	iters := fs.Int("iters", 5, "rounds through all Figure-4 scenarios per session")
	phpbbIters := fs.Int("phpbb-iters", 20, "phpBB page views per session")
	mixedIters := fs.Int("mixed-iters", 10, "mixed-workload rounds per session (0 disables the phase)")
	scriptIters := fs.Int("script-iters", 60, "script-engine corpus passes per round per engine (0 disables the script section)")
	procs := fs.Int("procs", 0, "GOMAXPROCS override (0 keeps the runtime default)")
	procsBench := fs.Int("procs-bench", 0, "re-run the figure4 phase at this GOMAXPROCS after the main phases and record it as procs_variant (0 disables)")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof on the gateway's admin host under /debug/pprof (with -http)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile (after the run, post-GC) to this file")
	modeFlag := fs.String("mode", "escudo", "protection mode: escudo or sop")
	attacksOn := fs.Bool("attacks", true, "replay the §6.4 attack corpus")
	uncached := fs.Bool("uncached", false, "disable the shared decision cache (baseline)")
	httpAddr := fs.String("http", "", "also mount the origins on a real HTTP gateway at this address (e.g. 127.0.0.1:0) and replay the workloads over loopback sockets")
	httpWorkers := fs.Int("http-workers", 4, "gateway per-origin worker count")
	httpQueue := fs.Int("http-queue", 64, "gateway per-origin queue depth (overflow → 503)")
	soak := fs.Duration("soak", 0, "append a soak phase: loop the mixed workload until this much wall-clock has passed, so the runtime sampler can judge goroutine/heap recovery (with -http the soak runs through the gateway)")
	openloopFlag := fs.String("openloop", "", "open-loop SLO mode: rate=R,duration=D[,churn=C][,p99=MS][,seed=N] — offer Poisson arrivals at R req/s for D against a loopback gateway (C login/logout events/s woven in) and write the slo section; in -cluster mode each worker drives this spec and the shards merge")
	tlsOn := fs.Bool("tls", false, "terminate https on the gateway with an ephemeral in-memory CA (with -http, -serve-only, or -cluster; with -connect, trust -tls-ca)")
	serveOnly := fs.Bool("serve-only", false, "server mode: mount the substrate on a gateway and serve until SIGTERM (no loadgen)")
	connectAddr := fs.String("connect", "", "worker mode: generate load against a remote gateway at this address and write a BENCH shard to -out")
	clusterN := fs.Int("cluster", 0, "cluster mode: fork/exec one -serve-only server plus N -connect workers and merge their shards into a cluster section")
	clusterBin := fs.String("cluster-bin", "", "binary to fork/exec in -cluster mode (default: this executable)")
	tlsCAOut := fs.String("tls-ca-out", "", "serve-only: write the CA certificate (no key) to this PEM file for workers to trust")
	tlsCAFile := fs.String("tls-ca", "", "connect: CA certificate bundle to verify the gateway's TLS leafs against")
	addrFile := fs.String("addr-file", "", "serve-only: write the bound listener address to this file")
	statsFile := fs.String("stats-file", "", "serve-only: write gateway-side stats JSON here on graceful shutdown")
	workerID := fs.Int("worker-id", 0, "connect: this worker's index in the cluster (labels the shard)")
	accountsN := fs.Int("accounts", 0, "serve-only: register this many phpBB/PHP-Calendar accounts (0 = one per session; a cluster supervisor passes workers×sessions so each worker gets a disjoint account range)")
	controlOn := fs.Bool("control", false, "run the policy control-plane section: mount -tenants stamped origins on a dedicated gateway, push a live policy flip mid-load (invalidation storm), and measure noisy-neighbor isolation")
	tenantsN := fs.Int("tenants", 1024, "tenant origins to mount in the -control section")
	out := fs.String("out", "BENCH_engine.json", "output JSON path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sessionsN < 1 {
		return fmt.Errorf("-sessions must be >= 1, got %d", *sessionsN)
	}
	if *tlsOn && *httpAddr == "" && !*serveOnly && *connectAddr == "" && *clusterN == 0 {
		return fmt.Errorf("-tls needs a gateway: combine it with -http, -serve-only, -connect, or -cluster")
	}
	if *procs > 0 {
		// Clamp to the physical CPU count: GOMAXPROCS above it buys no
		// parallelism, only OS-thread thrash that wrecks tail latency.
		effective := *procs
		if n := runtime.NumCPU(); effective > n {
			fmt.Fprintf(os.Stderr, "escudo-serve: -procs %d clamped to %d (machine CPU count)\n", *procs, n)
			effective = n
		}
		runtime.GOMAXPROCS(effective)
	}
	mode, err := parseMode(*modeFlag)
	if err != nil {
		return err
	}
	var olSpec openLoopSpec
	if *openloopFlag != "" {
		if olSpec, err = parseOpenLoop(*openloopFlag); err != nil {
			return err
		}
	}

	// The multi-process modes: a cluster supervisor, a server-only
	// gateway process, or a loadgen worker. Each is a complete program
	// of its own; the classic single-process driver continues below.
	switch {
	case *clusterN > 0:
		return runCluster(clusterConfig{
			workers:     *clusterN,
			bin:         *clusterBin,
			sessions:    *sessionsN,
			iters:       *iters,
			phpbbIters:  *phpbbIters,
			mode:        *modeFlag,
			attacksOn:   *attacksOn,
			uncached:    *uncached,
			tls:         *tlsOn,
			httpWorkers: *httpWorkers,
			httpQueue:   *httpQueue,
			openloop:    *openloopFlag,
			out:         *out,
		})
	case *serveOnly:
		// Register the handler before anything else runs so a SIGTERM
		// arriving during startup still takes the graceful path.
		stop := make(chan struct{})
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, syscall.SIGTERM, os.Interrupt)
		go func() {
			<-ch
			close(stop)
		}()
		addr := *httpAddr
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		return runServeOnly(serveOnlyConfig{
			addr:      addr,
			sessions:  *sessionsN,
			accounts:  *accountsN,
			workers:   *httpWorkers,
			queue:     *httpQueue,
			tls:       *tlsOn,
			tlsCAOut:  *tlsCAOut,
			addrFile:  *addrFile,
			statsFile: *statsFile,
		}, stop)
	case *connectAddr != "":
		return runConnect(connectConfig{
			addr:        *connectAddr,
			sessions:    *sessionsN,
			iters:       *iters,
			phpbbIters:  *phpbbIters,
			mode:        mode,
			uncached:    *uncached,
			attacksOn:   *attacksOn,
			tls:         *tlsOn,
			tlsCAFile:   *tlsCAFile,
			workerID:    *workerID,
			httpWorkers: *httpWorkers,
			httpQueue:   *httpQueue,
			openloop:    olSpec,
			out:         *out,
		})
	}

	// Profiling covers the whole single-process run: all in-memory
	// phases plus the http section, which is where the hot request
	// path lives. (The multi-process modes returned above; profile
	// their children by passing the flags through -connect/-serve-only
	// invocations directly.)
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("creating -cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "escudo-serve: creating -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "escudo-serve: writing heap profile: %v\n", err)
			}
		}()
	}

	// The run's observability plane: one registry (exported on /varz
	// when a gateway is mounted), one decision-trace ring shared by all
	// sessions, and a runtime sampler covering the whole run. Open-loop
	// runs widen the ring so the slow exemplars' trace IDs stay
	// resolvable on /tracez after the storm.
	reg := obs.NewRegistry()
	ringSize := 0
	if *openloopFlag != "" {
		ringSize = 65536
	}
	ring := obs.NewDecisionRing(ringSize)
	smp := obs.NewSampler(reg, 200*time.Millisecond)
	smp.Start()

	// The latency-attribution plane: per-stage histograms and the
	// slowest-N exemplar ring, threaded through every pool and gateway
	// this run builds. Stage timing is always on — invariant 9 (timing
	// observation never changes a verdict or a batch count) is enforced
	// by construction and cross-checked in the httpd equivalence tests.
	stages := obs.NewStageSet(reg)
	slowRing := obs.NewSlowRing(0)

	// Shared substrate: the Figure-4 scenario server, a phpBB instance
	// with one account per session and a seeded topic, the
	// mixed-workload apps, and their unified policy documents.
	sub := buildSubstrate(*sessionsN)
	net := sub.net
	benchOrigin, forumOrigin := sub.bench, sub.forum
	calOrigin, portalOrigin, widgetOrigin := sub.cal, sub.portal, sub.widget
	topicID := sub.topicID
	portalPolicy := sub.portalPolicy
	policies := sub.policies

	pool, err := engine.NewPool(engine.Config{
		Sessions: *sessionsN,
		Network:  net,
		Options:  browser.Options{Mode: mode, DecisionRing: ring},
		Uncached: *uncached,
		Stages:   stages,
		Slow:     slowRing,
	})
	if err != nil {
		return err
	}
	defer pool.Close()

	report := benchJSON{
		Sessions:       *sessionsN,
		Mode:           mode.String(),
		Uncached:       *uncached,
		ProcsRequested: *procs,
		GoMaxProcs:     runtime.GOMAXPROCS(0),
	}
	total := time.Now()

	// Phase 1 — Figure-4 scenarios: every session walks all eight
	// pages, repeatedly. One unmeasured warm navigation per session
	// first, so the session cookie exists and every measured load
	// exercises cookie use (runPhase resets the stats it leaves).
	paths := scenarios.Paths()
	pool.Each(func(s *engine.Session) error {
		_, err := s.Browser.Navigate(benchOrigin.URL(paths[0]))
		return err
	})
	// Post-warmup mark: the pool's steady-state goroutine count, the
	// baseline the soak gate compares the end-of-run count against.
	smp.Mark()
	report.Phases = append(report.Phases, runPhase(pool, "figure4", func() {
		for r := 0; r < *iters; r++ {
			for _, path := range paths {
				p := path
				pool.Submit(func(s *engine.Session) error {
					_, err := s.Browser.Navigate(benchOrigin.URL(p))
					return err
				})
			}
		}
		pool.Wait()
	}))

	// Phase 2 — phpBB browsing: each session logs into its own
	// account, then alternates between the index and the seeded topic,
	// posting the occasional reply. This is the workload whose
	// decision stream is maximally repetitive — the cache's best case
	// and the paper's "active session with a trusted site" setting.
	report.Phases = append(report.Phases, runPhase(pool, "phpbb", func() {
		pool.Each(func(s *engine.Session) error {
			p, err := s.Browser.Navigate(forumOrigin.URL("/"))
			if err != nil {
				return err
			}
			form := p.Doc.ByID("loginform")
			if form == nil {
				return fmt.Errorf("no loginform")
			}
			if _, err := p.SubmitForm(form, map[string][]string{
				"username": {fmt.Sprintf("user%d", s.ID)}, "password": {"pw"},
			}); err != nil {
				return err
			}
			for i := 0; i < *phpbbIters; i++ {
				if _, err := s.Browser.Navigate(forumOrigin.URL("/")); err != nil {
					return err
				}
				tp, err := s.Browser.Navigate(forumOrigin.URL(fmt.Sprintf("/viewtopic?t=%d", topicID)))
				if err != nil {
					return err
				}
				if i%5 == 4 {
					reply := tp.Doc.ByID("replyform")
					if reply == nil {
						return fmt.Errorf("no replyform")
					}
					if _, err := tp.SubmitForm(reply, map[string][]string{
						"message": {fmt.Sprintf("reply from session %d round %d", s.ID, i)},
					}); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}))

	// Phase 3 — mixed workload: the sessions split three ways across
	// one network — phpBB browsing, PHP-Calendar event tracking, and a
	// mashup portal with cross-origin widgets — so the sharded network
	// and shared cache face heterogeneous traffic instead of one app's
	// repetitive decision stream.
	if *mixedIters > 0 {
		report.Phases = append(report.Phases, runPhase(pool, "mixed", func() {
			pool.Each(mixedTask(forumOrigin, calOrigin, portalOrigin, topicID, *mixedIters))
		}))
	}

	// In-memory soak: when no gateway is mounted, the soak loop runs
	// the mixed workload directly (with -http it runs through the
	// gateway in the http section instead).
	if *soak > 0 && *httpAddr == "" {
		deadline := time.Now().Add(*soak)
		report.Phases = append(report.Phases, runPhase(pool, "soak", func() {
			for time.Now().Before(deadline) {
				pool.Each(mixedTask(forumOrigin, calOrigin, portalOrigin, topicID, 1))
			}
		}))
	}

	// Phase 4 — §6.4 attack corpus: every attack runs in a fresh
	// environment, scheduled across the pool's sessions, with the
	// shared cache plugged into each victim browser.
	var memAttacks []attack.Result
	if *attacksOn {
		corpus := attack.Corpus()
		memAttacks = make([]attack.Result, len(corpus))
		ph := runPhase(pool, "attacks", func() {
			for i, atk := range corpus {
				i, atk := i, atk
				pool.Submit(func(*engine.Session) error {
					memAttacks[i] = attack.RunOneCached(atk, mode, pool.Cache())
					return memAttacks[i].Err
				})
			}
			pool.Wait()
		})
		aj := &attacksJSON{Total: len(corpus)}
		for _, r := range memAttacks {
			if r.Neutralized() {
				aj.Neutralized++
			} else {
				aj.Succeeded++
			}
		}
		ph.Attacks = aj
		report.Phases = append(report.Phases, ph)
	}

	// GOMAXPROCS>1 variant: re-run the figure4 phase with the runtime
	// widened to -procs-bench cores, then restore it, so the report
	// carries the serial and parallel numbers side by side.
	if *procsBench > 0 {
		want := *procsBench
		if n := runtime.NumCPU(); want > n {
			fmt.Fprintf(os.Stderr, "escudo-serve: -procs-bench %d clamped to %d (machine CPU count)\n", *procsBench, n)
			want = n
		}
		prev := runtime.GOMAXPROCS(want)
		variant := &procsVariantJSON{Procs: *procsBench, GoMaxProcs: runtime.GOMAXPROCS(0)}
		variant.Phases = append(variant.Phases, runPhase(pool, "figure4-procs", func() {
			for r := 0; r < *iters; r++ {
				for _, path := range paths {
					p := path
					pool.Submit(func(s *engine.Session) error {
						_, err := s.Browser.Navigate(benchOrigin.URL(p))
						return err
					})
				}
			}
			pool.Wait()
		}))
		runtime.GOMAXPROCS(prev)
		report.ProcsVariant = variant
	}

	// Policy section — the unified documents round-trip-checked, and
	// the delegated-session phase: a second pool whose sessions mount
	// the §7 delegation monitor through browser.Options.MonitorFactory
	// (sharing the main pool's decision cache), so the delegated widget
	// renders into its portal slot across real concurrent sessions
	// while its overreach is denied. ESCUDO mode only: delegation is
	// meaningless under the flat SOP baseline.
	polSection := &policyJSON{RoundTripOK: true}
	for o, doc := range policies {
		polSection.Origins = append(polSection.Origins, o)
		polSection.Delegations += len(doc.Delegations)
		data, err := doc.Marshal()
		if err != nil {
			return err
		}
		back, err := policy.Parse(data)
		if err != nil || !back.Equal(doc) {
			polSection.RoundTripOK = false
		}
	}
	sort.Strings(polSection.Origins)
	if mode == browser.ModeEscudo {
		delPol, err := portalPolicy.DelegationPolicy()
		if err != nil {
			return err
		}
		sharedCache := pool.Cache()
		delPool, err := engine.NewPool(engine.Config{
			Sessions: *sessionsN,
			Network:  net,
			Cache:    sharedCache,
			Uncached: *uncached,
			Options: browser.Options{
				Mode:         mode,
				DecisionRing: ring,
				MonitorFactory: func(browser.PageRef) core.Monitor {
					return core.Compose(&core.ERM{}, core.WithCache(sharedCache), core.WithDelegations(delPol))
				},
			},
		})
		if err != nil {
			return err
		}
		defer delPool.Close()
		delIters := *mixedIters
		if delIters <= 0 {
			delIters = 1
		}
		polSection.Phases = append(polSection.Phases, runPhase(delPool, "delegated-session", func() {
			delPool.Each(func(s *engine.Session) error {
				widgetP := core.Principal(widgetOrigin, 0, "widget")
				for i := 0; i < delIters; i++ {
					p, err := s.Browser.Navigate(portalOrigin.URL("/"))
					if err != nil {
						return err
					}
					if err := p.RunScriptAs(widgetP, fmt.Sprintf(
						`document.getElementById("slot%d").innerHTML = "forecast s%d r%d";`,
						i%8, s.ID, i)); err != nil {
						return fmt.Errorf("delegated slot write denied: %w", err)
					}
					if err := p.RunScriptAs(widgetP,
						`document.getElementById("chrome").innerHTML = "pwned";`); err == nil {
						return fmt.Errorf("delegation failed to confine the widget to its floor")
					}
				}
				return nil
			})
		}))
	}
	report.Policy = polSection

	// HTTP section — the client/server split: the same origins served
	// from a real net/http gateway, the same workloads replayed by
	// fresh sessions over loopback sockets through the shared decision
	// cache, and the attack corpus cross-checked transport-for-
	// transport.
	if *httpAddr != "" {
		h, err := runHTTPSection(httpSectionConfig{
			addr:       *httpAddr,
			workers:    *httpWorkers,
			queue:      *httpQueue,
			sessions:   *sessionsN,
			iters:      *iters,
			mixedIters: *mixedIters,
			attacksOn:  *attacksOn,
			tls:        *tlsOn,
			pprofOn:    *pprofOn,
			mode:       mode,
			uncached:   *uncached,
			cache:      pool.Cache(),
			net:        net,
			policies:   policies,
			bench:      benchOrigin,
			forum:      forumOrigin,
			cal:        calOrigin,
			portal:     portalOrigin,
			topicID:    topicID,
			memAttacks: memAttacks,
			reg:        reg,
			ring:       ring,
			stages:     stages,
			slow:       slowRing,
			soak:       *soak,
		})
		if err != nil {
			return err
		}
		report.HTTP = h
	}

	// SLO section — open-loop Poisson arrivals against a dedicated
	// loopback gateway sharing the substrate, cache, and observability
	// plane: offered vs achieved rate, per-stage tails, churn
	// bookkeeping, exemplar traces, and the window's leak verdict.
	if *openloopFlag != "" {
		res, err := runOpenLoopSection(openLoopSectionConfig{
			spec:     olSpec,
			sessions: *sessionsN,
			workers:  *httpWorkers,
			queue:    *httpQueue,
			httpCfg: httpSectionConfig{
				mode:     mode,
				uncached: *uncached,
				cache:    pool.Cache(),
				net:      net,
				policies: policies,
				bench:    benchOrigin,
				forum:    forumOrigin,
				reg:      reg,
				ring:     ring,
			},
			stages: stages,
			slow:   slowRing,
		})
		if err != nil {
			return err
		}
		report.SLO = res
	}

	// Control-plane section — a dedicated multi-tenant gateway, a live
	// policy flip pushed mid-load, and the noisy-neighbor harness. Runs
	// on its own gateway and pool so its storm (which invalidates its
	// decision cache) cannot perturb the equivalence-checked phases.
	if *controlOn {
		c, err := runControlSection(controlSectionConfig{
			tenants:   *tenantsN,
			sessions:  *sessionsN,
			iters:     *iters,
			workers:   *httpWorkers,
			queue:     *httpQueue,
			mode:      mode,
			uncached:  *uncached,
			attacksOn: *attacksOn,
		})
		if err != nil {
			return err
		}
		report.Control = c
	}

	// Script section — interpreter vs compiled VM on the shared corpus,
	// after every workload phase so the compile-cache counters cover
	// the run's full <script> traffic.
	if *scriptIters > 0 {
		s, err := runScriptSection(*scriptIters)
		if err != nil {
			return err
		}
		report.Script = s
	}

	// Close the observability window: a final sample, then the obs
	// section with the run's build stamp, sampler series, and
	// decision-trace ring traffic.
	sampStats := smp.Stop()
	report.Obs = &obsJSON{
		Version:                obs.Version(),
		Sampler:                sampStats,
		DecisionEventsRecorded: ring.Total(),
		DecisionEventsRetained: ring.Len(),
	}

	report.TotalMs = ms(time.Since(total))

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}

	fmt.Printf("ESCUDO engine load driver — %d sessions, mode %s (GOMAXPROCS %d)\n\n",
		report.Sessions, report.Mode, report.GoMaxProcs)
	t := metrics.NewTable("Phase", "Tasks", "p50 (ms)", "p99 (ms)", "Decisions", "Dec/s", "Cache hit rate", "Batch n→k")
	for _, ph := range report.Phases {
		hitRate := "-"
		if ph.Cache != nil {
			hitRate = fmt.Sprintf("%.1f%%", 100*ph.Cache.HitRate)
		}
		batch := "-"
		if ph.Batch != nil {
			batch = fmt.Sprintf("%d→%d", ph.Batch.NodesAuthorized, ph.Batch.DistinctDecisions)
		}
		t.AddRow(ph.Name,
			fmt.Sprintf("%d", ph.Tasks),
			fmt.Sprintf("%.3f", ph.P50Ms),
			fmt.Sprintf("%.3f", ph.P99Ms),
			fmt.Sprintf("%d", ph.Decisions),
			fmt.Sprintf("%.0f", ph.DecisionsPerSec),
			hitRate,
			batch)
	}
	fmt.Print(t.String())
	for _, ph := range report.Phases {
		if ph.Attacks != nil {
			fmt.Printf("\nAttack corpus: %d/%d neutralized under %s\n",
				ph.Attacks.Neutralized, ph.Attacks.Total, report.Mode)
		}
		if ph.Errors > 0 {
			return fmt.Errorf("phase %s had %d task errors", ph.Name, ph.Errors)
		}
	}
	if v := report.ProcsVariant; v != nil {
		fmt.Printf("\nGOMAXPROCS=%d variant (requested %d):\n", v.GoMaxProcs, v.Procs)
		for _, ph := range v.Phases {
			fmt.Printf("  %s: %d tasks, p50 %.3f ms, p99 %.3f ms\n",
				ph.Name, ph.Tasks, ph.P50Ms, ph.P99Ms)
			if ph.Errors > 0 {
				return fmt.Errorf("phase %s had %d task errors", ph.Name, ph.Errors)
			}
		}
	}
	if pol := report.Policy; pol != nil {
		fmt.Printf("\nPolicy: %d origin documents (%d delegations), round-trip ok=%v\n",
			len(pol.Origins), pol.Delegations, pol.RoundTripOK)
		if !pol.RoundTripOK {
			return fmt.Errorf("policy documents failed the serialization round trip")
		}
		for _, ph := range pol.Phases {
			fmt.Printf("  %s: %d tasks, p50 %.3f ms, %d decisions\n",
				ph.Name, ph.Tasks, ph.P50Ms, ph.Decisions)
			if ph.Errors > 0 {
				return fmt.Errorf("phase %s had %d task errors", ph.Name, ph.Errors)
			}
		}
	}
	if s := report.Script; s != nil {
		fmt.Printf("\nScript engines (%d-script corpus, %d passes × %d rounds):\n",
			s.CorpusScripts, s.Passes, s.Rounds)
		fmt.Printf("  eval: %.0f ops/s (%.0f ns/op, %.0f allocs/op)\n",
			s.Eval.OpsPerSec, s.Eval.NsPerOp, s.Eval.AllocsPerOp)
		fmt.Printf("  vm:   %.0f ops/s (%.0f ns/op, %.0f allocs/op)\n",
			s.VM.OpsPerSec, s.VM.NsPerOp, s.VM.AllocsPerOp)
		fmt.Printf("  speedup %.2fx, alloc ratio %.3fx, compile cache %d hits / %d misses\n",
			s.Speedup, s.AllocRatio, s.CompileCacheHits, s.CompileCacheMisses)
	}
	if h := report.HTTP; h != nil {
		fmt.Printf("\nHTTP gateway at %s — %d workers, queue %d per origin\n\n",
			h.Addr, h.Workers, h.QueueDepth)
		ht := metrics.NewTable("Phase", "Tasks", "p50 (ms)", "p99 (ms)", "Reqs", "Reqs/s", "503s", "Queue max", "Cache hit rate")
		for _, ph := range h.Phases {
			ht.AddRow(ph.Name,
				fmt.Sprintf("%d", ph.Tasks),
				fmt.Sprintf("%.3f", ph.P50Ms),
				fmt.Sprintf("%.3f", ph.P99Ms),
				fmt.Sprintf("%d", ph.Requests),
				fmt.Sprintf("%.0f", ph.ReqsPerSec),
				fmt.Sprintf("%d", ph.Rejected503),
				fmt.Sprintf("%d", ph.QueueDepthMax),
				fmt.Sprintf("%.1f%%", 100*ph.CacheHitRate))
		}
		fmt.Print(ht.String())
		if h.Client != nil {
			proto := h.Proto
			if proto == "" {
				proto = "?"
			}
			fmt.Printf("\nTransport: proto %s, conn reuse %.2f (%d new / %d reused), %.0f allocs/request\n",
				proto, h.Client.ReuseRate, h.Client.NewConns, h.Client.ReusedConns, h.AllocsPerRequest)
		}
		if h.Attacks != nil {
			fmt.Printf("\nAttack corpus over sockets: %d/%d neutralized under %s (verdicts match in-memory: %v)\n",
				h.Attacks.Neutralized, h.Attacks.Total, report.Mode, *h.AttacksMatchMemory)
		}
		for _, ph := range h.Phases {
			if ph.Errors > 0 {
				return fmt.Errorf("phase %s had %d task errors", ph.Name, ph.Errors)
			}
		}
	}
	if c := report.Control; c != nil {
		if err := printControl(c); err != nil {
			return err
		}
	}
	if s := report.SLO; s != nil {
		if err := printSLO(s); err != nil {
			return err
		}
	}
	if o := report.Obs; o != nil {
		fmt.Printf("\nObs: %s, %d samples every %.0f ms — goroutines first/post-warmup/last %d/%d/%d, heap monotonic=%v, %d GC cycles, %d decision events (%d retained)\n",
			o.Version.Go, o.Sampler.Samples, o.Sampler.IntervalMs,
			o.Sampler.Goroutines.First, o.Sampler.PostWarmupGoroutines, o.Sampler.Goroutines.Last,
			o.Sampler.HeapMonotonic, o.Sampler.NumGC,
			o.DecisionEventsRecorded, o.DecisionEventsRetained)
	}
	fmt.Printf("\nWrote %s (%.0f ms total)\n", *out, report.TotalMs)
	return nil
}
