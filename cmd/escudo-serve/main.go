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
// The multi-process roles (see cluster.go) split the deployment
// across real OS processes: -serve-only runs the gateway alone until
// SIGTERM, -connect runs a loadgen worker against a remote gateway,
// and -cluster N fork/execs one server plus N workers and merges
// their BENCH shards into a `cluster` section. -tls terminates https
// on the gateway with an ephemeral in-memory CA in any gateway mode.
// Every workload and the phase meter are shared across roles (see
// workload.go), so a phase does the same work in every mode.
//
// Usage, by process role (-procs N applies to every role):
//
// The driver (default): the in-memory phases, then the optional
// sections — http, soak, open-loop SLO, control plane, script engines.
//
//	escudo-serve [-sessions N] [-iters N] [-phpbb-iters N] [-mixed-iters N]
//	             [-script-iters N] [-procs N] [-procs-bench N]
//	             [-mode escudo|sop] [-attacks=false] [-uncached]
//	             [-http addr [-http-workers N] [-http-queue N] [-tls] [-pprof]]
//	             [-soak D] [-openloop rate=R,duration=D[,churn=C][,p99=MS][,seed=N]]
//	             [-control [-tenants N]] [-cpuprofile f] [-memprofile f]
//	             [-out BENCH_engine.json]
//
// The cluster supervisor: fork/execs one -serve-only server and N
// -connect workers of -cluster-bin (default: this binary) and merges
// their shards into the cluster section of -out.
//
//	escudo-serve -cluster N [-cluster-bin path] [-tls] [-sessions N]
//	             [-iters N] [-phpbb-iters N] [-mode escudo|sop]
//	             [-attacks=false] [-uncached] [-http-workers N]
//	             [-http-queue N] [-openloop spec] [-out BENCH_engine.json]
//
// The server: mounts the substrate on a gateway and serves until
// SIGTERM.
//
//	escudo-serve -serve-only [-http addr] [-tls [-tls-ca-out ca.pem]]
//	             [-sessions N] [-accounts N] [-http-workers N]
//	             [-http-queue N] [-addr-file f] [-stats-file f]
//
// The worker: loads a remote gateway and writes a BENCH shard.
//
//	escudo-serve -connect addr [-worker-id N] [-tls -tls-ca ca.pem]
//	             [-sessions N] [-iters N] [-phpbb-iters N]
//	             [-mode escudo|sop] [-attacks=false] [-uncached]
//	             [-http-workers N] [-http-queue N] [-openloop spec]
//	             [-out shard.json]
package main

import (
	"context"
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
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/attack"
	"repro/internal/browser"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/engine"
	"repro/internal/httpd"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/slo"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "escudo-serve:", err)
		os.Exit(1)
	}
}

// config is the parsed command line. Each process role reads the
// fields it needs (see the Usage block above).
type config struct {
	sessions, iters, phpbbIters, mixedIters, scriptIters int
	procs, procsBench                                    int
	pprof                                                bool
	cpuProfile, memProfile                               string
	modeName                                             string
	mode                                                 browser.Mode
	attacks, uncached                                    bool
	httpAddr                                             string
	httpWorkers, httpQueue                               int
	soak                                                 time.Duration
	openloop                                             string
	olSpec                                               openLoopSpec
	tls, serveOnly                                       bool
	connect                                              string
	cluster                                              int
	clusterBin, tlsCAOut, tlsCA, addrFile, statsFile     string
	workerID, accounts                                   int
	control                                              bool
	tenants                                              int
	out                                                  string
}

// parseFlags parses and validates the command line. Every check runs
// here, before any role starts, so a bad combination fails fast
// instead of after the sections it does not affect.
func parseFlags(args []string) (*config, error) {
	c := &config{}
	fs := flag.NewFlagSet("escudo-serve", flag.ContinueOnError)
	fs.IntVar(&c.sessions, "sessions", 8, "number of concurrent browser sessions")
	fs.IntVar(&c.iters, "iters", 5, "rounds through all Figure-4 scenarios per session")
	fs.IntVar(&c.phpbbIters, "phpbb-iters", 20, "phpBB page views per session")
	fs.IntVar(&c.mixedIters, "mixed-iters", 10, "mixed-workload rounds per session (0 disables the phase)")
	fs.IntVar(&c.scriptIters, "script-iters", 60, "script-engine corpus passes per round per engine (0 disables the script section)")
	fs.IntVar(&c.procs, "procs", 0, "GOMAXPROCS override (0 keeps the runtime default)")
	fs.IntVar(&c.procsBench, "procs-bench", 0, "re-run the figure4 phase at this GOMAXPROCS after the main phases and record it as procs_variant (0 disables)")
	fs.BoolVar(&c.pprof, "pprof", false, "expose net/http/pprof on the gateway's admin host under /debug/pprof (with -http)")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile of the whole run to this file")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile (after the run, post-GC) to this file")
	fs.StringVar(&c.modeName, "mode", "escudo", "protection mode: escudo or sop")
	fs.BoolVar(&c.attacks, "attacks", true, "replay the §6.4 attack corpus")
	fs.BoolVar(&c.uncached, "uncached", false, "disable the shared decision cache (baseline)")
	fs.StringVar(&c.httpAddr, "http", "", "also mount the origins on a real HTTP gateway at this address (e.g. 127.0.0.1:0) and replay the workloads over loopback sockets")
	fs.IntVar(&c.httpWorkers, "http-workers", 4, "gateway per-origin worker count")
	fs.IntVar(&c.httpQueue, "http-queue", 64, "gateway per-origin queue depth (overflow → 503)")
	fs.DurationVar(&c.soak, "soak", 0, "append a soak phase: loop the mixed workload until this much wall-clock has passed, so the runtime sampler can judge goroutine/heap recovery (with -http the soak runs through the gateway)")
	fs.StringVar(&c.openloop, "openloop", "", "open-loop SLO mode: rate=R,duration=D[,churn=C][,p99=MS][,seed=N] — offer Poisson arrivals at R req/s for D against a loopback gateway (C login/logout events/s woven in) and write the slo section; in -cluster mode each worker drives this spec and the shards merge")
	fs.BoolVar(&c.tls, "tls", false, "terminate https on the gateway with an ephemeral in-memory CA (with -http, -serve-only, or -cluster; with -connect, trust -tls-ca)")
	fs.BoolVar(&c.serveOnly, "serve-only", false, "server mode: mount the substrate on a gateway and serve until SIGTERM (no loadgen)")
	fs.StringVar(&c.connect, "connect", "", "worker mode: generate load against a remote gateway at this address and write a BENCH shard to -out")
	fs.IntVar(&c.cluster, "cluster", 0, "cluster mode: fork/exec one -serve-only server plus N -connect workers and merge their shards into a cluster section")
	fs.StringVar(&c.clusterBin, "cluster-bin", "", "binary to fork/exec in -cluster mode (default: this executable)")
	fs.StringVar(&c.tlsCAOut, "tls-ca-out", "", "serve-only: write the CA certificate (no key) to this PEM file for workers to trust")
	fs.StringVar(&c.tlsCA, "tls-ca", "", "connect: CA certificate bundle to verify the gateway's TLS leafs against")
	fs.StringVar(&c.addrFile, "addr-file", "", "serve-only: write the bound listener address to this file")
	fs.StringVar(&c.statsFile, "stats-file", "", "serve-only: write gateway-side stats JSON here on graceful shutdown")
	fs.IntVar(&c.workerID, "worker-id", 0, "connect: this worker's index in the cluster (labels the shard)")
	fs.IntVar(&c.accounts, "accounts", 0, "serve-only: register this many phpBB/PHP-Calendar accounts (0 = one per session; a cluster supervisor passes workers×sessions so each worker gets a disjoint account range)")
	fs.BoolVar(&c.control, "control", false, "run the policy control-plane section: mount -tenants stamped origins on a dedicated gateway, push a live policy flip mid-load (invalidation storm), and measure noisy-neighbor isolation")
	fs.IntVar(&c.tenants, "tenants", 1024, "tenant origins to mount in the -control section")
	fs.StringVar(&c.out, "out", "BENCH_engine.json", "output JSON path")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch {
	case c.sessions < 1:
		return nil, fmt.Errorf("-sessions must be >= 1, got %d", c.sessions)
	case c.tls && c.httpAddr == "" && !c.serveOnly && c.connect == "" && c.cluster == 0:
		return nil, fmt.Errorf("-tls needs a gateway: combine it with -http, -serve-only, -connect, or -cluster")
	case c.tlsCAOut != "" && !c.tls:
		return nil, fmt.Errorf("-tls-ca-out given without -tls")
	case c.control && c.tenants < 2:
		return nil, fmt.Errorf("-tenants must be >= 2 for the noisy-neighbor harness, got %d", c.tenants)
	}
	var err error
	if c.mode, err = parseMode(c.modeName); err != nil {
		return nil, err
	}
	if c.openloop != "" {
		if c.olSpec, err = parseOpenLoop(c.openloop); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// parseMode maps the -mode flag onto a browser mode.
func parseMode(s string) (browser.Mode, error) {
	switch s {
	case "escudo":
		return browser.ModeEscudo, nil
	case "sop":
		return browser.ModeSOP, nil
	default:
		return 0, fmt.Errorf("unknown -mode %q", s)
	}
}

func run(args []string) error {
	c, err := parseFlags(args)
	if err != nil {
		return err
	}
	if c.procs > 0 {
		runtime.GOMAXPROCS(clampProcs("-procs", c.procs))
	}
	// The multi-process roles: a cluster supervisor, a server-only
	// gateway process, or a loadgen worker. Each is a complete program
	// of its own; the single-process driver is the default.
	switch {
	case c.cluster > 0:
		return runCluster(c)
	case c.serveOnly:
		return runServeOnly(c, stopOnSignal())
	case c.connect != "":
		return runConnect(c)
	}
	report, err := drive(c)
	if err != nil {
		return err
	}
	if err := writeJSON(c.out, report); err != nil {
		return err
	}
	return printReport(report, c.out)
}

// clampProcs clamps a GOMAXPROCS request to the machine's CPU count:
// above it buys no parallelism, only OS-thread thrash that wrecks tail
// latency.
func clampProcs(flagName string, n int) int {
	if cpus := runtime.NumCPU(); n > cpus {
		fmt.Fprintf(os.Stderr, "escudo-serve: %s %d clamped to %d (machine CPU count)\n", flagName, n, cpus)
		return cpus
	}
	return n
}

// stopOnSignal returns a channel closed on the first SIGTERM or
// interrupt. The server role registers it before anything else runs,
// so a SIGTERM arriving during startup still takes the graceful path.
func stopOnSignal() <-chan struct{} {
	stop := make(chan struct{})
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGTERM, os.Interrupt)
	go func() {
		<-ch
		close(stop)
	}()
	return stop
}

// writeJSON writes v to path as indented JSON.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
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
// run (goroutines, heap, GC), the soak window's leak verdict, and the
// decision-trace ring's traffic. In cluster runs the workers'
// equivalents are merged into cluster.obs; this section always
// describes the driving process.
type obsJSON struct {
	Version obs.Stamp        `json:"version"`
	Sampler obs.SamplerStats `json:"sampler"`
	// Leak is the soak phase's leak verdict: the drift of a sampler
	// that opens after the loop's warm-up (see longLoop). Absent
	// without -soak, or when the window was too short to judge.
	Leak *obs.DriftReport `json:"leak,omitempty"`
	// DecisionEventsRecorded counts every decision-trace event recorded
	// over the run; DecisionEventsRetained is how many the ring still
	// holds (min of recorded and ring capacity).
	DecisionEventsRecorded uint64 `json:"decision_events_recorded"`
	DecisionEventsRetained int    `json:"decision_events_retained"`
}

// phaseJSON is one benchmark phase in BENCH_engine.json.
type phaseJSON struct {
	phaseStats
	// Decisions counts reference-monitor verdicts during the phase:
	// audit-log records for pool phases, cache lookups for the attack
	// replay (whose environments own their audit logs).
	Decisions       uint64       `json:"decisions"`
	DecisionsPerSec float64      `json:"decisions_per_sec"`
	Cache           *cacheJSON   `json:"cache,omitempty"`
	Batch           *batchJSON   `json:"batch,omitempty"`
	Attacks         *attacksJSON `json:"attacks,omitempty"`
}

// setRate derives DecisionsPerSec from Decisions and ElapsedMs.
func (ph *phaseJSON) setRate() {
	if secs := ph.ElapsedMs / 1000; secs > 0 {
		ph.DecisionsPerSec = float64(ph.Decisions) / secs
	}
}

// httpPhaseJSON is one loopback loadgen phase of the http section.
// Tasks/latency are measured at the client sessions; requests, 503s,
// and cache traffic are the gateway's deltas for the phase, and
// queue_depth_max is the phase's own high-water mark (the gauge is
// reset at each phase start).
type httpPhaseJSON struct {
	phaseStats
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
// alongside the 1-CPU numbers: the figure4 phase re-run with the
// runtime widened to -procs-bench cores.
type procsVariantJSON struct {
	// Procs is the requested width; GoMaxProcs the effective one after
	// clamping to the machine.
	Procs      int         `json:"procs"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Phases     []phaseJSON `json:"phases"`
}

// driver is the single-process run's shared state: the parsed flags,
// the substrate, the observability plane, and the in-memory pool whose
// decision cache every section shares.
type driver struct {
	*config
	sub   *substrate
	plane obsPlane
	pool  *engine.Pool
	// memAttacks are the in-memory verdicts the socket replay is
	// checked against; leak is the soak window's drift verdict.
	memAttacks []attack.Result
	leak       *obs.DriftReport
}

// drive runs the driver's sections in order and assembles the report.
func drive(c *config) (*benchJSON, error) {
	// Profiling covers the whole single-process run: all in-memory
	// phases plus the http section, which is where the hot request
	// path lives. (Profile the multi-process roles by passing the
	// flags to -connect/-serve-only invocations directly.)
	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			return nil, fmt.Errorf("creating -cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if c.memProfile != "" {
		defer func() {
			f, err := os.Create(c.memProfile)
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

	// The observability plane starts first, so its sampler covers the
	// whole run. Then the shared substrate: the Figure-4 scenario
	// server, a phpBB instance with one account per session and a
	// seeded topic, the mixed-workload apps, and their unified policy
	// documents.
	d := &driver{config: c, plane: newObsPlane(c.openloop != "")}
	d.sub = buildSubstrate(c.sessions)
	pool, err := engine.NewPool(engine.Config{
		Sessions: c.sessions,
		Network:  d.sub.net,
		Options:  browser.Options{Mode: c.mode, DecisionRing: d.plane.ring},
		Uncached: c.uncached,
		Stages:   d.plane.stages,
		Slow:     d.plane.slow,
	})
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	d.pool = pool

	report := &benchJSON{
		Sessions:       c.sessions,
		Mode:           c.mode.String(),
		Uncached:       c.uncached,
		ProcsRequested: c.procs,
		GoMaxProcs:     runtime.GOMAXPROCS(0),
	}
	total := time.Now()
	if report.Phases, err = d.memoryPhases(); err != nil {
		return nil, err
	}

	// GOMAXPROCS>1 variant: re-run the figure4 phase with the runtime
	// widened to -procs-bench cores, then restore it, so the report
	// carries the serial and parallel numbers side by side.
	if c.procsBench > 0 {
		prev := runtime.GOMAXPROCS(clampProcs("-procs-bench", c.procsBench))
		report.ProcsVariant = &procsVariantJSON{Procs: c.procsBench, GoMaxProcs: runtime.GOMAXPROCS(0)}
		report.ProcsVariant.Phases = []phaseJSON{runPhase(pool, "figure4-procs", func() {
			figure4Rounds(pool, benchOrigin, c.iters)
		})}
		runtime.GOMAXPROCS(prev)
	}
	if report.Policy, err = d.policySection(); err != nil {
		return nil, err
	}
	if c.httpAddr != "" {
		if report.HTTP, err = d.httpSection(); err != nil {
			return nil, err
		}
	}
	if c.openloop != "" {
		if report.SLO, err = d.openLoopSection(); err != nil {
			return nil, err
		}
	}
	// Control-plane section — a dedicated multi-tenant gateway, a live
	// policy flip pushed mid-load, and the noisy-neighbor harness. Runs
	// on its own gateway and pool so its storm (which invalidates its
	// decision cache) cannot perturb the equivalence-checked phases.
	if c.control {
		if report.Control, err = runControlSection(c); err != nil {
			return nil, err
		}
	}
	// Script section — interpreter vs compiled VM on the shared corpus,
	// after every workload phase so the compile-cache counters cover
	// the run's full <script> traffic.
	if c.scriptIters > 0 {
		if report.Script, err = runScriptSection(c.scriptIters); err != nil {
			return nil, err
		}
	}

	// Close the observability window: a final sample, then the obs
	// section with the run's build stamp, sampler series, and
	// decision-trace ring traffic.
	report.Obs = &obsJSON{
		Version:                obs.Version(),
		Sampler:                d.plane.smp.Stop(),
		Leak:                   d.leak,
		DecisionEventsRecorded: d.plane.ring.Total(),
		DecisionEventsRetained: d.plane.ring.Len(),
	}
	report.TotalMs = ms(time.Since(total))
	return report, nil
}

// warmUp loads the first Figure-4 page once per session, unmeasured,
// so the session cookie exists and every measured load exercises
// cookie use; then, when set, it runs then in the same task.
func warmUp(pool *engine.Pool, then engine.Task) error {
	pool.Each(func(s *engine.Session) error {
		_, err := s.Browser.Navigate(benchOrigin.URL(scenarioPaths[0]))
		if err != nil || then == nil {
			return err
		}
		return then(s)
	})
	if st := pool.Stats(); len(st.Errors) > 0 {
		return st.Errors[0]
	}
	return nil
}

// memoryPhases runs the in-memory phases on the main pool: figure4,
// phpbb, mixed, the soak when no gateway is mounted, and the attack
// corpus.
func (d *driver) memoryPhases() ([]phaseJSON, error) {
	pool := d.pool
	// Phase 1 — Figure-4 scenarios: every session walks all eight
	// pages, repeatedly (measure resets the stats warmUp leaves).
	if err := warmUp(pool, nil); err != nil {
		return nil, fmt.Errorf("warmup: %w", err)
	}
	// Post-warmup mark: the pool's steady-state goroutine count, the
	// baseline the soak gate compares the end-of-run count against.
	d.plane.smp.Mark()
	phases := []phaseJSON{runPhase(pool, "figure4", func() {
		figure4Rounds(pool, benchOrigin, d.iters)
	})}

	// Phase 2 — phpBB browsing (see phpbbTask).
	phases = append(phases, runPhase(pool, "phpbb", func() {
		pool.Each(phpbbTask(d.sub.topicID, d.phpbbIters, account(0, d.sessions)))
	}))

	// Phase 3 — mixed workload: the sessions split three ways across
	// one network, so the sharded network and shared cache face
	// heterogeneous traffic instead of one app's repetitive stream.
	if d.mixedIters > 0 {
		phases = append(phases, runPhase(pool, "mixed", func() {
			pool.Each(mixedTask(d.sub.topicID, d.mixedIters))
		}))
	}

	// In-memory soak: when no gateway is mounted, the soak loop runs
	// the mixed workload directly (with -http it runs through the
	// gateway in the http section instead). The loop trims the audit
	// logs the decision count reads, so it adds the dropped records.
	if d.soak > 0 && d.httpAddr == "" {
		var trimmed uint64
		ph := runPhase(pool, "soak", func() {
			d.leak, trimmed = soak(pool, d.sub.net, d.sub.topicID, d.soak)
		})
		ph.Decisions += trimmed
		ph.setRate()
		phases = append(phases, ph)
	}

	// Phase 4 — §6.4 attack corpus: every attack runs in a fresh
	// environment, scheduled across the pool's sessions, with the
	// shared cache plugged into each victim browser.
	if d.attacks {
		var tally *attacksJSON
		ph := runPhase(pool, "attacks", func() {
			d.memAttacks, tally, _ = replayAttacks(pool, d.mode, nil, nil)
		})
		ph.Attacks = tally
		phases = append(phases, ph)
	}
	return phases, nil
}

// policySection round-trip-checks the unified documents and, in
// ESCUDO mode, runs the delegated-session phase: a second pool whose
// sessions mount the §7 delegation monitor through
// browser.Options.MonitorFactory (sharing the main pool's decision
// cache), so the delegated widget renders into its portal slot across
// real concurrent sessions while its overreach is denied. Delegation
// is meaningless under the flat SOP baseline.
func (d *driver) policySection() (*policyJSON, error) {
	sec := &policyJSON{RoundTripOK: true}
	for o, doc := range d.sub.policies {
		sec.Origins = append(sec.Origins, o)
		sec.Delegations += len(doc.Delegations)
		data, err := doc.Marshal()
		if err != nil {
			return nil, err
		}
		back, err := policy.Parse(data)
		if err != nil || !back.Equal(doc) {
			sec.RoundTripOK = false
		}
	}
	sort.Strings(sec.Origins)
	if d.mode != browser.ModeEscudo {
		return sec, nil
	}
	delPol, err := d.sub.portalPolicy.DelegationPolicy()
	if err != nil {
		return nil, err
	}
	sharedCache := d.pool.Cache()
	delPool, err := engine.NewPool(engine.Config{
		Sessions: d.sessions,
		Network:  d.sub.net,
		Cache:    sharedCache,
		Uncached: d.uncached,
		Options: browser.Options{
			Mode:         d.mode,
			DecisionRing: d.plane.ring,
			MonitorFactory: func(browser.PageRef) core.Monitor {
				return core.Compose(&core.ERM{}, core.WithCache(sharedCache), core.WithDelegations(delPol))
			},
		},
	})
	if err != nil {
		return nil, err
	}
	defer delPool.Close()
	delIters := max(d.mixedIters, 1)
	sec.Phases = append(sec.Phases, runPhase(delPool, "delegated-session", func() {
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
	return sec, nil
}

// socketPool builds a pool of fresh sessions that reach a gateway
// through ct and share the main pool's decision cache and the run's
// observability plane.
func (d *driver) socketPool(ct *httpd.ClientTransport) (*engine.Pool, error) {
	return engine.NewPool(engine.Config{
		Sessions:  d.sessions,
		Transport: ct,
		Options:   browser.Options{Mode: d.mode, DecisionRing: d.plane.ring},
		Cache:     d.pool.Cache(),
		Uncached:  d.uncached,
		Stages:    d.plane.stages,
		Slow:      d.plane.slow,
	})
}

// httpSection is the client/server split: the substrate mounted on a
// loopback gateway, the figure-4 and mixed workloads replayed by fresh
// sessions over real sockets through the shared decision cache, and
// the attack corpus replayed against per-environment gateways with
// every verdict checked against the in-memory run.
func (d *driver) httpSection() (*httpJSON, error) {
	gwCfg, err := gatewayConfig(d.sub.policies, d.httpWorkers, d.httpQueue, d.tls)
	if err != nil {
		return nil, err
	}
	// The gateway exports the run's registry on /varz, its ring on
	// /tracez, and its stage histograms and slow ring on /slowz. The
	// loadgen transport is created by WrapNetwork below, but the
	// gateway config needs the stats hook now — late-bind through an
	// atomic pointer so /metricsz can surface connection reuse.
	var clientRef atomic.Pointer[httpd.ClientTransport]
	gwCfg.Obs, gwCfg.Ring, gwCfg.Stages, gwCfg.Slow = d.plane.reg, d.plane.ring, d.plane.stages, d.plane.slow
	gwCfg.EnablePprof = d.pprof
	gwCfg.ClientStatsFunc = func() any {
		if c := clientRef.Load(); c != nil {
			return c.Stats()
		}
		return nil
	}
	gw, ct, cleanup, err := httpd.WrapNetwork(d.sub.net, gwCfg, d.httpAddr)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	clientRef.Store(ct)
	pool, err := d.socketPool(ct)
	if err != nil {
		return nil, err
	}
	defer pool.Close()

	section := &httpJSON{Addr: gw.Addr(), TLS: d.tls, Workers: d.httpWorkers, QueueDepth: d.httpQueue}

	// Wire-delivery cross-check: /policyz must serve every mounted
	// document back equal to what was mounted.
	var client *http.Client
	scheme := "http"
	if ca := gwCfg.TLS; ca != nil {
		scheme = "https"
		client = &http.Client{
			Transport: &http.Transport{TLSClientConfig: &tls.Config{RootCAs: ca.Pool(), MinVersion: tls.VersionTLS12}},
			Timeout:   10 * time.Second,
		}
	}
	served, err := ctlplane.FetchPolicyz(context.Background(), client, scheme, gw.Addr())
	if err != nil {
		return nil, err
	}
	if len(served.Policies) != len(d.sub.policies) {
		return nil, fmt.Errorf("policyz served %d documents, mounted %d", len(served.Policies), len(d.sub.policies))
	}
	for o, doc := range d.sub.policies {
		if got, err := policy.Parse(served.Policies[o]); err != nil || !got.Equal(doc) {
			return nil, fmt.Errorf("policyz document for %s diverges from the mounted one", o)
		}
	}
	section.PolicyzOrigins = len(served.Policies)

	// Unmeasured warm round: the scenario session cookie and the phpBB
	// logins the mixed workload's browsing arm assumes.
	user := account(0, d.sessions)
	if err := warmUp(pool, func(s *engine.Session) error { return login(s, forumOrigin, user(s.ID)) }); err != nil {
		return nil, fmt.Errorf("http warmup: %w", err)
	}

	// The figure4 replay doubles as the allocation gate: the phase's
	// process-wide Mallocs delta over the gateway's served count is the
	// allocs-per-request figure CI asserts. A GC cycle beforehand keeps
	// the previous phases' garbage out of the window.
	runtime.GC()
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	gwBefore := gw.Stats()
	gw.ResetQueueHighWater()
	m, _ := measure(pool, "http-figure4", func() { figure4Rounds(pool, benchOrigin, d.iters) })
	fig4 := gatewayRow(m, gw.Stats().Sub(gwBefore))
	runtime.ReadMemStats(&memAfter)
	if fig4.Requests > 0 {
		fig4.AllocsPerRequest = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(fig4.Requests)
	}
	section.AllocsPerRequest = fig4.AllocsPerRequest
	section.Phases = append(section.Phases, fig4)

	if d.mixedIters > 0 {
		gwBefore = gw.Stats()
		gw.ResetQueueHighWater()
		m, _ := measure(pool, "http-mixed", func() { pool.Each(mixedTask(d.sub.topicID, d.mixedIters)) })
		section.Phases = append(section.Phases, gatewayRow(m, gw.Stats().Sub(gwBefore)))
	}

	// Soak: mixed load looped through the gateway until the deadline,
	// under the leak watch the CI soak gate reads (see soak).
	if d.soak > 0 {
		gwBefore = gw.Stats()
		gw.ResetQueueHighWater()
		m, _ := measure(pool, "http-soak", func() { d.leak, _ = soak(pool, d.sub.net, d.sub.topicID, d.soak) })
		section.Phases = append(section.Phases, gatewayRow(m, gw.Stats().Sub(gwBefore)))
	}

	// Attack replay over sockets: each environment's private network
	// gets its own loopback gateway, and each verdict must equal the
	// in-memory one — transport independence, asserted. The phase's
	// traffic counters sum the per-environment gateways (the main
	// gateway sees none of this traffic).
	if d.attacks {
		wrap, envStats := attackGateways(gwCfg)
		var diverged []string
		m, _ := measure(pool, "http-attacks", func() {
			_, section.Attacks, diverged = replayAttacks(pool, d.mode, wrap, d.memAttacks)
		})
		gateways, clients := envStats()
		section.Phases = append(section.Phases, gatewayRow(m, gateways))
		attackClient := cluster.FromClientStats(clients)
		section.AttackClient = &attackClient
		matches := len(diverged) == 0
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

// openLoopSection offers open-loop Poisson arrivals to a dedicated
// loopback gateway sharing the substrate, cache, and observability
// plane, so the open-loop storm cannot perturb the equivalence-checked
// phases: offered vs achieved rate, per-stage tails, churn
// bookkeeping, exemplar traces, and the window's leak verdict.
func (d *driver) openLoopSection() (*slo.Result, error) {
	gwCfg, err := gatewayConfig(d.sub.policies, d.httpWorkers, d.httpQueue, false)
	if err != nil {
		return nil, err
	}
	gwCfg.Obs, gwCfg.Ring, gwCfg.Stages, gwCfg.Slow = d.plane.reg, d.plane.ring, d.plane.stages, d.plane.slow
	_, ct, cleanup, err := httpd.WrapNetwork(d.sub.net, gwCfg, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	pool, err := d.socketPool(ct)
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	// Unmeasured warm round: session cookies exist, connections are
	// established, so the measured window starts from a steady state.
	if err := warmUp(pool, nil); err != nil {
		return nil, fmt.Errorf("openloop warmup: %w", err)
	}
	return driveOpenLoop(pool, d.olSpec, d.plane.stages, d.plane.slow, account(0, d.sessions), d.sub.net)
}

// describeLeak renders a leak-watch verdict on one line.
func describeLeak(l *obs.DriftReport) string {
	if l == nil {
		return "window too short for a verdict"
	}
	return fmt.Sprintf("slope %.0f B/s over %.1fs (%d points), growth %.1f%% of mean heap — suspected=%v",
		l.SlopeBytesPerSec, l.WindowSec, l.Points, 100*l.GrowthFraction, l.Suspected)
}

// printReport renders the report on stdout and returns an error when
// any phase recorded task errors, so the run exits nonzero.
func printReport(report *benchJSON, out string) error {
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
		fmt.Printf("\nObs: %s, %d samples every %.0f ms — goroutines first/post-warmup/last %d/%d/%d, %d GC cycles, %d decision events (%d retained)\n",
			o.Version.Go, o.Sampler.Samples, o.Sampler.IntervalMs,
			o.Sampler.Goroutines.First, o.Sampler.PostWarmupGoroutines, o.Sampler.Goroutines.Last,
			o.Sampler.NumGC, o.DecisionEventsRecorded, o.DecisionEventsRetained)
		if o.Leak != nil {
			fmt.Printf("Soak leak watch: %s\n", describeLeak(o.Leak))
		}
	}
	fmt.Printf("\nWrote %s (%.0f ms total)\n", out, report.TotalMs)
	return nil
}
