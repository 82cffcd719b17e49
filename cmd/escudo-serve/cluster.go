// The multi-process modes of escudo-serve: -serve-only (a gateway
// process that mounts the substrate and serves until SIGTERM),
// -connect (a loadgen worker process driving a remote gateway and
// writing a BENCH shard), and -cluster N (a supervisor that fork/execs
// one server plus N workers and merges the shards into the `cluster`
// section of BENCH_engine.json).
//
// Enforcement placement is the whole point: the reference monitors run
// inside the worker processes' browsers, and the server process is a
// dumb policy-serving transport — so the cluster benchmark measures
// Escudo mediation with client and server genuinely across a process
// (and, with -tls, a cryptographic) boundary.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/apps/phpbb"
	"repro/internal/apps/phpcal"
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
	"repro/internal/web"
)

// The substrate's origins. Server and worker processes agree on them
// by construction: they are fixed names, and a worker only ever
// reaches them through the gateway.
var (
	benchOrigin  = origin.MustParse("http://bench.example")
	forumOrigin  = origin.MustParse("http://forum.example")
	calOrigin    = origin.MustParse("http://cal.example")
	portalOrigin = origin.MustParse("http://portal.example")
	widgetOrigin = origin.MustParse("http://widget.example")
)

// substrate is the shared benchmark world: the Figure-4 scenario
// server, phpBB, PHP-Calendar, the mashup portal and its widget on one
// network, and the origins' unified policy documents.
type substrate struct {
	net          *web.Network
	topicID      int
	portalPolicy policy.Policy
	policies     map[string]policy.Policy
}

// substrateOrigins and substratePolicies are the counts the cluster
// supervisor cross-checks against /metricsz and /policyz.
const (
	substrateOrigins  = 5
	substratePolicies = 4
)

// buildSubstrate assembles the substrate with one phpBB/PHP-Calendar
// account per user.
func buildSubstrate(users int) *substrate {
	s := &substrate{net: web.NewNetwork()}
	s.net.Register(benchOrigin, scenarios.Handler())

	forum := phpbb.New(phpbb.Config{
		Origin: forumOrigin, Hardened: false, Escudo: true, Nonces: nonce.CryptoSource{},
	})
	for i := 0; i < users; i++ {
		forum.AddUser(fmt.Sprintf("user%d", i), "pw")
	}
	s.topicID = forum.SeedTopic("user0", "Welcome", "first post")
	s.net.Register(forumOrigin, forum)

	cal := phpcal.New(phpcal.Config{
		Origin: calOrigin, Hardened: false, Escudo: true, Nonces: nonce.CryptoSource{},
	})
	for i := 0; i < users; i++ {
		cal.AddUser(fmt.Sprintf("user%d", i), "pw")
	}
	cal.SeedEvent("user0", 1, "kickoff")
	s.net.Register(calOrigin, cal)

	s.net.Register(portalOrigin, portalHandler())
	s.net.Register(widgetOrigin, web.HandlerFunc(func(req *web.Request) *web.Response {
		return web.HTML(`<html><body><p id=w>widget content</p></body></html>`)
	}))

	// The unified policy documents: derived from the apps' Table 3/
	// Table 5 configurations and the scenario server, plus the
	// portal's §7 delegation of ring 2 to the widget origin.
	s.portalPolicy = policy.New(portalOrigin, core.DefaultMaxRing)
	s.portalPolicy.Delegate(widgetOrigin, 2)
	s.policies = map[string]policy.Policy{
		benchOrigin.String():  scenarios.Policy(benchOrigin),
		forumOrigin.String():  forum.Policy(),
		calOrigin.String():    cal.Policy(),
		portalOrigin.String(): s.portalPolicy,
	}
	return s
}

// runServeOnly mounts the substrate on a gateway and serves until the
// stop channel closes (SIGTERM in production), then shuts down
// gracefully and writes its gateway-side stats. Readiness protocol:
// the gateway starts in HoldReady, the address file is written as soon
// as the listener is bound (so a supervisor can begin polling), and
// /healthz flips from "starting" to ok only after a warm self-check
// round-trips a scenario page through the full stack.
func runServeOnly(c *config, stop <-chan struct{}) error {
	addr := c.httpAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	// A cluster supervisor passes -accounts workers×sessions so every
	// worker process gets a private, non-overlapping phpBB account
	// range; a bare serve-only run registers one account per session.
	sub := buildSubstrate(max(c.sessions, c.accounts))
	gwCfg, err := gatewayConfig(sub.policies, c.httpWorkers, c.httpQueue, c.tls)
	if err != nil {
		return err
	}
	// The server's observability plane: registry on /varz, a decision
	// ring on /tracez (enforcement runs in the workers, so the server's
	// ring stays empty — the endpoint existing uniformly across modes
	// is the point), and a runtime sampler for the server process.
	reg := obs.NewRegistry()
	smp := obs.NewSampler(reg, 200*time.Millisecond)
	smp.Start()
	gwCfg.Inner = sub.net
	gwCfg.HoldReady = true
	gwCfg.Obs = reg
	gwCfg.Ring = obs.NewDecisionRing(0)
	gw, err := httpd.New(gwCfg)
	if err != nil {
		return err
	}
	if err := gw.MountNetwork(sub.net); err != nil {
		return err
	}
	if err := gw.Start(addr); err != nil {
		return err
	}
	defer gw.Close() //nolint:errcheck // second Shutdown is a no-op

	// Publish the trust anchor before the address: a worker that can
	// read the address must already be able to read the CA.
	if c.tlsCAOut != "" {
		if err := gwCfg.TLS.WriteCertPEM(c.tlsCAOut); err != nil {
			return err
		}
	}
	if c.addrFile != "" {
		if err := os.WriteFile(c.addrFile, []byte(gw.Addr()), 0o644); err != nil {
			return err
		}
	}

	// Warm self-check: one scenario page through the real stack
	// (socket, vhosting, worker queue, and TLS when on) before
	// declaring readiness.
	var ct *httpd.ClientTransport
	if gwCfg.TLS != nil {
		ct = httpd.NewClientTransportTLS(gw.Addr(), gwCfg.TLS.Pool())
	} else {
		ct = httpd.NewClientTransport(gw.Addr())
	}
	resp, err := ct.RoundTrip(web.NewRequest("GET", benchOrigin.URL(scenarioPaths[0])))
	ct.Close()
	if err != nil {
		return fmt.Errorf("self-check: %w", err)
	}
	if resp.Status != 200 {
		return fmt.Errorf("self-check: scenario page answered %d", resp.Status)
	}
	gw.SetReady(true)
	smp.Mark()
	fmt.Printf("escudo-serve: serving %d origins at %s (tls=%v), ready\n",
		substrateOrigins, gw.Addr(), c.tls)

	<-stop
	fmt.Println("escudo-serve: SIGTERM, draining")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		return fmt.Errorf("graceful shutdown: %w", err)
	}
	if c.statsFile != "" {
		sampStats := smp.Stop()
		if err := writeJSON(c.statsFile, cluster.ServerStats{
			Addr:    gw.Addr(),
			TLS:     c.tls,
			Origins: substrateOrigins,
			Gateway: gw.Stats(),
			Version: obs.Version(),
			Obs:     &sampStats,
		}); err != nil {
			return err
		}
	}
	fmt.Println("escudo-serve: shut down cleanly")
	return nil
}

// clusterTopicID is the seeded phpBB topic every worker browses.
// buildSubstrate seeds exactly one topic into a fresh forum, and phpBB
// IDs are assigned sequentially from 1, so the ID is fixed by
// construction — workers can rely on it without a discovery round-trip.
const clusterTopicID = 1

// runConnect is the worker process: it trusts the remote gateway (via
// the CA bundle when TLS), replays the figure-4 and phpBB workloads
// over the process boundary, replays the §6.4 attack corpus over per-
// environment local gateways (TLS when -tls), cross-checks every
// socket verdict against an in-memory run of the same attack, and
// writes its BENCH shard.
func runConnect(c *config) error {
	start := time.Now()
	if c.tls && c.tlsCA == "" {
		return fmt.Errorf("-connect with -tls needs -tls-ca (the server's CA bundle)")
	}
	// One source of truth: the CA bundle decides TLS for the main
	// transport, the shard label, and the attack-env gateways alike.
	tlsOn := c.tlsCA != ""
	var ct *httpd.ClientTransport
	if tlsOn {
		roots, err := httpd.LoadCAPool(c.tlsCA)
		if err != nil {
			return err
		}
		ct = httpd.NewClientTransportTLS(c.connect, roots)
	} else {
		ct = httpd.NewClientTransport(c.connect)
	}
	defer ct.Close()

	// Worker-side observability: decisions ring into the worker's own
	// trace buffer (the monitors run here, not in the server), the
	// runtime sampler feeds the shard's obs section, and the stage
	// histograms and slow ring feed the shard's slo fragment — the
	// supervisor merges the fleet's.
	plane := newObsPlane(c.olSpec.rate > 0)
	pool, err := engine.NewPool(engine.Config{
		Sessions:  c.sessions,
		Transport: ct,
		Options:   browser.Options{Mode: c.mode, DecisionRing: plane.ring},
		Uncached:  c.uncached,
		Stages:    plane.stages,
		Slow:      plane.slow,
	})
	if err != nil {
		return err
	}
	defer pool.Close()

	shard := cluster.Shard{
		Worker:   c.workerID,
		PID:      os.Getpid(),
		Sessions: c.sessions,
		Mode:     c.mode.String(),
		TLS:      tlsOn,
		Version:  obs.Version(),
	}
	// phase measures one worker phase into the shard: the shared row,
	// the mergeable latency histogram, and the wire requests — ct's
	// plus the extra that fn reports sending over other transports.
	phase := func(name string, fn func() (extra uint64)) error {
		before := ct.Stats()
		var extra uint64
		m, st := measure(pool, name, func() { extra = fn() })
		ph := cluster.ShardPhase{
			Name:      m.Name,
			Tasks:     m.Tasks,
			Errors:    m.Errors,
			P50Ms:     m.P50Ms,
			P99Ms:     m.P99Ms,
			MeanMs:    m.MeanMs,
			ElapsedMs: m.ElapsedMs,
			Requests:  ct.Stats().Sub(before).Requests + extra,
			Hist:      st.Hist,
		}
		if secs := m.ElapsedMs / 1000; secs > 0 {
			ph.ReqsPerSec = float64(ph.Requests) / secs
		}
		shard.Phases = append(shard.Phases, ph)
		if ph.Errors > 0 {
			return fmt.Errorf("worker %d: %s had %d task errors", c.workerID, name, ph.Errors)
		}
		return nil
	}

	if err := warmUp(pool, nil); err != nil {
		return fmt.Errorf("worker %d warmup: %w", c.workerID, err)
	}
	plane.smp.Mark()

	if err := phase("figure4", func() uint64 {
		figure4Rounds(pool, benchOrigin, c.iters)
		return 0
	}); err != nil {
		return err
	}

	// phpBB over the wire, each session logged into its own account
	// from this worker's private range — here crossing the process (and
	// TLS) boundary. Login is inside the phase on purpose: stateful
	// authenticated traffic is part of what the cluster measures.
	accounts := account(c.workerID, c.sessions)
	if c.phpbbIters > 0 {
		if err := phase("phpbb", func() uint64 {
			pool.Each(phpbbTask(clusterTopicID, c.phpbbIters, accounts))
			return 0
		}); err != nil {
			return err
		}
	}

	// Attack replay: each environment is a private substrate, so it
	// runs behind its own local gateway — still real sockets (and TLS
	// when -tls), inside this worker process. The verdict of every
	// socket run must equal the in-memory run's: the transport-
	// independence invariant, asserted per worker. Main-gateway
	// transport and attack wire are reported apart: the gateway path is
	// the long-lived pool whose reuse rate the cluster CI gate asserts,
	// while the attack environments are per-attack throwaway gateways
	// whose connections are new by construction.
	var attackWire httpd.ClientStats
	if c.attacks {
		envCfg, err := gatewayConfig(nil, c.httpWorkers, c.httpQueue, tlsOn)
		if err != nil {
			return err
		}
		wrap, envStats := attackGateways(envCfg)
		var tally *attacksJSON
		var diverged []string
		if err := phase("attacks", func() uint64 {
			_, tally, diverged = replayAttacks(pool, c.mode, wrap, nil)
			_, attackWire = envStats()
			return attackWire.Requests
		}); err != nil {
			return err
		}
		shard.Attacks = &cluster.ShardAttacks{
			Total:       tally.Total,
			Neutralized: tally.Neutralized,
			Succeeded:   tally.Succeeded,
			MatchMemory: len(diverged) == 0,
		}
		if len(diverged) > 0 {
			return fmt.Errorf("worker %d: attack verdicts diverge between in-memory and socket transports", c.workerID)
		}
		ac := cluster.FromClientStats(attackWire)
		shard.AttackClient = &ac
	}

	// Open-loop SLO phase: this worker offers its share of the fleet's
	// Poisson load against the remote gateway and ships the mergeable
	// fragment in its shard. Sessions churn through this worker's
	// private account range.
	if c.olSpec.rate > 0 {
		res, err := driveOpenLoop(pool, c.olSpec, plane.stages, plane.slow, accounts, nil)
		if err != nil {
			return fmt.Errorf("worker %d openloop: %w", c.workerID, err)
		}
		shard.SLO = res
		if res.Errors > 0 {
			return fmt.Errorf("worker %d: openloop had %d task errors", c.workerID, res.Errors)
		}
	}

	shard.Client = cluster.FromClientStats(ct.Stats())
	sampStats := plane.smp.Stop()
	shard.Obs = &sampStats
	shard.ElapsedMs = ms(time.Since(start))
	if err := shard.WriteFile(c.out); err != nil {
		return err
	}
	fmt.Printf("escudo-serve: worker %d done — %d phases, %d wire requests, shard %s\n",
		c.workerID, len(shard.Phases), shard.Client.Requests+attackWire.Requests, c.out)
	return nil
}

// runCluster fork/execs one -serve-only server and N -connect workers
// of this same binary, supervises the run, and merges the shards into
// the `cluster` section of the BENCH report at -out (other sections
// of an existing report are preserved, so a cluster run composes with
// `make serve-http` output).
func runCluster(c *config) error {
	bin := c.clusterBin
	if bin == "" {
		exe, err := os.Executable()
		if err != nil {
			return fmt.Errorf("resolving own binary for fork/exec: %w", err)
		}
		bin = exe
	}
	dir, err := os.MkdirTemp("", "escudo-cluster-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	addrFile := filepath.Join(dir, "addr")
	statsFile := filepath.Join(dir, "server_stats.json")
	caFile := ""
	serverArgs := []string{
		"-serve-only",
		"-http", "127.0.0.1:0",
		"-sessions", strconv.Itoa(c.sessions),
		"-accounts", strconv.Itoa(c.cluster * c.sessions),
		"-http-workers", strconv.Itoa(c.httpWorkers),
		"-http-queue", strconv.Itoa(c.httpQueue),
		"-addr-file", addrFile,
		"-stats-file", statsFile,
	}
	if c.tls {
		caFile = filepath.Join(dir, "ca.pem")
		serverArgs = append(serverArgs, "-tls", "-tls-ca-out", caFile)
	}
	shardFiles := make([]string, c.cluster)
	for i := range shardFiles {
		shardFiles[i] = filepath.Join(dir, fmt.Sprintf("shard_%d.json", i))
	}

	sup, err := cluster.NewSupervisor(cluster.Config{
		Server:          cluster.Spec{Name: "server", Path: bin, Args: serverArgs},
		NumWorkers:      c.cluster,
		AddrFile:        addrFile,
		CAFile:          caFile,
		ShardFiles:      shardFiles,
		ServerStatsFile: statsFile,
		ExpectOrigins:   substrateOrigins,
		ExpectPolicies:  substratePolicies,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
		Worker: func(i int, addr string) cluster.Spec {
			args := []string{
				"-connect", addr,
				"-worker-id", strconv.Itoa(i),
				"-sessions", strconv.Itoa(c.sessions),
				"-iters", strconv.Itoa(c.iters),
				"-phpbb-iters", strconv.Itoa(c.phpbbIters),
				"-mode", c.modeName,
				fmt.Sprintf("-attacks=%v", c.attacks),
				fmt.Sprintf("-uncached=%v", c.uncached),
				"-http-workers", strconv.Itoa(c.httpWorkers),
				"-http-queue", strconv.Itoa(c.httpQueue),
				"-out", shardFiles[i],
			}
			if c.tls {
				args = append(args, "-tls", "-tls-ca", caFile)
			}
			if c.openloop != "" {
				args = append(args, "-openloop", c.openloop)
			}
			return cluster.Spec{Name: fmt.Sprintf("worker-%d", i), Path: bin, Args: args}
		},
	})
	if err != nil {
		return err
	}
	rep, err := sup.Run(context.Background())
	if err != nil {
		return err
	}

	// Merge into the report file: a cluster run refreshes the cluster
	// section and leaves any other sections (in-memory phases, http,
	// policy) from an earlier run intact.
	var report benchJSON
	if data, err := os.ReadFile(c.out); err == nil {
		if err := json.Unmarshal(data, &report); err != nil {
			return fmt.Errorf("existing %s is not a BENCH report (move it aside): %w", c.out, err)
		}
	} else {
		report.Sessions = c.cluster * c.sessions
		report.Mode = c.modeName
		report.GoMaxProcs = 0
	}
	report.Cluster = rep
	if err := writeJSON(c.out, report); err != nil {
		return err
	}

	fmt.Printf("ESCUDO cluster — 1 server + %d workers × %d sessions, tls=%v, server %s\n",
		rep.Workers, rep.SessionsPerWorker, rep.TLS, rep.Addr)
	fmt.Printf("ready in %.0f ms (%d starting polls)\n\n", rep.ReadyMs, rep.StartingPolls)
	t := metrics.NewTable("Phase", "Tasks", "Reqs", "Aggregate reqs/s", "p50 (ms)", "p99 (ms)")
	for _, ph := range rep.Phases {
		t.AddRow(ph.Name,
			fmt.Sprintf("%d", ph.Tasks),
			fmt.Sprintf("%d", ph.Requests),
			fmt.Sprintf("%.0f", ph.ReqsPerSec),
			fmt.Sprintf("%.3f", ph.P50Ms),
			fmt.Sprintf("%.3f", ph.P99Ms))
	}
	fmt.Print(t.String())
	fmt.Println()
	wt := metrics.NewTable("Worker", "PID", "Tasks", "Reqs/s", "p99 (ms)", "Attacks neutralized")
	for _, w := range rep.PerWorker {
		wt.AddRow(fmt.Sprintf("worker-%d", w.Worker),
			fmt.Sprintf("%d", w.PID),
			fmt.Sprintf("%d", w.Tasks),
			fmt.Sprintf("%.0f", w.ReqsPerSec),
			fmt.Sprintf("%.3f", w.P99Ms),
			fmt.Sprintf("%d/%d", w.AttacksNeutralized, rep.AttacksTotal))
	}
	fmt.Print(wt.String())
	if rep.AttacksTotal > 0 {
		fmt.Printf("\nAttack corpus across %d processes: %d/%d neutralized (verdicts match in-memory: %v)\n",
			rep.Workers, rep.AttacksNeutralized, rep.AttacksTotal, rep.AttacksMatchMemory)
	}
	proto := rep.Client.Proto
	if proto == "" {
		proto = "?"
	}
	fmt.Printf("Gateway transport across workers: proto %s, %d new, %d reused (%.1f%% reuse)\n",
		proto, rep.Client.NewConns, rep.Client.ReusedConns, 100*rep.Client.ReuseRate)
	if ac := rep.AttackClient; ac != nil {
		fmt.Printf("Attack-env wire (throwaway gateways): %d requests, %d new conns\n",
			ac.Requests, ac.NewConns)
	}
	if o := rep.Obs; o != nil {
		fmt.Printf("Fleet obs (%s): %d samples, goroutines post-warmup/last %d/%d (summed), %d GC cycles\n",
			rep.Version.Go, o.Samples, o.PostWarmupGoroutines, o.Goroutines.Last, o.NumGC)
	}
	if s := rep.SLO; s != nil {
		if err := printSLO(s); err != nil {
			return err
		}
	}
	fmt.Printf("\nWrote cluster section to %s (%.0f ms total)\n", c.out, rep.ElapsedMs)
	return nil
}
