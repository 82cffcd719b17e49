package cluster

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/httpd"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/slo"
)

// ShardPhase is one measured phase inside a worker's BENCH shard.
// Point percentiles describe the worker alone; Hist is the bucketed
// form the supervisor merges for fleet-wide percentiles.
type ShardPhase struct {
	Name      string  `json:"name"`
	Tasks     uint64  `json:"tasks"`
	Errors    int     `json:"errors"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	MeanMs    float64 `json:"mean_ms"`
	ElapsedMs float64 `json:"elapsed_ms"`
	// Requests counts client-side round trips during the phase (the
	// worker cannot see the remote gateway's counters, so it counts
	// its own wire traffic).
	Requests   uint64            `json:"requests"`
	ReqsPerSec float64           `json:"reqs_per_sec"`
	Hist       metrics.Histogram `json:"latency_hist"`
}

// ShardAttacks is a worker's §6.4 attack replay tally.
type ShardAttacks struct {
	Total       int `json:"total"`
	Neutralized int `json:"neutralized"`
	Succeeded   int `json:"succeeded"`
	// MatchMemory reports the worker's runtime cross-check: every
	// verdict over sockets equaled the in-memory verdict.
	MatchMemory bool `json:"match_memory"`
}

// ClientJSON is a transport's connection accounting. Proto names the
// negotiated wire protocol of the counted traffic ("h2"/"h1", "" when
// nothing was counted); H2Requests is the raw count behind it.
type ClientJSON struct {
	Requests    uint64  `json:"requests"`
	NewConns    uint64  `json:"new_conns"`
	ReusedConns uint64  `json:"reused_conns"`
	ReuseRate   float64 `json:"reuse_rate"`
	H2Requests  uint64  `json:"h2_requests"`
	Proto       string  `json:"proto,omitempty"`
}

// FromClientStats converts transport counters to the JSON shape.
func FromClientStats(s httpd.ClientStats) ClientJSON {
	return ClientJSON{
		Requests:    s.Requests,
		NewConns:    s.NewConns,
		ReusedConns: s.ReusedConns,
		ReuseRate:   s.ReuseRate(),
		H2Requests:  s.H2Requests,
		Proto:       s.Proto(),
	}
}

// Shard is the BENCH fragment one loadgen worker process writes; the
// supervisor merges the fleet's shards into a Report.
type Shard struct {
	Worker   int           `json:"worker"`
	PID      int           `json:"pid"`
	Sessions int           `json:"sessions"`
	Mode     string        `json:"mode"`
	TLS      bool          `json:"tls"`
	Phases   []ShardPhase  `json:"phases"`
	Attacks  *ShardAttacks `json:"attacks,omitempty"`
	// Client is the worker's main-gateway transport: the long-lived
	// connection pool whose reuse rate the cluster CI gate asserts.
	Client ClientJSON `json:"client"`
	// AttackClient accounts the attack-replay wire traffic separately:
	// each §6.4 environment is a throwaway substrate behind its own
	// ephemeral gateway and transport, so its connections are new by
	// design and would drag Client's reuse rate if folded in.
	AttackClient *ClientJSON `json:"attack_client,omitempty"`
	// Version stamps the worker binary; the merge refuses shards from
	// mismatched builds, since their numbers are not comparable.
	Version obs.Stamp `json:"version"`
	// Obs is the worker's runtime sampler summary (goroutines, heap,
	// GC) over its run; absent when the worker did not sample.
	Obs *obs.SamplerStats `json:"obs,omitempty"`
	// SLO is the worker's open-loop section (written by -openloop
	// workers): mergeable histograms the supervisor folds into the
	// fleet-wide slo view.
	SLO       *slo.Result `json:"slo,omitempty"`
	ElapsedMs float64     `json:"elapsed_ms"`
}

// WriteFile serializes the shard to path.
func (s Shard) WriteFile(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadShard loads a worker's shard file.
func ReadShard(path string) (Shard, error) {
	var s Shard
	data, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("cluster: reading shard: %w", err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("cluster: parsing shard %s: %w", path, err)
	}
	return s, nil
}

// MergedPhase is one phase aggregated across all workers: summed
// throughput, histogram-merged percentiles.
type MergedPhase struct {
	Name   string `json:"name"`
	Tasks  uint64 `json:"tasks"`
	Errors int    `json:"errors"`
	// Requests and ReqsPerSec sum the workers (the phases run
	// concurrently, so summed rates are the fleet's aggregate
	// throughput against the shared server process).
	Requests   uint64  `json:"requests"`
	ReqsPerSec float64 `json:"reqs_per_sec"`
	// P50Ms/P99Ms come from the merged latency histograms — the only
	// honest way to combine percentiles across processes.
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

// WorkerRow is one worker's line in the per-process breakdown.
type WorkerRow struct {
	Worker             int     `json:"worker"`
	PID                int     `json:"pid"`
	Sessions           int     `json:"sessions"`
	Tasks              uint64  `json:"tasks"`
	Errors             int     `json:"errors"`
	ReqsPerSec         float64 `json:"reqs_per_sec"`
	P50Ms              float64 `json:"p50_ms"`
	P99Ms              float64 `json:"p99_ms"`
	AttacksNeutralized int     `json:"attacks_neutralized"`
}

// ServerStats is what the serve-only process writes on graceful
// shutdown — the gateway-side view of the run.
type ServerStats struct {
	Addr    string      `json:"addr"`
	TLS     bool        `json:"tls"`
	Origins int         `json:"origins"`
	Gateway httpd.Stats `json:"gateway"`
	// Version stamps the server binary, cross-checked against the
	// workers' stamps by the supervisor.
	Version obs.Stamp `json:"version"`
	// Obs is the server process's runtime sampler summary.
	Obs *obs.SamplerStats `json:"obs,omitempty"`
}

// Report is the merged `cluster` section of BENCH_engine.json.
type Report struct {
	Workers           int    `json:"workers"`
	SessionsPerWorker int    `json:"sessions_per_worker"`
	TLS               bool   `json:"tls"`
	Addr              string `json:"addr"`
	// ReadyMs is how long the server took from spawn to a ready
	// /healthz; StartingPolls counts the "starting" (503) responses
	// the readiness poll observed first.
	ReadyMs       float64       `json:"ready_ms"`
	StartingPolls int           `json:"starting_polls"`
	Phases        []MergedPhase `json:"phases"`
	PerWorker     []WorkerRow   `json:"per_worker"`
	// Attack tally: Total is the corpus size (identical across
	// workers), Neutralized the minimum across workers — 18 only when
	// every process neutralized all 18.
	AttacksTotal       int  `json:"attacks_total"`
	AttacksNeutralized int  `json:"attacks_neutralized"`
	AttacksSucceeded   int  `json:"attacks_succeeded"`
	AttacksMatchMemory bool `json:"attacks_match_memory"`
	// Client sums the workers' main-gateway connection accounting.
	// Attack-environment wire traffic is kept apart in AttackClient:
	// those gateways are per-attack throwaways whose connections can
	// never be reused, so mixing them in would understate how well the
	// long-lived gateway path multiplexes.
	Client ClientJSON `json:"client"`
	// AttackClient sums the workers' attack-replay wire accounting
	// (absent when no worker replayed attacks).
	AttackClient *ClientJSON `json:"attack_client,omitempty"`
	// Server is the gateway-side stats written at graceful shutdown
	// (absent when the server stats file was not configured).
	Server *ServerStats `json:"server,omitempty"`
	// Version is the fleet's common build stamp (all shards must agree
	// on module version and Go toolchain for their numbers to merge).
	Version obs.Stamp `json:"version"`
	// Obs merges the workers' runtime sampler summaries: goroutine and
	// heap series are summed across processes, GC totals accumulated,
	// and the drift leak verdicts ORed. Absent when no worker sampled.
	Obs *obs.SamplerStats `json:"obs,omitempty"`
	// SLO merges the workers' open-loop sections: counts and histogram
	// buckets sum, quantiles recomputed from the merged buckets, the
	// leak verdict ORed — one leaking worker fails the fleet gate.
	// Absent when no worker ran -openloop.
	SLO       *slo.Result `json:"slo,omitempty"`
	ElapsedMs float64     `json:"elapsed_ms"`
}

// MergeShards folds the workers' shards into the cluster report
// skeleton (supervisor-level fields — Addr, ReadyMs, Server — are
// filled by the caller).
func MergeShards(shards []Shard) (*Report, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards to merge")
	}
	rep := &Report{
		Workers:            len(shards),
		SessionsPerWorker:  shards[0].Sessions,
		TLS:                shards[0].TLS,
		AttacksMatchMemory: true,
	}

	type acc struct {
		phase MergedPhase
		hist  metrics.Histogram
	}
	var order []string
	accs := map[string]*acc{}
	var clientSum, attackSum httpd.ClientStats
	haveAttacks := false
	haveAttackClient := false

	rep.Version = shards[0].Version
	var obsAcc *obs.SamplerStats

	for _, sh := range shards {
		if sh.TLS != rep.TLS {
			return nil, fmt.Errorf("cluster: worker %d TLS=%v disagrees with worker %d TLS=%v",
				sh.Worker, sh.TLS, shards[0].Worker, rep.TLS)
		}
		// Pre-observability shards carry a zero stamp; those are merged
		// leniently so old reports keep working. Any two non-zero
		// stamps must come from the same build.
		if sh.Version != (obs.Stamp{}) && rep.Version != (obs.Stamp{}) && !obs.SameBinary(sh.Version, rep.Version) {
			return nil, fmt.Errorf("cluster: worker %d runs %s/%s, worker %d runs %s/%s — refusing to merge mismatched builds",
				sh.Worker, sh.Version.Module, sh.Version.Go, shards[0].Worker, rep.Version.Module, rep.Version.Go)
		}
		if rep.Version == (obs.Stamp{}) {
			rep.Version = sh.Version
		}
		if sh.Obs != nil {
			if obsAcc == nil {
				cp := *sh.Obs
				obsAcc = &cp
			} else {
				obsAcc.Merge(*sh.Obs)
			}
		}
		if sh.SLO != nil {
			if rep.SLO == nil {
				rep.SLO = &slo.Result{}
			}
			rep.SLO.Merge(*sh.SLO)
		}
		for _, ph := range sh.Phases {
			a, ok := accs[ph.Name]
			if !ok {
				a = &acc{phase: MergedPhase{Name: ph.Name}}
				accs[ph.Name] = a
				order = append(order, ph.Name)
			}
			a.phase.Tasks += ph.Tasks
			a.phase.Errors += ph.Errors
			a.phase.Requests += ph.Requests
			a.phase.ReqsPerSec += ph.ReqsPerSec
			if ph.ElapsedMs > a.phase.ElapsedMs {
				a.phase.ElapsedMs = ph.ElapsedMs
			}
			a.hist.Merge(ph.Hist)
		}

		row := WorkerRow{
			Worker:   sh.Worker,
			PID:      sh.PID,
			Sessions: sh.Sessions,
		}
		for _, ph := range sh.Phases {
			row.Tasks += ph.Tasks
			row.Errors += ph.Errors
			row.ReqsPerSec += ph.ReqsPerSec
			if ph.P99Ms > row.P99Ms {
				row.P99Ms = ph.P99Ms
				row.P50Ms = ph.P50Ms
			}
		}
		if sh.Attacks != nil {
			haveAttacks = true
			row.AttacksNeutralized = sh.Attacks.Neutralized
			if rep.AttacksTotal == 0 {
				rep.AttacksTotal = sh.Attacks.Total
				rep.AttacksNeutralized = sh.Attacks.Neutralized
			} else {
				if sh.Attacks.Total != rep.AttacksTotal {
					return nil, fmt.Errorf("cluster: worker %d ran %d attacks, others %d",
						sh.Worker, sh.Attacks.Total, rep.AttacksTotal)
				}
				if sh.Attacks.Neutralized < rep.AttacksNeutralized {
					rep.AttacksNeutralized = sh.Attacks.Neutralized
				}
			}
			if sh.Attacks.Succeeded > rep.AttacksSucceeded {
				rep.AttacksSucceeded = sh.Attacks.Succeeded
			}
			rep.AttacksMatchMemory = rep.AttacksMatchMemory && sh.Attacks.MatchMemory
		}
		clientSum = clientSum.Add(httpd.ClientStats{
			Requests:    sh.Client.Requests,
			NewConns:    sh.Client.NewConns,
			ReusedConns: sh.Client.ReusedConns,
			H2Requests:  sh.Client.H2Requests,
		})
		if sh.AttackClient != nil {
			haveAttackClient = true
			attackSum = attackSum.Add(httpd.ClientStats{
				Requests:    sh.AttackClient.Requests,
				NewConns:    sh.AttackClient.NewConns,
				ReusedConns: sh.AttackClient.ReusedConns,
				H2Requests:  sh.AttackClient.H2Requests,
			})
		}
		if sh.ElapsedMs > rep.ElapsedMs {
			rep.ElapsedMs = sh.ElapsedMs
		}
		rep.PerWorker = append(rep.PerWorker, row)
	}

	for _, name := range order {
		a := accs[name]
		a.phase.P50Ms = float64(a.hist.Quantile(50).Nanoseconds()) / 1e6
		a.phase.P99Ms = float64(a.hist.Quantile(99).Nanoseconds()) / 1e6
		rep.Phases = append(rep.Phases, a.phase)
	}
	if !haveAttacks {
		rep.AttacksMatchMemory = false
	}
	rep.Client = FromClientStats(clientSum)
	if haveAttackClient {
		ac := FromClientStats(attackSum)
		rep.AttackClient = &ac
	}
	rep.Obs = obsAcc
	if rep.SLO != nil {
		rep.SLO.Finalize()
	}
	return rep, nil
}
