package cluster

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// histOf buckets a set of durations for test shards.
func histOf(ds ...time.Duration) metrics.Histogram {
	var h metrics.Histogram
	for _, d := range ds {
		h.Observe(d)
	}
	return h
}

func testShard(worker int, p99Low bool) Shard {
	lat := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	if !p99Low {
		lat = append(lat, 80*time.Millisecond)
	}
	return Shard{
		Worker:   worker,
		PID:      1000 + worker,
		Sessions: 2,
		Mode:     "escudo",
		TLS:      true,
		Phases: []ShardPhase{
			{
				Name: "figure4", Tasks: 40, Requests: 120, ReqsPerSec: 600,
				P50Ms: 2, P99Ms: 3, ElapsedMs: 200, Hist: histOf(lat...),
			},
			{
				Name: "attacks", Tasks: 18, Requests: 90, ReqsPerSec: 300,
				P50Ms: 5, P99Ms: 9, ElapsedMs: 300, Hist: histOf(5*time.Millisecond, 9*time.Millisecond),
			},
		},
		Attacks:   &ShardAttacks{Total: 18, Neutralized: 18, MatchMemory: true},
		Client:    ClientJSON{Requests: 210, NewConns: 10, ReusedConns: 200},
		Version:   obs.Version(),
		ElapsedMs: 500,
	}
}

func TestMergeShards(t *testing.T) {
	a := testShard(0, true)
	b := testShard(1, false)
	rep, err := MergeShards([]Shard{a, b})
	if err != nil {
		t.Fatalf("MergeShards: %v", err)
	}
	if rep.Workers != 2 || !rep.TLS || rep.SessionsPerWorker != 2 {
		t.Fatalf("header fields wrong: %+v", rep)
	}
	if len(rep.Phases) != 2 || rep.Phases[0].Name != "figure4" || rep.Phases[1].Name != "attacks" {
		t.Fatalf("phase order lost: %+v", rep.Phases)
	}
	fig := rep.Phases[0]
	if fig.Tasks != 80 || fig.Requests != 240 {
		t.Fatalf("sums wrong: %+v", fig)
	}
	if fig.ReqsPerSec != 1200 {
		t.Fatalf("aggregate reqs/s = %v, want 1200", fig.ReqsPerSec)
	}
	// Merged p99 must reflect worker 1's slow tail (80ms), which no
	// average of per-worker percentiles would reveal.
	if fig.P99Ms < 70 {
		t.Fatalf("merged p99 %.1f ms misses the slow worker's tail", fig.P99Ms)
	}
	if fig.P50Ms > 5 {
		t.Fatalf("merged p50 %.1f ms inflated", fig.P50Ms)
	}
	if rep.AttacksTotal != 18 || rep.AttacksNeutralized != 18 || !rep.AttacksMatchMemory {
		t.Fatalf("attack tally wrong: %+v", rep)
	}
	if rep.Client.Requests != 420 || rep.Client.ReusedConns != 400 {
		t.Fatalf("client sums wrong: %+v", rep.Client)
	}
	if len(rep.PerWorker) != 2 || rep.PerWorker[0].PID != 1000 || rep.PerWorker[1].AttacksNeutralized != 18 {
		t.Fatalf("per-worker rows wrong: %+v", rep.PerWorker)
	}
}

func TestMergeShardsWeakestAttackTally(t *testing.T) {
	a := testShard(0, true)
	b := testShard(1, true)
	b.Attacks = &ShardAttacks{Total: 18, Neutralized: 17, Succeeded: 1, MatchMemory: false}
	rep, err := MergeShards([]Shard{a, b})
	if err != nil {
		t.Fatalf("MergeShards: %v", err)
	}
	if rep.AttacksNeutralized != 17 || rep.AttacksSucceeded != 1 || rep.AttacksMatchMemory {
		t.Fatalf("merged tally must take the weakest worker: %+v", rep)
	}
}

func TestMergeShardsRejectsMixedTLS(t *testing.T) {
	a := testShard(0, true)
	b := testShard(1, true)
	b.TLS = false
	if _, err := MergeShards([]Shard{a, b}); err == nil {
		t.Fatal("mixed TLS shards merged silently")
	}
}

func TestMergeShardsRejectsMixedBuilds(t *testing.T) {
	a := testShard(0, true)
	b := testShard(1, true)
	b.Version.Go = "go0.0-other"
	if _, err := MergeShards([]Shard{a, b}); err == nil {
		t.Fatal("mismatched build stamps merged silently")
	}

	// A pre-observability shard (zero stamp) must still merge: old
	// reports keep working, and the fleet stamp comes from the shard
	// that has one.
	c := testShard(2, true)
	c.Version = obs.Stamp{}
	rep, err := MergeShards([]Shard{c, a})
	if err != nil {
		t.Fatalf("zero-stamp shard refused: %v", err)
	}
	if !obs.SameBinary(rep.Version, a.Version) {
		t.Fatalf("fleet stamp not adopted from the stamped shard: %+v", rep.Version)
	}
}

func TestMergeShardsObs(t *testing.T) {
	a := testShard(0, true)
	b := testShard(1, true)
	a.Obs = &obs.SamplerStats{
		Samples:        10,
		Goroutines:     obs.SeriesInt{First: 20, Last: 22, Min: 18, Max: 30},
		HeapAllocBytes: obs.SeriesInt{First: 1000, Last: 1200, Min: 900, Max: 1500},
		NumGC:          4,
	}
	b.Obs = &obs.SamplerStats{
		Samples:        12,
		Goroutines:     obs.SeriesInt{First: 25, Last: 24, Min: 21, Max: 40},
		HeapAllocBytes: obs.SeriesInt{First: 2000, Last: 2500, Min: 2000, Max: 2600},
		NumGC:          6,
	}
	rep, err := MergeShards([]Shard{a, b})
	if err != nil {
		t.Fatalf("MergeShards: %v", err)
	}
	if rep.Obs == nil {
		t.Fatal("merged report lost the obs section")
	}
	if rep.Obs.Samples != 22 || rep.Obs.NumGC != 10 {
		t.Fatalf("obs scalar sums wrong: %+v", rep.Obs)
	}
	if rep.Obs.Goroutines.Max != 70 || rep.Obs.HeapAllocBytes.Last != 3700 {
		t.Fatalf("obs series sums wrong: %+v", rep.Obs)
	}

	// One-sided: a fleet where only some workers sample still reports.
	c := testShard(2, true)
	rep, err = MergeShards([]Shard{c, a})
	if err != nil {
		t.Fatalf("MergeShards: %v", err)
	}
	if rep.Obs == nil || rep.Obs.Samples != 10 {
		t.Fatalf("partial obs fleet mis-merged: %+v", rep.Obs)
	}
}

func TestMergeShardsEmpty(t *testing.T) {
	if _, err := MergeShards(nil); err == nil {
		t.Fatal("empty merge succeeded")
	}
}

func TestShardFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.json")
	want := testShard(3, false)
	if err := want.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadShard(path)
	if err != nil {
		t.Fatalf("ReadShard: %v", err)
	}
	if got.Worker != 3 || got.PID != want.PID || len(got.Phases) != 2 ||
		got.Phases[0].Hist.Total() != want.Phases[0].Hist.Total() {
		t.Fatalf("round trip diverged: %+v", got)
	}
	if _, err := ReadShard(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("ReadShard on missing file succeeded")
	}
}
