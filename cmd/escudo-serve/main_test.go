package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestServeEmitsBenchJSON runs the full driver at the acceptance
// configuration — 8 concurrent sessions, all Figure-4 scenarios, the
// phpBB workload, the §6.4 attack corpus — and checks the emitted
// BENCH_engine.json: clean run, >50% cache hit rate on the phpBB
// phase, every attack neutralized under ESCUDO. Under `go test -race`
// this doubles as the pool-level race check.
func TestServeEmitsBenchJSON(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_engine.json")
	err := run([]string{"-sessions", "8", "-iters", "2", "-phpbb-iters", "6", "-out", out})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("read output: %v", err)
	}
	var report benchJSON
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("parse output: %v", err)
	}
	if report.Sessions != 8 {
		t.Fatalf("sessions = %d, want 8", report.Sessions)
	}
	byName := map[string]phaseJSON{}
	for _, ph := range report.Phases {
		byName[ph.Name] = ph
		if ph.Errors != 0 {
			t.Errorf("phase %s had %d errors", ph.Name, ph.Errors)
		}
		if ph.Tasks == 0 {
			t.Errorf("phase %s ran no tasks", ph.Name)
		}
		if ph.Decisions == 0 {
			t.Errorf("phase %s recorded no decisions", ph.Name)
		}
	}
	for _, want := range []string{"figure4", "phpbb", "mixed", "attacks"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("missing phase %q in %v", want, report.Phases)
		}
	}
	bb := byName["phpbb"]
	if bb.Cache == nil {
		t.Fatal("phpbb phase has no cache stats")
	}
	if bb.Cache.HitRate <= 0.5 {
		t.Fatalf("phpbb cache hit rate %.3f, want > 0.5", bb.Cache.HitRate)
	}
	if bb.Batch == nil {
		t.Fatal("phpbb phase has no batch stats")
	}
	if bb.Batch.DistinctDecisions >= bb.Batch.NodesAuthorized {
		t.Fatalf("phpbb batch: distinct %d >= nodes %d, want deduplication",
			bb.Batch.DistinctDecisions, bb.Batch.NodesAuthorized)
	}
	if mx := byName["mixed"]; mx.Batch == nil || mx.Batch.DistinctDecisions >= mx.Batch.NodesAuthorized {
		t.Errorf("mixed phase batch stats missing or undeduplicated: %+v", mx.Batch)
	}
	atk := byName["attacks"].Attacks
	if atk == nil {
		t.Fatal("attacks phase has no attack stats")
	}
	if atk.Neutralized != atk.Total || atk.Succeeded != 0 {
		t.Fatalf("ESCUDO neutralized %d/%d (succeeded %d), want all",
			atk.Neutralized, atk.Total, atk.Succeeded)
	}
	// Script section: both engines measured, the VM ahead on time and
	// allocations, and the run's <script> traffic visible in the
	// compile cache. The thresholds here are deliberately looser than
	// the CI acceptance gate (≥3×, ≤0.25×) because `go test -race`
	// distorts timings; the jq assert on a real driver run pins the
	// real numbers.
	s := report.Script
	if s == nil {
		t.Fatal("report has no script section")
	}
	if s.Eval.OpsPerSec <= 0 || s.VM.OpsPerSec <= 0 {
		t.Fatalf("script section measured nothing: %+v", s)
	}
	if s.Speedup <= 1 {
		t.Errorf("script VM speedup %.2f, want > 1", s.Speedup)
	}
	if s.AllocRatio <= 0 || s.AllocRatio >= 0.5 {
		t.Errorf("script VM alloc ratio %.3f, want in (0, 0.5)", s.AllocRatio)
	}
	if s.CompileCacheHits == 0 || s.CompileCacheMisses == 0 {
		t.Errorf("compile cache saw no traffic: %d hits / %d misses",
			s.CompileCacheHits, s.CompileCacheMisses)
	}
}

// TestDefaultLoadBatchCounts pins the batched-authorization counts of
// the default load (no flags but -out): figure4 authorizes 4175 nodes
// in 125 distinct decisions, and phpbb and mixed compute 1312 and 512
// distinct decisions. These are the complete-mediation pins the
// equivalence invariant promises — no refactor of the monitor stack
// may change how many decisions the batch path computes. The phpbb and
// mixed node totals are deliberately not pinned: they vary by a few
// dozen nodes from run to run.
func TestDefaultLoadBatchCounts(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_engine.json")
	if err := run([]string{"-out", out}); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("read output: %v", err)
	}
	var report benchJSON
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("parse output: %v", err)
	}
	batch := map[string]*batchJSON{}
	for _, ph := range report.Phases {
		batch[ph.Name] = ph.Batch
	}
	for _, want := range []struct {
		phase           string
		nodes, distinct uint64
	}{
		{"figure4", 4175, 125},
		{"phpbb", 0, 1312},
		{"mixed", 0, 512},
	} {
		b := batch[want.phase]
		if b == nil {
			t.Errorf("phase %s has no batch stats", want.phase)
			continue
		}
		if want.nodes != 0 && b.NodesAuthorized != want.nodes {
			t.Errorf("%s nodes_authorized = %d, want %d", want.phase, b.NodesAuthorized, want.nodes)
		}
		if b.DistinctDecisions != want.distinct {
			t.Errorf("%s distinct_decisions = %d, want %d", want.phase, b.DistinctDecisions, want.distinct)
		}
	}
}

// TestServeSOPBaseline replays the corpus under the legacy monitor:
// attacks must succeed there (the paper's Figure-5 contrast), which
// guards against the cache accidentally hardening SOP mode.
func TestServeSOPBaseline(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_engine.json")
	err := run([]string{"-sessions", "4", "-iters", "1", "-phpbb-iters", "2",
		"-mode", "sop", "-script-iters", "0", "-out", out})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report benchJSON
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	for _, ph := range report.Phases {
		if ph.Attacks != nil && ph.Attacks.Succeeded == 0 {
			t.Fatal("no attack succeeded under SOP; the baseline lost its teeth")
		}
	}
}

// TestServeUncached checks the -uncached baseline emits no cache
// section and still completes cleanly.
func TestServeUncached(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_engine.json")
	err := run([]string{"-sessions", "2", "-iters", "1", "-phpbb-iters", "2",
		"-attacks=false", "-uncached", "-script-iters", "0", "-out", out})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report benchJSON
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if !report.Uncached {
		t.Fatal("report not marked uncached")
	}
	for _, ph := range report.Phases {
		if ph.Cache != nil {
			t.Fatalf("uncached run emitted cache stats in phase %s", ph.Name)
		}
	}
}

// TestServeRejectsBadMode pins flag validation: every bad combination
// fails in parseFlags, before any role or phase starts — so the run
// neither writes -out nor creates the -cpuprofile it would open first.
func TestServeRejectsBadMode(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"bad mode", []string{"-mode", "bogus"}, "-mode"},
		{"no sessions", []string{"-sessions", "0"}, "-sessions"},
		{"tls without gateway", []string{"-tls"}, "-tls needs a gateway"},
		{"control with one tenant", []string{"-control", "-tenants", "1"}, "-tenants"},
		{"ca out without tls", []string{"-serve-only", "-tls-ca-out", "ca.pem"}, "-tls-ca-out"},
		{"bad openloop", []string{"-openloop", "rate=0,duration=1s"}, "-openloop"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			out, prof := filepath.Join(dir, "BENCH_engine.json"), filepath.Join(dir, "cpu.pprof")
			args := append(tc.args, "-out", out, "-cpuprofile", prof)
			err := run(args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q) = %v, want an error mentioning %q", tc.args, err, tc.want)
			}
			for _, f := range []string{out, prof} {
				if _, err := os.Stat(f); err == nil {
					t.Errorf("run(%q) got as far as writing %s", tc.args, filepath.Base(f))
				}
			}
		})
	}
}

// TestServeHTTPSection runs the driver with the gateway enabled and
// checks the http section of the report: the loopback phases really
// went over sockets (requests counted, latency measured), the page
// cache saw the immutable fixtures, and the attack corpus over
// sockets is fully neutralized with verdicts identical to in-memory.
func TestServeHTTPSection(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_engine.json")
	err := run([]string{"-sessions", "4", "-iters", "2", "-phpbb-iters", "2",
		"-mixed-iters", "2", "-http", "127.0.0.1:0", "-script-iters", "0", "-out", out})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report benchJSON
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	h := report.HTTP
	if h == nil {
		t.Fatal("report has no http section")
	}
	if h.Addr == "" {
		t.Fatal("http section has no gateway address")
	}
	byName := map[string]httpPhaseJSON{}
	for _, ph := range h.Phases {
		byName[ph.Name] = ph
		if ph.Errors != 0 {
			t.Errorf("phase %s had %d errors", ph.Name, ph.Errors)
		}
	}
	fig, ok := byName["http-figure4"]
	if !ok {
		t.Fatalf("missing http-figure4 phase in %+v", h.Phases)
	}
	if fig.Requests == 0 || fig.ReqsPerSec <= 0 || fig.P50Ms <= 0 {
		t.Fatalf("http-figure4 did not measure socket traffic: %+v", fig)
	}
	if fig.CacheHits == 0 {
		t.Fatalf("scenario fixtures never hit the page cache: %+v", fig)
	}
	if mx, ok := byName["http-mixed"]; !ok || mx.Requests == 0 {
		t.Fatalf("http-mixed missing or inert: %+v", mx)
	}
	// Workload parity: the socket phases run the same shared workload
	// functions as their in-memory twins, so they complete the same
	// number of tasks.
	memTasks := map[string]uint64{}
	for _, ph := range report.Phases {
		memTasks[ph.Name] = ph.Tasks
	}
	for httpName, memName := range map[string]string{"http-figure4": "figure4", "http-mixed": "mixed"} {
		if got, want := byName[httpName].Tasks, memTasks[memName]; got != want || want == 0 {
			t.Errorf("%s tasks = %d, %s tasks = %d: the workloads diverge", httpName, got, memName, want)
		}
	}
	if h.Attacks == nil {
		t.Fatal("http section has no attack stats")
	}
	atk, ok := byName["http-attacks"]
	if !ok || atk.Requests == 0 {
		t.Fatalf("http-attacks phase missing or counted no per-env gateway traffic: %+v", atk)
	}
	// Each attack gateway counts only its own traffic, so the phase
	// total is exactly what the attack transports put on the wire.
	if h.AttackClient == nil || atk.Requests != h.AttackClient.Requests {
		t.Fatalf("http-attacks gateways served %d requests, attack transports sent %+v",
			atk.Requests, h.AttackClient)
	}
	if h.Attacks.Neutralized != h.Attacks.Total || h.Attacks.Succeeded != 0 {
		t.Fatalf("over sockets: neutralized %d/%d (succeeded %d), want all",
			h.Attacks.Neutralized, h.Attacks.Total, h.Attacks.Succeeded)
	}
	if h.AttacksMatchMemory == nil || !*h.AttacksMatchMemory {
		t.Fatal("attack verdicts over sockets not confirmed against in-memory")
	}
	if h.Gateway.Served == 0 {
		t.Fatalf("gateway served nothing: %+v", h.Gateway)
	}
}
