// The workloads, phase meter and gateway plumbing every mode shares.
// Each is written once: the in-memory driver, the http section, the
// cluster workers, the open-loop driver and the control-plane storm
// all call these, so the same phase does the same work in every mode.
package main

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/httpd"
	"repro/internal/nonce"
	"repro/internal/obs"
	"repro/internal/origin"
	"repro/internal/policy"
	"repro/internal/scenarios"
	"repro/internal/template"
	"repro/internal/web"
)

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

// scenarioPaths are the Figure-4 scenario pages' paths. Naming them
// renders every scenario's markup (thousands of allocations), so it
// happens once, at start-up, and never inside a measured phase.
var scenarioPaths = scenarios.Paths()

// figure4Rounds submits rounds passes over every Figure-4 scenario
// page on o across the pool and waits for them all.
func figure4Rounds(pool *engine.Pool, o origin.Origin, rounds int) {
	for r := 0; r < rounds; r++ {
		for _, path := range scenarioPaths {
			pool.Submit(func(s *engine.Session) error {
				_, err := s.Browser.Navigate(o.URL(path))
				return err
			})
		}
	}
	pool.Wait()
}

// account names the phpBB/PHP-Calendar login of each session in worker
// w's block of sessions: the block is [w×sessions, (w+1)×sessions), so
// no two cluster workers ever share a login. A single-process run is
// worker 0, and session i logs in as user<i>.
func account(w, sessions int) func(sessionID int) string {
	return func(id int) string { return fmt.Sprintf("user%d", w*sessions+id) }
}

// login logs the session into the app at o as user. A front page
// without the login form means the session is already logged in.
func login(s *engine.Session, o origin.Origin, user string) error {
	p, err := s.Browser.Navigate(o.URL("/"))
	if err != nil {
		return err
	}
	form := p.Doc.ByID("loginform")
	if form == nil {
		return nil
	}
	_, err = p.SubmitForm(form, map[string][]string{"username": {user}, "password": {"pw"}})
	return err
}

// phpbbTask is the phpBB browsing task: the session logs into its own
// account, then alternates between the index and topic topicID iters
// times, posting a reply every fifth round. Its decision stream is
// maximally repetitive: the cache's best case and the paper's "active
// session with a trusted site" setting.
func phpbbTask(topicID, iters int, user func(sessionID int) string) engine.Task {
	return func(s *engine.Session) error {
		name := user(s.ID)
		if err := login(s, forumOrigin, name); err != nil {
			return err
		}
		topic := forumOrigin.URL(fmt.Sprintf("/viewtopic?t=%d", topicID))
		for i := 0; i < iters; i++ {
			if _, err := s.Browser.Navigate(forumOrigin.URL("/")); err != nil {
				return err
			}
			tp, err := s.Browser.Navigate(topic)
			if err != nil {
				return err
			}
			if i%5 != 4 {
				continue
			}
			reply := tp.Doc.ByID("replyform")
			if reply == nil {
				return fmt.Errorf("no replyform")
			}
			if _, err := tp.SubmitForm(reply, map[string][]string{
				"message": {fmt.Sprintf("reply from %s round %d", name, i)},
			}); err != nil {
				return err
			}
		}
		return nil
	}
}

// mixedTask builds the mixed-workload session task: the sessions split
// three ways across one substrate — phpBB browsing (sessions must
// already be logged in), PHP-Calendar event tracking (logs in itself),
// and a mashup portal with cross-origin widgets.
func mixedTask(topicID, iters int) engine.Task {
	return func(s *engine.Session) error {
		switch s.ID % 3 {
		case 0: // phpBB browsing.
			for i := 0; i < iters; i++ {
				if _, err := s.Browser.Navigate(forumOrigin.URL("/")); err != nil {
					return err
				}
				if _, err := s.Browser.Navigate(forumOrigin.URL(fmt.Sprintf("/viewtopic?t=%d", topicID))); err != nil {
					return err
				}
			}
		case 1: // PHP-Calendar: log in, add events, re-render the month.
			if err := login(s, calOrigin, fmt.Sprintf("user%d", s.ID)); err != nil {
				return err
			}
			for i := 0; i < iters; i++ {
				mp, err := s.Browser.Navigate(calOrigin.URL("/"))
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
				p, err := s.Browser.Navigate(portalOrigin.URL("/"))
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

// replayAttacks replays the §6.4 corpus across the pool, one attack
// per task, each in a fresh environment sharing the pool's decision
// cache. With wrap nil every attack runs in memory. With wrap set it
// runs over wrap's transport instead, and its verdict is checked
// against the in-memory one: mem[i] when the caller has it from an
// earlier in-memory replay, else an in-memory run inside the same task
// (mem is nil unless wrap is set). It returns the verdict-bearing
// results, their tally, and the attacks whose socket and in-memory
// verdicts differ. An attack's error is its task's error, so it shows
// in the pool's stats.
func replayAttacks(pool *engine.Pool, mode browser.Mode, wrap attack.TransportWrapper, mem []attack.Result) ([]attack.Result, *attacksJSON, []string) {
	corpus := attack.Corpus()
	results := make([]attack.Result, len(corpus))
	inMem := mem
	if mem == nil {
		inMem = make([]attack.Result, len(corpus))
	}
	for i, atk := range corpus {
		pool.Submit(func(*engine.Session) error {
			if mem == nil {
				inMem[i] = attack.RunOneCached(atk, mode, pool.Cache())
				if wrap == nil || inMem[i].Err != nil {
					results[i] = inMem[i]
					return inMem[i].Err
				}
			}
			results[i] = attack.RunOneOver(atk, mode, pool.Cache(), wrap)
			return results[i].Err
		})
	}
	pool.Wait()
	tally := &attacksJSON{Total: len(corpus)}
	var diverged []string
	for i, r := range results {
		if r.Neutralized() {
			tally.Neutralized++
		} else {
			tally.Succeeded++
		}
		if inMem[i].Succeeded != r.Succeeded {
			diverged = append(diverged, corpus[i].Name)
			fmt.Fprintf(os.Stderr,
				"escudo-serve: VERDICT DIVERGENCE %s: in-memory succeeded=%v, sockets succeeded=%v\n",
				corpus[i].Name, inMem[i].Succeeded, r.Succeeded)
		}
	}
	return results, tally, diverged
}

// attackGateways returns the wrapper replayAttacks uses over sockets:
// each attack environment's private network goes behind its own
// loopback gateway built from cfg and torn down with the environment.
// The second result reads the gateway and client stats summed over the
// environments torn down so far. Each gateway counts into a private
// registry (cfg.Obs is dropped): on a shared one every Stats() would
// read the fleet-wide counter, and the sum would add up 18 cumulative
// readings.
func attackGateways(cfg httpd.Config) (attack.TransportWrapper, func() (httpd.Stats, httpd.ClientStats)) {
	cfg.Obs = nil
	var mu sync.Mutex
	var gateways httpd.Stats
	var clients httpd.ClientStats
	wrap := func(n *web.Network) (web.Transport, func(), error) {
		g, c, cleanup, err := httpd.WrapNetwork(n, cfg, "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		return c, func() {
			mu.Lock()
			gateways, clients = gateways.Add(g.Stats()), clients.Add(c.Stats())
			mu.Unlock()
			cleanup()
		}, nil
	}
	return wrap, func() (httpd.Stats, httpd.ClientStats) {
		mu.Lock()
		defer mu.Unlock()
		return gateways, clients
	}
}

// gatewayConfig is the gateway config every mode starts from: each
// policy document mounted on its origin, so the gateway serves it at
// the well-known path and lists it on /policyz (policy as data on the
// wire, enforcement staying browser-side); per-origin worker and queue
// defaults; and, when tlsOn, https terminated with a fresh in-memory CA
// (cfg.TLS).
func gatewayConfig(policies map[string]policy.Policy, workers, queue int, tlsOn bool) (httpd.Config, error) {
	cfg := httpd.Config{
		DefaultWorkers:    workers,
		DefaultQueueDepth: queue,
		Origins:           make(map[string]httpd.OriginConfig, len(policies)),
	}
	for o, doc := range policies {
		cfg.Origins[o] = httpd.OriginConfig{Policy: &doc}
	}
	if tlsOn {
		ca, err := httpd.NewCA()
		if err != nil {
			return cfg, err
		}
		cfg.TLS = ca
	}
	return cfg, nil
}

// obsPlane is a loadgen process's observability plane: one registry
// (exported on /varz when a gateway is mounted), one decision-trace
// ring shared by all sessions, a runtime sampler covering the whole
// run, and the latency-attribution plane — per-stage histograms and
// the slowest-N exemplar ring — threaded through every pool and
// gateway the process builds.
type obsPlane struct {
	reg    *obs.Registry
	ring   *obs.DecisionRing
	smp    *obs.Sampler
	stages *obs.StageSet
	slow   *obs.SlowRing
}

// newObsPlane builds the plane and starts its sampler. Open-loop runs
// widen the ring so the slow exemplars' trace IDs stay resolvable on
// /tracez after the storm.
func newObsPlane(openloop bool) obsPlane {
	reg := obs.NewRegistry()
	ringSize := 0
	if openloop {
		ringSize = 65536
	}
	p := obsPlane{
		reg:    reg,
		ring:   obs.NewDecisionRing(ringSize),
		smp:    obs.NewSampler(reg, 200*time.Millisecond),
		stages: obs.NewStageSet(reg),
		slow:   obs.NewSlowRing(0),
	}
	p.smp.Start()
	return p
}

// phaseStats is the part of a phase row every mode shares: the pool's
// completed tasks, task errors and task latency over the phase.
type phaseStats struct {
	Name  string `json:"name"`
	Tasks uint64 `json:"tasks"`
	// Errors counts harness-level task failures (0 on a clean run).
	Errors    int     `json:"errors"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	MeanMs    float64 `json:"mean_ms"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

// measure is the phase meter of every mode: it labels the pool's
// slow-ring exemplars with the phase name, resets the pool's task
// stats, runs fn, and returns the shared row fields with the pool's
// stats over fn. The returned cache counters are fn's delta (Entries
// stays the live count). Task errors go to stderr under the phase
// name.
func measure(pool *engine.Pool, name string, fn func()) (phaseStats, engine.Stats) {
	pool.SetPhase(name)
	pool.ResetStats()
	var cacheBefore core.CacheStats
	if c := pool.Cache(); c != nil {
		cacheBefore = c.Stats()
	}
	start := time.Now()
	fn()
	elapsed := time.Since(start)

	st := pool.Stats()
	st.Cache = st.Cache.Sub(cacheBefore)
	for _, err := range st.Errors {
		fmt.Fprintf(os.Stderr, "escudo-serve: %s: %v\n", name, err)
	}
	return phaseStats{
		Name:      name,
		Tasks:     st.Tasks,
		Errors:    len(st.Errors),
		P50Ms:     ms(st.P50),
		P99Ms:     ms(st.P99),
		MeanMs:    ms(st.Mean),
		ElapsedMs: ms(elapsed),
	}, st
}

// runPhase measures one in-memory pool phase and adds the monitor's
// side to its row: decisions, cache traffic and batch dedup.
func runPhase(pool *engine.Pool, name string, fn func()) phaseJSON {
	m, st := measure(pool, name, fn)
	ph := phaseJSON{phaseStats: m, Decisions: st.Decisions}
	if pool.Cache() != nil {
		ph.Cache = &cacheJSON{
			Hits:    st.Cache.Hits,
			Misses:  st.Cache.Misses,
			HitRate: st.Cache.HitRate(),
			Entries: st.Cache.Entries,
		}
		if ph.Decisions == 0 {
			// Attack environments keep their own audit logs; the
			// shared cache still sees every mediated decision.
			ph.Decisions = st.Cache.Hits + st.Cache.Misses
		}
	}
	if st.Batch.Nodes > 0 {
		ph.Batch = &batchJSON{
			NodesAuthorized:   st.Batch.Nodes,
			DistinctDecisions: st.Batch.Distinct,
			DedupRatio:        st.Batch.DedupRatio(),
		}
	}
	ph.setRate()
	return ph
}

// gatewayRow is a loopback phase's row: the shared fields plus one
// gateway stats delta over the phase (the main gateway's, or the sum
// of the attack environments').
func gatewayRow(m phaseStats, st httpd.Stats) httpPhaseJSON {
	ph := httpPhaseJSON{
		phaseStats:    m,
		Requests:      st.Served,
		Rejected503:   st.Rejected503,
		QueueDepthMax: st.MaxQueueDepth,
		CacheHits:     st.Cache.Hits,
		CacheMisses:   st.Cache.Misses,
		CacheHitRate:  st.Cache.HitRate(),
		CacheEvicted:  st.Cache.Evictions,
	}
	if secs := m.ElapsedMs / 1000; secs > 0 {
		ph.ReqsPerSec = float64(st.Served) / secs
	}
	return ph
}

// trimInterval is the retention cadence of long loops: how often they
// drop the append-only accumulators. The retained backlog rises and
// falls on this cadence, a sawtooth the leak watch's least-squares fit
// reads as flat over its many periods. Much shorter is not better:
// the backlog is most of a closed-loop soak's live heap, and trimming
// it every 250ms halved soak throughput through extra GC cycles (40k
// vs 81k tasks in a 30s soak without -race on 2 CPUs).
const trimInterval = 2 * time.Second

// leakWarmup is how long a long loop runs before its leak watch starts
// sampling: the first seconds pay one-time steady-state costs (the
// 65536-entry decision ring filling, h2 stream buffers, histogram
// bucket slices) that a fit over the whole window would read as linear
// growth. The leak question is whether *steady-state* load accretes
// memory, so the watch opens after the warm fraction — capped so short
// diagnostic runs still leave most of their window to the fit (which
// abstains below 5s anyway).
func leakWarmup(d time.Duration) time.Duration {
	w := d / 4
	if w > 5*time.Second {
		w = 5 * time.Second
	}
	return w
}

// longLoop is the retention and leak watch the soak phases and the
// open-loop driver share. Every trimInterval it drops the session
// audit logs (one record per decision: fine for bounded phases, fatal
// for a soak, where the leak watch would rightly convict the driver
// itself) and, when the substrate runs in this process, its request
// log. The decision ring and the slow ring are bounded and keep
// serving /tracez and /slowz joins across trims. After leakWarmup it
// opens a dedicated sampler (no registry: the run's gauges stay with
// the main sampler) whose drift verdict judges the loop alone.
type longLoop struct {
	pool     *engine.Pool
	net      *web.Network // nil when the substrate is in another process
	smp      *obs.Sampler
	open     time.Time
	opened   bool
	nextTrim time.Time
	// trimmed counts the audit records dropped, so a phase can still
	// report every decision it made.
	trimmed uint64
}

func newLongLoop(pool *engine.Pool, net *web.Network, d time.Duration) *longLoop {
	now := time.Now()
	return &longLoop{
		pool:     pool,
		net:      net,
		smp:      obs.NewSampler(nil, 200*time.Millisecond),
		open:     now.Add(leakWarmup(d)),
		nextTrim: now.Add(trimInterval),
	}
}

// tick opens the leak watch once the warm-up is over and trims when a
// trim is due. Call it between the loop's submissions.
func (l *longLoop) tick() {
	now := time.Now()
	if !l.opened && now.After(l.open) {
		l.smp.Start()
		l.opened = true
	}
	if now.After(l.nextTrim) {
		for _, s := range l.pool.Sessions() {
			l.trimmed += uint64(s.Browser.Audit.Len())
			s.Browser.Audit.Reset()
		}
		if l.net != nil {
			l.net.ResetLog()
		}
		l.nextTrim = now.Add(trimInterval)
	}
}

// verdict closes the leak watch: the drift over the window it sampled,
// or nil when the window was too short to judge.
func (l *longLoop) verdict() *obs.DriftReport { return l.smp.Stop().Drift }

// soak loops one-round mixed tasks across the pool until d has passed,
// long enough for the leak watch to judge whether the process returns
// to its idle shape. It returns the watch's verdict and the audit
// records the loop trimmed.
func soak(pool *engine.Pool, net *web.Network, topicID int, d time.Duration) (*obs.DriftReport, uint64) {
	l := newLongLoop(pool, net, d)
	task := mixedTask(topicID, 1)
	for deadline := time.Now().Add(d); time.Now().Before(deadline); l.tick() {
		pool.Each(task)
	}
	return l.verdict(), l.trimmed
}
