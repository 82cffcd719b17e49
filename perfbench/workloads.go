package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/apps/phpbb"
	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/httpd"
	"repro/internal/obs"
	"repro/internal/origin"
	"repro/internal/policy"
	"repro/internal/scenarios"
	"repro/internal/web"
)

// nSessions is the number of concurrent sessions: at most the 2 CPUs
// of the reference machine. Over the wire they share one h2
// connection per origin host.
const nSessions = 2

// workload fixes one traffic mix. Its fields are recorded in
// BENCHMARK.json; keep the two in step.
type workload struct {
	name string
	// open adds the open-loop rate steps after the closed loop
	// (gateway-h2).
	open bool
	// rates are the open loop's fixed arrival rates (loads/s), in
	// ascending order; the traced run offers the first.
	rates []float64
	// limit is the latency limit on load_p99_ms.
	limit time.Duration
	// flipEvery is the policy-push cadence (0: no pushes).
	flipEvery time.Duration
	// build adds the workload's origins to w and returns a constructor
	// for its sessions.
	build func(w *world, seed int64) (func(id int, user string) (*session, error), error)
}

var workloads = []*workload{
	{name: "browse", limit: 25 * time.Millisecond, build: buildBrowse},
	{name: "script-dom", limit: 50 * time.Millisecond, build: buildScriptDOM},
	{
		name: "gateway-h2", open: true,
		rates:     []float64{600, 1200, 4500},
		limit:     100 * time.Millisecond,
		flipEvery: 250 * time.Millisecond,
		build:     buildGateway,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// world is one workload's substrate and sessions.
type world struct {
	wl        *workload
	net       *web.Network
	transport web.Transport
	cache     *core.DecisionCache
	ring      *obs.DecisionRing
	factory   browser.MonitorFactory
	policyGen func() uint64
	// handlers times every app handler in a traced world (nil
	// otherwise).
	handlers *handlerClock
	sessions []*session
	newSess  func(id int, user string) (*session, error)

	gw       *httpd.Gateway
	ct       *httpd.ClientTransport
	router   *forumRouter
	flipDocs [2]policy.Policy
	flips    int
}

// register mounts a handler on the in-memory network, timed in a
// traced world.
func (w *world) register(o origin.Origin, h web.Handler) {
	if w.handlers != nil {
		h = timedHandler{inner: h, c: w.handlers}
	}
	w.net.Register(o, h)
}

// newWorld builds the workload's substrate and its sessions, logs every
// session in, and captures each post-login cookie jar.
func newWorld(wl *workload, seed int64, traced bool) (*world, error) {
	w := &world{wl: wl, net: web.NewNetwork(), cache: core.NewDecisionCache()}
	w.transport = w.net
	if traced {
		w.handlers = &handlerClock{}
	}
	newSess, err := wl.build(w, seed)
	if err != nil {
		w.close()
		return nil, err
	}
	w.newSess = newSess
	for i := 0; i < nSessions; i++ {
		s, err := newSess(i, fmt.Sprintf("user%d", i))
		if err != nil {
			w.close()
			return nil, fmt.Errorf("session %d: %w", i, err)
		}
		if traced {
			s.tr = &tracer{} // the first window's recycle builds the traced browser
		}
		w.sessions = append(w.sessions, s)
	}
	return w, nil
}

// close tears the world down. Over the wire the client's idle
// connections close first; Gateway.Close bounds a straggling Shutdown
// at 5 s, outside every measured window.
func (w *world) close() {
	if w.ct != nil {
		w.ct.Close()
	}
	if w.gw != nil {
		_ = w.gw.Close() // teardown: a deadline error here is not actionable
	}
}

// startSession builds a session's browser, runs its setup visits (the
// logins and the first visit that sets each host's cookies), and
// captures the resulting jar.
func (w *world) startSession(s *session, visits ...func() error) (*session, error) {
	s.newBrowser()
	for _, v := range visits {
		if err := v(); err != nil {
			return nil, err
		}
	}
	s.jar = s.b.Jar().All()
	return s, nil
}

func sessionRNG(seed int64, id int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(id)))
}

// buildBrowse: the paper's Figure-4 pages beside its two case-study
// apps. Each session has its own forum and calendar origins.
func buildBrowse(w *world, seed int64) (func(int, string) (*session, error), error) {
	w.register(benchOrigin, scenarios.Handler())
	paths := scenarios.Paths()
	return func(id int, user string) (*session, error) {
		rng := sessionRNG(seed, id)
		fo := origin.MustParse(fmt.Sprintf("http://forum-%d.example", id))
		co := origin.MustParse(fmt.Sprintf("http://cal-%d.example", id))
		fs, cs := newForumSeed(rng, user), newCalSeed(rng, user)
		forum, topics := fs.build(fo, false)
		fslot, cslot := &swappable{}, &swappable{}
		fslot.set(forum)
		cslot.set(cs.build(co, false))
		w.register(fo, fslot)
		w.register(co, cslot)
		s := &session{id: id, w: w, resets: []func(){
			func() { app, _ := fs.build(fo, true); fslot.set(app) },
			func() { cslot.set(cs.build(co, true)) },
		}}
		steps := fig4Steps(paths, 2)
		steps = append(steps, forumSteps(rng, fo, topics, 5, 5)...)
		steps = append(steps, calSteps(rng, co, 6)...)
		s.steps = shuffle(rng, steps)
		return w.startSession(s,
			func() error { return s.login(fo.URL("/"), user) },
			func() error { return s.login(co.URL("/"), user) },
			func() error { _, err := s.b.Navigate(benchOrigin.URL(paths[0])); return err },
		)
	}, nil
}

// domPageCount is how many pages the script-dom generator builds.
const domPageCount = 6

// buildScriptDOM: generated script-heavy pages and the mashup portal,
// mediated by the delegation-aware stack (ERM, decision cache, §7
// delegations; the browser adds audit and the provenance ring).
func buildScriptDOM(w *world, seed int64) (func(int, string) (*session, error), error) {
	pages := genDomPages(seed, domPageCount)
	w.register(domOrigin, domHandler(pages))
	w.register(portalOrigin, portalHandler())
	w.register(widgetOrigin, widgetHandler())
	doc := policy.New(portalOrigin, core.DefaultMaxRing)
	doc.Delegate(widgetOrigin, 2)
	delegations, err := doc.DelegationPolicy()
	if err != nil {
		return nil, err
	}
	w.ring = obs.NewDecisionRing(0)
	w.factory = func(browser.PageRef) core.Monitor {
		return core.Compose(&core.ERM{}, core.WithCache(w.cache), core.WithDelegations(delegations))
	}
	return func(id int, _ string) (*session, error) {
		rng := sessionRNG(seed, id)
		s := &session{id: id, w: w}
		for _, pg := range pages {
			for i := 0; i < 5; i++ {
				s.steps = append(s.steps, step{url: domOrigin.URL(pg.path), check: pg.check})
			}
		}
		for i := 0; i < 6; i++ {
			s.steps = append(s.steps, portalStep(rng.Intn(8)))
		}
		s.steps = shuffle(rng, s.steps)
		return w.startSession(s, func() error {
			_, err := s.b.Navigate(domOrigin.URL(pages[0].path))
			return err
		})
	}, nil
}

// gatewayFixtures are the cacheable Figure-4 pages the gateway-h2
// traffic mixes in: the small ones, so the wire is not drowned by
// parse and layout work.
var gatewayFixtures = []string{"/s1", "/s3"}

// buildGateway: two origin hosts behind one TLS gateway speaking h2,
// reached through one shared client transport: the cacheable Figure-4
// fixtures and one forum whose per-session instances sit behind a
// router keyed by account.
func buildGateway(w *world, seed int64) (func(int, string) (*session, error), error) {
	users := []string{probeUser}
	for i := 0; i < nSessions; i++ {
		users = append(users, fmt.Sprintf("user%d", i))
	}
	router := newForumRouter(users...)
	w.router = router
	w.register(benchOrigin, scenarios.Handler())
	w.register(forumOrigin, router)
	ca, err := httpd.NewCA()
	if err != nil {
		return nil, err
	}
	forumDoc := router.guest.(*phpbb.App).Policy()
	benchDoc := scenarios.Policy(benchOrigin)
	w.flipDocs[0] = benchDoc
	w.flipDocs[1] = scenarios.Policy(benchOrigin)
	w.flipDocs[1].Delegate(widgetOrigin, 2)
	gw, err := httpd.New(httpd.Config{
		Inner: w.net,
		TLS:   ca,
		Origins: map[string]httpd.OriginConfig{
			benchOrigin.String(): {Policy: &benchDoc},
			forumOrigin.String(): {Policy: &forumDoc},
		},
	})
	if err != nil {
		return nil, err
	}
	w.gw = gw
	for _, o := range []origin.Origin{benchOrigin, forumOrigin} {
		if err := gw.Mount(o); err != nil {
			return nil, err
		}
	}
	if err := gw.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	w.ct = httpd.NewClientTransportTLS(gw.Addr(), ca.Pool())
	w.transport = w.ct
	w.policyGen = gw.Policies().Generation
	return func(id int, user string) (*session, error) {
		rng := sessionRNG(seed, id)
		fs := newForumSeed(rng, user)
		forum, topics := fs.build(forumOrigin, false)
		slot := router.byUser[user]
		slot.set(forum)
		s := &session{id: id, w: w, resets: []func(){
			func() { app, _ := fs.build(forumOrigin, true); slot.set(app) },
		}}
		steps := fig4Steps(gatewayFixtures, 8)
		steps = append(steps, forumSteps(rng, forumOrigin, topics, 8, 5)...)
		s.steps = shuffle(rng, steps)
		return w.startSession(s,
			func() error { return s.login(forumOrigin.URL("/"), user) },
			func() error { _, err := s.b.Navigate(benchOrigin.URL("/s1")); return err },
		)
	}, nil
}

// flip pushes the next policy document through the control plane: the
// fleet generation browsers pin advances, and the decision cache is
// invalidated so verdicts refill under it.
func (w *world) flip() (time.Duration, error) {
	start := time.Now()
	w.flips++
	if _, _, err := w.gw.Policies().Set(w.flipDocs[w.flips%2]); err != nil {
		return 0, err
	}
	w.cache.Invalidate()
	return time.Since(start), nil
}
