package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strings"
	"sync/atomic"

	"repro/internal/apps/phpbb"
	"repro/internal/apps/phpcal"
	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/html"
	"repro/internal/nonce"
	"repro/internal/origin"
	"repro/internal/template"
	"repro/internal/web"
)

// The substrate the workloads browse: the Figure-4 fixture server,
// per-session phpBB and PHP-Calendar instances, the script-dom
// generator's pages and the §7 mashup portal. Every session owns its
// accounts and its topics and events, and every session's writes go
// to instances only it reads, so what a read sees never depends on how
// sessions interleave. Each session repeats one seeded cycle of steps
// and, at every cycle start, swaps in freshly seeded instances: page
// shapes repeat exactly and never grow with run length.

var (
	benchOrigin  = origin.MustParse("http://bench.example")
	forumOrigin  = origin.MustParse("http://forum.example")
	domOrigin    = origin.MustParse("http://dom.example")
	portalOrigin = origin.MustParse("http://portal.example")
	widgetOrigin = origin.MustParse("http://widget.example")
)

const password = "pw"

// swappable is a web.Handler whose target is replaced atomically when
// its session starts a new cycle.
type swappable struct{ h atomic.Pointer[web.Handler] }

func (s *swappable) set(h web.Handler) { s.h.Store(&h) }

func (s *swappable) Serve(req *web.Request) *web.Response { return (*s.h.Load()).Serve(req) }

// forumRouter serves one forum host from per-session phpBB instances,
// keyed by the account the request acts for (the phpBB data cookie,
// or the login form's username before it is set). Requests that name
// no account (the logged-out login page) go to an empty guest forum.
type forumRouter struct {
	byUser map[string]*swappable
	guest  web.Handler
}

// newForumRouter returns a router for the given accounts, each with an
// empty slot. The accounts are fixed before any request is served, so
// the map is read-only while requests run.
func newForumRouter(users ...string) *forumRouter {
	r := &forumRouter{
		byUser: map[string]*swappable{},
		guest:  phpbb.New(phpbb.Config{Origin: forumOrigin, Hardened: true, Escudo: true, Nonces: nonce.NewSeqSource(1)}),
	}
	for _, u := range users {
		r.byUser[u] = &swappable{}
	}
	return r
}

func (r *forumRouter) Serve(req *web.Request) *web.Response {
	user := req.Form.Get("username")
	if v, ok := req.Cookie(phpbb.CookieData); ok {
		user = strings.TrimPrefix(v, "u%3A")
	}
	if slot, ok := r.byUser[user]; ok {
		return slot.Serve(req)
	}
	return r.guest.Serve(req)
}

// forumSeed is one session's initial forum content.
type forumSeed struct {
	user   string
	topics [][2]string // subject, body
	// replies seeds each topic's first replies.
	replies [][]string
}

func newForumSeed(rng *rand.Rand, user string) forumSeed {
	fs := forumSeed{user: user}
	for t := 0; t < 3; t++ {
		fs.topics = append(fs.topics, [2]string{words(rng, 4), words(rng, 20)})
		var rs []string
		for r := 0; r < 2+t; r++ {
			rs = append(rs, words(rng, 12))
		}
		fs.replies = append(fs.replies, rs)
	}
	return fs
}

// build returns a freshly seeded instance; login replays the
// session's login, so the instance issues the same session ID and
// CSRF token the session's cookies already carry.
func (fs forumSeed) build(o origin.Origin, login bool) (*phpbb.App, []int) {
	app := phpbb.New(phpbb.Config{Origin: o, Hardened: true, Escudo: true, Nonces: nonce.NewSeqSource(1)})
	app.AddUser(fs.user, password)
	var ids []int
	for i, t := range fs.topics {
		id := app.SeedTopic(fs.user, t[0], t[1])
		for _, r := range fs.replies[i] {
			app.SeedReply(id, fs.user, r)
		}
		ids = append(ids, id)
	}
	if login {
		if _, _, err := app.Login(fs.user, password); err != nil {
			panic("perfbench: seeded login failed: " + err.Error())
		}
	}
	return app, ids
}

// calSeed is one session's initial calendar content.
type calSeed struct {
	user   string
	events []calEvent
}

type calEvent struct {
	day  int
	text string
}

func newCalSeed(rng *rand.Rand, user string) calSeed {
	cs := calSeed{user: user}
	// Distinct days, so the month view's shape is the same at every
	// seed.
	for _, d := range rng.Perm(28)[:5] {
		cs.events = append(cs.events, calEvent{1 + d, words(rng, 6)})
	}
	return cs
}

func (cs calSeed) build(o origin.Origin, login bool) *phpcal.App {
	app := phpcal.New(phpcal.Config{Origin: o, Hardened: true, Escudo: true, Nonces: nonce.NewSeqSource(1)})
	app.AddUser(cs.user, password)
	for _, e := range cs.events {
		app.SeedEvent(cs.user, e.day, e.text)
	}
	if login {
		if _, err := app.Login(cs.user, password); err != nil {
			panic("perfbench: seeded login failed: " + err.Error())
		}
	}
	return app
}

// portalHandler serves the §7 mashup portal: ring-1 chrome, ring-2
// widget slots, a cross-origin widget iframe, and a ring-1 script
// reading the slot region.
func portalHandler() web.Handler {
	bld := template.NewACBuilder(nonce.NewSeqSource(1))
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
		return resp
	})
}

// widgetHandler serves the widget the portal frames: an unconfigured
// (single-ring) page whose script reads its own content.
func widgetHandler() web.Handler {
	const page = `<html><body><p id=w>widget content</p>` +
		`<script id=wjs>var t = document.getElementById("w").innerText;</script></body></html>`
	return web.HandlerFunc(func(*web.Request) *web.Response { return web.HTML(page) })
}

// step is one user action: a top-level page load, optionally followed
// by the form submission or delegated script that completes it. One
// step is one latency sample.
type step struct {
	url string
	// after runs on the loaded page (writes, the widget's delegated
	// scripts); nil for pure reads.
	after func(s *session, p *browser.Page) error
	// check verifies the loaded page.
	check func(p *browser.Page) error
}

// hasID checks that a page carries an element id (logged-in chrome,
// topic header), i.e. that the app served the page the step asked for.
func hasID(id string) func(p *browser.Page) error {
	return func(p *browser.Page) error {
		if p.Doc.ByID(id) == nil {
			return fmt.Errorf("%s: no #%s", p.URL, id)
		}
		return noScriptErrors(p)
	}
}

func noScriptErrors(p *browser.Page) error {
	if len(p.ScriptErrors) > 0 {
		return fmt.Errorf("%s: script error: %w", p.URL, p.ScriptErrors[0])
	}
	return nil
}

// submit posts a form of the loaded page and expects the app's 303.
func submit(formID string, fields url.Values) func(s *session, p *browser.Page) error {
	return func(s *session, p *browser.Page) error {
		form := p.Doc.ByID(formID)
		if form == nil {
			return fmt.Errorf("%s: no form #%s", p.URL, formID)
		}
		resp, err := p.SubmitForm(form, fields)
		if err != nil {
			return fmt.Errorf("%s: submit #%s: %w", p.URL, formID, err)
		}
		if resp.Status != 303 {
			return fmt.Errorf("%s: submit #%s: status %d", p.URL, formID, resp.Status)
		}
		return nil
	}
}

// fig4Step loads one Figure-4 scenario page.
func fig4Step(path string) step {
	return step{url: benchOrigin.URL(path), check: func(p *browser.Page) error {
		if t := p.Doc.ByTag("title"); len(t) != 1 || html.InnerText(t[0]) != "bench" {
			return fmt.Errorf("%s: not a scenario page", p.URL)
		}
		return noScriptErrors(p)
	}}
}

// forumSteps returns a session's forum steps: index views, and the
// same number of views of each of its topics, one in five of them
// posting a reply.
func forumSteps(rng *rand.Rand, o origin.Origin, topics []int, index, perTopic int) []step {
	var out []step
	for i := 0; i < index; i++ {
		out = append(out, step{url: o.URL("/"), check: hasID("whoami")})
	}
	var views []step
	for _, t := range topics {
		for i := 0; i < perTopic; i++ {
			views = append(views, step{url: o.URL(fmt.Sprintf("/viewtopic?t=%d", t)), check: hasID("topichead")})
		}
	}
	shuffle(rng, views)
	for i := 0; i < len(views)/5; i++ {
		views[i].after = submit("replyform", url.Values{"message": {words(rng, 10)}})
	}
	return append(out, views...)
}

// calSteps returns n calendar month views, one in three adding an
// event.
func calSteps(rng *rand.Rand, o origin.Origin, n int) []step {
	var out []step
	for i := 0; i < n; i++ {
		st := step{url: o.URL("/"), check: hasID("whoami")}
		if i%3 == 0 {
			st.after = submit("newevent", url.Values{
				"day": {fmt.Sprint(1 + rng.Intn(28))}, "text": {words(rng, 5)},
			})
		}
		out = append(out, st)
	}
	return out
}

// portalStep loads the mashup portal; the delegated widget then writes
// its slot (allowed by the ring-2 delegation) and overreaches into the
// ring-1 chrome (denied).
func portalStep(slot int) step {
	widget := core.Principal(widgetOrigin, 0, "widget")
	return step{
		url: portalOrigin.URL("/"),
		check: func(p *browser.Page) error {
			if len(p.Frames) != 1 || p.Frames[0].Page == nil {
				return fmt.Errorf("portal: widget frame not loaded")
			}
			if err := noScriptErrors(p.Frames[0].Page); err != nil {
				return err
			}
			return noScriptErrors(p)
		},
		after: func(s *session, p *browser.Page) error {
			src := fmt.Sprintf(`document.getElementById("slot%d").innerHTML = "forecast %d";`, slot, slot)
			if err := s.runScript(p, widget, src); err != nil {
				return fmt.Errorf("portal: delegated slot write denied: %w", err)
			}
			if err := s.runScript(p, widget, `document.getElementById("chrome").innerHTML = "pwned";`); err == nil {
				return fmt.Errorf("portal: widget escaped its delegated ring")
			}
			if got := html.InnerText(p.Doc.ByID(fmt.Sprintf("slot%d", slot))); got != fmt.Sprintf("forecast %d", slot) {
				return fmt.Errorf("portal: slot%d reads %q after the delegated write", slot, got)
			}
			return nil
		},
	}
}

// shuffle permutes steps with the workload's generator.
func shuffle(rng *rand.Rand, steps []step) []step {
	rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	return steps
}

// fig4Steps returns n loads of each given Figure-4 page.
func fig4Steps(paths []string, n int) []step {
	var out []step
	for _, p := range paths {
		for i := 0; i < n; i++ {
			out = append(out, fig4Step(p))
		}
	}
	return out
}
