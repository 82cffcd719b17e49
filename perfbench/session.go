package main

import (
	"fmt"
	"net/url"
	"time"

	"repro/internal/browser"
	"repro/internal/cookie"
	"repro/internal/core"
	"repro/internal/web"
)

// session is one simulated user: a browser, the seeded cycle of steps
// it repeats, and the per-session app instances it resets at every
// cycle start.
type session struct {
	id    int
	w     *world
	b     *browser.Browser
	steps []step
	pos   int
	// jar is the cookie jar captured after login; every cycle starts
	// from it in a fresh browser, so history and audit state never
	// grow across cycles either.
	jar []cookie.Cookie
	// resets re-seed the session's app instances (nil slice for
	// workloads whose apps hold no per-session state).
	resets []func()
	// audited tallies the audit records of retired browsers.
	audited int
	// tr is the session's tracer in a traced run, nil otherwise.
	tr *tracer
	// cycleNodes records the nodes loaded per completed cycle in a
	// traced run.
	cycleNodes []int
	nodes      int
	// mixed counts retired browsers' page loads that observed more than
	// one policy generation (traced gateway runs audit it).
	mixed int
}

// newBrowser builds the session's browser on the world's transport:
// the program's default stack, or the traced one.
func (s *session) newBrowser() {
	w := s.w
	opts := browser.Options{Mode: browser.ModeEscudo, Cache: w.cache, DecisionRing: w.ring, PolicyGen: w.policyGen}
	var t web.Transport = w.transport
	factory := w.factory
	if s.tr != nil {
		t = &tracedTransport{inner: t, t: s.tr}
		base := factory
		if base == nil {
			base = func(browser.PageRef) core.Monitor {
				return core.Compose(&core.ERM{}, core.WithCache(w.cache))
			}
		}
		tr := s.tr
		factory = func(ref browser.PageRef) core.Monitor {
			return &timedMonitor{inner: base(ref), t: tr}
		}
		opts.DisableRender, opts.DisableScripts = true, true
	}
	opts.MonitorFactory = factory
	s.b = browser.New(t, opts)
	for _, c := range s.jar {
		s.b.Jar().Set(c)
	}
}

// recycle retires the cycle's browser after tallying its audit log,
// re-seeds the session's apps, and starts the next cycle in a fresh
// browser holding the post-login jar.
func (s *session) recycle() {
	s.audited += s.b.Audit.Len()
	if s.tr != nil && s.w.gw != nil {
		s.mixed += s.b.Audit.GenerationMix().Mixed
	}
	for _, r := range s.resets {
		r()
	}
	if s.id == 0 {
		s.w.net.ResetLog()
	}
	s.pos = 0
	s.newBrowser()
}

// next runs the session's next step and returns its duration.
func (s *session) next() (time.Duration, error) {
	if s.pos == len(s.steps) {
		s.recycle()
	}
	st := &s.steps[s.pos]
	s.pos++
	start := time.Now()
	var p *browser.Page
	var err error
	if s.tr != nil {
		p, err = s.tracedLoad(st.url)
	} else {
		p, err = s.b.Navigate(st.url)
	}
	if err == nil && st.after != nil {
		err = st.after(s, p)
	}
	d := time.Since(start)
	if s.tr != nil {
		s.tr.wall += d
		s.tr.loads++
	}
	if err != nil {
		return d, err
	}
	if err := st.check(p); err != nil {
		return d, err
	}
	if s.tr != nil {
		s.nodes += pageNodes(p)
		if s.pos == len(s.steps) {
			s.cycleNodes = append(s.cycleNodes, s.nodes)
			s.nodes = 0
		}
	}
	return d, nil
}

// runScript runs src on the page as principal, traced in a traced run.
func (s *session) runScript(p *browser.Page, principal core.Context, src string) error {
	if s.tr == nil {
		return p.RunScriptAs(principal, src)
	}
	s.tr.push(layerScript)
	err := p.RunScriptAs(principal, src)
	s.tr.pop()
	s.tr.scripts++
	return err
}

// login submits a login form on the page at rawURL.
func (s *session) login(rawURL, user string) error {
	p, err := s.b.Navigate(rawURL)
	if err != nil {
		return fmt.Errorf("login page %s: %w", rawURL, err)
	}
	form := p.Doc.ByID("loginform")
	if form == nil {
		return fmt.Errorf("login page %s: no login form", rawURL)
	}
	resp, err := p.SubmitForm(form, url.Values{"username": {user}, "password": {password}})
	if err != nil {
		return fmt.Errorf("login at %s: %w", rawURL, err)
	}
	if resp.Status != 303 {
		return fmt.Errorf("login at %s: status %d", rawURL, resp.Status)
	}
	return nil
}
