package main

import (
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/css"
	"repro/internal/dom"
	"repro/internal/html"
	"repro/internal/layout"
	"repro/internal/web"
)

// The traced run. Spans are recorded from this package only, around
// calls into each module's public functions; the program is unchanged.
// A traced browser loads pages with render and scripts off, and the
// tracer then runs the remaining load stages itself through the same
// public entry points the browser uses, each inside its own span:
//
//	html   browser.Navigate (fetch, configuration, parse, frames,
//	       style-sheet parse), minus the spans nested in it
//	css    css.Resolver.HiddenSet
//	dom    dom.API.AuthorizeRenderRegion over Page.Monitor
//	layout layout.LayoutHidden
//	script browser.Page.RunScriptAs per script element
//	core   the policy stack a MonitorFactory wrapper times
//	web    web.Transport.RoundTrip (in memory: routing and the request
//	       log; over a gateway: the h2/TLS wire and the gateway)
//	apps   web.Handler.Serve, timed on whichever goroutine serves it
//
// Spans nest, and each layer is charged its self time: its span's
// duration minus the spans nested in it.

type layer int

const (
	layerHTML layer = iota
	layerCSS
	layerLayout
	layerDOM
	layerCore
	layerScript
	layerWeb
	numLayers
)

type frame struct {
	l     layer
	start time.Time
	child time.Duration
}

// tracer is one session's span stack and tallies. Only the session's
// goroutine touches it.
type tracer struct {
	stack []frame
	self  [numLayers]time.Duration
	total [numLayers]time.Duration
	wall  time.Duration

	loads, requests, scripts int
	decisions, denied        int
}

func (t *tracer) push(l layer) { t.stack = append(t.stack, frame{l: l, start: time.Now()}) }

func (t *tracer) pop() {
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := time.Since(f.start)
	t.self[f.l] += d - f.child
	t.total[f.l] += d
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
}

func (t *tracer) add(o *tracer) {
	for l := range t.self {
		t.self[l] += o.self[l]
		t.total[l] += o.total[l]
	}
	t.wall += o.wall
	t.loads += o.loads
	t.requests += o.requests
	t.scripts += o.scripts
	t.decisions += o.decisions
	t.denied += o.denied
}

// tracedTransport times each round trip on the session's stack.
type tracedTransport struct {
	inner web.Transport
	t     *tracer
}

func (x *tracedTransport) RoundTrip(req *web.Request) (*web.Response, error) {
	x.t.push(layerWeb)
	resp, err := x.inner.RoundTrip(req)
	x.t.pop()
	x.t.requests++
	return resp, err
}

// handlerClock accumulates application handler time. Handlers run on
// the requesting session's goroutine in memory and on gateway workers
// over the wire, so the clock is shared and atomic rather than a span
// on a session's stack; its total is subtracted from the web layer's
// self time, inside whose round trips every handler call happens.
type handlerClock struct {
	ns, calls atomic.Int64
}

type timedHandler struct {
	inner web.Handler
	c     *handlerClock
}

func (h timedHandler) Serve(req *web.Request) *web.Response {
	start := time.Now()
	resp := h.inner.Serve(req)
	h.c.ns.Add(int64(time.Since(start)))
	h.c.calls.Add(1)
	return resp
}

// timedMonitor wraps the policy stack below the browser's audit layer.
// It forwards AuthorizeBatch, so batching and dedup are unchanged (the
// run checks core.computed_per_load against the untraced run).
type timedMonitor struct {
	inner core.Monitor
	t     *tracer
}

var _ core.BatchAuthorizer = (*timedMonitor)(nil)

func (m *timedMonitor) Authorize(p core.Context, op core.Op, o core.Context) core.Decision {
	m.t.push(layerCore)
	d := m.inner.Authorize(p, op, o)
	m.t.pop()
	m.t.decisions++
	if !d.Allowed {
		m.t.denied++
	}
	return d
}

func (m *timedMonitor) AuthorizeBatch(p core.Context, op core.Op, objects []core.Context) []core.Decision {
	m.t.push(layerCore)
	out := core.AuthorizeBatch(m.inner, p, op, objects)
	m.t.pop()
	m.t.decisions += len(out)
	for _, d := range out {
		if !d.Allowed {
			m.t.denied++
		}
	}
	return out
}

// tracedLoad is one top-level page load, staged through public entry
// points in the browser's own order: load (with frames), then per page
// (frames first, as the browser finishes a frame while loading its
// parent) style resolution, mediated render read, layout, CSS
// expressions and scripts.
func (s *session) tracedLoad(rawURL string) (*browser.Page, error) {
	s.tr.push(layerHTML)
	p, err := s.b.Navigate(rawURL)
	s.tr.pop()
	if err != nil {
		return nil, err
	}
	s.finishPage(p)
	return p, nil
}

func (s *session) finishPage(p *browser.Page) {
	for _, f := range p.Frames {
		if f.Page != nil {
			s.finishPage(f.Page)
		}
	}
	t := s.tr
	t.push(layerCSS)
	hidden := p.Styles.HiddenSet(p.Doc.Root)
	t.pop()

	t.push(layerDOM)
	api := dom.NewAPI(p.Doc, core.Principal(p.Origin, core.RingKernel, "browser"), p.Monitor)
	denied, err := api.AuthorizeRenderRegion(p.Doc.Root)
	t.pop()
	switch {
	case err != nil:
		hidden = map[*html.Node]bool{p.Doc.Root: true}
	case len(denied) > 0 && hidden == nil:
		hidden = denied
	default:
		for n := range denied {
			hidden[n] = true
		}
	}

	t.push(layerLayout)
	p.Layout = layout.LayoutHidden(p.Doc.Root, layout.DefaultViewportWidth, hidden)
	t.pop()

	for _, styleEl := range p.Doc.ByTag("style") {
		t.push(layerCSS)
		sheet := css.Parse(html.InnerText(styleEl))
		t.pop()
		for _, decl := range sheet.Expressions() {
			body, _ := decl.IsExpression()
			principal := core.Context{Origin: p.Origin, Ring: styleEl.Ring, ACL: styleEl.ACL, Label: "css-expression@style"}
			if err := s.runScript(p, principal, body); err != nil {
				p.ScriptErrors = append(p.ScriptErrors, err)
			}
		}
	}
	for _, el := range p.Doc.ByTag("script") {
		src := html.InnerText(el)
		if strings.TrimSpace(src) == "" {
			continue
		}
		label := "script"
		if id, ok := el.Attr("id"); ok {
			label = "script#" + id
		}
		principal := core.Context{Origin: p.Origin, Ring: el.Ring, ACL: el.ACL, Label: label}
		if err := s.runScript(p, principal, src); err != nil {
			p.ScriptErrors = append(p.ScriptErrors, err)
		}
	}
}

// pageNodes counts the nodes of a page and its frames.
func pageNodes(p *browser.Page) int {
	n := html.CountNodes(p.Doc.Root)
	for _, f := range p.Frames {
		if f.Page != nil {
			n += pageNodes(f.Page)
		}
	}
	return n
}
