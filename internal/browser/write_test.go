package browser

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/html"
	"repro/internal/web"
)

// writeNetwork serves a page whose body is writable by ring 1 so
// document.write has a legal target.
func writeNetwork(extra string) *web.Network {
	net := web.NewNetwork()
	net.Register(site, web.HandlerFunc(func(req *web.Request) *web.Response {
		resp := web.HTML(`<html><div ring=1 r=1 w=1 x=1 id=shell><body>` +
			`<div ring=1 r=1 w=1 x=1 id=app><p id=msg>orig</p></div>` + extra +
			`</body></div></html>`)
		resp.Header.Set(core.HeaderMaxRing, "3")
		return resp
	}))
	return net
}

func TestDocumentWriteAppends(t *testing.T) {
	b := New(writeNetwork(""), Options{Mode: ModeEscudo})
	p, err := b.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RunScriptRing(1, "w", `document.write("<p id=written>hello write</p>");`); err != nil {
		t.Fatal(err)
	}
	written := p.Doc.ByID("written")
	if written == nil || html.InnerText(written) != "hello write" {
		t.Fatalf("written = %+v", written)
	}
	if written.Ring != 1 {
		t.Errorf("written ring = %d, want writer's ring 1", written.Ring)
	}
}

func TestDocumentWriteScopingRule(t *testing.T) {
	// A ring-1 writer cannot mint a ring-0 principal via write.
	b := New(writeNetwork(""), Options{Mode: ModeEscudo})
	p, err := b.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RunScriptRing(1, "w", `document.write("<div ring=0 id=minted>x</div>");`); err != nil {
		t.Fatal(err)
	}
	if minted := p.Doc.ByID("minted"); minted == nil || minted.Ring != 1 {
		t.Errorf("minted = %+v, want clamped to ring 1", minted)
	}
}

func TestDocumentWriteDeniedBelowBodyACL(t *testing.T) {
	// The body is ring-1/w=1: a ring-3 script cannot write into it.
	b := New(writeNetwork(""), Options{Mode: ModeEscudo})
	p, err := b.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	err = p.RunScriptRing(3, "w3", `document.write("<p id=sneak>x</p>");`)
	var denied *dom.DeniedError
	if !errors.As(err, &denied) {
		t.Fatalf("err = %v, want denial", err)
	}
	if p.Doc.ByID("sneak") != nil {
		t.Error("denied write still landed")
	}
}

func TestDocumentWriteRunsNewScriptsOnce(t *testing.T) {
	// Page script A writes script B; B runs exactly once and A is
	// not re-run.
	net := web.NewNetwork()
	net.Register(site, web.HandlerFunc(func(req *web.Request) *web.Response {
		resp := web.HTML(`<html><div ring=1 r=1 w=1 x=1 id=shell><body>` +
			`<div ring=1 r=1 w=1 x=1 id=app>` +
			`<script id=a>log("A"); document.write("<scr" + "ipt id=b>log('B');</scr" + "ipt>");</script>` +
			`</div></body></div></html>`)
		resp.Header.Set(core.HeaderMaxRing, "3")
		return resp
	}))
	b := New(net, Options{Mode: ModeEscudo})
	p, err := b.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.ScriptErrors) != 0 {
		t.Fatalf("errors = %v", p.ScriptErrors)
	}
	lines := b.Console.Lines()
	if len(lines) != 2 || lines[0] != "A" || lines[1] != "B" {
		t.Errorf("lines = %v, want exactly [A B]", lines)
	}
}

func TestHistoryBack(t *testing.T) {
	net := web.NewNetwork()
	net.Register(site, web.HandlerFunc(func(req *web.Request) *web.Response {
		if req.Path() == "/second" {
			return web.HTML(`<p id=second>2</p>`)
		}
		resp := web.HTML(`<div ring=1 r=1 w=1 x=1 id=app>first</div>`)
		resp.Header.Set(core.HeaderMaxRing, "3")
		return resp
	}))
	b := New(net, Options{Mode: ModeEscudo})
	if _, err := b.Navigate(site.URL("/")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Navigate(site.URL("/second")); err != nil {
		t.Fatal(err)
	}
	p, err := b.Back()
	if err != nil {
		t.Fatal(err)
	}
	if p == nil || p.Doc.ByID("app") == nil {
		t.Error("Back did not return the first page")
	}
	// Back at history start is a no-op.
	b2 := New(net, Options{Mode: ModeEscudo})
	if p, err := b2.Back(); p != nil || err != nil {
		t.Errorf("Back on empty history = %v, %v", p, err)
	}
}

// TestHistoryBounded pins the session-history bound: a long-lived
// session keeps the newest maxHistoryEntries entries (so Previous
// still answers back navigation), while the visited set keeps every
// URL it has seen.
func TestHistoryBounded(t *testing.T) {
	var h History
	for i := 0; i < 3*maxHistoryEntries; i++ {
		h.Visit(fmt.Sprintf("http://a.example/%d", i))
	}
	if h.Len() != maxHistoryEntries {
		t.Fatalf("history holds %d entries, want the bound %d", h.Len(), maxHistoryEntries)
	}
	last := 3*maxHistoryEntries - 1
	if prev, ok := h.Previous(); !ok || prev != fmt.Sprintf("http://a.example/%d", last-1) {
		t.Fatalf("Previous = %q, %v; want the second-newest entry", prev, ok)
	}
	if e := h.Entries(); e[0] != fmt.Sprintf("http://a.example/%d", last-maxHistoryEntries+1) {
		t.Fatalf("oldest retained entry = %q", e[0])
	}
	if !h.Visited("http://a.example/0") {
		t.Fatal("dropping an entry forgot that its URL was visited")
	}
}

func TestHistoryBackScriptMediated(t *testing.T) {
	net := writeNetwork("")
	b := New(net, Options{Mode: ModeEscudo})
	if _, err := b.Navigate(site.URL("/")); err != nil {
		t.Fatal(err)
	}
	p, err := b.Navigate(site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	// Ring-1 script cannot drive history (browser state is ring 0).
	err = p.RunScriptRing(1, "h", `window.history.back();`)
	var denied *dom.DeniedError
	if !errors.As(err, &denied) {
		t.Fatalf("err = %v, want denial", err)
	}
	// Ring-0 may.
	if err := p.RunScriptRing(0, "h0", `window.history.back();`); err != nil {
		t.Fatal(err)
	}
}
