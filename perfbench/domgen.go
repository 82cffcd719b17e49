package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/html"
	"repro/internal/nonce"
	"repro/internal/template"
	"repro/internal/web"
)

// The script-dom page generator. Each page holds AC-tagged sections of
// text at rings 0-3 with seeded ACLs, and scripts at rings 1-3 that
// make mediated DOM reads and writes. The generator models the three
// ESCUDO rules itself, so every access's verdict is known before the
// page runs: a script either completes, or ends on exactly one denied
// access, and the benchmark checks the program against that model.

// Cookie names served by the script-dom origin: a ring-1 session cookie
// outer-ring scripts may neither read nor write, and a ring-3
// preference cookie every ring may write.
const (
	domSessionCookie = "domsid"
	domPrefsCookie   = "prefs"
)

// domSection is one AC-tagged section of a generated page.
type domSection struct {
	id    string
	ring  core.Ring
	acl   core.ACL
	paras []string
}

// readable and writable apply the Ring and ACL rules for a same-origin
// principal at ring p (writes cover the region: the paragraphs share
// the section's labels).
func (s *domSection) readable(p core.Ring) bool { return p <= s.ring && p <= s.acl.Read }
func (s *domSection) writable(p core.Ring) bool { return p <= s.ring && p <= s.acl.Write }

// domPage is one generated page plus the outcome the model predicts.
type domPage struct {
	path   string
	markup string
	// deniedScripts are the labels of the scripts predicted to end on
	// a denied access.
	deniedScripts map[string]bool
	// finalText is each written paragraph's predicted text after every
	// script has run.
	finalText map[string]string
}

// genDomPages builds n pages from the seed. Every page has the same
// structure (section labels, paragraph and script counts, script rings,
// accesses per script, denied share); the seed places the labels and
// picks each access's kind and target.
func genDomPages(seed int64, n int) []*domPage {
	rng := rand.New(rand.NewSource(seed))
	pages := make([]*domPage, n)
	for i := range pages {
		pages[i] = genDomPage(rng, fmt.Sprintf("/page%d", i))
	}
	return pages
}

// domLabels are the sections' (ring, read ceiling, write ceiling):
// every script ring has sections it may read and write and sections
// it may not, so every page mixes allowed and denied accesses alike.
var domLabels = [][3]core.Ring{
	{0, 0, 0}, {1, 1, 1}, {1, 1, 0}, {1, 1, 1}, {2, 2, 2}, {2, 2, 1}, {2, 1, 1},
	{2, 2, 2}, {3, 3, 3}, {3, 3, 2}, {3, 2, 2}, {3, 3, 3}, {3, 3, 1}, {3, 3, 3},
}

// domScriptRings are the rings of a page's scripts; domDenied of them
// end on a denied access.
var domScriptRings = []core.Ring{1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3}

const (
	domDenied         = 7
	domParagraphs     = 3
	domOpsPerScript   = 5
	domLoopIterations = 24
)

func genDomPage(rng *rand.Rand, path string) *domPage {
	bld := template.NewACBuilder(nonce.NewSeqSource(uint64(rng.Int63n(1 << 30))))
	pg := &domPage{path: path, deniedScripts: map[string]bool{}, finalText: map[string]string{}}
	var secs []*domSection
	var b strings.Builder
	b.WriteString("<html><head><title>dom</title></head><body>")
	for k, i := range rng.Perm(len(domLabels)) {
		l := domLabels[i]
		s := &domSection{id: fmt.Sprintf("sec%d", k), ring: l[0], acl: core.ACL{Read: l[1], Write: l[2], Use: l[1]}}
		var inner strings.Builder
		for j := 0; j < domParagraphs; j++ {
			id := fmt.Sprintf("t%d-%d", k, j)
			s.paras = append(s.paras, id)
			fmt.Fprintf(&inner, "<p id=%s>%s</p>", id, words(rng, 8))
		}
		if k%3 == 0 {
			// A nested outer-ring scope only ring 0 may read: region
			// reads of the section elide it (silent denials).
			inner.WriteString(bld.Wrap(3, core.UniformACL(0), "", "<span>"+words(rng, 4)+"</span>"))
		}
		b.WriteString(bld.Wrap(s.ring, s.acl, "id="+s.id, inner.String()))
		secs = append(secs, s)
	}
	text := map[string]string{}
	denied := map[int]bool{}
	for _, m := range rng.Perm(len(domScriptRings))[:domDenied] {
		denied[m] = true
	}
	for m, i := range rng.Perm(len(domScriptRings)) {
		p := domScriptRings[i]
		label := fmt.Sprintf("js%d", m)
		genScript(&b, rng, p, label, denied[m], secs, text, bld)
		if denied[m] {
			pg.deniedScripts["script#"+label] = true
		}
	}
	b.WriteString("</body></html>")
	pg.markup = b.String()
	pg.finalText = text
	return pg
}

var lorem = strings.Fields("lorem ipsum dolor sit amet consectetur adipiscing elit sed do eiusmod tempor incididunt ut labore et dolore magna aliqua")

func words(rng *rand.Rand, n int) string {
	w := make([]string, n)
	for i := range w {
		w[i] = lorem[rng.Intn(len(lorem))]
	}
	return strings.Join(w, " ")
}

// genScript appends one script for a principal at ring p, in its own
// ring-p scope: a short loop, domOpsPerScript accesses the model
// allows, and, when deny is set, one access it denies. text tracks
// each paragraph's predicted content.
func genScript(b *strings.Builder, rng *rand.Rand, p core.Ring, label string, deny bool, secs []*domSection, text map[string]string, bld *template.ACBuilder) {
	pick := func(ok func(*domSection) bool) *domSection {
		var c []*domSection
		for _, s := range secs {
			if ok(s) {
				c = append(c, s)
			}
		}
		return c[rng.Intn(len(c))]
	}
	readable := func(s *domSection) bool { return s.readable(p) }
	writable := func(s *domSection) bool { return s.readable(p) && s.writable(p) }
	para := func(s *domSection) string { return s.paras[rng.Intn(len(s.paras))] }
	var src strings.Builder
	fmt.Fprintf(&src, "var n = 0; for (var i = 0; i < %d; i++) { n = n + i; } ", domLoopIterations)
	for op, kind := range rng.Perm(6)[:domOpsPerScript] {
		switch kind {
		case 0:
			fmt.Fprintf(&src, `var a%d = document.getElementById("%s").innerText; `, op, para(pick(readable)))
		case 1:
			fmt.Fprintf(&src, `var h%d = document.getElementById("%s").innerHTML; `, op, pick(readable).id)
		case 2:
			id, v := para(pick(writable)), fmt.Sprintf("%s wrote %d", label, op)
			fmt.Fprintf(&src, `document.getElementById("%s").innerText = "%s"; `, id, v)
			text[id] = v
		case 3:
			id, v := para(pick(writable)), fmt.Sprintf("%s marked %d", label, op)
			fmt.Fprintf(&src, `document.getElementById("%s").innerHTML = "<b>%s</b>"; `, id, v)
			text[id] = v
		case 4:
			fmt.Fprintf(&src, `var e%d = document.createElement("p"); e%d.innerText = "%s note"; document.getElementById("%s").appendChild(e%d); `,
				op, op, label, pick(writable).id, op)
		default:
			fmt.Fprintf(&src, `var c%d = document.cookie; document.cookie = "%s=%s"; `, op, domPrefsCookie, label)
		}
	}
	if deny {
		// The final, denied access: a read above the principal's
		// rights, a write above them, or a write of the inner-ring
		// session cookie (denied to rings 2 and 3 only).
		kinds := 2
		if p > 1 {
			kinds = 3
		}
		switch rng.Intn(kinds) {
		case 0:
			fmt.Fprintf(&src, `var x = document.getElementById("%s").innerHTML;`, pick(func(s *domSection) bool { return !s.readable(p) }).id)
		case 1:
			fmt.Fprintf(&src, `document.getElementById("%s").innerText = "%s overreach";`, para(pick(func(s *domSection) bool { return !s.writable(p) })), label)
		default:
			fmt.Fprintf(&src, `document.cookie = "%s=%s";`, domSessionCookie, label)
		}
	}
	b.WriteString(bld.Wrap(p, core.UniformACL(p), "", fmt.Sprintf("<script id=%s>%s</script>", label, src.String())))
}

// domHandler serves the generated pages with the origin's ESCUDO
// configuration: three rings, the ring-1 session cookie and the ring-3
// preference cookie (both set on the first visit).
func domHandler(pages []*domPage) web.Handler {
	byPath := map[string]string{}
	for _, p := range pages {
		byPath[p.path] = p.markup
	}
	sid := core.FormatCookieHeader(core.CookieConfig{Name: domSessionCookie, Ring: 1, ACL: core.UniformACL(1)})
	prefs := core.FormatCookieHeader(core.CookieConfig{Name: domPrefsCookie, Ring: 3, ACL: core.UniformACL(3)})
	return web.HandlerFunc(func(req *web.Request) *web.Response {
		body, ok := byPath[req.Path()]
		if !ok {
			return web.NotFound()
		}
		resp := web.HTML(body)
		resp.Header.Set(core.HeaderMaxRing, core.DefaultMaxRing.String())
		resp.Header.Add(core.HeaderCookie, sid)
		resp.Header.Add(core.HeaderCookie, prefs)
		if _, has := req.Cookie(domSessionCookie); !has {
			resp.Header.Add("Set-Cookie", domSessionCookie+"=s0; Path=/")
			resp.Header.Add("Set-Cookie", domPrefsCookie+"=init; Path=/")
		}
		return resp
	})
}

// check verifies a loaded page against the model: exactly the
// predicted scripts ended on a denial, and every written paragraph
// holds its predicted text.
func (pg *domPage) check(p *browser.Page) error {
	got := 0
	for _, err := range p.ScriptErrors {
		var de *dom.DeniedError
		if !errors.As(err, &de) {
			return fmt.Errorf("%s: unexpected script error: %w", pg.path, err)
		}
		if !pg.deniedScripts[de.Decision.Principal.Label] {
			return fmt.Errorf("%s: %s denied, model allows it: %v", pg.path, de.Decision.Principal.Label, de.Decision)
		}
		got++
	}
	if got != len(pg.deniedScripts) {
		return fmt.Errorf("%s: %d scripts denied, model predicts %d", pg.path, got, len(pg.deniedScripts))
	}
	for id, want := range pg.finalText {
		n := p.Doc.ByID(id)
		if n == nil {
			return fmt.Errorf("%s: paragraph %s missing", pg.path, id)
		}
		if got := html.InnerText(n); got != want {
			return fmt.Errorf("%s: paragraph %s reads %q, model predicts %q", pg.path, id, got, want)
		}
	}
	return nil
}
