package escudo

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/browser"
	"repro/internal/core"
)

// TestFacadeERM exercises the three-rule policy through the public
// API.
func TestFacadeERM(t *testing.T) {
	site := MustParseOrigin("http://blog.example")
	erm := &ERM{}

	comment := Principal(site, 3, "comment-script")
	post := Object(site, 2, ACL{Read: 1, Write: 0, Use: 0}, "blog-post")

	d := erm.Authorize(comment, OpWrite, post)
	if d.Allowed {
		t.Error("ring-3 comment must not write the ring-2 post")
	}
	app := Principal(site, RingKernel, "app")
	if d := erm.Authorize(app, OpWrite, post); !d.Allowed {
		t.Errorf("ring-0 app write denied: %v", d)
	}
}

// TestFacadeBrowserEndToEnd drives the public browser API against a
// public network.
func TestFacadeBrowserEndToEnd(t *testing.T) {
	site := MustParseOrigin("http://app.example")
	net := NewNetwork()
	net.Register(site, HandlerFunc(func(req *Request) *Response {
		resp := HTMLResponse(`<div ring=1 r=1 w=1 x=1 id=app>hello facade</div>`)
		resp.Header.Set("X-Escudo-Maxring", "3")
		return resp
	}))
	b, err := New(net)
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Navigate("http://app.example/")
	if err != nil {
		t.Fatal(err)
	}
	if p.Doc.ByID("app").Ring != 1 {
		t.Error("labeling through facade failed")
	}
	if !strings.Contains(p.RenderText(), "hello facade") {
		t.Error("render through facade failed")
	}
}

// TestFacadeAttackCorpus sanity-checks the re-exported harness.
func TestFacadeAttackCorpus(t *testing.T) {
	if got := len(AttackCorpus()); got != 18 {
		t.Errorf("corpus = %d, want 18", got)
	}
}

// TestFacadeFigure4 sanity-checks the re-exported scenarios.
func TestFacadeFigure4(t *testing.T) {
	if got := len(Figure4Scenarios()); got != 8 {
		t.Errorf("scenarios = %d, want 8", got)
	}
	rows := MeasureFigure4(2, 1)
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	tbl := Figure4Table(rows)
	if !strings.Contains(tbl, "S1") {
		t.Errorf("table = %q", tbl)
	}
	_ = Figure4AverageOverhead(rows)
}

// TestFacadeMashup drives the §7 extension through the public API.
func TestFacadeMashup(t *testing.T) {
	host := MustParseOrigin("http://portal.example")
	guest := MustParseOrigin("http://widget.example")
	pol := NewDelegationPolicy()
	pol.Delegate(Delegation{Host: host, Guest: guest, Floor: 2})
	m := &MashupMonitor{Policy: pol}

	slot := Object(host, 2, UniformACL(2), "slot")
	if d := m.Authorize(Principal(guest, 0, "w"), OpWrite, slot); !d.Allowed {
		t.Errorf("delegated write denied: %v", d)
	}
	app := Object(host, 1, UniformACL(1), "app")
	if d := m.Authorize(Principal(guest, 0, "w"), OpWrite, app); d.Allowed {
		t.Error("delegation must not reach ring 1")
	}
}

// TestFacadeConfigCompiler drives the §6.2 derivation through the
// public API.
func TestFacadeConfigCompiler(t *testing.T) {
	c := NewConfigCompiler()
	out, err := c.Compile([]AnnotatedFragment{
		{Kind: FragmentMarkup, ID: "app", Level: LevelApplication, Content: "x"},
		{Kind: FragmentCookie, ID: "sid", Level: LevelApplication},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Config.Cookies["sid"].Ring != 1 {
		t.Errorf("derived cookie ring = %d", out.Config.Cookies["sid"].Ring)
	}
	if !strings.Contains(out.Body, "ring=1") {
		t.Errorf("body = %q", out.Body)
	}
	if LevelTrusted != 0 || LevelUntrusted != 3 {
		t.Error("level constants")
	}
}

// TestFacadeConstants pins the re-exported constants.
func TestFacadeConstants(t *testing.T) {
	if RingKernel != 0 || DefaultMaxRing != 3 {
		t.Error("ring constants")
	}
	if UniformACL(2) != (ACL{Read: 2, Write: 2, Use: 2}) {
		t.Error("UniformACL")
	}
	if !PermissiveACL(3).Permits(3, OpUse) {
		t.Error("PermissiveACL")
	}
}

// TestFacadeNewDefaultsMatchNewBrowser checks escudo.New with no
// options behaves exactly like an ESCUDO-mode browser.New, the
// constructor the removed NewBrowser wrapped.
func TestFacadeNewDefaultsMatchNewBrowser(t *testing.T) {
	site := MustParseOrigin("http://app.example")
	build := func() *Network {
		net := NewNetwork()
		net.Register(site, HandlerFunc(func(req *Request) *Response {
			resp := HTMLResponse(`<div ring=1 r=1 w=1 x=1 id=app>hello</div>`)
			resp.Header.Set("X-Escudo-Maxring", "3")
			resp.Header.Add("Set-Cookie", "sid=tok; Path=/")
			resp.Header.Add("X-Escudo-Cookie", "sid; ring=1; r=1; w=1; x=1")
			return resp
		}))
		return net
	}
	oldB := browser.New(build(), browser.Options{Mode: ModeEscudo})
	newB, err := New(build())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []*Browser{oldB, newB} {
		for i := 0; i < 2; i++ {
			if _, err := b.Navigate("http://app.example/"); err != nil {
				t.Fatal(err)
			}
		}
	}
	oldSeq, newSeq := oldB.Audit.All(), newB.Audit.All()
	if len(oldSeq) == 0 || !reflect.DeepEqual(oldSeq, newSeq) {
		t.Fatalf("audit sequences diverge (%d vs %d decisions)", len(oldSeq), len(newSeq))
	}
}

// TestComposeReproducesHardwiredStack is the facade-level equivalence
// matrix: for ERM and SOP, cached and uncached, the composed pipeline
// must reproduce the exact audit decision sequence and verdicts of the
// previous hard-wired Trace/TraceBatch stack.
func TestComposeReproducesHardwiredStack(t *testing.T) {
	site := MustParseOrigin("http://blog.example")
	other := MustParseOrigin("http://other.example")
	p := Principal(site, 1, "app")
	singles := []struct {
		op Op
		o  Context
	}{
		{OpRead, Object(site, 2, UniformACL(2), "post")},
		{OpWrite, Object(site, 0, UniformACL(0), "head")},
		{OpUse, Object(other, 1, UniformACL(1), "foreign")},
		{OpRead, Object(site, 2, UniformACL(2), "post")},
	}
	region := []Context{
		Object(site, 3, UniformACL(3), "c1"),
		Object(site, 3, UniformACL(3), "c2"),
		Object(site, 0, ACL{}, "k"),
	}
	drive := func(m Monitor) {
		for _, q := range singles {
			m.Authorize(p, q.op, q.o)
		}
		core.AuthorizeBatch(m, p, OpRead, region)
	}
	for _, tc := range []struct {
		name   string
		sop    bool
		cached bool
	}{{"erm-cached", false, true}, {"erm-uncached", false, false}, {"sop-cached", true, true}, {"sop-uncached", true, false}} {
		t.Run(tc.name, func(t *testing.T) {
			oldAudit, newAudit := &AuditLog{}, &AuditLog{}
			var oldM Monitor
			switch {
			case tc.cached && tc.sop:
				oldM = &core.CachedMonitor{Inner: &SOPMonitor{}, Cache: NewDecisionCache(), Trace: oldAudit.Record, TraceBatch: oldAudit.RecordAll}
			case tc.cached:
				oldM = &core.CachedMonitor{Inner: &ERM{}, Cache: NewDecisionCache(), Trace: oldAudit.Record, TraceBatch: oldAudit.RecordAll}
			case tc.sop:
				oldM = &SOPMonitor{Trace: oldAudit.Record, TraceBatch: oldAudit.RecordAll}
			default:
				oldM = &ERM{Trace: oldAudit.Record, TraceBatch: oldAudit.RecordAll}
			}
			var base Monitor = &ERM{}
			if tc.sop {
				base = &SOPMonitor{}
			}
			var cache MonitorLayer
			if tc.cached {
				cache = CacheLayer(NewDecisionCache())
			}
			drive(oldM)
			drive(Compose(base, cache, AuditLayer(newAudit)))
			oldSeq, newSeq := oldAudit.All(), newAudit.All()
			if len(oldSeq) == 0 || !reflect.DeepEqual(oldSeq, newSeq) {
				t.Fatalf("decision sequences diverge:\n old: %v\n new: %v", oldSeq, newSeq)
			}
		})
	}
}

// TestFacadePolicyRoundTrip exercises the unified document through the
// public API: construction, marshalling, lossless parse, validation
// failures.
func TestFacadePolicyRoundTrip(t *testing.T) {
	portal := MustParseOrigin("http://portal.example")
	pol := NewPolicy(portal, DefaultMaxRing)
	pol.Cookies["portalsession"] = UniformAssignment(1)
	pol.APIs["xmlhttprequest"] = 1
	pol.Delegate(MustParseOrigin("http://widget.example"), 2)

	data, err := pol.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParsePolicy(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pol, back) {
		t.Fatalf("round trip diverges:\n in:  %+v\n out: %+v", pol, back)
	}
	bad := pol
	bad.MaxRing = 99999
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range ring count validated")
	}
}

// TestFacadeMashupInBrowserAttack is the mashup-in-browser attack
// case: a delegated widget and a hostile script run inside a REAL
// session built by escudo.New(WithPolicy) — the §7 monitor mediates
// the page pipeline, confining the widget to its floor and shutting
// the undelegated attacker out entirely.
func TestFacadeMashupInBrowserAttack(t *testing.T) {
	portal := MustParseOrigin("http://portal.example")
	widget := MustParseOrigin("http://widget.example")
	evil := MustParseOrigin("http://evil.example")

	net := NewNetwork()
	net.Register(portal, HandlerFunc(func(req *Request) *Response {
		resp := HTMLResponse(`<html><body>` +
			`<div ring=1 r=1 w=1 x=1 id=chrome><h1 id=title>Portal</h1></div>` +
			`<div ring=2 r=2 w=2 x=2 id=slot>loading</div>` +
			`</body></html>`)
		resp.Header.Set("X-Escudo-Maxring", "3")
		resp.Header.Add("Set-Cookie", "portalsession=s3cr3t; Path=/")
		resp.Header.Add("X-Escudo-Cookie", "portalsession; ring=1; r=1; w=1; x=1")
		return resp
	}))

	pol := NewPolicy(portal, DefaultMaxRing)
	pol.Cookies["portalsession"] = UniformAssignment(1)
	pol.Delegate(widget, 2)

	b, err := New(net, WithPolicy(pol), WithDecisionCache(NewDecisionCache()))
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Navigate("http://portal.example/")
	if err != nil {
		t.Fatal(err)
	}

	// The delegated widget does its legitimate job...
	if err := p.RunScriptAs(Principal(widget, 0, "widget"),
		`document.getElementById("slot").innerHTML = "<p id=forecast>Sunny</p>";`); err != nil {
		t.Fatalf("delegated slot write failed: %v", err)
	}
	// ...but its overreach into ring-1 chrome fails the ring rule...
	if err := p.RunScriptAs(Principal(widget, 0, "widget"),
		`document.getElementById("title").innerHTML = "WEATHER CORP";`); err == nil {
		t.Fatal("floored widget rewrote ring-1 chrome")
	}
	// ...and the undelegated attacker cannot even read the slot.
	if err := p.RunScriptAs(Principal(evil, 3, "evil"),
		`var loot = document.getElementById("slot").innerHTML;`); err == nil {
		t.Fatal("undelegated origin read the portal DOM")
	}
	var sawRing, sawOrigin bool
	for _, d := range b.Audit.Denials() {
		switch d.Rule {
		case core.RuleRing:
			sawRing = true
		case core.RuleOrigin:
			sawOrigin = true
		}
	}
	if !sawRing || !sawOrigin {
		t.Fatalf("audit missing denial rules: ring=%v origin=%v", sawRing, sawOrigin)
	}
}

// TestFacadeCompilePolicy drives the §6.2 derivation into the unified
// document through the facade.
func TestFacadeCompilePolicy(t *testing.T) {
	o := MustParseOrigin("http://app.example")
	out, pol, err := CompilePolicy(NewConfigCompiler(), o, []AnnotatedFragment{
		{Kind: FragmentMarkup, ID: "app", Level: LevelApplication, Content: "x"},
		{Kind: FragmentCookie, ID: "sid", Level: LevelApplication},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Config.Cookies["sid"].Ring != 1 || pol.Cookies["sid"].Ring != 1 {
		t.Fatalf("derivation diverges: cfg=%+v doc=%+v", out.Config.Cookies["sid"], pol.Cookies["sid"])
	}
	if err := pol.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeNewRejectsDelegationsUnderSOP pins the fail-loud guard: a
// delegation re-homed under the flat SOP baseline would grant the
// guest full same-origin privilege, so the combination must error.
func TestFacadeNewRejectsDelegationsUnderSOP(t *testing.T) {
	pol := NewPolicy(MustParseOrigin("http://portal.example"), DefaultMaxRing)
	pol.Delegate(MustParseOrigin("http://widget.example"), 2)
	if _, err := New(NewNetwork(), WithMode(ModeSOP), WithPolicy(pol)); err == nil {
		t.Fatal("New accepted delegations under ModeSOP")
	}
	// Delegation-free policies are fine under SOP (the document is
	// simply configuration data), whatever the option order.
	plain := NewPolicy(MustParseOrigin("http://portal.example"), DefaultMaxRing)
	plain.Cookies["sid"] = UniformAssignment(1)
	if _, err := New(NewNetwork(), WithPolicy(plain), WithMode(ModeSOP)); err != nil {
		t.Fatal(err)
	}
}
