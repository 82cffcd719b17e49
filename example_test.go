package escudo_test

import (
	"fmt"

	escudo "repro"
)

// ExampleERM demonstrates the three-rule MAC policy of paper §4.2.
func ExampleERM() {
	blog := escudo.MustParseOrigin("http://blog.example")
	erm := &escudo.ERM{}

	comment := escudo.Principal(blog, 3, "comment")
	post := escudo.Object(blog, 2, escudo.ACL{Read: 1, Write: 0, Use: 2}, "post")

	d := erm.Authorize(comment, escudo.OpWrite, post)
	fmt.Println(d.Allowed, d.Rule)

	app := escudo.Principal(blog, 0, "app")
	d = erm.Authorize(app, escudo.OpWrite, post)
	fmt.Println(d.Allowed, d.Rule)
	// Output:
	// false ring-rule
	// true allowed
}

// ExampleSOPMonitor shows the baseline the paper criticizes: same
// origin means every privilege, regardless of trustworthiness (§2.3).
func ExampleSOPMonitor() {
	blog := escudo.MustParseOrigin("http://blog.example")
	sop := &escudo.SOPMonitor{}

	untrusted := escudo.Principal(blog, 3, "untrusted comment")
	trusted := escudo.Object(blog, 0, escudo.UniformACL(0), "trusted content")

	d := sop.Authorize(untrusted, escudo.OpWrite, trusted)
	fmt.Println(d.Allowed)
	// Output:
	// true
}

// ExampleNew loads an ESCUDO-configured page end to end: the
// response's AC tags and X-Escudo headers label the DOM, and a
// hostile ring-3 script is denied by the ring rule.
func ExampleNew() {
	site := escudo.MustParseOrigin("http://app.example")
	net := escudo.NewNetwork()
	net.Register(site, escudo.HandlerFunc(func(req *escudo.Request) *escudo.Response {
		resp := escudo.HTMLResponse(
			`<div ring=1 r=1 w=1 x=1 id=app><p id=msg>hello</p></div>` +
				`<div ring=3 r=2 w=2 x=2 id=user>` +
				`<script>document.getElementById("msg").innerText = "pwned";</script>` +
				`</div>`)
		resp.Header.Set("X-Escudo-Maxring", "3")
		return resp
	}))

	b, err := escudo.New(net)
	if err != nil {
		panic(err)
	}
	page, err := b.Navigate("http://app.example/")
	if err != nil {
		panic(err)
	}
	fmt.Println("denials:", len(page.ScriptErrors))
	fmt.Println(page.RenderText())
	// Output:
	// denials: 1
	// hello
}

// ExampleDelegation shows the §7 mashup extension: a portal grants a
// widget origin ring-2 authority inside its pages, no more.
func ExampleDelegation() {
	portal := escudo.MustParseOrigin("http://portal.example")
	widget := escudo.MustParseOrigin("http://widget.example")

	pol := escudo.NewDelegationPolicy()
	pol.Delegate(escudo.Delegation{Host: portal, Guest: widget, Floor: 2})
	m := &escudo.MashupMonitor{Policy: pol}

	slot := escudo.Object(portal, 2, escudo.UniformACL(2), "ad slot")
	chrome := escudo.Object(portal, 1, escudo.UniformACL(1), "portal chrome")
	guest := escudo.Principal(widget, 0, "widget")

	fmt.Println("slot:", m.Authorize(guest, escudo.OpWrite, slot).Allowed)
	fmt.Println("chrome:", m.Authorize(guest, escudo.OpWrite, chrome).Allowed)
	// Output:
	// slot: true
	// chrome: false
}
