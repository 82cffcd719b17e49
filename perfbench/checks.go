package main

import (
	"fmt"
	"net/url"
	"sort"
	"strings"

	"repro/internal/attack"
	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/scenarios"
	"repro/internal/web"
)

// probeUser is the account of the single-session probes the checks
// run after the measured windows.
const probeUser = "probe"

// checkCorpus runs the §6.4 attack corpus untimed: every attack must
// succeed against the SOP browser and be neutralized under ESCUDO.
func checkCorpus() error {
	want := len(attack.Corpus())
	for _, mode := range []browser.Mode{browser.ModeEscudo, browser.ModeSOP} {
		results := attack.RunAll(mode)
		if len(results) != want {
			return fmt.Errorf("corpus under %s: %d results for %d attacks", mode, len(results), want)
		}
		for _, r := range results {
			if r.Err != nil {
				return fmt.Errorf("corpus under %s: %s: %w", mode, r.Attack.Name, r.Err)
			}
			if r.Succeeded != (mode == browser.ModeSOP) {
				return fmt.Errorf("corpus under %s: %s succeeded=%v", mode, r.Attack.Name, r.Succeeded)
			}
		}
	}
	fmt.Printf("check  corpus: %d/%d neutralized under ESCUDO, %d/%d succeed under SOP\n", want, want, want, want)
	return nil
}

// pageShape is what one load of a page costs the policy stack.
type pageShape struct {
	nodes, computed, audited int
}

// shapePins are the per-page node and distinct-decision counts of
// every page whose shape does not depend on the seed, measured on a
// steady-state load (cookies already set). A page that changes shape
// changes what every metric measures, so it fails the run.
var shapePins = map[string]pageShape{
	"bench:/s1":            {nodes: 26, computed: 1, audited: 16},
	"bench:/s2":            {nodes: 206, computed: 1, audited: 106},
	"bench:/s3":            {nodes: 66, computed: 4, audited: 36},
	"bench:/s4":            {nodes: 146, computed: 4, audited: 76},
	"bench:/s5":            {nodes: 406, computed: 4, audited: 206},
	"bench:/s6":            {nodes: 87, computed: 3, audited: 66},
	"bench:/s7":            {nodes: 156, computed: 4, audited: 81},
	"bench:/s8":            {nodes: 506, computed: 4, audited: 256},
	"cal:/":                {nodes: 38, computed: 4, audited: 25},
	"forum:/":              {nodes: 34, computed: 4, audited: 26},
	"forum:/viewtopic?t=1": {nodes: 22, computed: 4, audited: 18},
	"forum:/viewtopic?t=4": {nodes: 24, computed: 4, audited: 19},
	"forum:/viewtopic?t=8": {nodes: 26, computed: 4, audited: 20},
	"portal:/":             {nodes: 45, computed: 8, audited: 61},
}

// pageKey names a probed page independently of per-session hosts:
// "forum:/viewtopic?t=1" for any forum-N.example.
func pageKey(rawURL string) string {
	u, err := url.Parse(rawURL)
	if err != nil {
		return rawURL
	}
	host, _, _ := strings.Cut(u.Hostname(), ".")
	host, _, _ = strings.Cut(host, "-")
	return host + ":" + u.RequestURI()
}

// checkShapes loads each distinct page of a probe session twice and
// requires both loads to have the same shape (the shape is a function
// of the seed alone), and every pinned page to have its pinned shape.
func (w *world) checkShapes() error {
	s, err := w.newSess(len(w.sessions)+7, probeUser)
	if err != nil {
		return fmt.Errorf("probe session: %w", err)
	}
	urls := map[string]bool{}
	var order []string
	for _, st := range s.steps {
		if !urls[st.url] {
			urls[st.url] = true
			order = append(order, st.url)
		}
	}
	sort.Strings(order)
	checks := map[string]func(*browser.Page) error{}
	for _, st := range s.steps {
		checks[st.url] = st.check
	}
	for _, u := range order {
		var shapes [2]pageShape
		for i := range shapes {
			before, audited := core.ReadBatchStats(), s.b.Audit.Len()
			p, err := s.b.Navigate(u)
			if err != nil {
				return fmt.Errorf("probe %s: %w", u, err)
			}
			if err := checks[u](p); err != nil {
				return fmt.Errorf("probe: %w", err)
			}
			shapes[i] = pageShape{
				nodes:    pageNodes(p),
				computed: int(core.ReadBatchStats().Sub(before).Distinct),
				audited:  s.b.Audit.Len() - audited,
			}
		}
		key := pageKey(u)
		fmt.Printf("check  shape %-28s nodes %5d  computed %4d  audited %5d\n", key, shapes[0].nodes, shapes[0].computed, shapes[0].audited)
		if shapes[0] != shapes[1] {
			return fmt.Errorf("page %s changes shape between loads: %+v then %+v", key, shapes[0], shapes[1])
		}
		if pin, ok := shapePins[key]; ok && pin != shapes[0] {
			return fmt.Errorf("page %s: shape %+v, pinned %+v", key, shapes[0], pin)
		}
	}
	return nil
}

// verdict is the policy outcome of one audited decision, without the
// provenance stamps that legitimately differ by transport.
type verdict struct {
	allowed bool
	rule    core.RuleID
	op      core.Op
	pRing   core.Ring
	oRing   core.Ring
	oLabel  string
}

// checkWireEquivalence loads a fixed sample of pages through the
// gateway and through an in-memory network serving identically seeded
// apps, and requires identical verdict sequences and node counts.
func (w *world) checkWireEquivalence(seed int64) error {
	sample := []string{benchOrigin.URL("/s1"), benchOrigin.URL("/s3"), benchOrigin.URL("/s5"), forumOrigin.URL("/")}
	fs := newForumSeed(sessionRNG(seed, 1000), probeUser)
	wire, ids := fs.build(forumOrigin, false)
	for _, id := range ids {
		sample = append(sample, forumOrigin.URL(fmt.Sprintf("/viewtopic?t=%d", id)))
	}
	w.router.byUser[probeUser].set(wire)

	mem := web.NewNetwork()
	mem.Register(benchOrigin, scenarios.Handler())
	memApp, _ := fs.build(forumOrigin, false)
	memRouter := newForumRouter(probeUser)
	memRouter.byUser[probeUser].set(memApp)
	mem.Register(forumOrigin, memRouter)

	run := func(t web.Transport) ([]verdict, []int, error) {
		b := browser.New(t, browser.Options{Mode: browser.ModeEscudo, Cache: core.NewDecisionCache()})
		s := &session{b: b}
		if err := s.login(forumOrigin.URL("/"), probeUser); err != nil {
			return nil, nil, err
		}
		var nodes []int
		for _, u := range sample {
			p, err := b.Navigate(u)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", u, err)
			}
			nodes = append(nodes, pageNodes(p))
		}
		var vs []verdict
		for _, d := range b.Audit.All() {
			vs = append(vs, verdict{d.Allowed, d.Rule, d.Op, d.Principal.Ring, d.Object.Ring, d.Object.Label})
		}
		return vs, nodes, nil
	}
	wv, wn, err := run(w.ct)
	if err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	mv, mn, err := run(mem)
	if err != nil {
		return fmt.Errorf("memory probe: %w", err)
	}
	if fmt.Sprint(wn) != fmt.Sprint(mn) {
		return fmt.Errorf("wire and memory node counts differ: %v vs %v", wn, mn)
	}
	if len(wv) != len(mv) {
		return fmt.Errorf("wire audited %d decisions, memory %d", len(wv), len(mv))
	}
	for i := range wv {
		if wv[i] != mv[i] {
			return fmt.Errorf("decision %d differs: wire %+v, memory %+v", i, wv[i], mv[i])
		}
	}
	denied := 0
	for _, v := range wv {
		if !v.allowed {
			denied++
		}
	}
	fmt.Printf("check  wire = memory on %d pages: %d decisions (%d denied) identical\n", len(sample), len(wv), denied)
	return nil
}
