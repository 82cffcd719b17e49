package browser

import (
	"sync"

	"repro/internal/core"
	"repro/internal/origin"
)

// History is the browser's session history — part of the browser
// state that ESCUDO "mandatorily assigns ... to ring 0" (§4.1):
// JavaScript programs cannot read or manipulate it unless they run in
// ring 0, closing the visited-link privacy attacks of Jackson et al.
// cited by the paper.
type History struct {
	mu      sync.RWMutex
	entries []string
	visited map[string]bool
}

// maxHistoryEntries bounds the session history's entry list, as real
// browsers bound theirs (Firefox and Chrome keep 50): a long-lived
// session must not grow without bound. The visited set is separate and
// keeps every URL.
const maxHistoryEntries = 50

// Visit appends a URL to the history, dropping the oldest entry at
// maxHistoryEntries, and marks it visited.
func (h *History) Visit(url string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.entries) == maxHistoryEntries {
		h.entries = append(h.entries[:0], h.entries[1:]...)
	}
	h.entries = append(h.entries, url)
	if h.visited == nil {
		h.visited = map[string]bool{}
	}
	h.visited[url] = true
}

// Len returns the number of history entries.
func (h *History) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.entries)
}

// Entries returns a copy of the history.
func (h *History) Entries() []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]string, len(h.entries))
	copy(out, h.entries)
	return out
}

// Previous returns the URL before the current one, for back
// navigation; ok is false at the start of the session.
func (h *History) Previous() (string, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if len(h.entries) < 2 {
		return "", false
	}
	return h.entries[len(h.entries)-2], true
}

// Visited reports whether the URL has been visited — the signal the
// visited-link sniffing attacks read.
func (h *History) Visited(url string) bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.visited[url]
}

// Context returns the browser-state object context for an origin:
// always ring 0, ring-0 ACL, non-configurable (§4.1 "In our current
// model, the ring assignment of browser state is not configurable").
func historyContext(o origin.Origin) core.Context {
	return core.Object(o, core.RingKernel, core.UniformACL(core.RingKernel), "browser-state history")
}
