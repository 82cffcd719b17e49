package obs

import "sync"

// DecisionEvent is one audited decision flattened into plain fields —
// no core types, so the ring can live below core in the import graph.
// Core renders these from its decisions when the ring is read.
type DecisionEvent struct {
	// TraceID/Span place the decision in its causal trace; empty/zero
	// when the decision happened outside any traced task.
	TraceID string `json:"trace_id"`
	Span    uint64 `json:"span"`
	// Seq is the ring's own monotone sequence number, so a reader can
	// tell how much history the snapshot spans and whether events were
	// dropped between polls.
	Seq uint64 `json:"seq"`
	// Origin is the object's origin; Ring the object's protection
	// ring — the filterable dimensions of /tracez.
	Origin string `json:"origin"`
	Ring   int    `json:"ring"`
	// Gen is the policy generation the deciding page load was pinned
	// to; zero when no control plane stamped the decision.
	Gen uint64 `json:"gen,omitempty"`
	// Allowed and Rule are the verdict.
	Allowed bool   `json:"allowed"`
	Rule    string `json:"rule"`
	// Principal, Op, Object render the ⟨P ⊳ O⟩ triple for display.
	Principal string `json:"principal"`
	Op        string `json:"op"`
	Object    string `json:"object"`
}

// EventSource is a run of recorded decisions that the ring renders
// only when read. The monitor pipeline's observation tap (core.WithTap)
// implements it over the []core.Decision slice a batch authorization
// returned, so the record path formats nothing; obs never imports
// core.
//
// A source is retained until the ring overwrites its last event, and
// Event may be called from a reader at any time during that window, so
// the data behind it must never change after it is recorded. For
// decision slices that is the BatchAuthorizer contract: a returned
// slice is shared with the audit stream (AuditLog.RecordAll) and the
// ring, and nobody mutates it.
type EventSource interface {
	// Len is the number of events in the run; it must not change.
	Len() int
	// Event renders the i'th event. Its Seq is ignored: the ring
	// numbers events itself.
	Event(i int) DecisionEvent
}

// DecisionRing keeps the last N decision events for the admin /tracez
// endpoint. Recording overwrites the oldest entry; snapshots return
// events oldest-first. It is safe for concurrent use.
//
// Events are rendered on read, not on record: each slot refers to one
// event of a recorded EventSource, and Snapshot renders the retained
// events. RecordBatch takes one mutex per run and formats nothing, so
// mirroring every audited decision costs the audit path a slot write
// per decision; the formatting happens only when an admin polls.
type DecisionRing struct {
	mu   sync.Mutex
	buf  []eventRef
	next uint64 // total events ever recorded
}

// eventRef is one ring slot: the i'th event of src.
type eventRef struct {
	src EventSource
	i   int
}

// DefaultRingSize is the decision-history depth when NewDecisionRing
// is given n <= 0.
const DefaultRingSize = 4096

// NewDecisionRing returns a ring holding the last n events.
func NewDecisionRing(n int) *DecisionRing {
	if n <= 0 {
		n = DefaultRingSize
	}
	return &DecisionRing{buf: make([]eventRef, n)}
}

// renderedEvent is an already-rendered event recorded through Record.
type renderedEvent DecisionEvent

func (e *renderedEvent) Len() int                { return 1 }
func (e *renderedEvent) Event(int) DecisionEvent { return DecisionEvent(*e) }

// Record appends one already-rendered event, overwriting the oldest
// when full.
func (r *DecisionRing) Record(e DecisionEvent) {
	r.RecordBatch((*renderedEvent)(&e))
}

// RecordBatch appends every event of src in order, overwriting the
// oldest when full. src is retained and rendered on read; see
// EventSource for the immutability it must keep.
func (r *DecisionRing) RecordBatch(src EventSource) {
	n := src.Len()
	size := uint64(len(r.buf))
	r.mu.Lock()
	// Only the last len(buf) events of an oversized run survive.
	for i := max(0, n-len(r.buf)); i < n; i++ {
		r.buf[(r.next+uint64(i))%size] = eventRef{src: src, i: i}
	}
	r.next += uint64(n)
	r.mu.Unlock()
}

// Len returns how many events the ring currently holds.
func (r *DecisionRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next < uint64(len(r.buf)) {
		return int(r.next)
	}
	return len(r.buf)
}

// Total returns how many events have ever been recorded (the ring
// holds the last min(Total, size) of them).
func (r *DecisionRing) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// RingFilter selects events from a snapshot. Zero values match
// everything; Verdict is "allow", "deny", or "" for both.
type RingFilter struct {
	TraceID string
	Origin  string
	Verdict string
	// Ring filters by object ring when >= 0; pass -1 for any.
	Ring int
}

// MatchAny is the filter that keeps every event.
var MatchAny = RingFilter{Ring: -1}

// matches reports whether e passes the filter.
func (f RingFilter) matches(e DecisionEvent) bool {
	if f.TraceID != "" && e.TraceID != f.TraceID {
		return false
	}
	if f.Origin != "" && e.Origin != f.Origin {
		return false
	}
	if f.Ring >= 0 && e.Ring != f.Ring {
		return false
	}
	switch f.Verdict {
	case "allow":
		return e.Allowed
	case "deny":
		return !e.Allowed
	}
	return true
}

// Snapshot renders the retained events passing the filter, oldest
// first. The slots are copied under the lock and rendered outside it,
// so a large snapshot never stalls recording.
func (r *DecisionRing) Snapshot(f RingFilter) []DecisionEvent {
	r.mu.Lock()
	size := uint64(len(r.buf))
	n := r.next
	start := uint64(0)
	if n > size {
		start = n - size
	}
	refs := make([]eventRef, 0, n-start)
	for seq := start; seq < n; seq++ {
		refs = append(refs, r.buf[seq%size])
	}
	r.mu.Unlock()
	var out []DecisionEvent
	for k, ref := range refs {
		e := ref.src.Event(ref.i)
		e.Seq = start + uint64(k) + 1
		if f.matches(e) {
			out = append(out, e)
		}
	}
	return out
}
