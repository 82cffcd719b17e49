package core

import (
	"repro/internal/obs"
)

// WithObs returns the provenance layer: every decision flowing out of
// the inner stack is stamped with the current trace (ID plus the next
// span number) and mirrored into the decision ring for the gateway's
// /tracez endpoint. trace is resolved per decision — the browser hands
// in a closure reading its current task's trace — so one layer serves
// a session across many traced tasks. Either argument may be nil; if
// both are, the layer is a pass-through.
//
// The ring gets decisions, not strings: each stamped batch is handed
// over once, as the very slice AuthorizeBatch returns, and rendered
// into obs.DecisionEvents (by event) only when /tracez reads the ring.
// The ring therefore retains that slice, exactly as the audit log's
// RecordAll does — which is safe because a returned decision slice is
// never mutated (see BatchAuthorizer). No layer outside this one may
// stamp decisions in place.
//
// Mount it outside WithCache and inside WithAudit: cache hits rebuild
// verdicts without trace fields, so stamping after the cache keeps a
// decision's provenance tied to the task that asked (never the task
// that happened to warm the cache), and the audit log then records the
// stamped decisions.
func WithObs(trace func() *obs.Trace, ring *obs.DecisionRing) Layer {
	return func(inner Monitor) Monitor {
		if trace == nil && ring == nil {
			return inner
		}
		return &obsLayer{inner: inner, trace: trace, ring: ring}
	}
}

// obsLayer stamps decisions with trace provenance and feeds the ring.
type obsLayer struct {
	inner Monitor
	trace func() *obs.Trace
	ring  *obs.DecisionRing
}

var (
	_ Monitor         = (*obsLayer)(nil)
	_ BatchAuthorizer = (*obsLayer)(nil)
)

// current resolves the task's trace, tolerating a nil provider.
func (m *obsLayer) current() *obs.Trace {
	if m.trace == nil {
		return nil
	}
	return m.trace()
}

// event renders a stamped decision for the ring. It runs only when the
// ring is read (obs.DecisionRing.Snapshot), never on the record path.
func event(d Decision) obs.DecisionEvent {
	return obs.DecisionEvent{
		TraceID:   d.TraceID,
		Span:      d.Span,
		Gen:       d.PolicyGen,
		Origin:    d.Object.Origin.String(),
		Ring:      int(d.Object.Ring),
		Allowed:   d.Allowed,
		Rule:      d.Rule.String(),
		Principal: d.Principal.String(),
		Op:        d.Op.String(),
		Object:    d.Object.String(),
	}
}

// ringBatch is a returned decision slice as an obs.EventSource.
type ringBatch []Decision

func (ds ringBatch) Len() int                      { return len(ds) }
func (ds ringBatch) Event(i int) obs.DecisionEvent { return event(ds[i]) }

// ringSingle is one scalar decision as an obs.EventSource.
type ringSingle Decision

func (d *ringSingle) Len() int                    { return 1 }
func (d *ringSingle) Event(int) obs.DecisionEvent { return event(Decision(*d)) }

// Authorize implements Monitor.
func (m *obsLayer) Authorize(p Context, op Op, o Context) Decision {
	d := m.inner.Authorize(p, op, o)
	if t := m.current(); t != nil {
		d.TraceID = t.ID()
		d.Span = t.NextSpan()
	}
	if m.ring != nil {
		r := ringSingle(d)
		m.ring.RecordBatch(&r)
	}
	return d
}

// AuthorizeBatch implements BatchAuthorizer: the inner batch keeps its
// per-class dedup untouched, then every node's decision is stamped
// with its own span and the stamped region goes to the ring in one
// call — one trace event per node, exactly mirroring the
// complete-mediation invariant, for one ring lock per region.
func (m *obsLayer) AuthorizeBatch(p Context, op Op, objects []Context) []Decision {
	out := AuthorizeBatch(m.inner, p, op, objects)
	if t := m.current(); t != nil {
		id := t.ID()
		for i := range out {
			out[i].TraceID = id
			out[i].Span = t.NextSpan()
		}
	}
	if m.ring != nil {
		m.ring.RecordBatch(ringBatch(out))
	}
	return out
}
