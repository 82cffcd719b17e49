package core

import (
	"time"

	"repro/internal/obs"
)

// Tap is everything that observes a decision on its way out of the
// policy stack: the audit log, the /tracez ring, trace provenance, the
// control plane's generation pin, latency attribution and an optional
// callback. WithTap mounts all of it as one layer. Every field is
// optional; a zero Tap composes to the identity.
type Tap struct {
	// Log records every decision: scalars via Record, batched regions
	// zero-copy via RecordAll.
	Log *AuditLog
	// Ring mirrors every decision into the last-N provenance ring the
	// gateway serves at /tracez. It is handed the very slice a batch
	// returns and renders it only when read, so it retains that slice
	// exactly as RecordAll does. That is safe because a returned
	// decision slice is never mutated (see BatchAuthorizer); no layer
	// other than the tap stamps decisions in place.
	Ring *obs.DecisionRing
	// Trace resolves the asking task's trace on every call; a non-nil
	// result stamps each decision with its ID and the next span. The
	// browser hands in a closure reading its current task's trace, so
	// one monitor serves a session across many traced tasks.
	Trace func() *obs.Trace
	// Gen and Page pin every decision to the policy generation and the
	// page load captured when the monitor was built. They are fixed for
	// the tap's lifetime, which is the control plane's isolation
	// contract: a page keeps stamping the generation it started under
	// even if the fleet counter moves mid-flight, so the audit log can
	// prove no load mixed generations (AuditLog.GenerationMix). With
	// both zero nothing is stamped.
	Gen, Page uint64
	// Clock resolves the task's stage clock on every call. When it
	// resolves non-nil, the wall time of the call — the inner stack
	// plus all the recording above — accrues against
	// obs.StageBatchAuth; otherwise time is not read at all. Because
	// the clock is resolved per call, a monitor built before a clock
	// was installed accrues onto it as soon as one is. Timing never
	// changes a verdict or a batch count (invariant 9).
	Clock func() *obs.StageClock
	// OnDecision observes every decision; batched regions are unrolled
	// in input order.
	OnDecision func(Decision)
}

// zero reports whether the tap observes nothing.
func (t *Tap) zero() bool {
	return t.Log == nil && t.Ring == nil && t.Trace == nil && t.Gen == 0 && t.Page == 0 &&
		t.Clock == nil && t.OnDecision == nil
}

// WithTap returns the observation layer. Per call it makes one inner
// Authorize/AuthorizeBatch, stamps the result in one loop (generation
// pin, then trace provenance), hands it to Ring, OnDecision and Log in
// that order, and accrues the whole span on the clock. Mount it
// outermost: outside WithCache, so cached verdict rebuilds are stamped
// with the asking task's trace rather than the task that warmed the
// cache, and outside WithDelegations, so the log records the original
// principal. A zero tap yields a pass-through layer.
func WithTap(t Tap) Layer {
	return func(inner Monitor) Monitor {
		if t.zero() {
			return inner
		}
		return &tapLayer{Tap: t, inner: inner}
	}
}

// tapLayer is a mounted Tap.
type tapLayer struct {
	Tap
	inner Monitor
}

var (
	_ Monitor         = (*tapLayer)(nil)
	_ BatchAuthorizer = (*tapLayer)(nil)
)

// start resolves the clock and, only if there is one, reads the time.
func (m *tapLayer) start() (*obs.StageClock, time.Time) {
	if m.Clock == nil {
		return nil, time.Time{}
	}
	c := m.Clock()
	if c == nil {
		return nil, time.Time{}
	}
	return c, time.Now()
}

// stamp writes the generation pin and the asking task's provenance
// into ds, one span per decision in order.
func (m *tapLayer) stamp(ds []Decision) {
	var tr *obs.Trace
	if m.Trace != nil {
		tr = m.Trace()
	}
	pin := m.Gen != 0 || m.Page != 0
	if tr == nil && !pin {
		return
	}
	var id string
	if tr != nil {
		id = tr.ID()
	}
	for i := range ds {
		if pin {
			ds[i].PolicyGen, ds[i].PageID = m.Gen, m.Page
		}
		if tr != nil {
			ds[i].TraceID, ds[i].Span = id, tr.NextSpan()
		}
	}
}

// Authorize implements Monitor.
func (m *tapLayer) Authorize(p Context, op Op, o Context) Decision {
	clock, start := m.start()
	one := [1]Decision{m.inner.Authorize(p, op, o)}
	m.stamp(one[:])
	d := one[0]
	if m.Ring != nil {
		r := ringSingle(d)
		m.Ring.RecordBatch(&r)
	}
	if m.OnDecision != nil {
		m.OnDecision(d)
	}
	if m.Log != nil {
		m.Log.Record(d)
	}
	if clock != nil {
		clock.Add(obs.StageBatchAuth, time.Since(start))
	}
	return d
}

// AuthorizeBatch implements BatchAuthorizer: the inner batch keeps its
// per-class dedup untouched, then every node's decision is stamped and
// the region is recorded once — one ring lock and one audit ticket
// range per region, one event and one record per node.
func (m *tapLayer) AuthorizeBatch(p Context, op Op, objects []Context) []Decision {
	clock, start := m.start()
	out := AuthorizeBatch(m.inner, p, op, objects)
	m.stamp(out)
	if m.Ring != nil {
		m.Ring.RecordBatch(ringBatch(out))
	}
	if m.OnDecision != nil {
		for _, d := range out {
			m.OnDecision(d)
		}
	}
	if m.Log != nil {
		m.Log.RecordAll(out)
	}
	if clock != nil {
		clock.Add(obs.StageBatchAuth, time.Since(start))
	}
	return out
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
