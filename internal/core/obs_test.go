package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/origin"
	"repro/internal/raceflag"
)

// stripProvenance zeroes the trace fields so decision sequences can be
// compared on policy outcome alone.
func stripProvenance(ds []Decision) []Decision {
	out := append([]Decision(nil), ds...)
	for i := range out {
		out[i].TraceID = ""
		out[i].Span = 0
	}
	return out
}

// obsRegion builds a wide batched region collapsing into exactly three
// (origin, ring, ACL) classes — the figure4/phpbb shape in miniature.
// The BENCH pins (figure4 4175→125, phpbb 7408→1312, mixed 3647→512)
// are re-asserted at full scale by BENCH regeneration; this test pins
// the mechanism: WithObs must not change how many decisions the batch
// path computes.
func obsRegion(site origin.Origin, n int) []Context {
	region := make([]Context, 0, n)
	for i := 0; i < n; i++ {
		ring := Ring(1 + i%3)
		region = append(region, Object(site, ring, UniformACL(ring), fmt.Sprintf("node-%d", i)))
	}
	return region
}

// TestWithObsBatchProvenance is the satellite coverage for WithObs
// under batch authorization: one trace event per node, consecutive
// spans, identical audit sequences and identical per-class computation
// counts versus the untraced pipeline.
func TestWithObsBatchProvenance(t *testing.T) {
	site := origin.MustParse("http://site.example")
	p := Principal(site, 1, "app-script")
	region := obsRegion(site, 120)

	run := func(m Monitor) ([]Decision, BatchStats) {
		before := ReadBatchStats()
		out := AuthorizeBatch(m, p, OpRead, region)
		return out, ReadBatchStats().Sub(before)
	}

	plainAudit := &AuditLog{}
	plain := Compose(&ERM{}, WithCache(NewDecisionCache()), WithAudit(plainAudit))
	plainOut, plainStats := run(plain)

	tr := obs.NewTrace()
	ring := obs.NewDecisionRing(0)
	tracedAudit := &AuditLog{}
	traced := Compose(&ERM{}, WithCache(NewDecisionCache()),
		WithObs(func() *obs.Trace { return tr }, ring), WithAudit(tracedAudit))
	tracedOut, tracedStats := run(traced)

	// Per-class computation counts unchanged: the provenance layer adds
	// zero decision computations.
	if plainStats != tracedStats {
		t.Fatalf("batch accounting diverged: plain %+v, traced %+v", plainStats, tracedStats)
	}
	if tracedStats.Nodes != uint64(len(region)) || tracedStats.Distinct != 3 {
		t.Fatalf("batch stats %+v, want %d nodes / 3 distinct", tracedStats, len(region))
	}

	// Identical decision sequences once provenance is stripped.
	if !reflect.DeepEqual(plainOut, stripProvenance(tracedOut)) {
		t.Fatal("traced pipeline changed the decision sequence")
	}
	if !reflect.DeepEqual(stripProvenance(plainAudit.All()), stripProvenance(tracedAudit.All())) {
		t.Fatal("audit sequences diverge between traced and untraced pipelines")
	}

	// Every node's decision is stamped: same trace ID, spans 1..N in
	// input order, and the audit log carries the stamps (WithAudit is
	// outermost).
	for i, d := range tracedOut {
		if d.TraceID != tr.ID() {
			t.Fatalf("node %d trace ID %q, want %q", i, d.TraceID, tr.ID())
		}
		if d.Span != uint64(i+1) {
			t.Fatalf("node %d span %d, want %d", i, d.Span, i+1)
		}
	}
	audited := tracedAudit.All()
	if len(audited) != len(region) {
		t.Fatalf("audit recorded %d decisions, want %d", len(audited), len(region))
	}
	if audited[0].TraceID != tr.ID() || audited[0].Span == 0 {
		t.Fatalf("audit lost provenance: %+v", audited[0])
	}

	// One ring event per node, in span order, faithful to the verdicts.
	events := ring.Snapshot(obs.RingFilter{TraceID: tr.ID(), Ring: -1})
	if len(events) != len(region) {
		t.Fatalf("ring holds %d events for the trace, want %d", len(events), len(region))
	}
	for i, e := range events {
		if e.Span != uint64(i+1) {
			t.Fatalf("event %d span %d, want %d", i, e.Span, i+1)
		}
		if e.Allowed != tracedOut[i].Allowed || e.Rule != tracedOut[i].Rule.String() {
			t.Fatalf("event %d diverges from decision: %+v vs %v", i, e, tracedOut[i])
		}
		if e.Origin != site.String() || e.Ring != int(region[i].Ring) {
			t.Fatalf("event %d object fields wrong: %+v", i, e)
		}
	}
}

// TestWithObsSingles pins the single-query path: stamped spans
// continue across calls and the ring mirrors each decision.
func TestWithObsSingles(t *testing.T) {
	site := origin.MustParse("http://site.example")
	other := origin.MustParse("http://other.example")
	p := Principal(site, 1, "app-script")

	tr := obs.NewTrace()
	ring := obs.NewDecisionRing(8)
	m := Compose(&ERM{}, WithObs(func() *obs.Trace { return tr }, ring))

	allow := m.Authorize(p, OpRead, Object(site, 2, UniformACL(2), "post"))
	deny := m.Authorize(p, OpUse, Object(other, 1, UniformACL(1), "foreign"))
	if !allow.Allowed || deny.Allowed {
		t.Fatalf("verdicts wrong: %v / %v", allow, deny)
	}
	if allow.Span != 1 || deny.Span != 2 || allow.TraceID != deny.TraceID {
		t.Fatalf("span stamping wrong: %+v / %+v", allow, deny)
	}
	if got := len(ring.Snapshot(obs.RingFilter{Verdict: "deny", Ring: -1})); got != 1 {
		t.Fatalf("ring deny filter matched %d, want 1", got)
	}
}

// TestWithObsNilTrace pins that a nil trace provider result leaves
// decisions unstamped but still mirrored, and that WithObs(nil, nil)
// is a pass-through.
func TestWithObsNilTrace(t *testing.T) {
	base := &ERM{}
	if m := Compose(base, WithObs(nil, nil)); m != Monitor(base) {
		t.Fatalf("WithObs(nil, nil) must be a pass-through, got %T", m)
	}

	site := origin.MustParse("http://site.example")
	p := Principal(site, 1, "s")
	ring := obs.NewDecisionRing(4)
	m := Compose(base, WithObs(func() *obs.Trace { return nil }, ring))
	d := m.Authorize(p, OpRead, Object(site, 2, UniformACL(2), "o"))
	if d.TraceID != "" || d.Span != 0 {
		t.Fatalf("untraced decision stamped: %+v", d)
	}
	if ring.Total() != 1 {
		t.Fatalf("ring total %d, want 1", ring.Total())
	}
}

// TestWithObsRecordPathAllocs pins the ring's record path: mirroring a
// region into the ring costs a constant number of allocations per
// batch, whatever its length, and at most one per scalar decision —
// events are rendered when the ring is read, never when recorded.
func TestWithObsRecordPathAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	site := origin.MustParse("http://site.example")
	p := Principal(site, 1, "app-script")
	tr := obs.NewTrace()
	trace := func() *obs.Trace { return tr }
	plain := Compose(&ERM{}, WithObs(trace, nil))
	ringed := Compose(&ERM{}, WithObs(trace, obs.NewDecisionRing(64)))

	for _, n := range []int{1, 500} {
		region := obsRegion(site, n)
		batch := func(m Monitor) float64 {
			return testing.AllocsPerRun(200, func() { AuthorizeBatch(m, p, OpRead, region) })
		}
		if extra := batch(ringed) - batch(plain); extra > 1 {
			t.Errorf("ring adds %.1f allocs to a %d-node batch, want at most 1", extra, n)
		}
	}

	o := Object(site, 2, UniformACL(2), "post")
	single := func(m Monitor) float64 {
		return testing.AllocsPerRun(1000, func() { m.Authorize(p, OpRead, o) })
	}
	if extra := single(ringed) - single(plain); extra > 1 {
		t.Errorf("ring adds %.1f allocs to a scalar decision, want at most 1", extra)
	}
}

// TestDecisionRingRendersLikeEager pins lazy rendering against the
// eager rendering the ring used to do: a mixed stream of batch and
// scalar decisions — several traces (and none), generations, origins,
// rings and denials, enough to wrap the ring — snapshots identically,
// Seq included, under every filter dimension.
func TestDecisionRingRendersLikeEager(t *testing.T) {
	a := origin.MustParse("http://a.example")
	b := origin.MustParse("https://b.example:8443")
	const size = 50
	lazy := obs.NewDecisionRing(size)
	eager := obs.NewDecisionRing(size)
	mirror := func(ds ...Decision) {
		for _, d := range ds {
			eager.Record(event(d))
		}
	}

	var cur *obs.Trace
	var traces []*obs.Trace
	for step := 0; step < 40; step++ {
		switch step % 4 {
		case 0:
			cur = obs.NewTrace()
			traces = append(traces, cur)
		case 3:
			cur = nil
		}
		m := Compose(&ERM{}, WithGen(uint64(1+step/10), uint64(step+1)),
			WithObs(func() *obs.Trace { return cur }, lazy))
		site, other := a, b
		if step%3 == 1 {
			site, other = b, a
		}
		p := Principal(site, Ring(1+step%3), "script")
		region := obsRegion(site, step%7)
		region = append(region, Object(other, 2, UniformACL(2), "foreign"))
		mirror(AuthorizeBatch(m, p, Op(1+step%3), region)...)
		mirror(m.Authorize(p, OpWrite, Object(site, 3, UniformACL(1), "")))
		mirror(m.Authorize(p, OpUse, Object(site, 0, UniformACL(3), "cookie")))
	}
	if lazy.Total() <= size || lazy.Total() != eager.Total() || lazy.Len() != eager.Len() {
		t.Fatalf("totals: lazy %d/%d, eager %d/%d (ring size %d)",
			lazy.Len(), lazy.Total(), eager.Len(), eager.Total(), size)
	}

	filters := []obs.RingFilter{
		obs.MatchAny,
		{Verdict: "allow", Ring: -1},
		{Verdict: "deny", Ring: -1},
		{Origin: a.String(), Ring: -1},
		{Origin: b.String(), Ring: -1},
		{Origin: b.String(), Verdict: "deny", Ring: 2},
		{TraceID: "no-such-trace", Ring: -1},
	}
	for r := 0; r <= 3; r++ {
		filters = append(filters, obs.RingFilter{Ring: r})
	}
	for _, tr := range traces {
		filters = append(filters, obs.RingFilter{TraceID: tr.ID(), Ring: -1})
	}
	var denied, matchedTrace bool
	for _, f := range filters {
		got, want := lazy.Snapshot(f), eager.Snapshot(f)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("filter %+v: lazy snapshot diverges from eager\nlazy:  %+v\neager: %+v", f, got, want)
		}
		denied = denied || (f.Verdict == "deny" && len(got) > 0)
		matchedTrace = matchedTrace || (f.TraceID != "" && len(got) > 0)
	}
	if !denied || !matchedTrace {
		t.Fatalf("stream too thin to pin filters: denials %v, traced events %v", denied, matchedTrace)
	}
	all := lazy.Snapshot(obs.MatchAny)
	if all[0].Seq != lazy.Total()-size+1 || all[len(all)-1].Seq != lazy.Total() {
		t.Fatalf("retained seqs %d..%d, want %d..%d", all[0].Seq, all[len(all)-1].Seq,
			lazy.Total()-size+1, lazy.Total())
	}
}

// TestDecisionRingConcurrentRecordSnapshot races sessions recording
// batches and scalars into one ring against /tracez-style readers:
// every snapshot is a contiguous, fully rendered window. Run it under
// -race.
func TestDecisionRingConcurrentRecordSnapshot(t *testing.T) {
	site := origin.MustParse("http://site.example")
	ring := obs.NewDecisionRing(128)
	const writers, rounds = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := obs.NewTrace()
			m := Compose(&ERM{}, WithObs(func() *obs.Trace { return tr }, ring))
			p := Principal(site, 1, fmt.Sprintf("writer-%d", w))
			for i := 0; i < rounds; i++ {
				AuthorizeBatch(m, p, OpRead, obsRegion(site, 1+i%40))
				m.Authorize(p, OpWrite, Object(site, 3, UniformACL(2), "x"))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		events := ring.Snapshot(obs.MatchAny)
		for i, e := range events {
			if i > 0 && e.Seq != events[i-1].Seq+1 {
				t.Fatalf("snapshot not contiguous: seq %d after %d", e.Seq, events[i-1].Seq)
			}
			if e.Origin != site.String() || e.TraceID == "" || e.Object == "" {
				t.Fatalf("event %d badly rendered: %+v", e.Seq, e)
			}
		}
	}
	want := uint64(0)
	for i := 0; i < rounds; i++ {
		want += uint64(1 + i%40 + 1)
	}
	if got := ring.Total(); got != writers*want {
		t.Fatalf("ring total %d, want %d", got, writers*want)
	}
	if got := len(ring.Snapshot(obs.MatchAny)); got != 128 {
		t.Fatalf("final snapshot holds %d events, want 128", got)
	}
}
