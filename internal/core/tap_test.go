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
// The full-scale batch counts (figure4 4175→125, phpbb 1312 and mixed
// 512 distinct) are pinned by TestDefaultLoadBatchCounts in
// cmd/escudo-serve; this test pins the mechanism: the tap must not
// change how many decisions the batch path computes.
func obsRegion(site origin.Origin, n int) []Context {
	region := make([]Context, 0, n)
	for i := 0; i < n; i++ {
		ring := Ring(1 + i%3)
		region = append(region, Object(site, ring, UniformACL(ring), fmt.Sprintf("node-%d", i)))
	}
	return region
}

// TestWithObsBatchProvenance covers the tap's Trace and Ring under
// batch authorization: one trace event per node, consecutive spans,
// identical audit sequences and identical per-class computation counts
// versus a tap that only audits.
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
	plain := Compose(&ERM{}, WithCache(NewDecisionCache()), WithTap(Tap{Log: plainAudit}))
	plainOut, plainStats := run(plain)

	tr := obs.NewTrace()
	ring := obs.NewDecisionRing(0)
	tracedAudit := &AuditLog{}
	traced := Compose(&ERM{}, WithCache(NewDecisionCache()),
		WithTap(Tap{Log: tracedAudit, Ring: ring, Trace: func() *obs.Trace { return tr }}))
	tracedOut, tracedStats := run(traced)

	// Per-class computation counts unchanged: provenance adds zero
	// decision computations.
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
	// input order, and the audit log carries the stamps (the tap stamps
	// before it records).
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
	m := Compose(&ERM{}, WithTap(Tap{Ring: ring, Trace: func() *obs.Trace { return tr }}))

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
// decisions unstamped but still mirrored, and that a zero tap is a
// pass-through.
func TestWithObsNilTrace(t *testing.T) {
	base := &ERM{}
	if m := Compose(base, WithTap(Tap{})); m != Monitor(base) {
		t.Fatalf("WithTap(Tap{}) must be a pass-through, got %T", m)
	}

	site := origin.MustParse("http://site.example")
	p := Principal(site, 1, "s")
	ring := obs.NewDecisionRing(4)
	m := Compose(base, WithTap(Tap{Ring: ring, Trace: func() *obs.Trace { return nil }}))
	d := m.Authorize(p, OpRead, Object(site, 2, UniformACL(2), "o"))
	if d.TraceID != "" || d.Span != 0 {
		t.Fatalf("untraced decision stamped: %+v", d)
	}
	if ring.Total() != 1 {
		t.Fatalf("ring total %d, want 1", ring.Total())
	}
}

// TestWithObsRecordPathAllocs pins the tap's record path. Mirroring a
// region into the ring costs a constant number of allocations per
// batch, whatever its length, and at most one per scalar decision —
// events are rendered when the ring is read, never when recorded. A
// fully loaded tap (every field set) stays within that same one extra
// allocation over the bare base monitor.
func TestWithObsRecordPathAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	site := origin.MustParse("http://site.example")
	p := Principal(site, 1, "app-script")
	tr := obs.NewTrace()
	trace := func() *obs.Trace { return tr }
	clock := obs.NewStageClock()
	var seen int
	bare := Monitor(&ERM{})
	plain := Compose(&ERM{}, WithTap(Tap{Trace: trace}))
	ringed := Compose(&ERM{}, WithTap(Tap{Ring: obs.NewDecisionRing(64), Trace: trace}))
	loaded := Compose(&ERM{}, WithTap(Tap{
		Log:        &AuditLog{},
		Ring:       obs.NewDecisionRing(64),
		Trace:      trace,
		Gen:        3,
		Page:       7,
		Clock:      func() *obs.StageClock { return clock },
		OnDecision: func(Decision) { seen++ },
	}))

	for _, n := range []int{1, 500} {
		region := obsRegion(site, n)
		batch := func(m Monitor) float64 {
			return testing.AllocsPerRun(200, func() { AuthorizeBatch(m, p, OpRead, region) })
		}
		if extra := batch(ringed) - batch(plain); extra > 1 {
			t.Errorf("ring adds %.1f allocs to a %d-node batch, want at most 1", extra, n)
		}
		if extra := batch(loaded) - batch(bare); extra > 1 {
			t.Errorf("loaded tap adds %.1f allocs to a %d-node batch, want at most 1", extra, n)
		}
	}

	o := Object(site, 2, UniformACL(2), "post")
	single := func(m Monitor) float64 {
		return testing.AllocsPerRun(1000, func() { m.Authorize(p, OpRead, o) })
	}
	if extra := single(ringed) - single(plain); extra > 1 {
		t.Errorf("ring adds %.1f allocs to a scalar decision, want at most 1", extra)
	}
	if extra := single(loaded) - single(bare); extra > 1 {
		t.Errorf("loaded tap adds %.1f allocs to a scalar decision, want at most 1", extra)
	}
	if seen == 0 || clock.Nanos(obs.StageBatchAuth) == 0 {
		t.Fatalf("loaded tap observed nothing: %d callbacks, %d ns", seen, clock.Nanos(obs.StageBatchAuth))
	}
}

// TestTapFullyLoaded sets every field of one tap and drives a mixed
// scalar/batch stream through it. Log, Ring and OnDecision must see
// the identical stamped stream — the decisions the caller got back —
// in the same order. The clock is resolved per call: a monitor built
// before any clock is installed accrues batch_auth as soon as one is.
func TestTapFullyLoaded(t *testing.T) {
	site := origin.MustParse("http://site.example")
	other := origin.MustParse("http://other.example")
	p := Principal(site, 1, "app-script")
	tr := obs.NewTrace()

	log := &AuditLog{}
	ring := obs.NewDecisionRing(0)
	var clock *obs.StageClock
	var seen, returned []Decision
	m := Compose(&ERM{}, WithCache(NewDecisionCache()), WithTap(Tap{
		Log:        log,
		Ring:       ring,
		Trace:      func() *obs.Trace { return tr },
		Gen:        4,
		Page:       11,
		Clock:      func() *obs.StageClock { return clock },
		OnDecision: func(d Decision) { seen = append(seen, d) },
	}))

	drive := func() {
		returned = append(returned, m.Authorize(p, OpRead, Object(site, 2, UniformACL(2), "post")))
		returned = append(returned, AuthorizeBatch(m, p, OpRead, obsRegion(site, 9))...)
		returned = append(returned, m.Authorize(p, OpUse, Object(other, 1, UniformACL(1), "foreign")))
		returned = append(returned, AuthorizeBatch(m, p, OpWrite, obsRegion(site, 4))...)
	}

	// No clock yet: nothing to accrue onto, and the stream still flows.
	drive()
	clock = obs.NewStageClock()
	drive()
	if clock.Nanos(obs.StageBatchAuth) <= 0 {
		t.Fatal("monitor built before the clock was installed accrued no batch_auth time")
	}
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		if s != obs.StageBatchAuth && clock.Nanos(s) != 0 {
			t.Fatalf("tap accrued time on foreign stage %s", s)
		}
	}

	if want := 2 * (1 + 9 + 1 + 4); len(returned) != want {
		t.Fatalf("stream returned %d decisions, want %d", len(returned), want)
	}
	for i, d := range returned {
		if d.PolicyGen != 4 || d.PageID != 11 || d.TraceID != tr.ID() || d.Span != uint64(i+1) {
			t.Fatalf("decision %d stamped gen %d page %d trace %q span %d", i, d.PolicyGen, d.PageID, d.TraceID, d.Span)
		}
	}
	if !reflect.DeepEqual(returned, seen) {
		t.Fatal("OnDecision stream diverges from the returned decisions")
	}
	if !reflect.DeepEqual(returned, log.All()) {
		t.Fatal("audit stream diverges from the returned decisions")
	}
	eager := obs.NewDecisionRing(0)
	for _, d := range returned {
		eager.Record(event(d))
	}
	if got, want := ring.Snapshot(obs.MatchAny), eager.Snapshot(obs.MatchAny); !reflect.DeepEqual(got, want) {
		t.Fatalf("ring stream diverges from the returned decisions\n got: %+v\nwant: %+v", got, want)
	}
}

// TestWithTraceUnrollsBatches checks OnDecision sees one decision per
// node for batched regions.
func TestWithTraceUnrollsBatches(t *testing.T) {
	var seen []Decision
	m := Compose(&ERM{}, WithTap(Tap{OnDecision: func(d Decision) { seen = append(seen, d) }}))
	p, _, batchOp, region := pipeQueries()
	out := AuthorizeBatch(m, p, batchOp, region)
	if len(out) != len(region) || len(seen) != len(region) {
		t.Fatalf("batch returned %d decisions, trace saw %d, want %d", len(out), len(seen), len(region))
	}
	if !reflect.DeepEqual(out, seen) {
		t.Fatal("trace stream diverges from returned decisions")
	}
}

// TestWithGenStampsScalarAndBatch pins the generation pin: every
// decision — scalar or batched — carries the pinned generation and
// page identity, and nothing else about the decision changes.
func TestWithGenStampsScalarAndBatch(t *testing.T) {
	inner := &ERM{}
	m := WithTap(Tap{Gen: 7, Page: 42})(inner)
	p := Principal(batchSite, 1, "script")
	o := Object(batchSite, 2, UniformACL(2), "node")

	d := m.Authorize(p, OpRead, o)
	want := inner.Authorize(p, OpRead, o)
	if d.Allowed != want.Allowed || d.Rule != want.Rule {
		t.Fatalf("stamping changed the verdict: %v/%v vs %v/%v", d.Allowed, d.Rule, want.Allowed, want.Rule)
	}
	if d.PolicyGen != 7 || d.PageID != 42 {
		t.Fatalf("scalar decision stamped %d/%d, want 7/42", d.PolicyGen, d.PageID)
	}

	ba, ok := m.(BatchAuthorizer)
	if !ok {
		t.Fatal("tap lost the batched path")
	}
	out := ba.AuthorizeBatch(p, OpRead, batchObjects(20, 4))
	for i, d := range out {
		if d.PolicyGen != 7 || d.PageID != 42 {
			t.Fatalf("batch decision %d stamped %d/%d, want 7/42", i, d.PolicyGen, d.PageID)
		}
	}
}

// TestWithGenPreservesBatchDedup pins the batch counters across the
// tap: stamping happens after the inner batched path runs, so the
// distinct-decision dedup the cache relies on is untouched — the
// equivalence invariant's fixed batch counts survive a mounted
// control plane.
func TestWithGenPreservesBatchDedup(t *testing.T) {
	cache := NewDecisionCache()
	cm := &CachedMonitor{Inner: &ERM{}, Cache: cache}
	m := WithTap(Tap{Gen: 3, Page: 9})(cm)
	p := Principal(batchSite, 1, "script")
	objs := batchObjects(60, 3)
	m.(BatchAuthorizer).AuthorizeBatch(p, OpRead, objs)
	st := cache.Stats()
	if got := st.Hits + st.Misses; got != 3 {
		t.Fatalf("cache probes through the tap = %d, want 3 (one per class)", got)
	}
}

// TestWithGenZeroIsPassThrough pins the unwired default: a zero tap —
// and a zero generation stamp in particular — composes to the
// identity, so a deployment without a control plane or any observer
// runs the bare policy stack.
func TestWithGenZeroIsPassThrough(t *testing.T) {
	inner := &ERM{}
	if m := WithTap(Tap{Gen: 0, Page: 0})(inner); m != Monitor(inner) {
		t.Fatal("a zero tap built a layer instead of passing through")
	}
}

// TestGenerationMixAudit pins the invariant's auditor: pages whose
// decisions all share one generation are clean; a page that records
// two generations is flagged as mixed.
func TestGenerationMixAudit(t *testing.T) {
	log := &AuditLog{}
	p := Principal(batchSite, 1, "script")
	o := Object(batchSite, 2, UniformACL(2), "node")

	// The production shape: one tap pins and records, so the log sees
	// decisions already stamped.
	stack := func(gen, page uint64) Monitor {
		return Compose(&ERM{}, WithTap(Tap{Log: log, Gen: gen, Page: page}))
	}

	// Page 1 decides twice under generation 4; page 2 once under 5.
	stack(4, 1).Authorize(p, OpRead, o)
	stack(4, 1).Authorize(p, OpWrite, o)
	stack(5, 2).Authorize(p, OpRead, o)
	// A request-scoped decision (no page) is invisible to the audit.
	stack(5, 0).Authorize(p, OpRead, o)

	mix := log.GenerationMix()
	if mix.Pages != 2 || mix.Mixed != 0 || mix.Generations != 2 {
		t.Fatalf("clean log mix = %+v, want 2 pages, 0 mixed, 2 generations", mix)
	}

	// Now poison page 1 with a second generation.
	stack(6, 1).Authorize(p, OpRead, o)
	mix = log.GenerationMix()
	if mix.Mixed != 1 {
		t.Fatalf("poisoned log mix = %+v, want 1 mixed page", mix)
	}
}

// TestStageTimingNeverChangesDecisions pins invariant 9 at the layer
// level: the same query stream through a timed and an untimed tap
// yields byte-identical audit sequences, and batched regions keep
// their exact decision counts.
func TestStageTimingNeverChangesDecisions(t *testing.T) {
	plainAudit := &AuditLog{}
	plain := Compose(&ERM{}, WithCache(NewDecisionCache()), WithTap(Tap{Log: plainAudit}))

	clock := obs.NewStageClock()
	timedAudit := &AuditLog{}
	timed := Compose(&ERM{}, WithCache(NewDecisionCache()),
		WithTap(Tap{Log: timedAudit, Clock: func() *obs.StageClock { return clock }}))

	driveMonitor(plain)
	driveMonitor(timed)

	plainSeq, timedSeq := plainAudit.All(), timedAudit.All()
	if len(plainSeq) == 0 {
		t.Fatal("untimed stack recorded nothing; stream broken")
	}
	if !reflect.DeepEqual(plainSeq, timedSeq) {
		t.Fatalf("timing changed the decision sequence:\n untimed: %v\n timed: %v", plainSeq, timedSeq)
	}
	if clock.Nanos(obs.StageBatchAuth) <= 0 {
		t.Fatal("timed stack accrued no batch_auth time")
	}
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		if s != obs.StageBatchAuth && clock.Nanos(s) != 0 {
			t.Fatalf("pipeline layer accrued time on foreign stage %s", s)
		}
	}

	// Batch counts are part of the invariant: the timed tap must
	// return the inner region verbatim.
	p, _, batchOp, region := pipeQueries()
	out := AuthorizeBatch(timed, p, batchOp, region)
	if len(out) != len(region) {
		t.Fatalf("timed batch returned %d decisions, want %d", len(out), len(region))
	}
}

// TestStageTimingNilClock pins the pass-through and the nil-resolve
// paths: a tap whose only field is a nil clock func composes to the
// base monitor, and a func that resolves to nil still authorizes
// correctly.
func TestStageTimingNilClock(t *testing.T) {
	base := &ERM{}
	if m := Compose(base, WithTap(Tap{Clock: nil})); m != Monitor(base) {
		t.Fatalf("nil clock func must compose to the base monitor, got %T", m)
	}
	m := Compose(base, WithTap(Tap{Clock: func() *obs.StageClock { return nil }}))
	p, singles, _, _ := pipeQueries()
	d := m.Authorize(p, singles[0].op, singles[0].o)
	if !d.Allowed {
		t.Fatalf("nil-resolving clock broke authorization: %v", d)
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
		m := Compose(&ERM{}, WithTap(Tap{
			Ring:  lazy,
			Trace: func() *obs.Trace { return cur },
			Gen:   uint64(1 + step/10),
			Page:  uint64(step + 1),
		}))
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
			m := Compose(&ERM{}, WithTap(Tap{Ring: ring, Trace: func() *obs.Trace { return tr }}))
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
