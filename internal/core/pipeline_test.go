package core

import (
	"reflect"
	"testing"

	"repro/internal/origin"
)

// pipeQueries builds a deterministic mixed query stream: same-origin
// allowed and denied singles plus a batched region with repeated
// equivalence classes.
func pipeQueries() (p Context, singles []struct {
	op Op
	o  Context
}, batchOp Op, region []Context) {
	site := origin.MustParse("http://site.example")
	other := origin.MustParse("http://other.example")
	p = Principal(site, 1, "app-script")
	singles = []struct {
		op Op
		o  Context
	}{
		{OpRead, Object(site, 2, UniformACL(2), "post")},
		{OpWrite, Object(site, 0, UniformACL(0), "head")},
		{OpUse, Object(other, 1, UniformACL(1), "foreign-cookie")},
		{OpRead, Object(site, 2, UniformACL(2), "post")}, // repeat: cache hit
	}
	batchOp = OpRead
	region = []Context{
		Object(site, 2, UniformACL(2), "c1"),
		Object(site, 2, UniformACL(2), "c2"), // same class as c1
		Object(site, 3, UniformACL(3), "u1"),
		Object(site, 0, ACL{}, "k1"),
		Object(site, 2, UniformACL(2), "c3"), // same class again
	}
	return
}

// driveMonitor runs the standard stream through a monitor.
func driveMonitor(m Monitor) {
	p, singles, batchOp, region := pipeQueries()
	for _, q := range singles {
		m.Authorize(p, q.op, q.o)
	}
	AuthorizeBatch(m, p, batchOp, region)
	for _, q := range singles {
		m.Authorize(p, q.op, q.o)
	}
}

// TestComposeMatchesHardwiredStack proves the pipeline reproduces the
// exact audit decision sequence of the previous hard-wired stack, for
// ERM and SOP, cached and uncached.
func TestComposeMatchesHardwiredStack(t *testing.T) {
	cases := []struct {
		name   string
		sop    bool
		cached bool
	}{
		{"erm-cached", false, true},
		{"erm-uncached", false, false},
		{"sop-cached", true, true},
		{"sop-uncached", true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Old style: trace hooks wired by hand.
			oldAudit := &AuditLog{}
			var oldM Monitor
			switch {
			case tc.cached && tc.sop:
				oldM = &CachedMonitor{Inner: &SOPMonitor{}, Cache: NewDecisionCache(), Trace: oldAudit.Record, TraceBatch: oldAudit.RecordAll}
			case tc.cached:
				oldM = &CachedMonitor{Inner: &ERM{}, Cache: NewDecisionCache(), Trace: oldAudit.Record, TraceBatch: oldAudit.RecordAll}
			case tc.sop:
				oldM = &SOPMonitor{Trace: oldAudit.Record, TraceBatch: oldAudit.RecordAll}
			default:
				oldM = &ERM{Trace: oldAudit.Record, TraceBatch: oldAudit.RecordAll}
			}

			// New style: composed pipeline.
			newAudit := &AuditLog{}
			var base Monitor = &ERM{}
			if tc.sop {
				base = &SOPMonitor{}
			}
			var cacheLayer Layer
			if tc.cached {
				cacheLayer = WithCache(NewDecisionCache())
			}
			newM := Compose(base, cacheLayer, WithTap(Tap{Log: newAudit}))

			driveMonitor(oldM)
			driveMonitor(newM)

			oldSeq, newSeq := oldAudit.All(), newAudit.All()
			if len(oldSeq) == 0 {
				t.Fatal("hard-wired stack recorded nothing; stream broken")
			}
			if !reflect.DeepEqual(oldSeq, newSeq) {
				t.Fatalf("decision sequences diverge:\n old: %v\n new: %v", oldSeq, newSeq)
			}
		})
	}
}

// TestComposeNilLayers pins that nil layers and nil layer arguments
// are pass-throughs.
func TestComposeNilLayers(t *testing.T) {
	base := &ERM{}
	m := Compose(base, nil, WithCache(nil), WithTap(Tap{}), WithDelegations(nil))
	if m != Monitor(base) {
		t.Fatalf("nil layers must compose to the base monitor, got %T", m)
	}
}

// floorMap is a test DelegationSource.
type floorMap map[[2]origin.Origin]Ring

func (f floorMap) DelegationFloor(host, guest origin.Origin) (Ring, bool) {
	r, ok := f[[2]origin.Origin{host, guest}]
	return r, ok
}

// TestDelegationLayer checks the rewrite: floored ring inside the
// host, original principal reported, undeclared pairs denied by the
// origin rule, and batches split into per-principal runs.
func TestDelegationLayer(t *testing.T) {
	host := origin.MustParse("http://portal.example")
	guest := origin.MustParse("http://widget.example")
	rogue := origin.MustParse("http://rogue.example")
	src := floorMap{{host, guest}: 2}

	audit := &AuditLog{}
	m := Compose(&ERM{}, WithDelegations(src), WithTap(Tap{Log: audit}))

	gp := Principal(guest, 0, "widget")
	slot := Object(host, 2, UniformACL(2), "slot")
	chrome := Object(host, 1, UniformACL(1), "chrome")

	if d := m.Authorize(gp, OpWrite, slot); !d.Allowed {
		t.Fatalf("delegated slot write denied: %v", d)
	} else if d.Principal != gp {
		t.Fatalf("decision must report the original principal, got %v", d.Principal)
	}
	if d := m.Authorize(gp, OpWrite, chrome); d.Allowed || d.Rule != RuleRing {
		t.Fatalf("floored guest must fail the ring rule on chrome, got %v", d)
	}
	if d := m.Authorize(Principal(rogue, 0, "rogue"), OpRead, slot); d.Allowed || d.Rule != RuleOrigin {
		t.Fatalf("undelegated origin must fail the origin rule, got %v", d)
	}

	// Mixed-origin region: host objects (delegated) interleaved with
	// guest-origin objects (same-origin for the guest principal).
	own := Object(guest, 2, UniformACL(2), "own")
	region := []Context{slot, own, slot, chrome}
	out := AuthorizeBatch(m, gp, OpRead, region)
	if len(out) != len(region) {
		t.Fatalf("batch returned %d decisions, want %d", len(out), len(region))
	}
	wantAllowed := []bool{true, true, true, false}
	for i, d := range out {
		if d.Allowed != wantAllowed[i] {
			t.Errorf("region[%d] allowed=%v, want %v (%v)", i, d.Allowed, wantAllowed[i], d)
		}
		if d.Object != region[i] {
			t.Errorf("region[%d] object mismatch: %v", i, d.Object)
		}
		if d.Principal.Origin != guest {
			t.Errorf("region[%d] principal re-homed in output: %v", i, d.Principal)
		}
	}
	if audit.Len() != 3+len(region) {
		t.Fatalf("audit recorded %d decisions, want %d", audit.Len(), 3+len(region))
	}
}

// TestDelegationOutsideCacheShares checks the canonical layer order:
// the cache under a delegation layer stores plain re-homed verdicts, so
// an undelegated monitor sharing the cache gets hits, never a foreign
// delegation's verdicts keyed by the original principal.
func TestDelegationOutsideCacheShares(t *testing.T) {
	host := origin.MustParse("http://portal.example")
	guest := origin.MustParse("http://widget.example")
	cache := NewDecisionCache()
	src := floorMap{{host, guest}: 2}

	delegated := Compose(&ERM{}, WithCache(cache), WithDelegations(src))
	plain := Compose(&ERM{}, WithCache(cache))

	slot := Object(host, 2, UniformACL(2), "slot")
	gp := Principal(guest, 0, "widget")
	if d := delegated.Authorize(gp, OpWrite, slot); !d.Allowed {
		t.Fatalf("delegated write denied: %v", d)
	}
	// The cached key is the re-homed query: a genuine host principal at
	// the floored ring asking the same question must hit.
	before := cache.Stats()
	hostP := Principal(host, 2, "widget→delegated")
	if d := plain.Authorize(hostP, OpWrite, slot); !d.Allowed {
		t.Fatalf("same-origin write denied: %v", d)
	}
	after := cache.Stats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("expected a shared-cache hit, stats %+v → %+v", before, after)
	}
	// And the ORIGINAL cross-origin query must never have been cached
	// as allowed for a monitor without the delegation.
	if d := plain.Authorize(gp, OpWrite, slot); d.Allowed {
		t.Fatalf("undelegated monitor allowed a cross-origin write: %v", d)
	}
}
