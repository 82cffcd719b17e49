package main

import (
	"fmt"
)

// layerReport derives the per-layer metrics from the traced window,
// the counters and runtime figures from the untraced one, and checks
// that the two windows did the same policy work.
func layerReport(rep *report, tw *world, plain, traced *window) error {
	var t tracer
	audited, nodes, mixed := 0, 0, 0
	for _, s := range tw.sessions {
		t.add(s.tr)
		audited += s.audited + s.b.Audit.Len()
		mixed += s.mixed + s.b.Audit.GenerationMix().Mixed
		for _, n := range s.cycleNodes {
			nodes += n
		}
	}
	loads := float64(t.loads)
	perLoad := func(v float64) float64 { return ratio(v, loads) }
	usPerLoad := func(l layer) float64 { return perLoad(us(t.self[l])) }

	// Self times. Handler time happens inside round trips (in memory on
	// the session's goroutine, over the wire on a gateway worker), so
	// it comes out of the web layer's self time.
	handler := float64(traced.handlerNs) / 1e3
	wire := us(t.self[layerWeb]) - handler
	attributed := handler + wire
	for l := layer(0); l < numLayers; l++ {
		if l != layerWeb {
			attributed += us(t.self[l])
		}
	}
	wall := us(t.wall)

	rep.set("html.parse_us_per_load", usPerLoad(layerHTML), "us")
	rep.set("html.nodes_per_load", perLoad(float64(nodes)), "count")
	rep.set("css.style_us_per_load", usPerLoad(layerCSS), "us")
	rep.set("layout.layout_us_per_load", usPerLoad(layerLayout), "us")
	rep.set("dom.render_mediation_us_per_load", usPerLoad(layerDOM), "us")
	rep.set("core.policy_us_per_load", usPerLoad(layerCore), "us")
	rep.set("core.decisions_per_load", perLoad(float64(t.decisions)), "count")
	rep.set("core.computed_per_load", perLoad(float64(traced.batch.Distinct)), "count")
	rep.set("core.dedup_ratio", traced.batch.DedupRatio(), "ratio")
	rep.set("core.cache_hit_rate", traced.cache.HitRate(), "ratio")
	rep.set("core.denied_fraction", ratio(float64(t.denied), float64(t.decisions)), "ratio")
	rep.set("core.audit_records_per_load", perLoad(float64(audited)), "count")
	rep.set("script.vm_us_per_load", usPerLoad(layerScript), "us")
	rep.set("script.runs_per_load", perLoad(float64(t.scripts)), "count")
	rep.set("script.compile_cache_hit_rate", ratio(float64(traced.compile[0]), float64(traced.compile[0]+traced.compile[1])), "ratio")
	rep.set("web.fetch_us_per_load", perLoad(us(t.total[layerWeb])), "us")
	rep.set("web.requests_per_load", perLoad(float64(t.requests)), "count")
	rep.set("apps.handler_us_per_req", ratio(handler, float64(traced.handlerCalls)), "us")

	var rt, gwUs, hit, reuse, depth, rejected, push, refill float64
	if tw.gw != nil {
		rt = ratio(us(t.total[layerWeb]), float64(t.requests))
		gwUs = ratio(us(t.total[layerWeb])-handler, float64(t.requests))
		hit = plain.gw.Cache.HitRate()
		reuse = plain.client.ReuseRate()
		depth = float64(plain.gw.MaxQueueDepth)
		rejected = float64(plain.gw.Rejected503)
		push = ratio(us(plain.pushTotal), float64(plain.flips))
		refill = ratio(float64(plain.cache.Misses), float64(plain.flips))
		if int(plain.client.Requests) == 0 || plain.gw.Served != plain.client.Requests {
			rep.fail(fmt.Errorf("gateway served %d responses, client sent %d requests", plain.gw.Served, plain.client.Requests))
		}
	}
	rep.set("httpd.roundtrip_us_per_req", rt, "us")
	rep.set("httpd.gateway_us_per_req", gwUs, "us")
	rep.set("httpd.page_cache_hit_rate", hit, "ratio")
	rep.set("httpd.queue_max_depth", depth, "count")
	rep.set("httpd.rejected_503", rejected, "count")
	rep.set("httpd.conn_reuse_rate", reuse, "ratio")
	rep.set("ctlplane.push_us", push, "us")
	rep.set("core.refill_misses_per_flip", refill, "count")

	rep.set("runtime.gc_cycles_per_1k_loads", ratio(float64(plain.gcs)*1000, float64(plain.loads)), "count")
	rep.set("runtime.gc_pause_ms_per_s", ratio(float64(plain.pauseNs)/1e6, plain.elapsed.Seconds()), "ms")

	plainP50, err := plain.lat.quantile(0.5)
	if err != nil {
		return err
	}
	tracedP50, err := traced.lat.quantile(0.5)
	if err != nil {
		return err
	}
	lag := 0.0
	if len(plain.lag) > 0 {
		q, err := plain.lag.quantile(0.99)
		if err != nil {
			return fmt.Errorf("generator lag: %w", err)
		}
		lag = ms(q)
	}
	rep.set("trace.wall_us_per_load", perLoad(wall), "us")
	rep.set("trace.unattributed_fraction", ratio(wall-attributed, wall), "ratio")
	rep.set("trace.overhead_fraction", ratio(float64(tracedP50), float64(plainP50))-1, "ratio")
	rep.set("gen.lag_p99_ms", lag, "ms")

	fmt.Printf("trace  %.0f loads, wall %.1f us/load:", loads, perLoad(wall))
	for _, l := range []struct {
		name string
		v    float64
	}{
		{"html", us(t.self[layerHTML])}, {"css", us(t.self[layerCSS])}, {"layout", us(t.self[layerLayout])},
		{"dom", us(t.self[layerDOM])}, {"core", us(t.self[layerCore])}, {"script", us(t.self[layerScript])},
		{"web/httpd", wire}, {"apps", handler}, {"unattributed", wall - attributed},
	} {
		fmt.Printf(" %s %.1f%%", l.name, 100*ratio(l.v, wall))
	}
	fmt.Println()

	// The traced window must do exactly the untraced window's policy
	// work: the wrappers may not change batching.
	if plain.batch != traced.batch {
		rep.fail(fmt.Errorf("batched authorization differs: untraced %+v, traced %+v", plain.batch, traced.batch))
	}
	// Complete mediation: one audit record per decision the stack made.
	if audited != t.decisions {
		rep.fail(fmt.Errorf("complete mediation: %d audit records for %d decisions", audited, t.decisions))
	}
	// Fixed page shapes: every cycle loads the same nodes, so the first
	// and last tenth of the run agree.
	for _, s := range tw.sessions {
		c := s.cycleNodes
		tenth := len(c) / 10
		first, last := sum(c[:tenth]), sum(c[len(c)-tenth:])
		if first != last {
			rep.fail(fmt.Errorf("session %d: %d nodes in the first tenth of the run, %d in the last", s.id, first, last))
		}
		for i, n := range c {
			if n != c[0] {
				rep.fail(fmt.Errorf("session %d: cycle %d loaded %d nodes, cycle 0 loaded %d", s.id, i, n, c[0]))
				break
			}
		}
	}
	if mixed > 0 {
		rep.fail(fmt.Errorf("generation isolation: %d page loads observed two policy generations", mixed))
	}
	fmt.Printf("check  traced batches = untraced (%d nodes, %d computed); %d audit records = %d decisions\n",
		traced.batch.Nodes, traced.batch.Distinct, audited, t.decisions)
	return nil
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}
