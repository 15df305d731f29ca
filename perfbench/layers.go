package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// runTraced runs the phases twice on fresh stacks, first untraced and then
// with every layer boundary wrapped, and gates both runs. The tail and
// capacity figures (lo.p99_ms, hi.p99_ms, slo_rps, fail_pct) and the
// generator lag come from the untraced run, so they carry no tracing
// overhead; the per-layer breakdown comes from the traced run, and the
// model layer's costs from a replay of a sample of its launches. It prints
// the per-layer metrics only.
func runTraced(w *workloadDef, p *plan, ps phaseSeconds, spansPath string) (*result, error) {
	plain, st, err := runPhases(w, p, ps, nil)
	if err != nil {
		return nil, err
	}
	st.drain()
	if err := checkDrained(st, plain.all()); err != nil {
		return nil, fmt.Errorf("correctness gate (untraced run): %w", err)
	}
	if lag := generatorLag(plain); lag > maxLagMs {
		return nil, fmt.Errorf("invalid run: open-loop generator lag P99 %.1f ms exceeds %d ms", lag, maxLagMs)
	}

	tr := newTracer()
	rec, st, err := runPhases(w, p, ps, tr)
	if err != nil {
		return nil, err
	}
	if err := finish(w, rec, st); err != nil {
		return nil, err
	}
	// Both runs submitted the same requests; where both delivered one, the
	// outputs must be identical (the wrappers change nothing), and the
	// traced output already matched the oracle. The rest go to the oracle.
	rest, err := samePassThrough(rec.all(), plain.all())
	if err != nil {
		return nil, err
	}
	if err := checkOutputs(w, rest); err != nil {
		return nil, fmt.Errorf("correctness gate (untraced run): %w", err)
	}

	rc, err := replay(w.maxNew, tr.captures)
	if err != nil {
		return nil, err
	}
	m := perLayer(rec, st, tr, rc)
	tracedRPS, _ := satRates(rec.sat)
	untracedRPS, _ := satRates(plain.sat)
	m.set("driver.trace_overhead_pct", 100*(untracedRPS-tracedRPS)/untracedRPS, "%")
	m.set("driver.lag_p99_ms", generatorLag(plain), "ms")
	// These are reported here rather than as end-to-end metrics: across
	// seeds on a shared 2-core host they spread beyond the largest bound an
	// end-to-end metric may carry.
	m.set("lo.p99_ms", summarize(plain.lo).p99, "ms")
	m.set("hi.p99_ms", summarize(plain.hi).p99, "ms")
	m.set("slo_rps", sloRate(append([]*phaseRecord{plain.lo, plain.hi}, plain.rungs...)), "1/s")
	attempted, failed := tally(plain)
	m.set("fail_pct", 100*float64(failed)/float64(attempted), "%")
	a, f := tally(rec)
	attempted, failed = attempted+a, failed+f

	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return nil, err
	}
	if err := tr.writeSpans(spansPath); err != nil {
		return nil, err
	}
	return &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// samePassThrough checks that requests delivered by both the traced and
// the untraced run got the same output, and returns the untraced outcomes
// the traced run did not deliver. A request is known by its token slice,
// which both runs share.
func samePassThrough(traced, untraced []*outcome) ([]*outcome, error) {
	got := map[*int][]int{}
	for _, o := range traced {
		if o.delivered() {
			got[&o.req.tokens[0]] = o.resp.Output
		}
	}
	var rest []*outcome
	for _, o := range untraced {
		t, ok := got[&o.req.tokens[0]]
		switch {
		case !o.delivered():
		case !ok:
			rest = append(rest, o)
		case !slices.Equal(t, o.resp.Output):
			return nil, fmt.Errorf("traced and untraced runs delivered different outputs for one request")
		}
	}
	return rest, nil
}

// spansOf returns the spans of one name recorded in one phase.
func (t *tracer) spansOf(name string, phase int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && int(s.Phase) == phase {
			out = append(out, s)
		}
	}
	return out
}

func durations(ss []span, unit time.Duration) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.End-s.Start) / float64(unit)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer derives the per-layer metrics. Latency-type metrics come from
// the hi phase (they should move hi.p50_ms and hi.p99_ms); cost- and
// count-type metrics from the sat closed loop (they should move sat_rps
// and sat_tok_s); serve.missed, serve.retried, prefixcache.evictions and
// cluster.failovers count every measured phase.
func perLayer(rec *runRecord, st *stack, tr *tracer, rc replayCost) metricSet {
	m := metricSet{}
	ms64 := func(ns int64) float64 { return float64(ns) / 1e6 }

	// serve: queue wait from Response.Queued to the first engine hand-off.
	var wait, waitLong, deliver, submitUs []float64
	var lens []int
	for _, o := range rec.hi.outs {
		lens = append(lens, len(o.req.tokens))
	}
	slices.Sort(lens)
	longCut := 0
	if len(lens) > 0 {
		longCut = lens[len(lens)*9/10]
	}
	tr.mu.Lock()
	for _, o := range rec.hi.outs {
		submitUs = append(submitUs, us(o.submitDur))
		if o.refused != nil {
			continue
		}
		k := &o.req.tokens[0]
		if first, ok := tr.first[k]; ok {
			wq := ms64(first - int64(o.resp.Queued.Sub(tr.base)))
			wait = append(wait, wq)
			if len(o.req.tokens) >= longCut {
				waitLong = append(waitLong, wq)
			}
		}
		if at, ok := tr.retire[k]; ok && o.delivered() {
			deliver = append(deliver, float64(int64(o.recv.Sub(tr.base))-at)/1e3)
		}
	}
	tr.mu.Unlock()
	m.set("serve.queue_wait_p50_ms", percentile(wait, 50), "ms")
	m.set("serve.queue_wait_p99_ms", percentile(wait, 99), "ms")
	m.set("serve.queue_wait_long_p99_ms", percentile(waitLong, 99), "ms")
	m.set("serve.submit_p99_us", percentile(submitUs, 99), "us")
	m.set("serve.deliver_p99_us", percentile(deliver, 99), "us")

	sat := rec.sat
	var satDone, genTok, inTok int
	for _, o := range sat.outs {
		inTok += len(o.req.tokens)
		if o.delivered() {
			satDone++
			genTok += len(o.resp.Output)
		}
	}
	d := func(name string) float64 { return float64(sat.delta[name]) }
	m.set("serve.schedule_ns_per_req", ratio(d("scheduleNs"), float64(satDone)), "ns")
	m.set("serve.compute_ns_per_req", ratio(d("computeNs"), float64(satDone)), "ns")
	m.set("serve.cleanup_ns_per_req", ratio(d("cleanupNs"), float64(satDone)), "ns")
	m.set("serve.missed", float64(rec.total["missed"]), "count")
	m.set("serve.retried", float64(rec.total["retried"]), "count")

	// sched
	calls := tr.spansOf("sched.schedule", phSat)
	var cand, chosen float64
	for _, s := range calls {
		cand += float64(s.N)
		chosen += float64(s.M)
	}
	m.set("sched.calls", float64(len(calls)), "count")
	m.set("sched.call_p50_us", percentile(durations(calls, time.Microsecond), 50), "us")
	m.set("sched.call_p99_us", percentile(durations(calls, time.Microsecond), 99), "us")
	m.set("sched.candidates_mean", ratio(cand, float64(len(calls))), "count")
	m.set("sched.chosen_mean", ratio(chosen, float64(len(calls))), "count")

	// batch
	layouts := tr.spansOf("batch.layout", phSat)
	prepares := tr.spansOf("engine.prepare", phSat)
	var items, used, total, launched float64
	for _, s := range prepares {
		items += float64(s.N)
		launched += float64(s.M)
	}
	for _, s := range layouts {
		total += float64(s.N)
		used += float64(s.M)
	}
	m.set("batch.items_per_launch", ratio(items, float64(len(prepares))), "count")
	m.set("batch.fill_pct", 100*ratio(used, total), "%")

	// engine
	runs := tr.spansOf("engine.run", phSat)
	var self int64
	for _, s := range runs {
		self += s.Self
	}
	refills := tr.spansOf("hook.refill", phSat)
	var admitted, admTok float64
	for _, s := range refills {
		admitted += float64(s.N)
		admTok += float64(s.M)
	}
	var steps, idle, live, capT, liveSeg int64
	for _, s := range runs {
		if r := s.Refill; r != nil {
			steps += int64(r.Steps)
			idle += r.SlotIdleSteps
			live += r.LiveTokenSteps
			capT += r.CapacityTokenSteps
		}
		liveSeg += s.LiveSteps
	}
	m.set("engine.launches", float64(len(runs)), "count")
	m.set("engine.prepare_p50_us", percentile(durations(prepares, time.Microsecond), 50), "us")
	m.set("engine.ns_per_gen_token", ratio(float64(self), float64(genTok)), "ns")
	m.set("engine.steps", float64(steps), "count")
	m.set("engine.refill_calls", float64(len(refills)), "count")
	m.set("engine.refill_admitted", admitted, "count")
	m.set("engine.refill_rejected", float64(len(tr.spansOf("hook.reject", phSat))), "count")
	m.set("engine.refill_hook_p99_us", percentile(durations(refills, time.Microsecond), 99), "us")
	m.set("engine.occupancy_pct", 100*ratio(float64(live), float64(capT)), "%")
	m.set("engine.slot_idle_pct", 100*ratio(float64(idle), float64(idle+liveSeg)), "%")

	// model, from the replay; the admission share weighs the sat phase's
	// admitted, launched and generated tokens by their replayed costs.
	m.set("model.row_encode_ns_per_token", rc.rowEncodeNs, "ns")
	m.set("model.admission_encode_ns_per_token", rc.admEncodeNs, "ns")
	m.set("model.decode_ns_per_token", rc.decodeNs, "ns")
	admCost := admTok * rc.admEncodeNs
	m.set("model.admission_encode_share_pct",
		100*ratio(admCost, admCost+launched*rc.rowEncodeNs+float64(genTok)*rc.decodeNs), "%")

	// tensor
	m.set("tensor.gemm_calls_per_token", ratio(d("gemm"), float64(genTok)), "count")

	// prefixcache
	hits, misses := d("hits"), d("misses")
	m.set("prefixcache.hit_pct", 100*ratio(hits, hits+misses), "%")
	m.set("prefixcache.tokens_saved_pct", 100*ratio(d("saved"), float64(inTok)), "%")
	m.set("prefixcache.resident_peak_mb", float64(rec.prefixPeak)/(1<<20), "MB")
	m.set("prefixcache.evictions", float64(rec.total["evictions"]), "count")

	// gpu
	m.set("gpu.reserved_peak_mb", float64(rec.engPeak)/(1<<20), "MB")

	// fair: in-share tenants' goodput at hi and how much of the flood got in.
	sent, good := map[string]int{}, map[string]int{}
	floodSent, floodServed := 0, 0
	for _, o := range rec.hi.outs {
		if !o.req.inShare {
			floodSent++
			if o.delivered() {
				floodServed++
			}
			continue
		}
		sent[o.req.tenant]++
		if o.good() {
			good[o.req.tenant]++
		}
	}
	var sum, sumSq float64
	for t, n := range sent {
		g := float64(good[t]) / float64(n)
		sum += g
		sumSq += g * g
	}
	m.set("fair.jain_goodput", ratio(sum*sum, float64(len(sent))*sumSq), "ratio")
	m.set("fair.inshare_goodput_pct", summarize(rec.hi).goodputPct, "%")
	m.set("fair.flooder_served_pct", 100*ratio(float64(floodServed), float64(floodSent)), "%")

	// cluster
	clusterSubmit, skew := 0.0, 0.0
	if st.cluster != nil {
		clusterSubmit = percentile(submitUs, 99)
		var served []float64
		for i := 0; i < replicasN; i++ {
			served = append(served, d(fmt.Sprintf("served/%d", i)))
		}
		lo, hi, mean := slices.Min(served), slices.Max(served), 0.0
		for _, s := range served {
			mean += s / float64(len(served))
		}
		skew = 100 * ratio(hi-lo, mean)
	}
	m.set("cluster.submit_p99_us", clusterSubmit, "us")
	m.set("cluster.failovers", float64(rec.total["failovers"]), "count")
	m.set("cluster.replica_skew_pct", skew, "%")
	return m
}
