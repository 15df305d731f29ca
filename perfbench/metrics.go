package main

import "math"

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// SLO limits for the slo ladder.
const (
	sloP99Ms      = 200 // the shortest deadline in the traffic
	sloGoodputPct = 99
)

// phaseSummary is the end-to-end view of one open-loop phase, over
// in-share requests only. Latency runs from the due time to receipt, over
// every answered request.
type phaseSummary struct {
	sent       int
	p50, p99   float64 // ms
	goodputPct float64
	growing    bool
}

func summarize(pr *phaseRecord) phaseSummary {
	var s phaseSummary
	var lat []float64
	good := 0
	for _, o := range pr.outs {
		if !o.req.inShare {
			continue
		}
		s.sent++
		if o.refused == nil {
			lat = append(lat, ms(o.latency()))
		}
		if o.good() {
			good++
		}
	}
	s.p50, s.p99 = percentile(lat, 50), percentile(lat, 99)
	if s.sent > 0 {
		s.goodputPct = 100 * float64(good) / float64(s.sent)
	}
	s.growing = pr.blocks > 0 && 2*pr.growingBlocks >= pr.blocks
	return s
}

// growingBacklog reports whether the outstanding count kept rising through
// the phase: the last third's mean exceeds the first third's by half plus
// one batch row's worth of requests.
func growingBacklog(b []int) bool {
	n := len(b) / 3
	if n == 0 {
		return false
	}
	mean := func(xs []int) float64 {
		t := 0
		for _, x := range xs {
			t += x
		}
		return float64(t) / float64(len(xs))
	}
	return mean(b[len(b)-n:]) > 1.5*mean(b[:n])+rowsB
}

func (s phaseSummary) meetsSLO() bool {
	return s.p99 <= sloP99Ms && s.goodputPct >= sloGoodputPct && !s.growing
}

// satRates returns in-share completed requests/s and generated tokens/s
// inside the closed loop's windows.
func satRates(pr *phaseRecord) (rps, tokS float64) {
	n, tok := 0, 0
	for _, o := range pr.outs {
		if o.req.inShare && o.delivered() && o.inWindow {
			n++
			tok += len(o.resp.Output)
		}
	}
	return float64(n) / pr.window.Seconds(), float64(tok) / pr.window.Seconds()
}

// endToEnd derives the untraced run's metrics.
func endToEnd(rec *runRecord) metricSet {
	m := metricSet{}
	setup := make([]float64, len(rec.setup))
	for i, d := range rec.setup {
		setup[i] = d.Seconds()
	}
	m.set("setup_s", median(setup), "s")
	lo, hi := summarize(rec.lo), summarize(rec.hi)
	m.set("lo.p50_ms", lo.p50, "ms")
	m.set("hi.p50_ms", hi.p50, "ms")
	m.set("hi.goodput_pct", hi.goodputPct, "%")
	rps, tokS := satRates(rec.sat)
	m.set("sat_rps", rps, "1/s")
	m.set("sat_tok_s", tokS, "1/s")
	return m
}

// tally counts attempted and failed requests over the measured phases.
func tally(rec *runRecord) (attempted, failed int) {
	for _, pr := range rec.measured() {
		for _, o := range pr.outs {
			attempted++
			if o.failed() {
				failed++
			}
		}
	}
	return attempted, failed
}

// generatorLag returns the P99 of send time minus due time over the lo and
// hi phases, in ms.
func generatorLag(rec *runRecord) float64 {
	var lag []float64
	for _, pr := range []*phaseRecord{rec.lo, rec.hi} {
		for _, o := range pr.outs {
			lag = append(lag, ms(o.sent.Sub(o.due)))
		}
	}
	return percentile(lag, 99)
}

// sloRate returns the highest rate meeting the SLO. Walking the ladder up
// from lo, it stops at the first rung that fails. A rung failing on P99 or
// goodput has the crossing interpolated between it and the last passing
// rung: linear in log P99 at the 200 ms limit, linear in goodput at 99%,
// whichever comes first. A rung failing on a growing backlog alone gives
// the last passing rate. 0 means even lo failed.
func sloRate(ladder []*phaseRecord) float64 {
	var prev phaseSummary
	prevRate := 0.0
	for _, pr := range ladder {
		s := summarize(pr)
		if s.meetsSLO() {
			prev, prevRate = s, pr.rate
			continue
		}
		if prevRate == 0 {
			return 0
		}
		x := 1.0
		if s.p99 > sloP99Ms {
			x = math.Log(sloP99Ms/prev.p99) / math.Log(s.p99/prev.p99)
		}
		if s.goodputPct < sloGoodputPct {
			x = min(x, (prev.goodputPct-sloGoodputPct)/(prev.goodputPct-s.goodputPct))
		}
		if x == 1 { // failed on the backlog alone
			x = 0
		}
		return prevRate + x*(pr.rate-prevRate)
	}
	return prevRate
}
