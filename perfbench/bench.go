package main

import (
	"fmt"
	"runtime"
	"time"

	"tcb/internal/serve"
	"tcb/internal/tensor"
)

// setupBuilds is how many times a run builds the stack to time set-up: the
// build that serves the run, then a throwaway build before every block, so
// that set-up time samples the machine over the whole run as the phases do.
func setupBuilds(w *workloadDef) int { return 1 + cycles*(3+len(w.ladder)) }

// counters is a point-in-time sum of the program's own counters, by name;
// "served/<replica>" counts each replica's deliveries.
type counters map[string]int64

func (st *stack) snapshot() counters {
	c := counters{}
	add := func(idx int, s serve.Stats) {
		c[fmt.Sprintf("served/%d", idx)] += s.Served
		c["missed"] += s.Missed
		c["retried"] += s.Retried
		c["scheduleNs"] += s.ScheduleNs
		c["computeNs"] += s.ComputeNs
		c["cleanupNs"] += s.CleanupNs
	}
	if st.cluster != nil {
		cs := st.cluster.Stats()
		c["failovers"] = cs.Failovers
		for _, r := range cs.Replicas {
			add(r.Index, r.Stats)
		}
	} else {
		add(0, st.replicas[len(st.replicas)-1].srv.Stats())
	}
	for _, r := range st.current() {
		ps := r.cache.Stats()
		c["hits"] += ps.Hits
		c["misses"] += ps.Misses
		c["saved"] += ps.TokensSaved
		c["evictions"] += ps.Evictions
	}
	k := tensor.KernelCounters()
	c["gemm"] = int64(k.Scalar + k.Wide + k.Int8)
	return c
}

// addDelta adds after − before to c.
func (c counters) addDelta(after, before counters) {
	for k, v := range after {
		c[k] += v - before[k]
	}
}

// cycles is how many times a run cycles through its phases. Each phase
// runs as one block per cycle, so every phase samples the whole run and a
// slow stretch of the machine lands on all phases alike instead of on one.
const cycles = 4

// phaseRecord is one measured phase, summed over its blocks.
type phaseRecord struct {
	rate  float64 // offered in-share rate; 0 for the closed loop
	outs  []*outcome
	delta counters // the program's counters moved during the phase
	// growingBlocks counts open-loop blocks whose backlog kept growing.
	blocks, growingBlocks int
	window                time.Duration // closed loop: summed measuring windows
}

// runRecord is everything one run measured.
type runRecord struct {
	setup       []time.Duration
	warmup      []*outcome
	lo, hi, sat *phaseRecord
	rungs       []*phaseRecord // the slo ladder above hi
	stealPct    float64        // share of CPU time the host stole while measuring; -1 if unknown
	engPeak     int64          // summed engine-ledger peaks across replicas
	prefixPeak  int64          // summed prefix-ledger peaks across replicas
	total       counters
}

// measured returns every phase record after warmup.
func (r *runRecord) measured() []*phaseRecord {
	return append([]*phaseRecord{r.lo, r.hi}, append(r.rungs, r.sat)...)
}

// block returns cycle c's block of an open-loop phase, with due times
// relative to the block's start.
func block(reqs []*request, c int, phaseSecs float64) []*request {
	blk := secs(phaseSecs / cycles)
	from, to := time.Duration(c)*blk, time.Duration(c+1)*blk
	var out []*request
	for _, r := range reqs {
		if r.due >= from && (r.due < to || c == cycles-1) {
			cp := *r
			cp.due -= from
			out = append(out, &cp)
		}
	}
	return out
}

// runPhases builds the stack, warms it up and cycles through lo, hi, the
// slo ladder and sat, timing a throwaway build of the stack before every
// block. It leaves the stack running so the caller can drain it and gate
// the outputs.
func runPhases(w *workloadDef, p *plan, ps phaseSeconds, tr *tracer) (*runRecord, *stack, error) {
	rec := &runRecord{}
	setPhase := func(ph int) {
		if tr != nil {
			tr.setPhase(ph)
		}
	}
	// timeSetup builds a stack and serves the next set-up request on it,
	// timing both.
	timeSetup := func(tr *tracer) (*stack, []*outcome, error) {
		runtime.GC() // collect the previous build's garbage outside the timed window
		t0 := time.Now()
		s, err := buildStack(w, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("build stack: %w", err)
		}
		outs := openLoop(s.front, p.setup[len(rec.setup):len(rec.setup)+1]).outs
		rec.setup = append(rec.setup, time.Since(t0))
		rec.warmup = append(rec.warmup, outs...)
		return s, outs, nil
	}
	// Throwaway builds are never traced: the tracer follows the serving
	// stack only.
	throwaway := func() error {
		setPhase(phSetup)
		s, outs, err := timeSetup(nil)
		if err != nil {
			return err
		}
		s.drain()
		return checkDrained(s, outs)
	}
	setPhase(phSetup)
	st, _, err := timeSetup(tr)
	if err != nil {
		return nil, nil, err
	}
	setPhase(phWarmup)
	rec.warmup = append(rec.warmup, openLoop(st.front, p.warmup).outs...)

	for _, r := range st.current() {
		r.engMem.ResetPeak()
		r.prefixMem.ResetPeak()
	}
	begin := st.snapshot()
	steal0, total0, stealOK := stealTicks()
	rec.lo, rec.hi, rec.sat = &phaseRecord{rate: w.loRPS}, &phaseRecord{rate: w.hiRPS}, &phaseRecord{}
	for _, rate := range w.ladder {
		rec.rungs = append(rec.rungs, &phaseRecord{rate: rate})
	}
	next := 0 // the closed loop's cursor into p.sat
	measure := func(pr *phaseRecord, ph int, reqs []*request) {
		setPhase(ph)
		before := st.snapshot()
		var outs []*outcome
		if ph == phSat {
			res := closedLoop(st.front, p.sat[next:], w.satOutstanding, secs(ps.sat/cycles))
			next += len(res.outs)
			outs, pr.window = res.outs, pr.window+res.end.Sub(res.start)
		} else {
			res := openLoop(st.front, reqs)
			outs = res.outs
			pr.blocks++
			if growingBacklog(res.backlog) {
				pr.growingBlocks++
			}
		}
		pr.outs = append(pr.outs, outs...)
		if pr.delta == nil {
			pr.delta = counters{}
		}
		pr.delta.addDelta(st.snapshot(), before)
		tr.addSubmits(st, outs)
	}
	type blockSpec struct {
		pr   *phaseRecord
		ph   int
		reqs []*request // nil for the closed loop
	}
	for c := 0; c < cycles; c++ {
		blocks := []blockSpec{{rec.lo, phLo, block(p.lo, c, ps.lo)}, {rec.hi, phHi, block(p.hi, c, ps.hi)}}
		for i, pr := range rec.rungs {
			blocks = append(blocks, blockSpec{pr, phSlo, block(p.ladder[i], c, ps.rung)})
		}
		blocks = append(blocks, blockSpec{pr: rec.sat, ph: phSat})
		for _, b := range blocks {
			if err := throwaway(); err != nil {
				return nil, nil, err
			}
			measure(b.pr, b.ph, b.reqs)
		}
	}
	rec.total = counters{}
	rec.total.addDelta(st.snapshot(), begin)
	rec.stealPct = -1
	if steal1, total1, ok := stealTicks(); ok && stealOK && total1 > total0 {
		rec.stealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	for _, r := range st.current() {
		rec.engPeak += r.engMem.Peak()
		rec.prefixPeak += r.prefixMem.Peak()
	}
	return rec, st, nil
}

func (t *tracer) addSubmits(st *stack, outs []*outcome) {
	if t == nil {
		return
	}
	front := "serve"
	if st.cluster != nil {
		front = "cluster"
	}
	for _, o := range outs {
		t.submitSpan(front, o)
	}
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
