package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"tcb/internal/batch"
	"tcb/internal/engine"
	"tcb/internal/sched"
)

// Phases tag every span with the part of the run it belongs to.
const (
	phSetup = iota
	phWarmup
	phLo
	phHi
	phSlo
	phSat
	numPhases
)

var phaseNames = [numPhases]string{"setup", "warmup", "lo", "hi", "slo", "sat"}

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer's base. Request-level spans carry the request's server
// ID on its replica; launch-level spans carry id -1.
type span struct {
	Name    string `json:"name"`
	Phase   int8   `json:"phase"`
	Replica int    `json:"replica"`
	ID      int64  `json:"id"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Parent  int32  `json:"parent"`
	N       int    `json:"n,omitempty"` // a count carried by the span (items, candidates, admitted)
	M       int    `json:"m,omitempty"` // a second count (tokens, chosen)
	Self    int64  `json:"self"`        // End-Start minus the time covered by child spans
	// Refill is the launch's RefillReport and LiveSteps the decode steps
	// its retired segments were live for (engine.run spans of refill
	// launches only).
	Refill    *engine.RefillReport `json:"refill,omitempty"`
	LiveSteps int64                `json:"live_steps,omitempty"`
}

// reqKey names a request inside one replica.
type reqKey struct {
	replica int
	id      int64
}

// The model replay samples every captureEvery-th launch prepared in hi and
// sat, up to maxCaptures.
const (
	captureEvery = 3
	maxCaptures  = 24
)

// launchCapture is a copy of one prepared launch kept for the model replay.
type launchCapture struct {
	b      *batch.Batch
	tokens map[int64][]int
}

// tracer records spans in memory. Wrappers around each layer's public
// boundary call into it; nothing inside the program is instrumented.
type tracer struct {
	base  time.Time
	phase atomic.Int32

	mu    sync.Mutex
	spans []span
	// first is when a request (identified by the address of its first
	// token) was first handed to the engine: by Prepare or by a refill
	// admission. retire is when the engine retired it through the hook.
	first  map[*int]int64
	retire map[*int]int64
	keyTok map[reqKey]*int

	prepared int // launches prepared in hi and sat
	captures []launchCapture
}

func newTracer() *tracer {
	return &tracer{
		base:   time.Now(),
		first:  map[*int]int64{},
		retire: map[*int]int64{},
		keyTok: map[reqKey]*int{},
	}
}

func (t *tracer) setPhase(p int) { t.phase.Store(int32(p)) }

// now reads the tracer clock.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// add appends a finished span and returns its index.
func (t *tracer) add(s span) int32 {
	s.Phase = int8(t.phase.Load())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// reserve appends a placeholder for a span whose children finish first.
func (t *tracer) reserve() int32 { return t.add(span{Parent: -1}) }

func (t *tracer) fill(i int32, s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.Phase = t.spans[i].Phase
	t.spans[i] = s
}

// seen records the first engine hand-off of a request.
func (t *tracer) seenLocked(replica int, id int64, tokens []int, at int64) {
	if len(tokens) == 0 {
		return
	}
	k := &tokens[0]
	if _, ok := t.first[k]; !ok {
		t.first[k] = at
	}
	t.keyTok[reqKey{replica, id}] = k
}

// tracedEngine wraps an engine's serve.RefillRunner surface.
type tracedEngine struct {
	t       *tracer
	replica int
	eng     *engine.Engine
}

func (t *tracer) wrapEngine(replica int, eng *engine.Engine) *tracedEngine {
	return &tracedEngine{t: t, replica: replica, eng: eng}
}

func (e *tracedEngine) Prepare(b *batch.Batch, tokens map[int64][]int) (*engine.Prepared, error) {
	start := e.t.now()
	p, err := e.eng.Prepare(b, tokens)
	end := e.t.now()
	e.t.add(span{Name: "engine.prepare", Replica: e.replica, ID: -1, Start: start, End: end, Parent: -1,
		N: b.NumItems(), M: b.UsedTokens(), Self: end - start})
	if err != nil {
		return p, err
	}
	// batch.fill is read from the same span: used over padded tokens.
	e.t.add(span{Name: "batch.layout", Replica: e.replica, ID: -1, Start: start, End: start, Parent: -1,
		N: b.TotalTokens(), M: b.UsedTokens()})
	e.t.mu.Lock()
	for _, it := range b.Items() {
		e.t.seenLocked(e.replica, it.ID, tokens[it.ID], start)
	}
	if ph := e.t.phase.Load(); (ph == phHi || ph == phSat) && len(e.t.captures) < maxCaptures {
		if e.t.prepared%captureEvery == 0 {
			e.t.captures = append(e.t.captures, captureLaunch(b, tokens))
		}
		e.t.prepared++
	}
	e.t.mu.Unlock()
	return p, err
}

func captureLaunch(b *batch.Batch, tokens map[int64][]int) launchCapture {
	c := launchCapture{b: &batch.Batch{Scheme: b.Scheme, SlotSize: b.SlotSize}, tokens: map[int64][]int{}}
	for _, r := range b.Rows {
		c.b.Rows = append(c.b.Rows, batch.Row{Items: append([]batch.Item(nil), r.Items...), PadTo: r.PadTo})
		for _, it := range r.Items {
			c.tokens[it.ID] = tokens[it.ID]
		}
	}
	return c
}

func (e *tracedEngine) Run(b *batch.Batch, tokens map[int64][]int) (*engine.Report, error) {
	start := e.t.now()
	rep, err := e.eng.Run(b, tokens)
	end := e.t.now()
	e.t.add(span{Name: "engine.run", Replica: e.replica, ID: -1, Start: start, End: end, Parent: -1,
		N: b.NumItems(), Self: end - start})
	return rep, err
}

func (e *tracedEngine) RunPrepared(p *engine.Prepared) (*engine.Report, error) {
	start := e.t.now()
	rep, err := e.eng.RunPrepared(p)
	end := e.t.now()
	e.t.add(span{Name: "engine.run", Replica: e.replica, ID: -1, Start: start, End: end, Parent: -1,
		N: p.Batch.NumItems(), Self: end - start})
	return rep, err
}

func (e *tracedEngine) RunPreparedRefill(p *engine.Prepared, hook engine.RefillHook) (*engine.Report, error) {
	idx := e.t.reserve()
	h := &tracedHook{t: e.t, inner: hook, replica: e.replica, parent: idx}
	start := e.t.now()
	rep, err := e.eng.RunPreparedRefill(p, h)
	end := e.t.now()
	s := span{Name: "engine.run", Replica: e.replica, ID: -1, Start: start, End: end, Parent: -1,
		N: p.Batch.NumItems(), M: h.admitted, Self: end - start - h.childNs, LiveSteps: h.liveSteps}
	if rep != nil {
		s.Refill = rep.Refill
	}
	e.t.fill(idx, s)
	return rep, err
}

// tracedHook wraps the engine.RefillHook the server hands a launch. The
// engine calls it from the launch's own goroutine, so its tallies need no
// lock until the launch ends.
type tracedHook struct {
	t         *tracer
	inner     engine.RefillHook
	replica   int
	parent    int32
	childNs   int64
	admitted  int
	liveSteps int64
}

func (h *tracedHook) Retire(res engine.Result) {
	start := h.t.now()
	h.inner.Retire(res)
	end := h.t.now()
	h.childNs += end - start
	h.liveSteps += int64(res.Steps)
	h.t.add(span{Name: "hook.retire", Replica: h.replica, ID: res.ID, Start: start, End: end, Parent: h.parent,
		M: len(res.Output), Self: end - start})
	h.t.mu.Lock()
	if k, ok := h.t.keyTok[reqKey{h.replica, res.ID}]; ok {
		h.t.retire[k] = start
	}
	h.t.mu.Unlock()
}

func (h *tracedHook) Refill(free int) []engine.Admission {
	start := h.t.now()
	adms := h.inner.Refill(free)
	end := h.t.now()
	h.childNs += end - start
	h.admitted += len(adms)
	tokens := 0
	for _, a := range adms {
		tokens += a.Resident()
	}
	h.t.add(span{Name: "hook.refill", Replica: h.replica, ID: -1, Start: start, End: end, Parent: h.parent,
		N: len(adms), M: tokens, Self: end - start})
	h.t.mu.Lock()
	for _, a := range adms {
		h.t.seenLocked(h.replica, a.ID, a.Tokens, end)
	}
	h.t.mu.Unlock()
	return adms
}

func (h *tracedHook) Reject(adm engine.Admission, err error) {
	start := h.t.now()
	h.inner.Reject(adm, err)
	end := h.t.now()
	h.childNs += end - start
	h.t.add(span{Name: "hook.reject", Replica: h.replica, ID: adm.ID, Start: start, End: end, Parent: h.parent, Self: end - start})
}

// tracedScheduler wraps a sched.Scheduler.
type tracedScheduler struct {
	t       *tracer
	replica int
	inner   sched.Scheduler
}

func (t *tracer) wrapScheduler(replica int, s sched.Scheduler) *tracedScheduler {
	return &tracedScheduler{t: t, replica: replica, inner: s}
}

func (s *tracedScheduler) Name() string { return s.inner.Name() }

func (s *tracedScheduler) Schedule(now float64, pending []*sched.Request, B, L int) sched.Decision {
	start := s.t.now()
	d := s.inner.Schedule(now, pending, B, L)
	end := s.t.now()
	chosen := 0
	for _, r := range d.Rows {
		chosen += len(r)
	}
	s.t.add(span{Name: "sched.schedule", Replica: s.replica, ID: -1, Start: start, End: end, Parent: -1,
		N: len(pending), M: chosen, Self: end - start})
	return d
}

// submitSpan records a SubmitOpts call made by the load generator.
func (t *tracer) submitSpan(front string, o *outcome) {
	start := int64(o.sent.Sub(t.base))
	t.add(span{Name: front + ".submit", Replica: -1, ID: -1, Start: start, End: start + int64(o.submitDur),
		Parent: -1, M: len(o.req.tokens), Self: int64(o.submitDur)})
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		named := struct {
			span
			PhaseName string `json:"phase_name"`
		}{s, phaseNames[s.Phase]}
		if err := enc.Encode(named); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
