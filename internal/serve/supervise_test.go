package serve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"tcb/internal/batch"
	"tcb/internal/engine"
	"tcb/internal/rng"
	"tcb/internal/sched"
)

// stager stages through the model-free zero Engine: its Prepare validates
// and lays out a batch without touching a model, so a test fake that fakes
// only execution still stages for real.
type stager struct{}

func (stager) Prepare(b *batch.Batch, tokens map[int64][]int) (*engine.Prepared, error) {
	return new(engine.Engine).Prepare(b, tokens)
}

// staged wraps b for a direct call on a fake that reads only the batch.
func staged(b *batch.Batch) *engine.Prepared { return &engine.Prepared{Batch: b} }

// scriptRunner fails its first failN runs (optionally by panicking), then
// delegates to real — or, with real nil, synthesizes a one-token output per
// item. It records every batch it was launched with. Refill launches run
// without their hook.
type scriptRunner struct {
	mu        sync.Mutex
	failN     int
	panicMode bool
	real      Runner
	runs      int
	batches   []*batch.Batch
}

var errScripted = errors.New("scripted engine failure")

func (r *scriptRunner) Prepare(b *batch.Batch, tokens map[int64][]int) (*engine.Prepared, error) {
	if r.real != nil {
		return r.real.Prepare(b, tokens)
	}
	return stager{}.Prepare(b, tokens)
}

func (r *scriptRunner) RunPreparedRefill(p *engine.Prepared, _ engine.RefillHook) (*engine.Report, error) {
	return r.RunPrepared(p)
}

func (r *scriptRunner) RunPrepared(p *engine.Prepared) (*engine.Report, error) {
	b := p.Batch
	r.mu.Lock()
	r.runs++
	r.batches = append(r.batches, b)
	failing := r.failN > 0
	if failing {
		r.failN--
	}
	r.mu.Unlock()
	if failing {
		if r.panicMode {
			panic("scripted engine panic")
		}
		return nil, errScripted
	}
	if r.real != nil {
		return r.real.RunPrepared(p)
	}
	rep := &engine.Report{}
	for _, it := range b.Items() {
		rep.Results = append(rep.Results, engine.Result{ID: it.ID, Output: []int{int(it.ID)}})
	}
	return rep, nil
}

func (r *scriptRunner) snapshot() (runs int, batches []*batch.Batch) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.runs, append([]*batch.Batch(nil), r.batches...)
}

func waitStats(t *testing.T, s *Server, ok func(Stats) bool) Stats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Stats()
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("condition never reached; stats = %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	b := NewBreaker(3, time.Second)
	now := time.Unix(1000, 0)
	b.now = func() time.Time { return now }

	// Failures below the threshold keep it closed; a success resets them.
	b.Record(false)
	b.Record(false)
	b.Record(true)
	b.Record(false)
	b.Record(false)
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state = %v before threshold", st)
	}
	b.Record(false) // third consecutive: trip
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state = %v after threshold, want open", st)
	}
	if b.Allow() {
		t.Fatal("open breaker must refuse work")
	}
	// Cooldown elapses: half-open admits a probe.
	now = now.Add(time.Second)
	if st := b.State(); st != BreakerHalfOpen {
		t.Fatalf("state = %v after cooldown, want half-open", st)
	}
	if !b.Allow() {
		t.Fatal("half-open breaker must admit a probe")
	}
	// Failed probe re-opens; the next cooldown + good probe closes.
	b.Record(false)
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state = %v after failed probe, want open", st)
	}
	now = now.Add(time.Second)
	b.Record(true)
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state = %v after good probe, want closed", st)
	}
	if got := b.Trips(); got != 2 {
		t.Fatalf("trips = %d, want 2", got)
	}
}

func TestSupervisedRunnerPanicCapture(t *testing.T) {
	sr := &SupervisedRunner{Inner: &scriptRunner{failN: 1, panicMode: true}}
	_, err := sr.RunPrepared(staged(&batch.Batch{}))
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic error must carry the goroutine stack")
	}
}

// slowRunner blocks until released (or forever with a nil channel).
type slowRunner struct {
	stager
	release <-chan struct{}
}

func (r *slowRunner) RunPrepared(*engine.Prepared) (*engine.Report, error) {
	<-r.release
	return nil, errors.New("released")
}

func (r *slowRunner) RunPreparedRefill(p *engine.Prepared, _ engine.RefillHook) (*engine.Report, error) {
	return r.RunPrepared(p)
}

func TestSupervisedRunnerTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	br := NewBreaker(1, time.Hour)
	sr := &SupervisedRunner{
		Inner:   &slowRunner{release: release},
		Timeout: func(*batch.Batch) time.Duration { return 20 * time.Millisecond },
		Breaker: br,
	}
	start := time.Now()
	_, err := sr.RunPrepared(staged(&batch.Batch{}))
	if !errors.Is(err, ErrBatchTimeout) {
		t.Fatalf("err = %v, want ErrBatchTimeout", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("watchdog took %v", el)
	}
	// The timeout counts as a failure: threshold 1 must have tripped.
	if st := br.State(); st != BreakerOpen {
		t.Fatalf("breaker state after timeout = %v, want open", st)
	}
	// And the open breaker refuses the next run without touching the inner.
	if _, err := sr.RunPrepared(staged(&batch.Batch{})); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
}

// TestRetryServesUnexpired pins the core requeue semantics: after a failed
// batch, requests with time and attempts left are served on retry while
// requests whose deadline lapses during backoff expire with
// ErrDeadlineExceeded — not with the engine error.
func TestRetryServesUnexpired(t *testing.T) {
	_, realEngine := testServer(t, batch.Concat, sched.NewDAS())
	srv, err := New(Config{
		Engine:    &scriptRunner{failN: 1, real: realEngine},
		Scheduler: sched.NewDAS(),
		Scheme:    batch.Concat,
		B:         4, L: 64,
		Poll:  200 * time.Microsecond,
		Retry: RetryPolicy{MaxAttempts: 3, Backoff: 60 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(71)
	// Both submitted before Start so the first (failing) batch holds both.
	longCh, err := srv.Submit(randTokens(src, 5), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	shortCh, err := srv.Submit(randTokens(src, 6), 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()

	long := <-longCh
	if long.Err != nil {
		t.Fatalf("long-deadline request must be served on retry, got %v", long.Err)
	}
	short := <-shortCh
	if !errors.Is(short.Err, ErrDeadlineExceeded) {
		t.Fatalf("short-deadline request err = %v, want ErrDeadlineExceeded", short.Err)
	}
	st := srv.Stats()
	if st.Served != 1 || st.Missed != 1 || st.Retried != 2 {
		t.Fatalf("stats = %+v, want served=1 missed=1 retried=2", st)
	}
}

// TestBreakerOpensAndRecovers drives the full state machine through the
// server: consecutive failures trip the breaker, the cooldown admits a
// single-row naive probe, and a good probe restores normal service.
func TestBreakerOpensAndRecovers(t *testing.T) {
	runner := &scriptRunner{failN: 3}
	srv, err := New(Config{
		Engine:    runner,
		Scheduler: sched.NewDAS(),
		Scheme:    batch.Concat,
		B:         4, L: 64,
		Poll:             200 * time.Microsecond,
		Retry:            RetryPolicy{MaxAttempts: 10, Backoff: time.Millisecond},
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(72)
	ch1, err := srv.Submit(randTokens(src, 4), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := srv.Submit(randTokens(src, 6), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()

	for i, ch := range []<-chan Response{ch1, ch2} {
		select {
		case resp := <-ch:
			if resp.Err != nil {
				t.Fatalf("request %d failed across breaker recovery: %v", i, resp.Err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d hung", i)
		}
	}
	st := srv.Stats()
	if st.BreakerTrips != 1 {
		t.Fatalf("breaker trips = %d, want 1", st.BreakerTrips)
	}
	if st.BreakerState != "closed" {
		t.Fatalf("breaker state = %q after recovery", st.BreakerState)
	}
	if st.Retried < 2 {
		t.Fatalf("retried = %d, want >= 2", st.Retried)
	}
	// The first post-trip launch must be the half-open probe: one naive row
	// holding the single highest-utility request.
	_, batches := runner.snapshot()
	if len(batches) < 4 {
		t.Fatalf("expected >= 4 launches, got %d", len(batches))
	}
	probe := batches[3]
	if probe.Scheme != batch.Naive || len(probe.Rows) != 1 || probe.NumItems() != 1 {
		t.Fatalf("probe batch = scheme %v, %d rows, %d items; want 1-row 1-item naive",
			probe.Scheme, len(probe.Rows), probe.NumItems())
	}
	if probe.Items()[0].Len != 4 {
		t.Fatalf("probe chose item of len %d, want the highest-utility (shortest) one", probe.Items()[0].Len)
	}
}

// TestBreakerShedsWhileOpen pins degraded service: while open, queued
// requests beyond the reduced bound are shed lowest-utility-first and new
// submissions beyond it are refused with ErrBreakerOpen.
func TestBreakerShedsWhileOpen(t *testing.T) {
	srv, err := New(Config{
		Engine:    &scriptRunner{failN: 1 << 30},
		Scheduler: sched.NewDAS(),
		Scheme:    batch.Concat,
		B:         4, L: 64,
		Poll:             200 * time.Microsecond,
		Retry:            RetryPolicy{MaxAttempts: 100, Backoff: time.Millisecond},
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour, // stay open for the whole test
		OpenQueueCap:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(73)
	keep, err := srv.Submit(randTokens(src, 2), 30*time.Second) // highest utility
	if err != nil {
		t.Fatal(err)
	}
	shedA, err := srv.Submit(randTokens(src, 10), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	shedB, err := srv.Submit(randTokens(src, 12), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()

	waitStats(t, srv, func(st Stats) bool { return st.Shed == 2 })
	for name, ch := range map[string]<-chan Response{"shedA": shedA, "shedB": shedB} {
		resp := <-ch
		if !errors.Is(resp.Err, ErrShed) || !errors.Is(resp.Err, ErrBreakerOpen) {
			t.Fatalf("%s err = %v, want ErrShed (wrapping ErrBreakerOpen)", name, resp.Err)
		}
	}
	// Queue is at the reduced bound: new work is refused while open.
	if _, err := srv.Submit(randTokens(src, 3), time.Second); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("submit while open = %v, want ErrBreakerOpen", err)
	}
	if st := srv.Stats(); st.BreakerState != "open" {
		t.Fatalf("breaker state = %q, want open", st.BreakerState)
	}
	srv.Stop()
	if resp := <-keep; !errors.Is(resp.Err, ErrServerClosed) {
		t.Fatalf("kept request err = %v, want ErrServerClosed after Stop", resp.Err)
	}
}

// TestDrainDeadlineWedgedEngine pins the Drain bound: with the engine stuck
// forever inside a batch, Drain must fail the still-queued requests with
// ErrServerClosed and return at its deadline instead of blocking.
func TestDrainDeadlineWedgedEngine(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	srv, err := New(Config{
		Engine:    &slowRunner{release: release},
		Scheduler: sched.NewDAS(),
		Scheme:    batch.Concat,
		B:         1, L: 8,
		Poll:             time.Millisecond,
		Retry:            RetryPolicy{MaxAttempts: 1},
		BreakerThreshold: -1,
		DrainTimeout:     80 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(74)
	var chans []<-chan Response
	for i := 0; i < 3; i++ {
		// Each request fills the whole L=8 row, so exactly one is in
		// flight (wedged) and two stay queued.
		ch, err := srv.Submit(randTokens(src, 8), 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	srv.Start()
	time.Sleep(10 * time.Millisecond) // let the first batch wedge

	start := time.Now()
	srv.Drain()
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("Drain blocked %v despite its deadline", el)
	}
	closed := 0
	for _, ch := range chans {
		select {
		case resp := <-ch:
			if !errors.Is(resp.Err, ErrServerClosed) {
				t.Fatalf("drained request err = %v, want ErrServerClosed", resp.Err)
			}
			closed++
		default:
			// The in-flight request resolves only when the wedge releases.
		}
	}
	if closed != 2 {
		t.Fatalf("%d queued requests failed at the drain deadline, want 2", closed)
	}
}

func TestSubmitSlotSizeValidation(t *testing.T) {
	cfg := Config{
		Scheduler: sched.NewSlottedDAS(),
		Scheme:    batch.SlottedConcat,
		B:         4, L: 64, SlotSize: 8,
	}
	cfg.Engine = &scriptRunner{}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(75)
	if _, err := srv.Submit(randTokens(src, 8), time.Second); err != nil {
		t.Fatalf("slot-sized request rejected: %v", err)
	}
	_, err = srv.Submit(randTokens(src, 10), time.Second)
	var tooLong *TooLongError
	if !errors.As(err, &tooLong) {
		t.Fatalf("over-slot submit err = %v, want *TooLongError", err)
	}
	if !tooLong.Slot || tooLong.Limit != 8 || tooLong.Len != 10 {
		t.Fatalf("unexpected TooLongError %+v", tooLong)
	}
	// Row-capacity overflows keep the typed error too, without Slot.
	_, err = srv.Submit(randTokens(src, 65), time.Second)
	if !errors.As(err, &tooLong) || tooLong.Slot {
		t.Fatalf("over-row submit err = %v, want row-capacity *TooLongError", err)
	}
	// A slot size beyond the row is a configuration error.
	cfg.SlotSize = 128
	if _, err := New(cfg); err == nil {
		t.Fatal("SlotSize > L must fail validation")
	}
}

// TestRetryBeatsNoRetryUnderChaos is the acceptance pin: under the same
// seeded 20% error / 5% panic fault schedule, requeueing failed batches
// serves strictly more requests than failing whole batches, the process
// never crashes, and panics surface as counted errors.
func TestRetryBeatsNoRetryUnderChaos(t *testing.T) {
	run := func(maxAttempts int) Stats {
		_, realEngine := testServer(t, batch.Concat, sched.NewDAS())
		// Seed 6 injects faults into the first three launches, so the
		// no-retry run demonstrably loses whole batches.
		chaos := NewChaosRunner(realEngine, ChaosConfig{ErrRate: 0.2, PanicRate: 0.05, Seed: 6})
		srv, err := New(Config{
			Engine:    chaos,
			Scheduler: sched.NewDAS(),
			Scheme:    batch.Concat,
			B:         2, L: 32,
			Poll:             200 * time.Microsecond,
			Retry:            RetryPolicy{MaxAttempts: maxAttempts, Backoff: time.Millisecond},
			BreakerThreshold: 5,
			BreakerCooldown:  20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(77)
		var chans []<-chan Response
		for i := 0; i < 36; i++ {
			ch, err := srv.Submit(randTokens(src, src.IntRange(3, 8)), 30*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			chans = append(chans, ch)
		}
		srv.Start()
		for _, ch := range chans {
			select {
			case <-ch:
			case <-time.After(20 * time.Second):
				t.Fatal("request hung under chaos")
			}
		}
		st := srv.Stats()
		srv.Stop()
		return st
	}

	off := run(1)
	on := run(4)
	if off.Failed == 0 {
		t.Fatalf("chaos seed injected no failures in the no-retry run: %+v", off)
	}
	if on.Served <= off.Served {
		t.Fatalf("retry must serve strictly more: retry-on served %d vs retry-off %d",
			on.Served, off.Served)
	}
	if on.Retried == 0 {
		t.Fatalf("retry-on run recorded no requeues: %+v", on)
	}
}

// TestConcurrentSubmitStopDrain races submissions against Drain and Stop
// over a slow, faulty engine: every accepted request must resolve exactly
// once and the counters must balance.
func TestConcurrentSubmitStopDrain(t *testing.T) {
	chaos := NewChaosRunner(&scriptRunner{}, ChaosConfig{
		ErrRate: 0.2, SlowRate: 0.5, SlowDelay: 2 * time.Millisecond, Seed: 3,
	})
	srv, err := New(Config{
		Engine:    chaos,
		Scheduler: sched.NewDAS(),
		Scheme:    batch.Concat,
		B:         4, L: 64,
		Poll:         200 * time.Microsecond,
		Retry:        RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond},
		DrainTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()

	const clients = 8
	const perClient = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			src := rng.New(uint64(c) + 200)
			for i := 0; i < perClient; i++ {
				ch, err := srv.Submit(randTokens(src, src.IntRange(2, 10)), 5*time.Second)
				if err != nil {
					continue // closed/draining/full: rejected fast is fine
				}
				select {
				case <-ch:
				case <-time.After(10 * time.Second):
					t.Error("accepted request never resolved")
					return
				}
			}
		}(c)
	}
	var lifecycle sync.WaitGroup
	lifecycle.Add(2)
	go func() {
		defer lifecycle.Done()
		time.Sleep(5 * time.Millisecond)
		srv.Drain()
	}()
	go func() {
		defer lifecycle.Done()
		time.Sleep(8 * time.Millisecond)
		srv.Stop()
	}()
	wg.Wait()
	lifecycle.Wait()

	st := srv.Stats()
	if st.Queued != 0 {
		t.Fatalf("queue not empty after shutdown: %+v", st)
	}
	if got := st.Served + st.Missed + st.Failed + st.Shed; got != st.Submitted {
		t.Fatalf("counters leak requests: served+missed+failed+shed = %d, submitted = %d (%+v)",
			got, st.Submitted, st)
	}
}
