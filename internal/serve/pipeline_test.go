package serve

import (
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tcb/internal/batch"
	"tcb/internal/engine"
	"tcb/internal/gpu"
	"tcb/internal/model"
	"tcb/internal/rng"
	"tcb/internal/sched"
)

// pipelineServer builds a server with the three-stage pipeline enabled over
// a real engine.
func pipelineServer(t *testing.T, mutate func(*Config)) (*Server, *engine.Engine) {
	t.Helper()
	cfg := model.Config{
		VocabSize: testVocab, DModel: 32, NumHeads: 4, DFF: 64,
		EncLayers: 1, DecLayers: 1, MaxLen: 256, Eps: 1e-5,
	}
	e := engine.New(model.New(cfg, 5), 3)
	sc := Config{
		Engine: e, Scheduler: sched.NewDAS(), Scheme: batch.Concat,
		B: 4, L: 64, Poll: 200 * time.Microsecond,
		Pipeline: true,
	}
	if mutate != nil {
		mutate(&sc)
	}
	s, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	return s, e
}

// collectOutputs submits n deterministic requests and returns each one's
// response in submission order after the server drains.
func collectOutputs(t *testing.T, s *Server, seed uint64, n int) []Response {
	t.Helper()
	src := rng.New(seed)
	chans := make([]<-chan Response, 0, n)
	for i := 0; i < n; i++ {
		ch, err := s.Submit(randTokens(src, 3+i%10), 30*time.Second)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans = append(chans, ch)
	}
	s.Drain()
	out := make([]Response, 0, n)
	for i, ch := range chans {
		select {
		case resp := <-ch:
			out = append(out, resp)
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d: no response after drain", i)
		}
	}
	return out
}

// TestPipelinedMatchesSerialOutputs pins the pipeline to bitwise-identical
// per-request outputs: concat isolation means a request's output depends
// only on its own tokens, so overlapping batches cannot change it.
func TestPipelinedMatchesSerialOutputs(t *testing.T) {
	const n = 24
	serial, _ := testServer(t, batch.Concat, sched.NewDAS())
	serial.Start()
	want := collectOutputs(t, serial, 33, n)

	pipe, _ := pipelineServer(t, nil)
	pipe.Start()
	got := collectOutputs(t, pipe, 33, n)

	for i := range want {
		if want[i].Err != nil || got[i].Err != nil {
			t.Fatalf("request %d: serial err %v, pipelined err %v", i, want[i].Err, got[i].Err)
		}
		if len(want[i].Output) != len(got[i].Output) {
			t.Fatalf("request %d: output lengths %d vs %d", i, len(want[i].Output), len(got[i].Output))
		}
		for j := range want[i].Output {
			if want[i].Output[j] != got[i].Output[j] {
				t.Fatalf("request %d token %d: serial %d, pipelined %d",
					i, j, want[i].Output[j], got[i].Output[j])
			}
		}
	}
}

// TestPipelineUnderChaos drives the three-stage pipeline with seeded fault
// injection (this package's CI race run covers it with -race): the server
// must survive every injected fault, keep serving, and drain clean.
func TestPipelineUnderChaos(t *testing.T) {
	var chaos *ChaosRunner
	s, _ := pipelineServer(t, func(c *Config) {
		chaos = NewChaosRunner(c.Engine, ChaosConfig{
			ErrRate: 0.2, PanicRate: 0.1, SlowRate: 0.1, LoseRate: 0.1,
			SlowDelay: time.Millisecond, Seed: 7,
		})
		c.Engine = chaos
		c.Retry = RetryPolicy{MaxAttempts: 4, Backoff: 500 * time.Microsecond}
		c.BreakerThreshold = 8
		c.BreakerCooldown = 2 * time.Millisecond
		c.DrainTimeout = 20 * time.Second
	})
	s.Start()
	resps := collectOutputs(t, s, 44, 40)
	served := 0
	for _, r := range resps {
		if r.Err == nil {
			served++
		}
	}
	if served == 0 {
		t.Fatal("pipeline under chaos served nothing")
	}
	c := chaos.Counts()
	if c.Errs+c.Panics+c.Slows+c.Lost == 0 {
		t.Fatal("chaos injected nothing; test is vacuous")
	}
	if q := s.QueueLen(); q != 0 {
		t.Fatalf("%d requests still queued after drain", q)
	}
}

// TestPipelineNoGoroutineLeakAfterDrain proves the pipeline stages exit on
// Drain and the kernel pool helpers stay parked (not grown) — zero
// goroutines beyond the pre-server baseline.
func TestPipelineNoGoroutineLeakAfterDrain(t *testing.T) {
	// Warm the shared kernel pool first so its persistent helpers are part
	// of the baseline, not counted as a leak.
	warm, _ := pipelineServer(t, nil)
	warm.Start()
	collectOutputs(t, warm, 55, 4)

	baseline := runtime.NumGoroutine()
	s, _ := pipelineServer(t, nil)
	s.Start()
	collectOutputs(t, s, 56, 12)

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after drain, baseline %d\n%s",
			got, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestStageStatsSplit checks the per-stage latency counters accrue on both
// loop shapes and that Pipelined reports the active mode.
func TestStageStatsSplit(t *testing.T) {
	serial, _ := testServer(t, batch.Concat, sched.NewDAS())
	serial.Start()
	collectOutputs(t, serial, 66, 6)
	st := serial.Stats()
	if st.Pipelined {
		t.Fatal("serial server reports Pipelined")
	}
	if st.ScheduleNs <= 0 || st.ComputeNs <= 0 || st.CleanupNs <= 0 {
		t.Fatalf("serial stage counters: %+v", st)
	}

	pipe, _ := pipelineServer(t, nil)
	pipe.Start()
	collectOutputs(t, pipe, 66, 6)
	st = pipe.Stats()
	if !st.Pipelined {
		t.Fatal("pipelined server does not report Pipelined")
	}
	if st.ScheduleNs <= 0 || st.ComputeNs <= 0 || st.CleanupNs <= 0 {
		t.Fatalf("pipelined stage counters: %+v", st)
	}
}

// TestPipelineStageOverruns wires an absurdly tight stage prediction and
// checks overruns are counted (the observability hook for a mis-calibrated
// cost model).
func TestPipelineStageOverruns(t *testing.T) {
	s, _ := pipelineServer(t, func(c *Config) {
		c.TimeoutSlack = 1
		c.PredictStages = func(*batch.Batch) (time.Duration, time.Duration) {
			return time.Nanosecond, time.Nanosecond
		}
	})
	s.Start()
	collectOutputs(t, s, 77, 6)
	if s.Stats().StageOverruns == 0 {
		t.Fatal("no stage overruns counted under a 1ns budget")
	}
}

// hangRunner wedges the first engine invocation forever (until the test
// releases it); later invocations pass through. It models the hung launch
// the supervision watchdog abandons.
type hangRunner struct {
	inner   Runner
	calls   atomic.Int64
	release chan struct{}
}

func (h *hangRunner) RunPreparedRefill(p *engine.Prepared, _ engine.RefillHook) (*engine.Report, error) {
	return h.RunPrepared(p)
}

func (h *hangRunner) Prepare(b *batch.Batch, tokens map[int64][]int) (*engine.Prepared, error) {
	return h.inner.Prepare(b, tokens)
}

func (h *hangRunner) RunPrepared(p *engine.Prepared) (*engine.Report, error) {
	if h.calls.Add(1) == 1 {
		<-h.release
		return nil, ErrChaos
	}
	return h.inner.RunPrepared(p)
}

// TestReleaseBeforeRequeue pins the deadlock fix: a batch killed by the
// watchdog has its memory reservation released *before* its requests are
// requeued, so the retry's admission cannot starve against the abandoned
// run's own reservation. The memory manager has room for exactly one batch;
// without the early release the retry could never be admitted.
func TestReleaseBeforeRequeue(t *testing.T) {
	hang := &hangRunner{release: make(chan struct{})}
	defer close(hang.release)
	var eng *engine.Engine
	s, _ := pipelineServer(t, func(c *Config) {
		eng = c.Engine.(*engine.Engine)
		// Capacity for exactly one single-row batch: TotalTokens == L.
		eng.Mem = gpu.NewMemoryManager(int64(64) * eng.BytesPerToken)
		hang.inner = eng
		c.Engine = hang
		c.B = 1
		c.Retry = RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond}
		c.BreakerThreshold = -1 // isolate the retry path from breaker trips
		c.PredictBatch = func(*batch.Batch) time.Duration { return 20 * time.Millisecond }
		c.TimeoutSlack = 1
		c.MinBatchTimeout = 20 * time.Millisecond
		c.DrainTimeout = 20 * time.Second
	})
	s.Start()
	src := rng.New(88)
	ch, err := s.Submit(randTokens(src, 5), 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var resp Response
	select {
	case resp = <-ch:
	case <-time.After(20 * time.Second):
		t.Fatal("no response: retry starved against the hung run's reservation")
	}
	if resp.Err != nil {
		t.Fatalf("retry after watchdog kill failed: %v", resp.Err)
	}
	if got := s.Stats().Timeouts; got != 1 {
		t.Fatalf("timeouts = %d, want 1", got)
	}
	s.Drain()
}

// A result the engine loses fails only its own request, pipelined or not:
// the pipeline's deferred memory-cleaning report, which has no finish step
// for the lost item, must not turn one lost result into a failed batch.
// Which request is lost depends on the batch's item order, so the modes are
// compared by outcome: one lost, three delivered with identical outputs.
func TestPipelinedLostResultMatchesSerial(t *testing.T) {
	outcomes := func(pipelined bool) []Response {
		s, _ := pipelineServer(t, func(c *Config) {
			c.Pipeline = pipelined
			c.Engine = NewChaosRunner(c.Engine, ChaosConfig{LoseRate: 1, Seed: 3})
			c.Retry = RetryPolicy{MaxAttempts: 1}
		})
		src := rng.New(91)
		var chans []<-chan Response
		for i := 0; i < 4; i++ {
			ch, err := s.Submit(randTokens(src, 3+i), 30*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			chans = append(chans, ch)
		}
		s.Start()
		defer s.Stop()
		out := make([]Response, len(chans))
		for i, ch := range chans {
			out[i] = <-ch
		}
		return out
	}
	serial, pipelined := outcomes(false), outcomes(true)
	for mode, resps := range map[string][]Response{"serial": serial, "pipelined": pipelined} {
		lost := 0
		for i, r := range resps {
			switch {
			case r.Err == nil:
				if other := serial[i]; mode == "pipelined" && other.Err == nil && !slices.Equal(r.Output, other.Output) {
					t.Fatalf("request %d: pipelined %v, serial %v", i+1, r.Output, other.Output)
				}
			case strings.Contains(r.Err.Error(), "lost by engine"):
				lost++
			default:
				t.Fatalf("%s: request %d failed with %v, want delivered or lost", mode, i+1, r.Err)
			}
		}
		if lost != 1 {
			t.Fatalf("%s: %d of 4 requests lost, want 1", mode, lost)
		}
	}
}
