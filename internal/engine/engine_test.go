package engine

import (
	"testing"
	"testing/quick"

	"tcb/internal/batch"
	"tcb/internal/gpu"
	"tcb/internal/model"
	"tcb/internal/prefixcache"
	"tcb/internal/rng"
	"tcb/internal/vocab"
)

const testVocab = 60

func testEngine(t testing.TB, maxNew int) *Engine {
	t.Helper()
	cfg := model.Config{
		VocabSize: testVocab, DModel: 32, NumHeads: 4, DFF: 64,
		EncLayers: 2, DecLayers: 2, MaxLen: 256, Eps: 1e-5,
	}
	return New(model.New(cfg, 77), maxNew)
}

func randTokens(src *rng.Source, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = src.IntRange(vocab.FirstWordID, testVocab-1)
	}
	return out
}

func makeRequests(src *rng.Source, lens ...int) (map[int64][]int, []batch.Item) {
	tokens := make(map[int64][]int)
	items := make([]batch.Item, len(lens))
	for i, l := range lens {
		id := int64(i + 1)
		tokens[id] = randTokens(src, l)
		items[i] = batch.Item{ID: id, Len: l}
	}
	return tokens, items
}

func TestRunConcatMatchesSingles(t *testing.T) {
	e := testEngine(t, 5)
	src := rng.New(1)
	tokens, items := makeRequests(src, 4, 7, 3, 5)
	b, rest := batch.PackConcat(items, 2, 12)
	if len(rest) != 0 {
		t.Fatalf("rest = %v", rest)
	}
	rep, err := e.Run(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 4 {
		t.Fatalf("results = %d, want 4", len(rep.Results))
	}
	for _, r := range rep.Results {
		solo, err := e.RunSingle(r.ID, tokens[r.ID])
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Output) != len(solo.Output) {
			t.Fatalf("request %d: batch %v vs solo %v", r.ID, r.Output, solo.Output)
		}
		for i := range r.Output {
			if r.Output[i] != solo.Output[i] {
				t.Fatalf("request %d token %d differs", r.ID, i)
			}
		}
	}
	if rep.Elapsed <= 0 {
		t.Fatal("elapsed must be measured")
	}
}

func TestRunSlottedMatchesSingles(t *testing.T) {
	e := testEngine(t, 4)
	src := rng.New(2)
	tokens, items := makeRequests(src, 4, 3, 5, 2)
	b, rest := batch.PackSlotted(items, 2, 10, 5)
	if len(rest) != 0 {
		t.Fatalf("rest = %v", rest)
	}
	rep, err := e.Run(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		solo, err := e.RunSingle(r.ID, tokens[r.ID])
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Output) != len(solo.Output) {
			t.Fatalf("request %d: slotted %v vs solo %v", r.ID, r.Output, solo.Output)
		}
		for i := range r.Output {
			if r.Output[i] != solo.Output[i] {
				t.Fatalf("request %d token %d differs", r.ID, i)
			}
		}
	}
}

func TestRunNaiveMatchesSingles(t *testing.T) {
	e := testEngine(t, 3)
	src := rng.New(3)
	tokens, items := makeRequests(src, 6, 2, 4)
	b, rest := batch.PackNaive(items, 4, 100)
	if len(rest) != 0 {
		t.Fatalf("rest = %v", rest)
	}
	rep, err := e.Run(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		solo, err := e.RunSingle(r.ID, tokens[r.ID])
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Output) != len(solo.Output) {
			t.Fatalf("request %d differs from solo", r.ID)
		}
	}
}

func TestRunValidatesTokens(t *testing.T) {
	e := testEngine(t, 2)
	src := rng.New(4)
	tokens, items := makeRequests(src, 4)
	b, _ := batch.PackConcat(items, 1, 10)

	if _, err := e.Run(b, map[int64][]int{}); err == nil {
		t.Fatal("missing tokens should fail")
	}
	tokens[1] = tokens[1][:2] // wrong length
	if _, err := e.Run(b, tokens); err == nil {
		t.Fatal("length mismatch should fail")
	}
}

func TestRunRejectsInvalidBatch(t *testing.T) {
	e := testEngine(t, 2)
	bad := &batch.Batch{Scheme: batch.Concat, Rows: []batch.Row{
		{Items: []batch.Item{{ID: 1, Len: 20}}, PadTo: 10},
	}}
	if _, err := e.Run(bad, map[int64][]int{1: make([]int, 20)}); err == nil {
		t.Fatal("invalid batch should fail")
	}
}

func TestEncodeOnlyMode(t *testing.T) {
	e := testEngine(t, 0) // MaxNew 0: encode only
	src := rng.New(5)
	tokens, items := makeRequests(src, 3, 4)
	b, _ := batch.PackConcat(items, 1, 10)
	rep, err := e.Run(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if len(r.Output) != 0 || r.Steps != 0 {
			t.Fatal("encode-only mode must not generate")
		}
	}
	if rep.HasEarly {
		t.Fatal("no memory reports without decoding")
	}
}

func TestMemoryReports(t *testing.T) {
	e := testEngine(t, 6)
	src := rng.New(6)
	tokens, items := makeRequests(src, 4, 3, 5, 2)
	slotted, rest := batch.PackSlotted(items, 2, 10, 5)
	if len(rest) != 0 {
		t.Fatal("pack failed")
	}
	rep, err := e.Run(slotted, tokens)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasEarly {
		t.Fatal("slotted batches must produce early-cleaning reports")
	}
	if rep.Early.ByteSteps > rep.Early.TotalBytes*int64(rep.Early.FinalStep) {
		t.Fatal("early cleaning must not exceed whole-residency byte-steps")
	}

	pure, _ := batch.PackConcat(items, 2, 10)
	rep2, err := e.Run(pure, tokens)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.HasEarly {
		t.Fatal("pure concat cannot clean early (§4.2.2)")
	}
	if rep2.WholeBatch.TotalBytes == 0 {
		t.Fatal("whole-batch report must be populated")
	}
}

func TestEmptyRowsSkipped(t *testing.T) {
	e := testEngine(t, 2)
	b := &batch.Batch{Scheme: batch.Concat, Rows: []batch.Row{{PadTo: 10}}}
	rep, err := e.Run(b, map[int64][]int{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 0 {
		t.Fatal("empty rows should yield no results")
	}
}

func TestDifferentLengthsFinishAtDifferentSteps(t *testing.T) {
	// §4.2.2's premise: the decoder is auto-regressive, so requests in one
	// batch finish at different steps. With random weights most sequences
	// run to MaxNew, so force different step ceilings via input lengths
	// is not reliable — instead just verify Steps is recorded and bounded.
	e := testEngine(t, 4)
	src := rng.New(8)
	tokens, items := makeRequests(src, 3, 8)
	b, _ := batch.PackConcat(items, 1, 12)
	rep, err := e.Run(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Steps <= 0 || r.Steps > 4 {
			t.Fatalf("steps = %d out of (0, 4]", r.Steps)
		}
	}
}

func BenchmarkRunConcatRow(b *testing.B) {
	e := testEngine(b, 2)
	src := rng.New(9)
	tokens, items := makeRequests(src, 10, 10, 10, 10)
	bt, _ := batch.PackConcat(items, 1, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(bt, tokens); err != nil {
			b.Fatal(err)
		}
	}
}

func TestOutputCapStaggersFinishSteps(t *testing.T) {
	e := testEngine(t, 10)
	e.OutputCap = func(inputLen int) int { return inputLen }
	src := rng.New(20)
	tokens, items := makeRequests(src, 2, 7)
	b, _ := batch.PackConcat(items, 1, 12)
	rep, err := e.Run(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	steps := map[int64]int{}
	for _, r := range rep.Results {
		steps[r.ID] = r.Steps
		if len(r.Output) > tokens[r.ID][0]*0+10 {
			t.Fatal("output exceeded MaxNew")
		}
	}
	if steps[1] >= steps[2] {
		t.Fatalf("shorter input should finish earlier: %v", steps)
	}
}

func TestOutputCapNegativeClampsToZero(t *testing.T) {
	e := testEngine(t, 5)
	e.OutputCap = func(int) int { return -3 }
	src := rng.New(21)
	tokens, items := makeRequests(src, 4)
	b, _ := batch.PackConcat(items, 1, 10)
	rep, err := e.Run(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results[0].Output) != 0 {
		t.Fatal("negative cap must clamp to zero generation")
	}
}

func TestOutputCapEarlyCleaningBenefit(t *testing.T) {
	// With length-proportional outputs, slotted early cleaning must beat
	// whole-batch residency (§4.2.2) — the real-engine invariant.
	e := testEngine(t, 12)
	e.OutputCap = func(inputLen int) int { return inputLen }
	src := rng.New(22)
	tokens, items := makeRequests(src, 2, 5, 3, 4)
	b, rest := batch.PackSlotted(items, 2, 10, 5)
	if len(rest) != 0 {
		t.Fatal("pack failed")
	}
	rep, err := e.Run(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasEarly {
		t.Fatal("expected early report")
	}
	wholeAtSlottedFootprint := rep.Early.TotalBytes * int64(rep.Early.FinalStep)
	if rep.Early.ByteSteps >= wholeAtSlottedFootprint {
		t.Fatalf("early cleaning saved nothing: %d >= %d",
			rep.Early.ByteSteps, wholeAtSlottedFootprint)
	}
}

// UseCache is deprecated and ignored: a launch with it set decodes exactly
// like one without, and both match the mask-based re-run decoder.
func TestUseCacheMatchesRerun(t *testing.T) {
	src := rng.New(30)
	tokens, items := makeRequests(src, 4, 7, 3)
	b, rest := batch.PackConcat(items, 1, 14)
	if len(rest) != 0 {
		t.Fatal("pack failed")
	}
	plain := testEngine(t, 5)
	cached := testEngine(t, 5)
	cached.UseCache = true
	want := rerunOracle(t, plain, b, tokens)
	r1, err := plain.Run(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cached.Run(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []*Report{r1, r2} {
		if len(rep.Results) != len(items) {
			t.Fatalf("%d results for %d requests", len(rep.Results), len(items))
		}
		for _, r := range rep.Results {
			w := want[r.ID]
			if !equalInts(r.Output, w.Output) || r.Steps != w.Steps {
				t.Fatalf("request %d: launch %v/%d vs re-run %v/%d", r.ID, r.Output, r.Steps, w.Output, w.Steps)
			}
		}
	}
}

// A slotted launch with the deprecated UseCache set still matches
// standalone inference token for token.
func TestUseCacheSlottedScheme(t *testing.T) {
	src := rng.New(31)
	tokens, items := makeRequests(src, 4, 3, 5)
	b, rest := batch.PackSlotted(items, 2, 10, 5)
	if len(rest) != 0 {
		t.Fatal("pack failed")
	}
	e := testEngine(t, 4)
	e.UseCache = true
	rep, err := e.Run(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(items) {
		t.Fatalf("%d results for %d requests", len(rep.Results), len(items))
	}
	for _, r := range rep.Results {
		solo, err := e.RunSingle(r.ID+50, tokens[r.ID])
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(r.Output, solo.Output) {
			t.Fatalf("request %d: slotted %v vs solo %v", r.ID, r.Output, solo.Output)
		}
	}
}

// Property: for random request sets, every batching scheme produces the
// same outputs as standalone inference.
func TestAllSchemesEquivalentProperty(t *testing.T) {
	e := testEngine(t, 3)
	f := func(seed uint16) bool {
		src := rng.New(uint64(seed) + 1)
		n := src.IntRange(1, 4)
		lens := make([]int, n)
		for i := range lens {
			lens[i] = src.IntRange(2, 6)
		}
		tokens, items := makeRequests(src, lens...)
		solo := map[int64][]int{}
		for _, it := range items {
			r, err := e.RunSingle(it.ID+1000, tokens[it.ID])
			if err != nil {
				return false
			}
			solo[it.ID] = r.Output
		}
		check := func(b *batch.Batch) bool {
			rep, err := e.Run(b, tokens)
			if err != nil {
				return false
			}
			for _, r := range rep.Results {
				want := solo[r.ID]
				if len(r.Output) != len(want) {
					return false
				}
				for i := range want {
					if r.Output[i] != want[i] {
						return false
					}
				}
			}
			return true
		}
		nb, rest := batch.PackNaive(items, 8, 64)
		if len(rest) != 0 || !check(nb) {
			return false
		}
		cb, rest := batch.PackConcat(items, 2, 16)
		if len(rest) != 0 || !check(cb) {
			return false
		}
		sb, rest := batch.PackSlotted(items, 2, 16, 8)
		if len(rest) != 0 || !check(sb) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryBudgetEnforced(t *testing.T) {
	e := testEngine(t, 0)
	src := rng.New(40)
	tokens, items := makeRequests(src, 10, 10)
	b, _ := batch.PackConcat(items, 1, 20)
	// Budget exactly one batch: 20 tokens × BytesPerToken.
	e.Mem = gpu.NewMemoryManager(20 * e.BytesPerToken)
	if _, err := e.Run(b, tokens); err != nil {
		t.Fatalf("fitting batch rejected: %v", err)
	}
	// Memory must be released after the run.
	if e.Mem.Used() != 0 || e.Mem.Outstanding() != 0 {
		t.Fatalf("memory leaked: used=%d outstanding=%d", e.Mem.Used(), e.Mem.Outstanding())
	}
	// A larger batch must be rejected with the allocator's error.
	tokens2, items2 := makeRequests(src, 15, 15)
	big, _ := batch.PackConcat(items2, 1, 30)
	if _, err := e.Run(big, tokens2); err == nil {
		t.Fatal("over-budget batch should fail")
	}
}

// The engine's one decode loop (RunPrepared: every row's segments advance
// together through one fused BatchDecodeState) must reproduce the per-row
// mask-based re-run decoder — the literal §4.1.2 formulation — token for
// token and step for step, in batch row/item order, under every batching
// scheme. OutputCap staggers the caps and floors some at zero; the batch
// carries a prefix-cache hit (whose oracle is its cold twin: the full
// request, prefix and suffix encoded as two isolated segments) and a cold
// declared prefix the launch freezes.
func TestFusedDecodeMatchesPerRow(t *testing.T) {
	src := rng.New(50)
	tokens, items := makeRequests(src, 4, 7, 3, 5, 2, 8)
	shared := randTokens(src, 4)
	hitID, coldID := int64(len(items)+1), int64(len(items)+2)
	tokens[hitID] = append(append([]int{}, shared...), randTokens(src, 3)...)
	tokens[coldID] = randTokens(src, 6)
	hit := batch.Item{ID: hitID, Len: 3, PrefixLen: 4, CachedLen: 4}
	cold := batch.Item{ID: coldID, Len: 6, PrefixLen: 3}
	items = append(items, hit, cold)
	hitTwin := batch.Item{ID: hitID, Len: 7, PrefixLen: 4}
	twinItems := append(append([]batch.Item{}, items[:len(items)-2]...), hitTwin, cold)

	newEngine := func() *Engine {
		e := testEngine(t, 6)
		e.OutputCap = func(n int) int { return 2*(n%4) - 1 } // 1, 3, 5 or below zero
		e.PrefixCache = prefixcache.New(0, gpu.NewMemoryManager(0))
		// Warm the shared prefix through the engine's own freeze path.
		warm := batch.Item{ID: 99, Len: 5, PrefixLen: 4}
		wb, _ := batch.PackConcat([]batch.Item{warm}, 1, 5)
		if _, err := e.Run(wb, map[int64][]int{99: append(append([]int{}, shared...), 9)}); err != nil {
			t.Fatal(err)
		}
		return e
	}
	packs := []struct {
		name string
		pack func([]batch.Item) (*batch.Batch, []batch.Item)
	}{
		{"naive", func(it []batch.Item) (*batch.Batch, []batch.Item) { return batch.PackNaive(it, 8, 16) }},
		{"concat", func(it []batch.Item) (*batch.Batch, []batch.Item) { return batch.PackConcat(it, 3, 16) }},
		{"slotted", func(it []batch.Item) (*batch.Batch, []batch.Item) { return batch.PackSlotted(it, 3, 16, 8) }},
	}
	for _, tc := range packs {
		t.Run(tc.name, func(t *testing.T) {
			e := newEngine()
			b, rest := tc.pack(items)
			twin, twinRest := tc.pack(twinItems)
			if len(rest)+len(twinRest) != 0 {
				t.Fatal("packing left requests behind")
			}
			want := rerunOracle(t, e, twin, tokens)
			for id, r := range rerunOracle(t, e, b, tokens) {
				if id != hitID {
					want[id] = r
				}
			}
			p, err := e.Prepare(b, tokens)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Release()
			rep, err := e.RunPrepared(p)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Refill != nil {
				t.Fatal("a hook-less launch must not report refill")
			}
			if !e.PrefixCache.Contains(tokens[coldID], cold.PrefixLen) {
				t.Fatal("the cold declared prefix was not frozen")
			}
			var order []int64
			for _, row := range p.rows {
				for _, it := range row.Items {
					order = append(order, it.ID)
				}
			}
			if len(rep.Results) != len(order) {
				t.Fatalf("%d results for %d items", len(rep.Results), len(order))
			}
			zero, steps := 0, map[int]bool{}
			for k, r := range rep.Results {
				w := want[order[k]]
				if r.ID != order[k] {
					t.Fatalf("result %d is request %d, batch order says %d", k, r.ID, order[k])
				}
				if !equalInts(r.Output, w.Output) || r.Steps != w.Steps {
					t.Fatalf("request %d: loop %v/%d vs re-run %v/%d", r.ID, r.Output, r.Steps, w.Output, w.Steps)
				}
				if r.Steps == 0 {
					zero++
				}
				steps[r.Steps] = true
			}
			if zero == 0 || len(steps) < 3 {
				t.Fatalf("caps not staggered: %d zero-step requests, step counts %v", zero, steps)
			}
		})
	}
}

// rerunOracle stages b and decodes each staged row with GenerateRowCapped,
// keyed by request ID. Slotted decoder slots are rebuilt over the item
// layout, which splits no declared prefix.
func rerunOracle(t *testing.T, e *Engine, b *batch.Batch, tokens map[int64][]int) map[int64]Result {
	t.Helper()
	p, err := e.Prepare(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	out := make(map[int64]Result)
	for ri, row := range p.rows {
		enc := e.Model.EncodeRow(p.rowTokens[ri], p.encLayouts[ri], p.slots[ri], p.mode, true)
		var slots []model.Slot
		if p.mode == model.AttSlotted {
			ones := make([]int, len(row.Items))
			for i := range ones {
				ones[i] = 1
			}
			slots = e.slotsForRow(b, row, p.layouts[ri], ones)
		}
		gen := e.Model.GenerateRowCapped(enc, p.layouts[ri], slots, p.caps[ri], p.mode)
		for i, it := range row.Items {
			out[it.ID] = Result{ID: it.ID, Output: gen[i].Tokens, Steps: gen[i].Steps}
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Concurrent Run calls on the SAME *batch.Batch must not collide in the
// memory manager: the launch tag is a process-wide counter, not the batch
// pointer.
func TestConcurrentRunsShareBatch(t *testing.T) {
	e := testEngine(t, 0)
	src := rng.New(51)
	tokens, items := makeRequests(src, 5, 5)
	b, _ := batch.PackConcat(items, 1, 10)
	// Budget two simultaneous launches of this batch.
	e.Mem = gpu.NewMemoryManager(2 * 10 * e.BytesPerToken)
	const launches = 2
	errs := make(chan error, launches)
	start := make(chan struct{})
	for i := 0; i < launches; i++ {
		go func() {
			<-start
			_, err := e.Run(b, tokens)
			errs <- err
		}()
	}
	close(start)
	for i := 0; i < launches; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent launch failed: %v", err)
		}
	}
	if e.Mem.Used() != 0 || e.Mem.Outstanding() != 0 {
		t.Fatalf("memory leaked: used=%d outstanding=%d", e.Mem.Used(), e.Mem.Outstanding())
	}
}

// TestPreparedMatchesRun pins the split handoff to the one-shot path:
// Prepare + RunPrepared + Release must produce the same outputs and the
// same memory accounting as Run.
func TestPreparedMatchesRun(t *testing.T) {
	e := testEngine(t, 4)
	src := rng.New(61)
	tokens, items := makeRequests(src, 4, 6, 3)
	b, _ := batch.PackConcat(items, 2, 10)
	e.Mem = gpu.NewMemoryManager(int64(b.TotalTokens()) * e.BytesPerToken)

	want, err := e.Run(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Prepare(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	if e.Mem.Used() == 0 {
		t.Fatal("Prepare must hold the batch's reservation")
	}
	got, err := e.RunPrepared(p)
	if err != nil {
		t.Fatal(err)
	}
	if e.Mem.Used() == 0 {
		t.Fatal("RunPrepared must not free the reservation")
	}
	p.Release()
	if e.Mem.Used() != 0 || e.Mem.Outstanding() != 0 {
		t.Fatalf("Release leaked: used=%d outstanding=%d", e.Mem.Used(), e.Mem.Outstanding())
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("results: %d vs %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		w, g := want.Results[i], got.Results[i]
		if w.ID != g.ID || len(w.Output) != len(g.Output) {
			t.Fatalf("result %d: %+v vs %+v", i, w, g)
		}
		for j := range w.Output {
			if w.Output[j] != g.Output[j] {
				t.Fatalf("result %d token %d differs", i, j)
			}
		}
	}
	if got.WholeBatch != want.WholeBatch {
		t.Fatalf("cleaning report differs: %+v vs %+v", got.WholeBatch, want.WholeBatch)
	}
}

// TestPreparedReleaseIdempotent: double Release (and Release on nil) must
// be safe — the serve pipeline releases on both the success and the
// failure path, and a watchdog race can reach both.
func TestPreparedReleaseIdempotent(t *testing.T) {
	e := testEngine(t, 2)
	src := rng.New(62)
	tokens, items := makeRequests(src, 5)
	b, _ := batch.PackConcat(items, 1, 8)
	e.Mem = gpu.NewMemoryManager(int64(b.TotalTokens()) * e.BytesPerToken)
	p, err := e.Prepare(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	p.Release()
	p.Release()
	var nilP *Prepared
	nilP.Release()
	if e.Mem.Used() != 0 || e.Mem.Outstanding() != 0 {
		t.Fatalf("double release broke accounting: used=%d outstanding=%d",
			e.Mem.Used(), e.Mem.Outstanding())
	}
}

// TestDeferredFinishReportMatchesInline: running with DeferCleaning and
// calling FinishReport afterwards must fill the same cleaning reports the
// inline path produces.
func TestDeferredFinishReportMatchesInline(t *testing.T) {
	e := testEngine(t, 5)
	src := rng.New(63)
	tokens, items := makeRequests(src, 4, 3, 6)
	b, _ := batch.PackSlotted(items, 2, 14, 7)

	want, err := e.Run(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Prepare(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	p.DeferCleaning = true
	got, err := e.RunPrepared(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.WholeBatch != (gpu.CleaningReport{}) {
		t.Fatal("DeferCleaning must leave the report empty until FinishReport")
	}
	if err := p.FinishReport(got); err != nil {
		t.Fatal(err)
	}
	if got.WholeBatch != want.WholeBatch {
		t.Fatalf("deferred whole-batch report differs: %+v vs %+v", got.WholeBatch, want.WholeBatch)
	}
	if got.HasEarly != want.HasEarly || got.Early != want.Early {
		t.Fatalf("deferred early report differs: %+v vs %+v", got.Early, want.Early)
	}
}
