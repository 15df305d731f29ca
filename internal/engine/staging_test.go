package engine

import (
	"slices"
	"testing"

	"tcb/internal/batch"
	"tcb/internal/model"
	"tcb/internal/tensor"
	"tcb/internal/vocab"
)

// servingEngine is the serving geometry (vocabulary 256, d_model 64, two
// encoder and two decoder layers, weights seed 42) with outputs capped at the input length.
func servingEngine(maxNew int) *Engine {
	cfg := model.Config{
		VocabSize: 256, DModel: 64, NumHeads: 4, DFF: 128,
		EncLayers: 2, DecLayers: 2, MaxLen: 512, Eps: 1e-5,
	}
	e := New(model.New(cfg, 42), maxNew)
	e.OutputCap = func(n int) int { return min(n, maxNew) }
	return e
}

// nearTieRequest is a 22-token request whose 17th output token sits at a
// near tie of two logits: any rounding difference in its encoding flips
// the arg-max (171 served alone).
var nearTieRequest = []int{21, 18, 208, 204, 20, 152, 149, 148, 35, 185, 99,
	169, 176, 114, 221, 240, 98, 107, 45, 124, 11, 144}

// A request's output must not depend on how far its row is padded or on
// where in the row it sits: the near-tie request, alone or behind a 1–7
// token neighbour, in Concat rows of every capacity from its length to
// 100, must produce RunSingle's tokens exactly. Under the race detector the
// capacities are sampled: the four tightest (every residue of the
// four-key grouping) and 100.
func TestConcatOutputIndependentOfPaddingAndOffset(t *testing.T) {
	e := servingEngine(32)
	const id = 1
	solo, err := e.RunSingle(id, nearTieRequest)
	if err != nil {
		t.Fatal(err)
	}
	if len(solo.Output) <= 16 || solo.Output[16] != 171 {
		t.Fatalf("RunSingle output %v: want token 16 = 171", solo.Output)
	}
	for n := 0; n <= 7; n++ {
		tokens := map[int64][]int{id: nearTieRequest}
		var items []batch.Item
		if n > 0 {
			neighbour := make([]int, n)
			for i := range neighbour {
				neighbour[i] = vocab.FirstWordID + 3*i
			}
			tokens[2] = neighbour
			items = append(items, batch.Item{ID: 2, Len: n})
		}
		items = append(items, batch.Item{ID: id, Len: len(nearTieRequest)})
		for padTo := len(nearTieRequest) + n; padTo <= 100; padTo++ {
			if raceEnabled && padTo > len(nearTieRequest)+n+3 && padTo < 100 {
				continue
			}
			b, rest := batch.PackConcat(items, 1, padTo)
			if len(rest) != 0 {
				t.Fatalf("neighbour %d, PadTo %d: %d items did not pack", n, padTo, len(rest))
			}
			rep, err := e.Run(b, tokens)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rep.Results {
				if r.ID == id && !slices.Equal(r.Output, solo.Output) {
					t.Fatalf("neighbour %d, PadTo %d: output %v, RunSingle %v", n, padTo, r.Output, solo.Output)
				}
			}
		}
	}
}

// Staging policy: Concat and SlottedConcat rows are staged at their
// resident length — no PadID tail, and an encoder output with exactly the
// resident rows — while Naive and Turbo rows keep their padding to PadTo.
func TestStagingPadsOnlyBaselineRows(t *testing.T) {
	e := testEngine(t, 0)
	tokens := map[int64][]int{1: {5, 6, 7}, 2: {8, 9}, 3: {10, 11, 12, 13}}
	items := []batch.Item{{ID: 1, Len: 3}, {ID: 2, Len: 2}, {ID: 3, Len: 4}}
	const padTo = 16
	concat, _ := batch.PackConcat(items, 1, padTo)
	slotted, _ := batch.PackSlotted(items, 1, padTo, 8)
	onePerRow := func(s batch.Scheme) *batch.Batch {
		b := &batch.Batch{Scheme: s}
		for _, it := range items {
			b.Rows = append(b.Rows, batch.Row{Items: []batch.Item{it}, PadTo: padTo})
		}
		return b
	}
	for _, b := range []*batch.Batch{concat, slotted, onePerRow(batch.Naive), onePerRow(batch.Turbo)} {
		padded := b.Scheme == batch.Naive || b.Scheme == batch.Turbo
		p, err := e.Prepare(b, tokens)
		if err != nil {
			t.Fatalf("%v: %v", b.Scheme, err)
		}
		for ri, row := range p.rows {
			want := row.Used()
			if padded {
				want = row.PadTo
			}
			staged := p.rowTokens[ri]
			if len(staged) != want || p.encLayouts[ri].Total != want {
				t.Fatalf("%v row %d: %d staged tokens, layout total %d, want %d",
					b.Scheme, ri, len(staged), p.encLayouts[ri].Total, want)
			}
			if padded != slices.Contains(staged, vocab.PadID) {
				t.Fatalf("%v row %d: staged %v", b.Scheme, ri, staged)
			}
			ws := tensor.NewWorkspace()
			enc := e.Model.EncodeRowWS(staged, p.encLayouts[ri], p.slots[ri], p.mode, true, ws)
			ws.Close()
			if enc.Rows != want {
				t.Fatalf("%v row %d: encoder output has %d rows, want %d", b.Scheme, ri, enc.Rows, want)
			}
		}
		p.Release()
	}
}

// BenchmarkLaunchOneRequest is the lightly loaded launch shape: one
// 20-token request in a Concat row of capacity 100, generating up to 20
// tokens.
func BenchmarkLaunchOneRequest(b *testing.B) {
	e := servingEngine(20)
	req := nearTieRequest[:20]
	tokens := map[int64][]int{1: req}
	bt, _ := batch.PackConcat([]batch.Item{{ID: 1, Len: len(req)}}, 1, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(bt, tokens); err != nil {
			b.Fatal(err)
		}
	}
}
