package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"tcb/internal/batch"
	"tcb/internal/engine"
	"tcb/internal/model"
	"tcb/internal/rng"
	"tcb/internal/vocab"
)

// ExtQuantized is the A/B experiment for the int8 per-channel quantized GEMM
// path: the Fig. 13/14 batch geometry (fully packed rows of 20-token
// requests at the paper's L = 100 row length) runs encode-dominated through
// the float32 wide kernel and through the quantized path, on a model wide
// enough (d_model 256) that a layer's float32 weight matrices outgrow L1
// while the int8 kernel's L1-blocked weight tiles stay resident.
//
// Timing is paired median-of-3: each rep runs float32 and int8 back to back,
// and the pair with the median speedup is reported — paired runs cancel
// machine-wide drift, the median discards one-off interference. Accuracy
// rides along in the notes: the max absolute encoder-output error against
// the float32 reference (with the reference's own scale for context) and the
// greedy-decode token-agreement rate over a decoding batch.
func ExtQuantized(opt Options) (*Figure, error) {
	cfg := model.Config{
		VocabSize: 64, DModel: 256, NumHeads: 8, DFF: 512,
		EncLayers: 2, DecLayers: 1, MaxLen: 512, Eps: 1e-5,
	}
	const (
		rowLen = 100
		reqLen = 20
		reps   = 3
	)
	seed := opt.Seed + 200
	// Two models from the same seed: identical float32 weights, one carries
	// the int8 copies. Separate instances keep the float32 engine's path
	// free of any quantized state.
	mFloat := model.New(cfg, seed)
	mQuant := model.New(cfg, seed)
	engF := engine.New(mFloat, 0) // encode-only timing
	engQ := engine.New(mQuant, 0)
	engQ.Quantize = true

	src := rng.New(seed)
	makeBatch := func(rows int) (*batch.Batch, map[int64][]int, error) {
		n := rows * (rowLen / reqLen)
		items := make([]batch.Item, n)
		tokens := make(map[int64][]int, n)
		for i := 0; i < n; i++ {
			id := int64(i + 1)
			items[i] = batch.Item{ID: id, Len: reqLen}
			seq := make([]int, reqLen)
			for j := range seq {
				seq[j] = src.IntRange(vocab.FirstWordID, cfg.VocabSize-1)
			}
			tokens[id] = seq
		}
		b, rest := batch.PackConcat(items, rows, rowLen)
		if len(rest) != 0 {
			return nil, nil, fmt.Errorf("ext-quantized: %d items unpacked at B=%d", len(rest), rows)
		}
		return b, tokens, nil
	}

	fig := &Figure{
		ID:     "ext-quantized",
		Title:  "Int8 per-channel quantized GEMM vs float32 wide kernel (real engine, encode-dominated)",
		XLabel: "batch-rows",
		YLabel: "seconds",
	}
	for _, B := range []int{16, 48} {
		b, tokens, err := makeBatch(B)
		if err != nil {
			return nil, err
		}
		timeRun := func(e *engine.Engine) (float64, error) {
			start := time.Now()
			if _, err := e.Run(b, tokens); err != nil {
				return 0, err
			}
			return time.Since(start).Seconds(), nil
		}
		// Warm both paths: first quantized Prepare builds the int8 weights,
		// first runs populate the workspace pools.
		if _, err := timeRun(engF); err != nil {
			return nil, err
		}
		if _, err := timeRun(engQ); err != nil {
			return nil, err
		}
		type pair struct{ f, q float64 }
		pairs := make([]pair, 0, reps)
		for r := 0; r < reps; r++ {
			tf, err := timeRun(engF)
			if err != nil {
				return nil, err
			}
			tq, err := timeRun(engQ)
			if err != nil {
				return nil, err
			}
			pairs = append(pairs, pair{tf, tq})
		}
		sort.Slice(pairs, func(i, j int) bool {
			return pairs[i].f/pairs[i].q < pairs[j].f/pairs[j].q
		})
		med := pairs[len(pairs)/2]
		fig.X = append(fig.X, float64(B))
		fig.AddPoint("float32", med.f)
		fig.AddPoint("int8", med.q)
		fig.AddPoint("speedup", med.f/med.q)
	}

	// Accuracy: encoder-output error on one request, token agreement on a
	// greedy-decoding batch. Both engines saw identical inputs above, so any
	// divergence here is quantization alone.
	maxErr, refScale := encoderError(mFloat, mQuant, cfg, seed)
	agree, total, err := tokenAgreement(mFloat, mQuant, cfg, seed)
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("max abs encoder-output error %.2e (reference absmax %.2e)", maxErr, refScale),
		fmt.Sprintf("greedy-decode token agreement %d/%d (%.1f%%)", agree, total, 100*float64(agree)/float64(total)),
		"paired median-of-3 wall-clock; identical weights and batch content on both paths")
	return fig, fig.Validate()
}

// encoderError encodes one request on the float32 and quantized models and
// returns the max absolute output difference plus the float32 reference's
// absmax for scale.
func encoderError(mFloat, mQuant *model.Model, cfg model.Config, seed uint64) (maxErr, refScale float64) {
	src := rng.New(seed + 1)
	seq := make([]int, 32)
	for i := range seq {
		seq[i] = src.IntRange(vocab.FirstWordID, cfg.VocabSize-1)
	}
	mQuant.EnsureQuantized()
	ef := mFloat.EncodeSingle(seq)
	eq := mQuant.EncodeSingle(seq)
	for i := range ef.Data {
		if d := math.Abs(float64(ef.Data[i] - eq.Data[i])); d > maxErr {
			maxErr = d
		}
		if a := math.Abs(float64(ef.Data[i])); a > refScale {
			refScale = a
		}
	}
	return maxErr, refScale
}

// tokenAgreement greedily decodes the same batch through both models and
// counts position-wise token matches (length mismatches count every position
// of the longer output as a disagreement).
func tokenAgreement(mFloat, mQuant *model.Model, cfg model.Config, seed uint64) (agree, total int, err error) {
	const (
		rows   = 4
		rowLen = 60
		reqLen = 20
		maxNew = 12
	)
	engF := engine.New(mFloat, maxNew)
	engQ := engine.New(mQuant, maxNew)
	engQ.Quantize = true
	src := rng.New(seed + 2)
	n := rows * (rowLen / reqLen)
	items := make([]batch.Item, n)
	tokens := make(map[int64][]int, n)
	for i := 0; i < n; i++ {
		id := int64(i + 1)
		items[i] = batch.Item{ID: id, Len: reqLen}
		seq := make([]int, reqLen)
		for j := range seq {
			seq[j] = src.IntRange(vocab.FirstWordID, cfg.VocabSize-1)
		}
		tokens[id] = seq
	}
	b, rest := batch.PackConcat(items, rows, rowLen)
	if len(rest) != 0 {
		return 0, 0, fmt.Errorf("ext-quantized: %d items unpacked in agreement batch", len(rest))
	}
	outs := func(e *engine.Engine) (map[int64][]int, error) {
		rep, err := e.Run(b, tokens)
		if err != nil {
			return nil, err
		}
		m := make(map[int64][]int, len(rep.Results))
		for _, r := range rep.Results {
			m[r.ID] = r.Output
		}
		return m, nil
	}
	fo, err := outs(engF)
	if err != nil {
		return 0, 0, err
	}
	qo, err := outs(engQ)
	if err != nil {
		return 0, 0, err
	}
	for id, want := range fo {
		got := qo[id]
		n := len(want)
		if len(got) > n {
			n = len(got)
		}
		total += n
		for i := 0; i < n && i < len(want) && i < len(got); i++ {
			if want[i] == got[i] {
				agree++
			}
		}
	}
	if total == 0 {
		// Degenerate decode (every segment emitted EOS immediately): agreeing
		// on emptiness is still agreement.
		return 1, 1, nil
	}
	return agree, total, nil
}
