package model

import (
	"bytes"
	"math"
	"reflect"
	"sync"
	"testing"

	"tcb/internal/rng"
	"tcb/internal/tensor"
	"tcb/internal/vocab"
)

// quantizedTestModel builds the shared small model and quantizes every
// projection, verifying the int8 path actually engages.
func quantizedTestModel(t *testing.T) *Model {
	t.Helper()
	m := testModel(t)
	m.EnsureQuantized()
	if !m.P.OutProj.Quantized() || !m.P.Encoder[0].SelfAttn.WQ.Quantized() {
		t.Fatal("EnsureQuantized left projections unquantized")
	}
	return m
}

// The quantized path keeps the batch-composition-invariance contract: exact
// integer accumulation with row-local activation scales means fused
// batch-wide decoding still matches per-row cached decoding token for token
// (just not the float32 path's tokens).
func TestQuantizedFusedMatchesPerRowTokens(t *testing.T) {
	m := quantizedTestModel(t)
	src := rng.New(142)
	groups := [][][]int{
		{randTokens(src, 7)},
		{randTokens(src, 5), randTokens(src, 9), randTokens(src, 3)},
		{randTokens(src, 8), randTokens(src, 6)},
	}
	rows, caps := encodeRows(m, groups, 24, 12)
	fused, err := decodeBatch(m, rows, caps)
	if err != nil {
		t.Fatal(err)
	}
	for r := range rows {
		perRow, err := m.GenerateRowCached(rows[r].EncOut, rows[r].Layout, caps[r])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fused[r], perRow) {
			t.Fatalf("quantized row %d: fused %v != per-row cached %v", r, fused[r], perRow)
		}
	}
}

// Quantization error stays bounded end to end: the quantized encoder output
// deviates from the float32 reference by a small fraction of the output's
// own scale — and the deviation is nonzero, proving the int8 kernels (and
// not the float path) produced it.
func TestQuantizedEncoderBoundedError(t *testing.T) {
	mFloat := testModel(t)
	mQuant := quantizedTestModel(t)
	src := rng.New(143)
	seq := randTokens(src, 20)

	tensor.ResetKernelCounters()
	t.Cleanup(tensor.ResetKernelCounters)
	ref := mFloat.EncodeSingle(seq)
	got := mQuant.EncodeSingle(seq)
	if c := tensor.KernelCounters(); c.Int8 == 0 {
		t.Fatal("quantized encode never dispatched an int8 GEMM")
	}

	var maxErr, refScale float64
	for i := range ref.Data {
		if d := math.Abs(float64(ref.Data[i] - got.Data[i])); d > maxErr {
			maxErr = d
		}
		if a := math.Abs(float64(ref.Data[i])); a > refScale {
			refScale = a
		}
	}
	if maxErr == 0 {
		t.Fatal("quantized and float32 encoders agree bitwise — int8 path not in effect")
	}
	if maxErr > 0.1*refScale {
		t.Fatalf("max encoder error %g exceeds 10%% of output absmax %g", maxErr, refScale)
	}
}

// EnsureQuantized is safe and idempotent under concurrency: cluster replicas
// share one Model, and every replica's first Prepare races to quantize it.
func TestEnsureQuantizedConcurrentIdempotent(t *testing.T) {
	m := testModel(t)
	src := rng.New(144)
	seq := randTokens(src, 10)
	var wg sync.WaitGroup
	outs := make([]*tensor.Matrix, 8)
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m.EnsureQuantized()
			outs[i] = m.EncodeSingle(seq)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(outs); i++ {
		if !outs[i].Equal(outs[0]) {
			t.Fatalf("concurrent quantized encode %d diverged by %g", i, outs[i].MaxAbsDiff(outs[0]))
		}
	}
	q := m.P.Encoder[0].SelfAttn.WQ
	if !q.Quantized() {
		t.Fatal("model not quantized after concurrent EnsureQuantized")
	}
}

// Checkpoints stay float32-only: the int8 copies are derived state and must
// not ride through gob, and a reloaded model is unquantized until asked.
func TestQuantizedModelCheckpointStaysFloat(t *testing.T) {
	m := quantizedTestModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.P.OutProj.Quantized() || loaded.P.Encoder[0].SelfAttn.WQ.Quantized() {
		t.Fatal("int8 state leaked through the checkpoint")
	}
	// The reloaded model computes the float32 reference outputs, not the
	// quantized ones.
	ref := testModel(t) // same seed, never quantized
	src := rng.New(145)
	seq := randTokens(src, 12)
	if got, want := loaded.EncodeSingle(seq), ref.EncodeSingle(seq); !got.Equal(want) {
		t.Fatalf("reloaded model diverges from float reference by %g", got.MaxAbsDiff(want))
	}
}

// Warm fused decode steps stay allocation-free on the quantized path: the
// activation-quantization scratch comes from the state's workspace pool.
func TestQuantizedBatchDecodeStepZeroAllocs(t *testing.T) {
	serialKernels(t)
	m := quantizedTestModel(t)
	src := rng.New(146)
	groups := [][][]int{
		{randTokens(src, 5), randTokens(src, 8)},
		{randTokens(src, 3), randTokens(src, 6), randTokens(src, 4)},
	}
	rows := make([]BatchDecodeRow, len(groups))
	for r, requests := range groups {
		row, layout := buildConcatRow(requests, 20)
		rows[r] = BatchDecodeRow{
			EncOut: m.EncodeRow(row, layout, nil, AttDense, true),
			Layout: layout,
		}
	}
	st := m.NewBatchDecodeState(rows)
	next := make([]int, st.Segments())
	for i := range next {
		next[i] = vocab.BosID
	}
	for warm := 0; warm < 3; warm++ {
		if _, err := st.Step(next); err != nil {
			t.Fatal(err)
		}
		for i := range next {
			next[i] = vocab.FirstWordID
		}
	}
	var err error
	allocs := testing.AllocsPerRun(50, func() {
		_, err = st.Step(next)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("warm quantized fused Step allocated %g times per run", allocs)
	}
}
