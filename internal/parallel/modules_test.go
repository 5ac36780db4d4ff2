package parallel_test

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// attentionStates builds the shared attention module on every rank of the
// layout from one seed and returns each rank's slots: the fused-QKV weight
// and bias, then the output projection's.
func attentionStates(t *testing.T, l parallel.Layout, h, heads int, seed uint64) [][]parallel.State {
	t.Helper()
	l, err := parallel.Validate(l)
	if err != nil {
		t.Fatal(err)
	}
	states := make([][]parallel.State, l.Ranks)
	err = dist.New(dist.Config{WorldSize: l.Ranks}).Run(func(w *dist.Worker) error {
		f, err := parallel.New(w, l)
		if err != nil {
			return err
		}
		a := parallel.NewAttention(f.(parallel.Linears), h, heads, 2, tensor.NewRNG(seed))
		states[w.Rank()] = a.State()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return states
}

// TestAttentionStateTilesCanonical is the generic QKV un-fuse over generated
// (layout, heads per shard, head width) draws: for every family's fused
// weight and bias slot the primaries' rectangles cover the canonical
// [h, 3h] (and [1, 3h]) exactly once, each holder's rectangles cover its own
// shard's band (nn.Param.Band: the whole shard unless depth members split its
// optimiser state) exactly once, and what the primaries stage is, bit for bit, the
// serial [Wq | Wk | Wv] drawn from the same seed — un-fusing undoes the
// per-shard fusion whatever the shard count. The output projection's slots
// hold the same way to the serial Wo and its [1, h] bias, so both linears
// of every family (tesseract's on meshes up to [3,3,3], megatron's column
// and row linears, seqpar's) are held to the rectangles they were cut at.
func TestAttentionStateTilesCanonical(t *testing.T) {
	for _, l := range testutil.ParityLayouts(t) {
		for _, perShard := range []uint8{0, 1} { // one or two heads per column shard
			for _, headDim := range []uint8{0, 2} { // of width 1 or 3
				d := testutil.DrawDims(l, perShard, headDim, 0, 0, 0, 0)
				h, heads := d.H, d.Heads
				rng := tensor.NewRNG(41)
				serial := tensor.HCat(tensor.XavierMatrix(h, h, rng), tensor.XavierMatrix(h, h, rng), tensor.XavierMatrix(h, h, rng))
				wo := tensor.XavierMatrix(h, h, rng)
				states := attentionStates(t, l, h, heads, 41)
				for slot, canon := range []*tensor.Matrix{serial, tensor.New(1, 3*h), wo, tensor.New(1, h)} {
					name := fmt.Sprintf("%s family, %s, h %d, %d heads, slot %d", l.Family, l.Shape(), h, heads, slot)
					checkSlotTiles(t, name, canon, states, slot)
				}
			}
		}
	}
}

// checkSlotTiles stages one slot the way a collect does and counts how often
// every shard element is read and every canonical element written.
func checkSlotTiles(t *testing.T, name string, canon *tensor.Matrix, states [][]parallel.State, slot int) {
	t.Helper()
	got := tensor.New(canon.Rows, canon.Cols)
	writes := tensor.New(canon.Rows, canon.Cols)
	for r, st := range states {
		s := st[slot]
		if s.Rows != canon.Rows || s.Cols != canon.Cols {
			t.Fatalf("%s: rank %d reports %dx%d, canonical %dx%d", name, r, s.Rows, s.Cols, canon.Rows, canon.Cols)
		}
		if s.Param == nil {
			if len(s.Blocks) != 0 {
				t.Errorf("%s: rank %d has rectangles and no shard", name, r)
			}
			continue
		}
		local := s.Param.Value
		reads := tensor.New(local.Rows, local.Cols)
		for _, b := range s.Blocks {
			for i := 0; i < b.Rows; i++ {
				for j := 0; j < b.Cols; j++ {
					reads.Row(b.LocalRow + i)[b.LocalCol+j]++
					if s.Primary {
						writes.Row(b.GlobalRow + i)[b.GlobalCol+j]++
						got.Row(b.GlobalRow + i)[b.GlobalCol+j] = local.Row(b.LocalRow + i)[b.LocalCol+j]
					}
				}
			}
		}
		band := tensor.New(local.Rows, local.Cols) // the rows the rank's optimiser steps
		lo, hi := s.Param.Band()
		for i := lo; i < hi; i++ {
			for j := range band.Row(i) {
				band.Row(i)[j] = 1
			}
		}
		if !reads.Equal(band) {
			t.Fatalf("%s: rank %d: its rectangles do not cover its shard's band exactly once", name, r)
		}
	}
	if !writes.Equal(ones(canon.Rows, canon.Cols)) {
		t.Fatalf("%s: the primaries' rectangles do not cover the canonical tensor exactly once", name)
	}
	if !got.Equal(canon) {
		t.Errorf("%s: the staged shards differ from the serial tensor", name)
	}
}

func ones(rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	m.Fill(1)
	return m
}

// soloFamily attaches rank 0 of a solo cluster to the layout.
func soloFamily(t *testing.T, l parallel.Layout) parallel.Family {
	t.Helper()
	l, err := parallel.Validate(l)
	if err != nil {
		t.Fatal(err)
	}
	var f parallel.Family
	err = dist.NewSolo(dist.Config{WorldSize: l.Ranks}).Run(func(w *dist.Worker) (err error) {
		f, err = parallel.New(w, l)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestAttentionRejectsIndivisibleHeads: the one divisibility check the
// shared constructor makes — heads over the hidden width, shards over the
// heads — panics on every family, shape-only blocks included.
func TestAttentionRejectsIndivisibleHeads(t *testing.T) {
	for _, l := range []parallel.Layout{
		{Family: "tesseract", Q: 2, D: 2}, {Family: "optimus", Q: 2},
		{Family: "megatron", Ranks: 2}, {Family: "seqpar", Ranks: 2},
	} {
		f := soloFamily(t, l)
		for _, c := range []struct{ h, heads int }{{8, 3}, {9, 3}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: hidden %d with %d heads was accepted", l, c.h, c.heads)
					}
				}()
				f.NewBlockPhantom(c.h, c.heads, 2)
			}()
		}
	}
}

// TestAttentionBackwardReturnsItsCore: on every registered family the
// attention core holds Q, K, V and its probabilities from Forward to
// Backward and none of them once Attention.Backward returns — a buffer is
// dead at its last reader, whichever family's linears surround it.
func TestAttentionBackwardReturnsItsCore(t *testing.T) {
	const h, heads, seqLen, rows = 8, 4, 2, 16
	dataRng := tensor.NewRNG(5)
	x, dy := tensor.RandomMatrix(rows, h, dataRng), tensor.RandomMatrix(rows, h, dataRng)
	for _, l := range []parallel.Layout{
		{Family: "tesseract", Q: 2, D: 2}, {Family: "optimus", Q: 2},
		{Family: "megatron", Ranks: 4}, {Family: "seqpar", Ranks: 4},
	} {
		l, err := parallel.Validate(l)
		if err != nil {
			t.Fatal(err)
		}
		testutil.Run(t, l.Ranks, func(w *dist.Worker) error {
			f, err := parallel.New(w, l)
			if err != nil {
				return err
			}
			a := parallel.NewAttention(f.(parallel.Linears), h, heads, seqLen, tensor.NewRNG(9))
			a.Forward(f.Distribute(x))
			if n := len(a.Retained()); n == 0 {
				t.Errorf("%s rank %d: the core holds nothing for its backward pass", l, w.Rank())
			}
			a.Backward(f.Distribute(dy))
			if n := len(a.Retained()); n != 0 {
				t.Errorf("%s rank %d: the core still holds %d Q, K, V or probability buffers after Backward", l, w.Rank(), n)
			}
			return nil
		})
	}
}

// TestMLPMatchesSerial runs the shared MLP over every family's linears, on
// the layouts the parity harness walks, at a width every q and p splits and
// rows every d·q and p does.
func TestMLPMatchesSerial(t *testing.T) {
	for _, l := range testutil.ParityLayouts(t) {
		testutil.Parity{Modules: testutil.MLP, Dims: testutil.Dims{H: 12, Rows: 36}, Seed: 3}.Check(t, l)
	}
}
