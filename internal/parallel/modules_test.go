package parallel_test

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// qkvLayouts are the layouts the fused-QKV tests walk: every family, shard
// counts 1 to 4, meshes with one to three grid rows and depths.
func qkvLayouts() []parallel.Layout {
	var out []parallel.Layout
	for q := 1; q <= 3; q++ {
		out = append(out, parallel.Layout{Family: "optimus", Q: q})
		for d := 1; d <= q; d++ {
			out = append(out, parallel.Layout{Family: "tesseract", Q: q, D: d})
		}
	}
	for p := 1; p <= 4; p++ {
		out = append(out, parallel.Layout{Family: "megatron", Ranks: p}, parallel.Layout{Family: "seqpar", Ranks: p})
	}
	return out
}

// shardsOf is the layout's column-shard count: q on a mesh, p in 1-D.
func shardsOf(l parallel.Layout) int {
	if l.Q > 0 {
		return l.Q
	}
	return l.Ranks
}

// attentionStates builds the shared attention module on every rank of the
// layout from one seed and returns each rank's fused-QKV weight and bias
// slots.
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
		states[w.Rank()] = a.State()[:2]
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
// shard exactly once, and what the primaries stage is, bit for bit, the
// serial [Wq | Wk | Wv] drawn from the same seed — un-fusing undoes the
// per-shard fusion whatever the shard count.
func TestAttentionStateTilesCanonical(t *testing.T) {
	for _, l := range qkvLayouts() {
		for _, perShard := range []int{1, 2} {
			for _, headDim := range []int{1, 3} {
				heads := shardsOf(l) * perShard
				h := heads * headDim
				rng := tensor.NewRNG(41)
				serial := tensor.HCat(tensor.XavierMatrix(h, h, rng), tensor.XavierMatrix(h, h, rng), tensor.XavierMatrix(h, h, rng))
				states := attentionStates(t, l, h, heads, 41)
				for slot, canon := range []*tensor.Matrix{serial, tensor.New(1, 3*h)} {
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
		if !reads.Equal(ones(local.Rows, local.Cols)) {
			t.Fatalf("%s: rank %d: its rectangles do not cover its shard exactly once", name, r)
		}
	}
	if !writes.Equal(ones(canon.Rows, canon.Cols)) {
		t.Fatalf("%s: the primaries' rectangles do not cover the canonical tensor exactly once", name)
	}
	if !got.Equal(canon) {
		t.Errorf("%s: un-fused shards differ from the serial [Wq | Wk | Wv]", name)
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
