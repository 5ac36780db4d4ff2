package parallel_test

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/testutil"
	"repro/internal/vit"
)

// shardFixture is a one-layer ViT small enough to collect and restore a few
// hundred times: every family's layouts up to 8 ranks can train it.
func shardFixture() (*vit.Dataset, vit.ModelConfig, vit.TrainConfig) {
	dcfg := vit.DataConfig{Classes: 4, ImageSize: 8, Channels: 3, PatchSize: 4, Train: 8, Test: 4, Seed: 11}
	mcfg := vit.ModelConfig{
		PatchDim: dcfg.PatchDim(), SeqLen: dcfg.Patches(),
		Hidden: 16, Heads: 4, Layers: 1, Classes: dcfg.Classes, Seed: 3,
	}
	return vit.NewDataset(dcfg), mcfg, vit.TrainConfig{Epochs: 1, BatchSize: 8, LR: 0.003, WeightDecay: 0.05, Seed: 5}
}

// shardCase is one family's layout and where its checkpoints go after a
// rank is lost: a layout that fits the survivors.
type shardCase struct {
	from, to parallel.Layout
}

var shardCases = []shardCase{
	{parallel.Layout{Family: "megatron", Ranks: 4}, parallel.Layout{Family: "megatron", Ranks: 2}},
	{parallel.Layout{Family: "seqpar", Ranks: 4}, parallel.Layout{Family: "megatron", Ranks: 2}},
	{parallel.Layout{Family: "optimus", Q: 2}, parallel.Layout{Family: "seqpar", Ranks: 2}},
	{parallel.Layout{Family: "tesseract", Q: 2, D: 2}, parallel.Layout{Family: "tesseract", Q: 2, D: 1}},
}

// trained returns a session at l, two steps in, and its collected per-rank
// checkpoints.
func trained(t *testing.T, l parallel.Layout) (*vit.Session, []*parallel.Checkpoint) {
	t.Helper()
	ds, mcfg, tc := shardFixture()
	s, err := vit.NewSession(nil, l, ds, mcfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Train(2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Collect(); err != nil {
		t.Fatal(err)
	}
	return s, append([]*parallel.Checkpoint(nil), s.Checkpoint()...)
}

// restoreOnto builds layout l on a fresh cluster of world ranks, re-shards
// cks onto it and returns the session.
func restoreOnto(t *testing.T, cks []*parallel.Checkpoint, world int, l parallel.Layout) (*vit.Session, error) {
	t.Helper()
	ds, mcfg, tc := shardFixture()
	s, err := vit.NewSession(dist.New(dist.Config{WorldSize: world}), l, ds, mcfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Reshard(cks)
	return s, err
}

// canonicalOf collects s and assembles its checkpoints' canonical tensors.
func canonicalOf(t *testing.T, s *vit.Session) [][3]*tensor.Matrix {
	t.Helper()
	if _, err := s.Collect(); err != nil {
		t.Fatal(err)
	}
	return testutil.Canonical(t, s.Checkpoint())
}

// requireSameBits fails unless two assemblies agree in every float's bits.
func requireSameBits(t *testing.T, what string, got, want [][3]*tensor.Matrix) {
	t.Helper()
	for i := range want {
		for k := range want[i] {
			for j, x := range want[i][k].Data {
				if y := got[i][k].Data[j]; math.Float64bits(x) != math.Float64bits(y) {
					t.Fatalf("%s: slot %d tensor %d element %d: %x, want %x", what, i, k, j, math.Float64bits(y), math.Float64bits(x))
				}
			}
		}
	}
}

// without returns cks with the checkpoints of the given old ranks left out,
// in rank order — what the survivors of their loss hold.
func without(cks []*parallel.Checkpoint, lost ...int) []*parallel.Checkpoint {
	var out []*parallel.Checkpoint
	for _, ck := range cks {
		gone := false
		for _, r := range lost {
			gone = gone || ck.Rank == r
		}
		if !gone {
			out = append(out, ck)
		}
	}
	return out
}

// TestCheckpointSurvivesAnyOneLoss: for every family, losing any one old
// rank between collect and restore — its buddy supplying its pieces —
// restores the survivor layout bit for bit as the restore with no loss does,
// and losing a rank together with its buddy is an error naming the slot.
func TestCheckpointSurvivesAnyOneLoss(t *testing.T) {
	for _, sc := range shardCases {
		t.Run(sc.from.String(), func(t *testing.T) {
			_, cks := trained(t, sc.from)
			p := len(cks)
			ref, err := restoreOnto(t, cks, p, sc.to)
			if err != nil {
				t.Fatal(err)
			}
			want := canonicalOf(t, ref)
			for lost := range p {
				s, err := restoreOnto(t, without(cks, lost), p-1, sc.to)
				if err != nil {
					t.Fatalf("rank %d lost: %v", lost, err)
				}
				requireSameBits(t, fmt.Sprintf("rank %d lost", lost), canonicalOf(t, s), want)
			}
			lost := 1
			keeper := -1
			for _, ck := range cks {
				if ck.Keeps == lost {
					keeper = ck.Rank
				}
			}
			_, err = restoreOnto(t, without(cks, lost, keeper), p-2, sc.to)
			if err == nil || !strings.Contains(err.Error(), "slot ") || !strings.Contains(err.Error(), "both gone") {
				t.Fatalf("rank %d lost with its buddy %d: want an error naming the slot, got %v", lost, keeper, err)
			}
		})
	}
}

// TestCheckpointMemoryBound pins what a collected checkpoint holds: 3 × 8
// bytes per element of the rank's own rectangles plus its buddy's primary
// pieces, and nothing more — with the buddy on another node when the family
// fills two (the default four GPUs per node).
func TestCheckpointMemoryBound(t *testing.T) {
	for _, l := range []parallel.Layout{{Family: "megatron", Ranks: 4}, {Family: "tesseract", Q: 2, D: 2}} {
		s, cks := trained(t, l)
		elems := func(r int, primaryOnly bool) int {
			n := 0
			for _, st := range s.Model(r).State() {
				if st.Param == nil || primaryOnly && !st.Primary {
					continue
				}
				for _, b := range st.Blocks {
					n += b.Rows * b.Cols
				}
			}
			return n
		}
		model := 0
		for _, e := range cks[0].Slots {
			model += e.Rows * e.Cols
		}
		for r, ck := range cks {
			held := 0
			for _, e := range ck.Slots {
				held += 8 * (e.Value.Size() + e.M.Size() + e.V.Size())
			}
			bound := 3 * 8 * (elems(r, false) + elems(ck.Keeps, true))
			if held > bound {
				t.Errorf("%s rank %d: checkpoint holds %d B, bound %d B", l, r, held, bound)
			}
			if held >= 3*8*model {
				t.Errorf("%s rank %d: checkpoint holds %d B, a replica %d B", l, r, held, 3*8*model)
			}
			if gpn := 4; len(cks) >= 2*gpn && ck.Keeps/gpn == r/gpn {
				t.Errorf("%s rank %d keeps rank %d's pieces on its own node", l, r, ck.Keeps)
			}
		}
	}
}

// TestFlipMovesNothing: megatron [4] and seqpar [4] place every rectangle
// alike, so a restore from one onto the other moves no slot: the only round
// is the agreement all-reduce, and the weights and moments arrive whole.
func TestFlipMovesNothing(t *testing.T) {
	from, cks := trained(t, parallel.Layout{Family: "megatron", Ranks: 4})
	ds, mcfg, tc := shardFixture()
	to, err := vit.NewSession(from.Cluster(), parallel.Layout{Family: "seqpar", Ranks: 4}, ds, mcfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	before := from.Cluster().Stats()
	if _, err := to.Reshard(cks); err != nil {
		t.Fatal(err)
	}
	after := from.Cluster().Stats()
	for op, st := range after.PerOp {
		d := st.Calls - before.PerOp[op].Calls
		if op == "allreduce" && d != 1 || op != "allreduce" && d != 0 {
			t.Errorf("%s: %d calls during the restore", op, d)
		}
	}
	slots := len(cks[0].Slots)
	if got, want := after.Bytes-before.Bytes, int64(2*(4-1)*8*(3*4+slots)); got != want {
		t.Errorf("the restore moved %d B, the agreement round alone is %d B", got, want)
	}
	requireSameBits(t, "megatron [4] → seqpar [4]", canonicalOf(t, to), testutil.Canonical(t, cks))
}

// TestCheckpointAbortAnywhere kills every rank at every round of a collect
// and of a restore that assembles after a loss, for every family: the Run
// fails naming that rank, the cluster stays poisoned, and no goroutine is
// left behind.
func TestCheckpointAbortAnywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("hundreds of cluster runs")
	}
	cause := errors.New("injected")
	for _, sc := range shardCases {
		t.Run(sc.from.String(), func(t *testing.T) {
			_, cks := trained(t, sc.from)
			p := len(cks)
			phases := []struct {
				name string
				run  func() (*dist.Cluster, error)
			}{
				{"collect", func() (*dist.Cluster, error) {
					s, err := restoreOnto(t, cks, p, sc.from)
					if err == nil {
						_, err = s.Collect()
					}
					return s.Cluster(), err
				}},
				{"restore", func() (*dist.Cluster, error) {
					// Rank 0 lost: every survivor moves up a place, so
					// slots assemble, rank 0's pieces from its buddy.
					s, err := restoreOnto(t, without(cks, 0), p-1, sc.to)
					return s.Cluster(), err
				}},
			}
			for _, ph := range phases {
				// A clean pass counts every rank's rounds; restoreOnto's own
				// restore runs first in the collect phase, so the counts
				// cover both.
				rounds := make([]int, p)
				parallel.SetBeforeRound(func(w *dist.Worker) { rounds[w.Rank()]++ })
				c, err := ph.run()
				parallel.SetBeforeRound(nil)
				if err != nil {
					t.Fatalf("%s: clean pass: %v", ph.name, err)
				}
				c.Close()
				for victim := range p {
					for at := range rounds[victim] {
						base := runtime.NumGoroutine()
						seen := make([]int, p)
						parallel.SetBeforeRound(func(w *dist.Worker) {
							if r := w.Rank(); r == victim && seen[r] == at {
								panic(cause)
							} else {
								seen[r]++
							}
						})
						c, err := ph.run()
						parallel.SetBeforeRound(nil)
						var f *dist.Failure
						if !errors.As(err, &f) || f.Rank != victim || c.Failure() == nil {
							t.Fatalf("%s: rank %d stopped at round %d: Run returned %v", ph.name, victim, at, err)
						}
						if c.Run(func(*dist.Worker) error { return nil }) == nil {
							t.Fatalf("%s: rank %d stopped at round %d: the cluster runs again", ph.name, victim, at)
						}
						deadline := time.Now().Add(5 * time.Second)
						for runtime.NumGoroutine() > base {
							if time.Now().After(deadline) {
								t.Fatalf("%s: rank %d stopped at round %d: %d goroutines before, %d after",
									ph.name, victim, at, base, runtime.NumGoroutine())
							}
							runtime.Gosched()
						}
					}
				}
			}
		})
	}
}
