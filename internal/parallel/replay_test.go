package parallel_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dist"
	_ "repro/internal/megatron"
	"repro/internal/mesh"
	_ "repro/internal/optimus"
	"repro/internal/parallel"
	_ "repro/internal/seqpar"
	"repro/internal/tensor"
	_ "repro/internal/tesseract"
	"repro/internal/testutil"
)

// footprintModel divides over every layout below: heads and hidden by 2, 3
// and 4, the batch into whole sequences per row shard of each.
const fpHidden, fpHeads, fpSeqLen, fpBatch = 24, 12, 4, 12

// footprintStacks builds the layout's stack on every rank c runs — phantom,
// or its real twin with random weights and inputs — and returns the replay
// with the stacks it holds, by rank.
func footprintStacks(t *testing.T, c *dist.Cluster, l parallel.Layout, layers int, real bool) (*parallel.Replay, []*parallel.Stack) {
	t.Helper()
	stacks := make([]*parallel.Stack, c.WorldSize())
	rp, err := parallel.NewReplay(c, func(w *dist.Worker) (*parallel.Stack, error) {
		f, err := parallel.New(w, l)
		if err != nil {
			return nil, err
		}
		if !real {
			stacks[w.Rank()] = parallel.NewPhantomStack(f, fpBatch, fpSeqLen, fpHidden, fpHeads, layers)
			return stacks[w.Rank()], nil
		}
		s := &parallel.Stack{Model: *parallel.NewModel(f, 0, fpSeqLen, fpHidden, fpHeads, layers, 0, nil, tensor.NewRNG(7))}
		sl := f.Slice(fpBatch*fpSeqLen, fpHidden)
		s.X = tensor.RandomMatrix(sl.Rows, sl.Cols, tensor.NewRNG(100))
		s.DY = tensor.RandomMatrix(sl.Rows, sl.Cols, tensor.NewRNG(200))
		stacks[w.Rank()] = s
		return s, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rp, stacks
}

// footprintReplay builds the layout's stack on a full cluster and steps it.
func footprintReplay(t *testing.T, l parallel.Layout, layers int, real, recompute bool) (*parallel.Replay, parallel.StepClocks) {
	t.Helper()
	l, err := parallel.Validate(l)
	if err != nil {
		t.Fatal(err)
	}
	rp, _ := footprintStacks(t, dist.New(dist.Config{WorldSize: l.Ranks}), l, layers, real)
	st, err := rp.Step(recompute)
	if err != nil {
		t.Fatal(err)
	}
	return rp, st
}

// TestPhantomFootprintEqualsReal holds the numbers the planner and the
// tables charge a layout to the real thing: a phantom replay's forward and
// backward clocks are its real twin's bit for bit, and its footprint is the
// real twin's
// on every rank, to the byte, with recompute on and off and one layer or
// two — on every layout the parity walk lists (testutil.ParityLayouts) that the
// fixture splits, depth-1 meshes and optimus [3,3], a mesh no node size
// aligns with, among them. Rank 0 is never lighter than a peer, which is
// what lets a solo replay report the cluster's largest.
func TestPhantomFootprintEqualsReal(t *testing.T) {
	for _, l := range testutil.ParityLayouts(t) {
		if !parallel.Fits(l, fpBatch, fpSeqLen, fpHidden, fpHeads) {
			continue
		}
		for _, recompute := range []bool{true, false} {
			for _, layers := range []int{1, 2} {
				name := fmt.Sprintf("%s, recompute %v, %d layers", l, recompute, layers)
				ph, phStep := footprintReplay(t, l, layers, false, recompute)
				re, reStep := footprintReplay(t, l, layers, true, recompute)
				if phStep.Forward != reStep.Forward || phStep.Backward != reStep.Backward {
					t.Errorf("%s: phantom clocks (%g, %g) != real (%g, %g)",
						name, phStep.Forward, phStep.Backward, reStep.Forward, reStep.Backward)
				}
				phHeld, reHeld := ph.Held(), re.Held()
				for r := range phHeld {
					if phHeld[r] <= 0 || phHeld[r] != reHeld[r] {
						t.Errorf("%s: rank %d holds %d B as a phantom, %d B for real", name, r, phHeld[r], reHeld[r])
					}
					if phHeld[r] > phHeld[0] {
						t.Errorf("%s: rank %d holds %d B, more than rank 0's %d", name, r, phHeld[r], phHeld[0])
					}
				}
				if phStep.MemoryBytes != phHeld[0] || reStep.MemoryBytes != phStep.MemoryBytes {
					t.Errorf("%s: step reports %d B (real %d), rank 0 holds %d", name, phStep.MemoryBytes, reStep.MemoryBytes, phHeld[0])
				}
			}
		}
	}
}

// TestRecomputeBoundaryDropsFirstForward pins where a replay's one step
// boundary sits: at the step's end. A recomputed step charges its recompute
// forward by carrying the timed forward's window on, so no forward's
// activations are checked out beside another's and the step never holds more
// than one that keeps its activations; and the boundary at the end of a step
// releases all it checked out, so stepping a replay twice holds what stepping
// it once does.
func TestRecomputeBoundaryDropsFirstForward(t *testing.T) {
	for _, l := range []parallel.Layout{{Family: "megatron", Ranks: 4}, {Family: "tesseract", Q: 2, D: 2}} {
		rp, with := footprintReplay(t, l, 2, false, true)
		_, without := footprintReplay(t, l, 2, false, false)
		if with.MemoryBytes > without.MemoryBytes {
			t.Errorf("%s: %d B with recompute, %d B without — the first forward was counted twice", l, with.MemoryBytes, without.MemoryBytes)
		}
		again, err := rp.Step(true)
		if err != nil {
			t.Fatal(err)
		}
		if again != with {
			t.Errorf("%s: second step %+v, first %+v", l, again, with)
		}
	}
}

// TestRecomputeStepEqualsExplicitRecompute holds Step(true), which charges
// the recompute forward by continuing the backward's window from the forward
// it just timed, to the step a checkpointing trainer runs (RecomputeStep: a
// fresh window, the boundary that drops the forward's activations, the
// forward again, the backward and its drain), bit for bit in both clocks,
// busy seconds, footprint and overlap: on every parity layout the fixture
// splits, phantom and real, one layer and two, on a full cluster and, where
// placement treats every rank alike, on a solo one. And it holds what a
// recomputed step sends on a fresh replay to a step that keeps its
// activations: one forward's traffic and one backward's.
func TestRecomputeStepEqualsExplicitRecompute(t *testing.T) {
	m := dist.Machine{}.WithDefaults()
	for _, l := range testutil.ParityLayouts(t) {
		if !parallel.Fits(l, fpBatch, fpSeqLen, fpHidden, fpHeads) {
			continue
		}
		l, err := parallel.Validate(l)
		if err != nil {
			t.Fatal(err)
		}
		type cluster struct {
			name       string
			newCluster func(dist.Config) *dist.Cluster
		}
		clusters := []cluster{{"full", dist.New}}
		if l.Q == 0 || (mesh.Shape{Q: l.Q, D: l.D}).UniformLinks(m) {
			clusters = append(clusters, cluster{"solo", dist.NewSolo})
		}
		for _, c := range clusters {
			for _, real := range []bool{false, true} {
				if real && c.name == "solo" {
					continue // a solo cluster prices phantom schedules only
				}
				for _, layers := range []int{1, 2} {
					name := fmt.Sprintf("%s, %s cluster, real %v, %d layers", l, c.name, real, layers)
					step := func(run func(*parallel.Replay) (parallel.StepClocks, error)) (parallel.StepClocks, [2]float64, dist.Stats) {
						rp, _ := footprintStacks(t, c.newCluster(dist.Config{WorldSize: l.Ranks}), l, layers, real)
						defer rp.Cluster().Close()
						st, err := run(rp)
						if err != nil {
							t.Fatal(err)
						}
						hidden, total := rp.Cluster().Overlap()
						return st, [2]float64{hidden, total}, rp.Cluster().Stats()
					}
					got, gotOverlap, gotStats := step(func(rp *parallel.Replay) (parallel.StepClocks, error) { return rp.Step(true) })
					want, wantOverlap, _ := step((*parallel.Replay).RecomputeStep)
					if got != want || gotOverlap != wantOverlap {
						t.Errorf("%s: Step(true) %#v, overlap %v; explicit recompute %#v, overlap %v", name, got, gotOverlap, want, wantOverlap)
					}
					_, _, keepStats := step(func(rp *parallel.Replay) (parallel.StepClocks, error) { return rp.Step(false) })
					if !reflect.DeepEqual(gotStats, keepStats) {
						t.Errorf("%s: a recomputed step sent %+v, a step keeping its activations %+v", name, gotStats, keepStats)
					}
				}
			}
		}
	}
}

// TestPhantomReplayRefusesUnsplittable: an activation a layout cannot split
// is an error naming the dimension, returned before any cluster is built —
// not a worker panic inside NewPhantomStack — and Fits, the planner's read
// of the same rule, refuses it without allocating.
func TestPhantomReplayRefusesUnsplittable(t *testing.T) {
	for _, tc := range []struct {
		l                     parallel.Layout
		batch, seqLen, hidden int
		want                  string
	}{
		{parallel.Layout{Family: "optimus", Q: 2, D: 1, Ranks: 4}, 3, 3, 8, "cannot split 9 activation rows (batch 3 × sequence length 3) 2 ways"},
		{parallel.Layout{Family: "seqpar", Ranks: 4}, 2, 3, 8, "cannot split 6 activation rows (batch 2 × sequence length 3) 4 ways"},
		{parallel.Layout{Family: "tesseract", Q: 2, D: 2, Ranks: 8}, 4, 4, 9, "cannot split hidden width 9 2 ways"},
		{parallel.Layout{Family: "megatron", Ranks: 3}, 2, 2, 12, "cannot split hidden width 12 into 4 heads over 3 shards"},
	} {
		built := false
		_, err := parallel.NewPhantomReplay(func(cfg dist.Config) *dist.Cluster {
			built = true
			return dist.New(cfg)
		}, dist.Config{}, tc.l, tc.batch, tc.seqLen, tc.hidden, 4, 1)
		if err == nil || !strings.Contains(err.Error(), tc.want) || built {
			t.Errorf("%s: err %v, cluster built %v; want %q before any cluster", tc.l, err, built, tc.want)
		}
		fits := true
		if allocs := testing.AllocsPerRun(10, func() { fits = parallel.Fits(tc.l, tc.batch, tc.seqLen, tc.hidden, 4) }); fits || allocs != 0 {
			t.Errorf("%s: Fits says %v after %.0f allocations, want false after none", tc.l, fits, allocs)
		}
	}
}
