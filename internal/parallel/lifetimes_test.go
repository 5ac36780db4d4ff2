package parallel_test

import (
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/parallel"
)

// wsPin is one rank's pool counters after one real forward, backward and
// gradient drain, read before the step boundary releases what is left:
// checkouts, the returns the layers made themselves (checkouts − still
// live), and the high-water in buffers and in bytes.
type wsPin struct {
	Gets, Puts, HighWater int
	HighWaterBytes        int64
}

// TestLifetimesPinned states the buffer lifetimes as numbers. Every planner
// MemoryBytes and the benchmark's workspace rows follow from where a layer
// checks a buffer out and where it returns it; the simulated clocks do not,
// and are pinned beside them only so that a lifetime change shows it moved
// footprints and pool counts alone. This pins, per family, the solo replay's
// step with and without recompute (what plan.Price reads) and every rank's
// pool counters over one real step of the two-layer footprint model. A
// changed MemoryBytes or pool literal is a declared lifetime change, never a
// side effect of moving code.
func TestLifetimesPinned(t *testing.T) {
	// Grid row 0 of a mesh owns the biases, which it column-reduces in place
	// in their gradients; ranks 2, 3, 6 and 7 of [2,2,2] sit on grid row 1
	// and check out a column-sum scratch per bias instead. Every weight
	// gradient is computed in its Grad and a q = 2 SUMMA checks out one panel
	// and one partial per operand, not two (from 242 gets, 89 and 82 buffers,
	// 97344 and 96000 B). The attention core's Q, K, V and probabilities,
	// the fused QKV output and the MLP's inner gradient go back at their
	// last reader on every family (from 106 and 122 returns, 75 buffers and
	// 67200 B). Each block's input gradient goes back once the block below
	// has read it — the replay runs parallel.Model's backward, which returns
	// them as the trainer always did — one return per layer on every family
	// (from 150 and 166 returns).
	row0, row1 := wsPin{170, 152, 72, 59136}, wsPin{186, 168, 72, 59136}
	cases := []struct {
		layout          parallel.Layout
		recompute, keep parallel.StepClocks
		ranks           []wsPin
	}{
		{
			layout: parallel.Layout{Family: "tesseract", Q: 2, D: 2},
			// The fused QKV output goes back once it is split, and the
			// core's Q, K, V and probabilities once its backward has read
			// them (from 187008 B).
			recompute: parallel.StepClocks{Forward: 6.423162376923077e-05, Backward: 0.00019337939907692307, Busy: 3.051923076923079e-09, MemoryBytes: 178944},
			keep:      parallel.StepClocks{Forward: 6.423162376923077e-05, Backward: 0.00012914777530769226, Busy: 2.2638461538461535e-09, MemoryBytes: 178944},
			ranks:     []wsPin{row0, row0, row1, row1, row0, row0, row1, row1},
		},
		{
			layout: parallel.Layout{Family: "optimus", Q: 2},
			// As tesseract's (from 251904 B, and 106 and 122 returns, 111
			// buffers and 129792 B): ranks 0 and 1 are grid row 0.
			recompute: parallel.StepClocks{Forward: 6.432731153846153e-05, Backward: 0.00019313456584615387, Busy: 6.103846153846158e-09, MemoryBytes: 235776},
			keep:      parallel.StepClocks{Forward: 6.432731153846153e-05, Backward: 0.00012880725430769232, Busy: 4.527692307692307e-09, MemoryBytes: 235776},
			ranks:     []wsPin{{206, 188, 108, 113664}, {206, 188, 108, 113664}, {222, 204, 108, 113664}, {222, 204, 108, 113664}},
		},
		{
			layout: parallel.Layout{Family: "megatron", Ranks: 4},
			// As tesseract's, and the MLP's inner gradient goes back once
			// fc1 has read it, none of them riding to the step boundary
			// (from 343680 B).
			recompute: parallel.StepClocks{Forward: 4.8222926307692294e-05, Backward: 9.644722799999994e-05, Busy: 6.6023076923076924e-09, MemoryBytes: 311424},
			keep:      parallel.StepClocks{Forward: 4.8222926307692294e-05, Backward: 4.8224301692307696e-05, Busy: 4.8599999999999985e-09, MemoryBytes: 311424},
			// The 16 weight and bias gradients of two blocks are computed in
			// their Grads, not in workspace scratch (from 174 gets), and the
			// intermediates above go back at their last reader (from 56
			// returns, 113 buffers and 208896 B).
			ranks: slices.Repeat([]wsPin{wsPin{158, 140, 108, 176640}}, 4),
		},
		{
			layout: parallel.Layout{Family: "seqpar", Ranks: 4},
			// As megatron's, and the gradients the backward peak held go
			// (from 213504 B, and 194 gets and 92544 B).
			recompute: parallel.StepClocks{Forward: 4.8222760153846166e-05, Backward: 0.00012055761230769225, Busy: 6.228461538461539e-09, MemoryBytes: 208896},
			keep:      parallel.StepClocks{Forward: 4.8222760153846166e-05, Backward: 7.233485215384615e-05, Busy: 4.652307692307693e-09, MemoryBytes: 208896},
			ranks:     slices.Repeat([]wsPin{wsPin{178, 166, 104, 87936}}, 4),
		},
	}
	for _, c := range cases {
		l, err := parallel.Validate(c.layout)
		if err != nil {
			t.Fatal(err)
		}
		for _, recompute := range []bool{true, false} {
			want := c.keep
			if recompute {
				want = c.recompute
			}
			rp, _ := footprintStacks(t, dist.NewSolo(dist.Config{WorldSize: l.Ranks}), l, 2, false)
			got, err := rp.Step(recompute)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s, recompute %v: solo step %#v, pinned %#v", l, recompute, got, want)
			}
		}
		if got := realStepPins(t, l); !slices.Equal(got, c.ranks) {
			t.Errorf("%s: one real step's pool counters by rank\n got %+v\nwant %+v", l, got, c.ranks)
		}
	}
}

// realStepPins runs one real step of the two-layer footprint model on a full
// cluster and reads every rank's pool counters before the step boundary.
func realStepPins(t *testing.T, l parallel.Layout) []wsPin {
	t.Helper()
	rp, stacks := footprintStacks(t, dist.New(dist.Config{WorldSize: l.Ranks}), l, 2, true)
	pins := make([]wsPin, l.Ranks)
	err := rp.Cluster().Run(func(w *dist.Worker) error {
		s := stacks[w.Rank()]
		s.Forward(s.X)
		s.Backward(s.DY)
		st := w.Workspace().Stats()
		pins[w.Rank()] = wsPin{st.Gets, st.Gets - st.Live, st.HighWater, st.HighWaterBytes}
		s.F.EndStep()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pins
}

// TestPhantomBlockAllocationCeiling keeps a shape-only block no dearer to
// build than when every layer had a phantom constructor of its own (37
// allocations on a mesh rank 0, 39 on a 1-D rank; 33 on both since the
// shared modules): a table row builds one per layer per rank, so an
// allocation here is paid thousands of times by tables.RunRow and
// plan.Search.
func TestPhantomBlockAllocationCeiling(t *testing.T) {
	for _, c := range []struct {
		layout  parallel.Layout
		ceiling float64
	}{
		{parallel.Layout{Family: "tesseract", Q: 2, D: 2}, 37},
		{parallel.Layout{Family: "megatron", Ranks: 4}, 39},
		{parallel.Layout{Family: "seqpar", Ranks: 4}, 39},
	} {
		f := soloFamily(t, c.layout)
		got := testing.AllocsPerRun(100, func() { f.NewBlockPhantom(fpHidden, fpHeads, fpSeqLen) })
		if got > c.ceiling {
			t.Errorf("%s: a phantom block on rank 0 costs %.0f allocations, ceiling %.0f", c.layout, got, c.ceiling)
		}
	}
}
