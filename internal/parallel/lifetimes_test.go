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

// TestLifetimesPinned states the buffer lifetimes as numbers. Simulated
// clocks, the benchmark's workspace rows and every planner MemoryBytes
// follow from where a layer checks a buffer out and where it returns it;
// this pins, per family, the solo replay's step with and without recompute
// (what plan.Price reads) and every rank's pool counters over one real step
// of the two-layer footprint model. A changed literal is a declared schedule
// change, never a side effect of moving code.
func TestLifetimesPinned(t *testing.T) {
	// Grid row 0 of a mesh owns the biases; ranks 2, 3, 6 and 7 of [2,2,2]
	// sit on grid row 1.
	row0, row1 := wsPin{250, 186, 89, 97344}, wsPin{250, 186, 82, 96000}
	cases := []struct {
		layout          parallel.Layout
		recompute, keep parallel.StepClocks
		ranks           []wsPin
	}{
		{
			layout:    parallel.Layout{Family: "tesseract", Q: 2, D: 2},
			recompute: parallel.StepClocks{Forward: 6.423162376923077e-05, Backward: 0.00019337939907692307, Busy: 3.051923076923079e-09, MemoryBytes: 217152},
			keep:      parallel.StepClocks{Forward: 6.423162376923077e-05, Backward: 0.00012914777530769226, Busy: 2.2638461538461535e-09, MemoryBytes: 217152},
			ranks:     []wsPin{row0, row0, row1, row1, row0, row0, row1, row1},
		},
		{
			layout:    parallel.Layout{Family: "optimus", Q: 2},
			recompute: parallel.StepClocks{Forward: 6.432731153846153e-05, Backward: 0.00019313456584615387, Busy: 6.103846153846158e-09, MemoryBytes: 261120},
			keep:      parallel.StepClocks{Forward: 6.432731153846153e-05, Backward: 0.00012880725430769232, Busy: 4.527692307692307e-09, MemoryBytes: 261120},
			ranks:     slices.Repeat([]wsPin{wsPin{286, 186, 111, 139008}}, 4),
		},
		{
			layout:    parallel.Layout{Family: "megatron", Ranks: 4},
			recompute: parallel.StepClocks{Forward: 4.8222926307692294e-05, Backward: 9.644722799999994e-05, Busy: 6.6023076923076924e-09, MemoryBytes: 343680},
			keep:      parallel.StepClocks{Forward: 4.8222926307692294e-05, Backward: 4.8224301692307696e-05, Busy: 4.8599999999999985e-09, MemoryBytes: 343680},
			ranks:     slices.Repeat([]wsPin{wsPin{166, 64, 113, 208896}}, 4),
		},
		{
			layout:    parallel.Layout{Family: "seqpar", Ranks: 4},
			recompute: parallel.StepClocks{Forward: 4.8222760153846166e-05, Backward: 0.00012055761230769225, Busy: 6.228461538461539e-09, MemoryBytes: 213504},
			keep:      parallel.StepClocks{Forward: 4.8222760153846166e-05, Backward: 7.233485215384615e-05, Busy: 4.652307692307693e-09, MemoryBytes: 213504},
			ranks:     slices.Repeat([]wsPin{wsPin{186, 172, 104, 92544}}, 4),
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
		s.Forward()
		s.Backward()
		st := w.Workspace().Stats()
		pins[w.Rank()] = wsPin{st.Gets, st.Gets - st.Live, st.HighWater, st.HighWaterBytes}
		s.Family.EndStep()
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
