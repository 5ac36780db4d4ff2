package parallel

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/compute"
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestLayoutNormalize(t *testing.T) {
	l, err := Layout{Family: "x", Q: 2, D: 2}.normalize()
	if err != nil || l.Ranks != 8 || l.D != 2 {
		t.Fatalf("mesh normalize: %+v, %v", l, err)
	}
	l, err = Layout{Family: "x", Q: 3}.normalize()
	if err != nil || l.Ranks != 9 || l.D != 1 {
		t.Fatalf("depthless mesh normalize: %+v, %v", l, err)
	}
	if _, err := (Layout{Family: "x", Q: 2, D: 1, Ranks: 5}).normalize(); err == nil {
		t.Fatal("inconsistent Ranks must be rejected")
	}
	if _, err := (Layout{Family: "x"}).normalize(); err == nil {
		t.Fatal("1-D layout without ranks must be rejected")
	}
	if _, err := (Layout{Family: "x", D: 2}).normalize(); err == nil {
		t.Fatal("depth without q must be rejected")
	}
	if _, err := (Layout{Q: 2}).normalize(); err == nil {
		t.Fatal("missing family must be rejected")
	}
	if _, err := (Layout{Family: "x", Q: -1}).normalize(); err == nil {
		t.Fatal("negative field must be rejected")
	}
}

func TestLayoutShapeAndRowShards(t *testing.T) {
	for _, tc := range []struct {
		l      Layout
		shape  string
		shards int
	}{
		{Layout{Family: "megatron", Ranks: 4}, "[4]", 1},
		{Layout{Family: "optimus", Q: 2, D: 1, Ranks: 4}, "[2,2]", 2},
		{Layout{Family: "tesseract", Q: 4, D: 2, Ranks: 32}, "[4,4,2]", 8},
	} {
		if got := tc.l.Shape(); got != tc.shape {
			t.Errorf("%v Shape = %q, want %q", tc.l, got, tc.shape)
		}
		if got := tc.l.RowShards(); got != tc.shards {
			t.Errorf("%v RowShards = %d, want %d", tc.l, got, tc.shards)
		}
	}
	if s := (Layout{Family: "tesseract", Q: 4, D: 2}).String(); s != "tesseract [4,4,2]" {
		t.Errorf("String = %q", s)
	}
}

func TestNewUnknownFamily(t *testing.T) {
	c := dist.New(dist.Config{WorldSize: 1})
	if err := c.Run(func(w *dist.Worker) error {
		_, err := New(w, Layout{Family: "no-such-family", Ranks: 1})
		if err == nil || !strings.Contains(err.Error(), "no-such-family") {
			t.Errorf("unknown family error = %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// unregisterAfter removes a family a test registered when the test ends: the
// registry lives as long as the process, and a second pass (-count=2) must
// find the name free again.
func unregisterAfter(t *testing.T, name string) {
	t.Cleanup(func() {
		registryMu.Lock()
		defer registryMu.Unlock()
		delete(registry, name)
	})
}

// nopFamily is a constructor for specs no test builds.
func nopFamily(*dist.Worker, Layout) (Family, error) { return nil, nil }

func TestRegisterDuplicatePanics(t *testing.T) {
	Register(Spec{Name: "parallel-test-dup", New: nopFamily})
	unregisterAfter(t, "parallel-test-dup")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register must panic")
		}
	}()
	Register(Spec{Name: "parallel-test-dup", New: nopFamily})
}

// TestReplicatedLinearMatchesSerial chains a GELU and a plain replicated
// linear and checks both directions bitwise against nn.Linear.
func TestReplicatedLinearMatchesSerial(t *testing.T) {
	c := dist.New(dist.Config{WorldSize: 1})
	if err := c.Run(func(w *dist.Worker) error {
		rng, grads := tensor.NewRNG(3), NewGrads(w)
		a := NewReplicatedDense(w, nil, &grads, 4, 6, nn.ActGELU, true, rng)
		b := NewReplicatedDense(w, nil, &grads, 6, 4, nn.ActNone, true, rng)

		refA := nn.NewLinear(4, 6, nn.ActGELU, true, tensor.NewRNG(3))
		rng2 := tensor.NewRNG(3)
		tensor.XavierMatrix(4, 6, rng2) // consume a's weight draw
		refB := nn.NewLinear(6, 4, nn.ActNone, true, rng2)

		x := tensor.RandomMatrix(5, 4, tensor.NewRNG(9))
		dy := tensor.RandomMatrix(5, 4, tensor.NewRNG(10))
		want := refB.Forward(refA.Forward(x))
		if got := b.Forward(a.Forward(x)); !got.Equal(want) {
			t.Errorf("forward diverged: %g", got.MaxAbsDiff(want))
		}
		wantDx := refA.Backward(refB.Backward(dy))
		if got := a.Backward(b.Backward(dy)); !got.Equal(wantDx) {
			t.Errorf("backward diverged: %g", got.MaxAbsDiff(wantDx))
		}
		if got, want := len(a.Params())+len(b.Params()), len(refA.Params())+len(refB.Params()); got != want {
			t.Errorf("params = %d, want %d", got, want)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestReplicatedLayersChargeTheClock(t *testing.T) {
	c := dist.New(dist.Config{WorldSize: 1})
	if err := c.Run(func(w *dist.Worker) error {
		x := tensor.RandomMatrix(4, 8, tensor.NewRNG(1))
		grads := NewGrads(w)
		lin := NewReplicatedDense(w, nil, &grads, 8, 2, nn.ActNone, true, tensor.NewRNG(2))
		lin.Forward(x)
		lin.Backward(tensor.RandomMatrix(4, 2, tensor.NewRNG(3)))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if c.MaxClock() <= 0 {
		t.Fatal("replicated layers must charge the simulated clock")
	}
}

// TestReplicatedLinearChargesThroughCompute: a GELU+bias replicated Dense's
// forward and backward advance the busy clock exactly as the five compute
// calls it makes do on a second worker — the bias add, the GELU, its
// gradient and the bias column sums included, not only the GEMMs. Built
// from a nil rng and fed phantoms, a head and a row-summed GELU linear hold
// phantom parameters and charge every rank's clock and the traffic of their
// drawn twins exactly.
func TestReplicatedLinearChargesThroughCompute(t *testing.T) {
	const rows, in, out = 5, 4, 6
	run := func(fn func(w *dist.Worker)) float64 {
		c := dist.New(dist.Config{WorldSize: 1})
		defer c.Close()
		var busy float64
		if err := c.Run(func(w *dist.Worker) error {
			fn(w)
			busy = w.Busy()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return busy
	}
	x := tensor.RandomMatrix(rows, in, tensor.NewRNG(9))
	dy := tensor.RandomMatrix(rows, out, tensor.NewRNG(10))
	got := run(func(w *dist.Worker) {
		grads := NewGrads(w)
		l := NewReplicatedDense(w, nil, &grads, in, out, nn.ActGELU, true, tensor.NewRNG(3))
		l.Backward(l.Forward(x))
	})
	want := run(func(w *dist.Worker) {
		wt, bias := tensor.New(in, out), tensor.New(1, out)
		pre, act := tensor.New(rows, out), tensor.New(rows, out)
		compute.MatMulBiasGELUInto(w, act, pre, x, wt, bias)
		compute.GELUGradHadamardTo(w, act, pre, dy)
		compute.MatMulTNInto(w, tensor.New(in, out), x, act)
		compute.ColSumsInto(w, tensor.New(1, out), act)
		compute.MatMulNTInto(w, tensor.New(rows, in), act, wt)
	})
	if got != want || got <= 0 {
		t.Fatalf("replicated Dense forward+backward busy %g s, the compute calls %g s", got, want)
	}

	replay := func(drawn bool) ([]float64, dist.Stats) {
		c := dist.New(dist.Config{WorldSize: 2})
		defer c.Close()
		clocks := make([]float64, 2)
		if err := c.Run(func(w *dist.Worker) error {
			grads := NewGrads(w)
			v := &View{w: w, Grads: &grads}
			sum := w.Cluster().Group(0, 1)
			var rng *tensor.RNG
			if drawn {
				rng = tensor.NewRNG(3)
			}
			for _, l := range []*Dense{v.NewHead(in, out, rng), NewReplicatedDense(w, sum, &grads, in, out, nn.ActGELU, true, rng)} {
				x, dy := x, dy
				if rng == nil {
					x, dy = tensor.NewPhantom(rows, in), tensor.NewPhantom(rows, out)
					for _, p := range l.Params() {
						if !p.Value.Phantom() || !p.Grad.Phantom() {
							t.Errorf("nil-rng %s holds a drawn value or gradient", p.Name)
						}
					}
				}
				l.Forward(x)
				l.Backward(dy)
			}
			grads.DrainGradients()
			w.Workspace().ReleaseAll()
			clocks[w.Rank()] = w.Clock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return clocks, c.Stats()
	}
	drawnClocks, drawnStats := replay(true)
	phClocks, phStats := replay(false)
	if !slices.Equal(phClocks, drawnClocks) || drawnClocks[0] <= 0 {
		t.Errorf("shape-only clocks %v, drawn %v", phClocks, drawnClocks)
	}
	if !reflect.DeepEqual(phStats, drawnStats) || drawnStats.Bytes == 0 {
		t.Errorf("shape-only traffic %+v, drawn %+v", phStats, drawnStats)
	}
}

// arrangementCase is what one arrangement promises a family registered
// with it: the layouts Validate accepts with their row shards, those it
// refuses (with a substring of the refusal) and the first candidates
// Layouts lists.
type arrangementCase struct {
	arrangement Arrangement
	accept      map[Layout]int // accepted layout → its Layout.RowShards
	refuse      map[string]Layout
	budget      int
	layouts     []string // Layouts(budget), in order
}

// checkArrangement registers a family with c's arrangement and holds
// Validate, Layout.RowShards and Layouts to c.
func checkArrangement(t *testing.T, c arrangementCase) {
	t.Helper()
	name := "parallel-test-" + t.Name()
	Register(Spec{Name: name, New: nopFamily, Arrangement: c.arrangement})
	unregisterAfter(t, name)
	for l, want := range c.accept {
		l.Family = name
		if l, err := Validate(l); err != nil {
			t.Errorf("%+v refused: %v", l, err)
		} else if got := l.RowShards(); got != want {
			t.Errorf("%s RowShards = %d, want %d", l, got, want)
		}
	}
	for want, l := range c.refuse {
		l.Family = name
		if _, err := Validate(l); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%+v: refusal %v, want one naming %q", l, err, want)
		}
	}
	ls, err := Layouts(name, c.budget)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for l := range ls {
		got = append(got, l.Shape())
	}
	if !slices.Equal(got, c.layouts) {
		t.Errorf("Layouts within %d ranks = %v, want %v", c.budget, got, c.layouts)
	}
}

func TestFlatArrangement(t *testing.T) {
	checkArrangement(t, arrangementCase{
		arrangement: Flat,
		accept:      map[Layout]int{{Ranks: 1}: 1, {Ranks: 6}: 1},
		refuse:      map[string]Layout{"1-D family and cannot take a mesh [2,2]": {Q: 2}},
		budget:      3,
		layouts:     []string{"[1]", "[2]", "[3]"},
	})
}

func TestRowsArrangement(t *testing.T) {
	checkArrangement(t, arrangementCase{
		arrangement: Rows,
		accept:      map[Layout]int{{Ranks: 1}: 1, {Ranks: 6}: 6},
		refuse:      map[string]Layout{"1-D family and cannot take a mesh [2,2,2]": {Q: 2, D: 2}},
		budget:      3,
		layouts:     []string{"[1]", "[2]", "[3]"},
	})
}

func TestGridArrangement(t *testing.T) {
	checkArrangement(t, arrangementCase{
		arrangement: Grid,
		accept:      map[Layout]int{{Q: 1}: 1, {Q: 3, D: 1}: 3},
		refuse: map[string]Layout{
			"2-D family and cannot take depth 2": {Q: 2, D: 2},
			"needs a mesh dimension q":           {Ranks: 4},
		},
		budget:  17,
		layouts: []string{"[1,1]", "[2,2]", "[3,3]", "[4,4]"},
	})
}

func TestMeshArrangement(t *testing.T) {
	checkArrangement(t, arrangementCase{
		arrangement: Mesh,
		accept:      map[Layout]int{{Q: 1}: 1, {Q: 2, D: 2}: 4, {Q: 3}: 3, {Q: 4, D: 2}: 8},
		refuse: map[string]Layout{
			"depth d=3 above its dimension q=2": {Q: 2, D: 3},
			"needs a mesh dimension q":          {Ranks: 4},
		},
		budget:  18,
		layouts: []string{"[1,1]", "[2,2]", "[2,2,2]", "[3,3]", "[3,3,2]", "[4,4]"},
	})
}

func TestValidateRefusesUnregisteredFamily(t *testing.T) {
	if _, err := Validate(Layout{Family: "parallel-test-unregistered", Ranks: 1}); err == nil {
		t.Fatal("unknown family must be rejected")
	}
}

// TestGradsQueueSizedOnce: the deferred-gradient queue is sized at its
// first sum for every parameter the rank's layers said they land over a
// group (Grads.Expect), keeps that backing array across steps, and is never
// made on a rank whose every partial lands with a nil group.
func TestGradsQueueSizedOnce(t *testing.T) {
	c := dist.New(dist.Config{WorldSize: 2})
	defer c.Close()
	if err := c.Run(func(w *dist.Worker) error {
		summed, local := NewGrads(w), NewGrads(w)
		g, rng := w.Cluster().Group(0, 1), tensor.NewRNG(1)
		layers := []*Dense{
			NewReplicatedDense(w, g, &summed, 4, 6, nn.ActGELU, true, rng),
			NewReplicatedDense(w, g, &summed, 6, 4, nn.ActNone, false, rng),
			NewReplicatedDense(w, nil, &summed, 4, 2, nn.ActNone, true, rng),
			NewReplicatedDense(w, nil, &local, 4, 2, nn.ActNone, true, rng),
		}
		x := tensor.RandomMatrix(5, 4, tensor.NewRNG(2))
		var backing *dist.Handle
		for step := 0; step < 2; step++ {
			layers[0].Backward(layers[1].Backward(layers[1].Forward(layers[0].Forward(x))))
			layers[2].Backward(layers[2].Forward(x))
			layers[3].Backward(layers[3].Forward(x))
			if len(summed.pending) != 3 || cap(summed.pending) != 3 {
				t.Errorf("rank %d step %d: %d sums queued in %d slots, want 3 in 3", w.Rank(), step, len(summed.pending), cap(summed.pending))
			}
			if step == 0 {
				backing = &summed.pending[0]
			} else if &summed.pending[0] != backing {
				t.Errorf("rank %d: the queue was made again at step %d", w.Rank(), step)
			}
			if local.pending != nil {
				t.Errorf("rank %d step %d: a queue of %d slots with nothing summed", w.Rank(), step, cap(local.pending))
			}
			summed.DrainGradients()
			local.DrainGradients()
			w.Workspace().ReleaseAll()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
