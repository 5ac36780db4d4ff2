package nn

import (
	"math"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// fdCheck compares an analytic input gradient against central finite
// differences of a scalar loss L = Σ dy ⊙ f(x).
func fdCheck(t *testing.T, name string, x, dy, analytic *tensor.Matrix, forward func(*tensor.Matrix) *tensor.Matrix, tol float64) {
	t.Helper()
	const eps = 1e-6
	for i := 0; i < x.Rows; i++ {
		for j := 0; j < x.Cols; j++ {
			orig := x.At(i, j)
			x.Set(i, j, orig+eps)
			up := forward(x)
			x.Set(i, j, orig-eps)
			dn := forward(x)
			x.Set(i, j, orig)
			var fd float64
			for k := range up.Data {
				fd += dy.Data[k] * (up.Data[k] - dn.Data[k]) / (2 * eps)
			}
			if math.Abs(fd-analytic.At(i, j)) > tol {
				t.Fatalf("%s grad (%d,%d): fd=%g analytic=%g", name, i, j, fd, analytic.At(i, j))
			}
		}
	}
}

func TestLinearForwardShape(t *testing.T) {
	l := NewLinear(4, 6, ActNone, true, tensor.NewRNG(1))
	y := l.Forward(tensor.New(3, 4))
	if y.Rows != 3 || y.Cols != 6 {
		t.Fatalf("shape %dx%d", y.Rows, y.Cols)
	}
}

func TestLinearInputGradFiniteDifference(t *testing.T) {
	rng := tensor.NewRNG(2)
	l := NewLinear(4, 5, ActGELU, true, rng)
	x := tensor.RandomMatrix(3, 4, rng)
	dy := tensor.RandomMatrix(3, 5, rng)
	l.Forward(x)
	dx := l.Backward(dy)
	fdCheck(t, "linear", x, dy, dx, l.Forward, 1e-5)
}

func TestLinearWeightGradFiniteDifference(t *testing.T) {
	rng := tensor.NewRNG(3)
	l := NewLinear(3, 4, ActNone, true, rng)
	x := tensor.RandomMatrix(2, 3, rng)
	dy := tensor.RandomMatrix(2, 4, rng)
	l.W.ZeroGrad()
	l.Forward(x)
	l.Backward(dy)
	const eps = 1e-6
	for i := 0; i < l.W.Value.Rows; i++ {
		for j := 0; j < l.W.Value.Cols; j++ {
			orig := l.W.Value.At(i, j)
			l.W.Value.Set(i, j, orig+eps)
			up := l.Forward(x)
			l.W.Value.Set(i, j, orig-eps)
			dn := l.Forward(x)
			l.W.Value.Set(i, j, orig)
			var fd float64
			for k := range up.Data {
				fd += dy.Data[k] * (up.Data[k] - dn.Data[k]) / (2 * eps)
			}
			if math.Abs(fd-l.W.Grad.At(i, j)) > 1e-5 {
				t.Fatalf("dW (%d,%d): fd=%g analytic=%g", i, j, fd, l.W.Grad.At(i, j))
			}
		}
	}
	// Bias gradient: column sums of dy.
	want := tensor.ColSums(dy)
	if l.B.Grad.MaxAbsDiff(want) > 1e-12 {
		t.Fatal("bias gradient must be column sums of dy")
	}
}

func TestLayerNormForwardStatistics(t *testing.T) {
	rng := tensor.NewRNG(4)
	l := NewLayerNorm(16)
	x := tensor.RandomMatrix(5, 16, rng)
	tensor.ScaleInPlace(x, 3)
	y := l.Forward(x)
	for i := 0; i < y.Rows; i++ {
		var sum, sq float64
		for j := 0; j < y.Cols; j++ {
			sum += y.At(i, j)
			sq += y.At(i, j) * y.At(i, j)
		}
		mean := sum / 16
		variance := sq/16 - mean*mean
		if math.Abs(mean) > 1e-12 {
			t.Fatalf("row %d mean %g", i, mean)
		}
		if math.Abs(variance-1) > 1e-3 {
			t.Fatalf("row %d variance %g", i, variance)
		}
	}
}

func TestLayerNormBackwardFiniteDifference(t *testing.T) {
	rng := tensor.NewRNG(5)
	l := NewLayerNorm(6)
	x := tensor.RandomMatrix(3, 6, rng)
	dy := tensor.RandomMatrix(3, 6, rng)
	l.Forward(x)
	dx := l.Backward(dy)
	fdCheck(t, "layernorm", x, dy, dx, l.Forward, 1e-4)
}

func TestLayerNormScaleInvariance(t *testing.T) {
	// LayerNorm output is invariant to scaling the input (up to eps).
	rng := tensor.NewRNG(6)
	l := NewLayerNorm(8)
	x := tensor.RandomMatrix(2, 8, rng)
	y1 := l.Forward(x)
	y2 := l.Forward(tensor.Scale(10, x))
	// Exact invariance is broken only by the eps inside 1/sqrt(var+eps).
	if y1.MaxAbsDiff(y2) > 1e-3 {
		t.Fatalf("layernorm not scale invariant: %g", y1.MaxAbsDiff(y2))
	}
}

func TestAttentionBackwardFiniteDifference(t *testing.T) {
	rng := tensor.NewRNG(7)
	a := NewMultiHeadAttention(4, 2, 3, rng)
	x := tensor.RandomMatrix(6, 4, rng) // 2 sequences of 3
	dy := tensor.RandomMatrix(6, 4, rng)
	a.Forward(x)
	dx := a.Backward(dy)
	fdCheck(t, "attention", x, dy, dx, a.Forward, 1e-4)
}

func TestMLPBackwardFiniteDifference(t *testing.T) {
	rng := tensor.NewRNG(8)
	m := NewMLP(4, rng)
	x := tensor.RandomMatrix(3, 4, rng)
	dy := tensor.RandomMatrix(3, 4, rng)
	m.Forward(x)
	dx := m.Backward(dy)
	fdCheck(t, "mlp", x, dy, dx, m.Forward, 1e-5)
}

func TestBlockBackwardFiniteDifference(t *testing.T) {
	rng := tensor.NewRNG(9)
	b := NewBlock(4, 2, 2, rng)
	x := tensor.RandomMatrix(4, 4, rng)
	dy := tensor.RandomMatrix(4, 4, rng)
	b.Forward(x)
	dx := b.Backward(dy)
	fdCheck(t, "block", x, dy, dx, b.Forward, 1e-4)
}

func TestCrossEntropyGradFiniteDifference(t *testing.T) {
	rng := tensor.NewRNG(10)
	logits := tensor.RandomMatrix(3, 5, rng)
	labels := []int{1, 4, 0}
	_, grad := CrossEntropy(logits, labels)
	const eps = 1e-6
	for i := 0; i < logits.Rows; i++ {
		for j := 0; j < logits.Cols; j++ {
			orig := logits.At(i, j)
			logits.Set(i, j, orig+eps)
			up, _ := CrossEntropy(logits, labels)
			logits.Set(i, j, orig-eps)
			dn, _ := CrossEntropy(logits, labels)
			logits.Set(i, j, orig)
			fd := (up - dn) / (2 * eps)
			if math.Abs(fd-grad.At(i, j)) > 1e-6 {
				t.Fatalf("CE grad (%d,%d): fd=%g analytic=%g", i, j, fd, grad.At(i, j))
			}
		}
	}
}

func TestCrossEntropyPerfectPrediction(t *testing.T) {
	logits := tensor.FromRows([][]float64{{100, 0, 0}, {0, 100, 0}})
	loss, _ := CrossEntropy(logits, []int{0, 1})
	if loss > 1e-9 {
		t.Fatalf("confident correct prediction should have ~0 loss, got %g", loss)
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromRows([][]float64{{1, 2}, {3, 1}, {0, 5}})
	if got := Accuracy(logits, []int{1, 0, 0}); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("accuracy %g", got)
	}
}

func TestMSE(t *testing.T) {
	pred := tensor.FromRows([][]float64{{1, 2}})
	target := tensor.FromRows([][]float64{{0, 4}})
	loss, grad := MSE(pred, target)
	if math.Abs(loss-(1+4)/2.0) > 1e-12 {
		t.Fatalf("MSE loss %g", loss)
	}
	if grad.At(0, 0) != 1 || grad.At(0, 1) != -2 {
		t.Fatalf("MSE grad %v", grad)
	}
}

func TestAdamMatchesReference(t *testing.T) {
	// Hand-computed first Adam step: m̂=g, v̂=g², so Δ = lr·g/(|g|+eps).
	p := NewParam("w", tensor.FromRows([][]float64{{1}}))
	p.Grad.Set(0, 0, 0.5)
	opt := NewAdam(0.1, 0)
	opt.Step([]*Param{p})
	want := 1 - 0.1*0.5/(0.5+1e-8)
	if math.Abs(p.Value.At(0, 0)-want) > 1e-9 {
		t.Fatalf("Adam first step %g, want %g", p.Value.At(0, 0), want)
	}
}

func TestAdamDeterministic(t *testing.T) {
	runOnce := func() float64 {
		p := NewParam("w", tensor.FromRows([][]float64{{1, -1}}))
		opt := NewAdam(0.01, 0.1)
		for i := 0; i < 10; i++ {
			p.Grad.Set(0, 0, float64(i)*0.1)
			p.Grad.Set(0, 1, -float64(i)*0.1)
			opt.Step([]*Param{p})
		}
		return p.Value.At(0, 0) + p.Value.At(0, 1)
	}
	if runOnce() != runOnce() {
		t.Fatal("Adam must be deterministic")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p := NewParam("w", tensor.FromRows([][]float64{{5}}))
	opt := NewAdam(0.1, 0)
	for i := 0; i < 500; i++ {
		p.ZeroGrad()
		p.Grad.Set(0, 0, 2*p.Value.At(0, 0)) // d/dw w²
		opt.Step([]*Param{p})
	}
	if math.Abs(p.Value.At(0, 0)) > 1e-2 {
		t.Fatalf("Adam failed to minimise w²: w=%g", p.Value.At(0, 0))
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	// A tiny end-to-end sanity check: a 1-block Transformer regression.
	rng := tensor.NewRNG(11)
	b := NewBlock(4, 2, 2, rng)
	head := NewLinear(4, 2, ActNone, true, rng)
	x := tensor.RandomMatrix(8, 4, rng)
	target := tensor.RandomMatrix(8, 2, rng)
	params := append(b.Params(), head.Params()...)
	opt := NewAdam(5e-3, 0)
	var first, last float64
	for i := 0; i < 30; i++ {
		y := head.Forward(b.Forward(x))
		loss, dy := MSE(y, target)
		if i == 0 {
			first = loss
		}
		last = loss
		for _, p := range params {
			p.ZeroGrad()
		}
		b.Backward(head.Backward(dy))
		opt.Step(params)
	}
	if last >= first*0.7 {
		t.Fatalf("loss did not drop: %g -> %g", first, last)
	}
}

func TestParamZeroAndAccum(t *testing.T) {
	p := NewParam("w", tensor.New(2, 2))
	g := tensor.FromRows([][]float64{{1, 1}, {1, 1}})
	p.AccumGrad(g)
	p.AccumGrad(g)
	if p.Grad.At(0, 0) != 2 {
		t.Fatal("AccumGrad must accumulate")
	}
	p.ZeroGrad()
	if p.Grad.At(0, 0) != 0 {
		t.Fatal("ZeroGrad must clear")
	}
}

// adamParams returns two parameters with fixed values and gradients.
func adamParams() []*Param {
	a := NewParam("a", tensor.FromRows([][]float64{{1, -2, 0.5}}))
	b := NewParam("b", tensor.FromRows([][]float64{{3}, {-0.25}}))
	for i := range a.Grad.Data {
		a.Grad.Data[i] = 0.1 * float64(i+1)
	}
	b.Grad.Data[0], b.Grad.Data[1] = -0.3, 0.7
	return []*Param{a, b}
}

// TestNewAdamStartsFromZero: a new Adam over parameters another Adam has
// stepped takes the step a new Adam takes on fresh copies of them, bit for
// bit — the moments left on a Param are its stepping optimiser's, not the
// next one's.
func TestNewAdamStartsFromZero(t *testing.T) {
	used := adamParams()
	old := NewAdam(0.01, 0.1)
	for i := 0; i < 3; i++ {
		old.Step(used)
	}
	fresh := adamParams()
	for i, p := range used {
		copy(p.Value.Data, fresh[i].Value.Data)
		copy(p.Grad.Data, fresh[i].Grad.Data)
	}
	next, ref := NewAdam(0.01, 0.1), NewAdam(0.01, 0.1)
	for i := 0; i < 2; i++ {
		next.Step(used)
		ref.Step(fresh)
	}
	for i := range used {
		for j, x := range used[i].Value.Data {
			if y := fresh[i].Value.Data[j]; math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("param %d elem %d: %v after a used Adam, %v fresh", i, j, x, y)
			}
		}
		gm, gv := next.Moments(used[i])
		wm, wv := ref.Moments(fresh[i])
		if !gm.Equal(wm) || !gv.Equal(wv) {
			t.Fatalf("param %d: moments differ from a fresh Adam's", i)
		}
	}
	if m, v := old.Moments(used[0]); m != nil || v != nil {
		t.Fatal("the old Adam still reports moments it no longer owns")
	}
}

// TestMomentsOfUnknownParamAreNil: Moments of a parameter this Adam never
// stepped or had restored is nil, nil — even when another Adam has stepped
// it — and a restored moment is adopted as is.
func TestMomentsOfUnknownParamAreNil(t *testing.T) {
	ps := adamParams()
	a, b := NewAdam(0.01, 0), NewAdam(0.01, 0)
	if m, v := a.Moments(ps[0]); m != nil || v != nil {
		t.Fatal("moments of a never-stepped parameter")
	}
	b.Step(ps)
	if m, v := a.Moments(ps[0]); m != nil || v != nil {
		t.Fatal("moments of a parameter only another Adam stepped")
	}
	m := tensor.New(1, 3)
	a.SetMoments(ps[0], m, nil)
	if gm, gv := a.Moments(ps[0]); gm != m || gv != nil {
		t.Fatalf("after SetMoments(m, nil): got %p, %v; want %p, nil", gm, gv, m)
	}
	if gm, _ := b.Moments(ps[0]); gm != nil {
		t.Fatal("a restore left the previous Adam's moments reachable through it")
	}
}

// TestAdamWarmStepAllocatesNothing: once every parameter holds its moments,
// a step over the same slice allocates nothing.
func TestAdamWarmStepAllocatesNothing(t *testing.T) {
	ps := adamParams()
	opt := NewAdam(0.01, 0.1)
	opt.Step(ps)
	if n := testing.AllocsPerRun(100, func() { opt.Step(ps) }); n != 0 {
		t.Fatalf("warm Adam step allocates %v times, want 0", n)
	}
}

// TestAdamStepsOnlyTheBand: a banded parameter's step updates the band's
// rows exactly as a step of the whole parameter updates them, against
// band-sized moments, leaves the other rows alone and marks the parameter
// stale until Gathered.
func TestAdamStepsOnlyTheBand(t *testing.T) {
	value := tensor.RandomMatrix(6, 3, tensor.NewRNG(4))
	grad := tensor.RandomMatrix(6, 3, tensor.NewRNG(5))
	whole, band := NewParam("w", value.Clone()), NewParam("w", value.Clone())
	whole.Grad, band.Grad = grad.Clone(), grad.Clone()
	band.SetBand(2, 4)
	a, b := NewAdam(0.01, 0.1), NewAdam(0.01, 0.1)
	for range 3 {
		a.Step([]*Param{whole})
		b.Step([]*Param{band})
	}
	if !band.Stale() || whole.Stale() {
		t.Fatalf("stale: banded %v, whole %v; want true, false", band.Stale(), whole.Stale())
	}
	for r := range 6 {
		want := value.Row(r)
		if r >= 2 && r < 4 {
			want = whole.Value.Row(r)
		}
		if !slices.Equal(band.Value.Row(r), want) {
			t.Errorf("row %d: %v, want %v", r, band.Value.Row(r), want)
		}
	}
	wm, wv := a.Moments(whole)
	bm, bv := b.Moments(band)
	if !bm.Equal(wm.SubMatrix(2, 0, 2, 3)) || !bv.Equal(wv.SubMatrix(2, 0, 2, 3)) {
		t.Errorf("band moments %v %v are not rows [2, 4) of the whole's", bm, bv)
	}
	band.Gathered()
	if band.Stale() {
		t.Error("stale after Gathered")
	}
}
