package tensor

import (
	"math"
	"testing"
)

// The elementwise contract: the bound kernels (AVX2 on qualifying amd64
// hosts) must produce bit-for-bit the portable reference loops' results,
// NaN/Inf/signed-zero lanes included, at lengths covering the 8-wide body,
// the 4-wide tail and the scalar tail.

func elemLens() []int { return []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 31, 64, 100} }

// specialValues seeds index i of a slice with awkward IEEE values.
func specialSeed(data []float64, rng *RNG) {
	for i := range data {
		data[i] = rng.Float64()*4 - 2
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e-310}
	for i, v := range specials {
		if i < len(data) {
			data[i] = v
		}
	}
}

func TestElementwiseKernelsMatchGenericBitwise(t *testing.T) {
	rng := NewRNG(7)
	for _, n := range elemLens() {
		a := make([]float64, n)
		b := make([]float64, n)
		specialSeed(a, rng)
		specialSeed(b, rng)
		for i := range b {
			b[i] = rng.Float64()*4 - 2
		}
		if n > 0 {
			b[0] = math.Inf(1) // NaN + Inf, 0·Inf-style lanes
		}

		check := func(name string, got, want []float64) {
			t.Helper()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s n=%d lane %d: %v vs %v", name, n, i, got[i], want[i])
				}
			}
		}

		gotD, wantD := make([]float64, n), make([]float64, n)
		vaddTo(gotD, a, b)
		vaddToGeneric(wantD, a, b)
		check("vaddTo", gotD, wantD)

		copy(gotD, a)
		copy(wantD, a)
		vaddIn(gotD, b)
		vaddInGeneric(wantD, b)
		check("vaddIn", gotD, wantD)

		copy(gotD, a)
		copy(wantD, a)
		if n > 0 {
			vscale(gotD, 1.7)
			vscaleGeneric(wantD, 1.7)
		}
		check("vscale", gotD, wantD)
	}
}

// TestAdamKernelMatchesGenericBitwise pins the bound Adam kernel to the
// scalar reference: a changed rounding here would silently shift every
// training trajectory in the repo.
func TestAdamKernelMatchesGenericBitwise(t *testing.T) {
	rng := NewRNG(11)
	for _, n := range elemLens() {
		val := make([]float64, n)
		grad := make([]float64, n)
		m := make([]float64, n)
		v := make([]float64, n)
		for i := range val {
			val[i] = rng.Float64()*2 - 1
			grad[i] = rng.Float64()*2 - 1
			m[i] = rng.Float64() * 0.1
			v[i] = rng.Float64() * 0.01
		}
		if n > 2 {
			grad[1] = 0
			grad[2] = 1e160 // v overflows to +Inf; sqrt(Inf) must match
		}
		val2 := append([]float64(nil), val...)
		grad2 := append([]float64(nil), grad...)
		m2 := append([]float64(nil), m...)
		v2 := append([]float64(nil), v...)

		const lr, b1, b2, eps, wd = 1e-3, 0.9, 0.999, 1e-8, 0.01
		bc1 := 1 - math.Pow(b1, 3)
		bc2 := 1 - math.Pow(b2, 3)
		adamKernel(val, grad, m, v, lr, b1, b2, eps, wd, bc1, bc2)
		adamUpdateGeneric(val2, grad2, m2, v2, lr, b1, b2, eps, wd, bc1, bc2)

		for i := range val {
			if math.Float64bits(val[i]) != math.Float64bits(val2[i]) ||
				math.Float64bits(m[i]) != math.Float64bits(m2[i]) ||
				math.Float64bits(v[i]) != math.Float64bits(v2[i]) {
				t.Fatalf("n=%d lane %d: adam kernel diverges (val %v vs %v, m %v vs %v, v %v vs %v)",
					n, i, val[i], val2[i], m[i], m2[i], v[i], v2[i])
			}
		}
	}
}

// TestAdamUpdateMatrixWrapper checks the Matrix-level entry point, phantom
// short-circuit included.
func TestAdamUpdateMatrixWrapper(t *testing.T) {
	rng := NewRNG(13)
	p := RandomMatrix(3, 5, rng)
	g := RandomMatrix(3, 5, rng)
	m := New(3, 5)
	v := New(3, 5)
	want := p.Clone()
	wm, wv := m.Clone(), v.Clone()
	adamUpdateGeneric(want.Data, g.Data, wm.Data, wv.Data, 1e-3, 0.9, 0.999, 1e-8, 0.01, 0.1, 0.002)
	AdamUpdate(p, g, m, v, 1e-3, 0.9, 0.999, 1e-8, 0.01, 0.1, 0.002)
	if !p.Equal(want) || !m.Equal(wm) || !v.Equal(wv) {
		t.Fatal("AdamUpdate diverges from the scalar reference")
	}

	ph := NewPhantom(3, 5)
	AdamUpdate(ph, NewPhantom(3, 5), NewPhantom(3, 5), NewPhantom(3, 5), 1e-3, 0.9, 0.999, 1e-8, 0.01, 0.1, 0.002)

	// An empty parameter is nothing to update under either binding, not an
	// index out of range.
	bound := adamKernel
	defer func() { adamKernel = bound }()
	for _, kernel := range []func(val, grad, m, v []float64, lr, b1, b2, eps, wd, bc1, bc2 float64){bound, adamUpdateGeneric} {
		adamKernel = kernel
		for _, e := range []*Matrix{New(0, 0), New(0, 5)} {
			AdamUpdate(e, e, e, e, 1e-3, 0.9, 0.999, 1e-8, 0.01, 0.1, 0.002)
		}
	}
}
