package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The fusion contract: a GEMM with a fused epilogue must be bitwise
// identical to the GEMM followed by the separate bias/activation passes,
// at every shape.

func TestFusedEpilogueBitwise(t *testing.T) {
	for _, s := range gemmShapes() {
		t.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(t *testing.T) {
			rng := NewRNG(uint64(s.m*211 + s.k*21 + s.n))
			a := RandomMatrix(s.m, s.k, rng)
			b := RandomMatrix(s.k, s.n, rng)
			bias := RandomMatrix(1, s.n, rng)
			seed := RandomMatrix(s.m, s.n, rng) // += contract: prior contents matter

			// Separate passes: MatMulInto, then bias, then GELU.
			wantPre := seed.Clone()
			MatMulInto(wantPre, a, b)
			AddRowVectorInPlace(wantPre, bias)
			wantAct := New(s.m, s.n)
			GELUTo(wantAct, wantPre)

			// Fused bias only.
			gotBias := seed.Clone()
			MatMulBiasInto(gotBias, a, b, bias)
			if !gotBias.Equal(wantPre) {
				t.Fatalf("MatMulBiasInto diverges from separate passes (max diff %g)", gotBias.MaxAbsDiff(wantPre))
			}

			// Fused bias + GELU, pre-activation retained.
			gotPre := seed.Clone()
			gotAct := New(s.m, s.n)
			MatMulBiasGELUInto(gotAct, gotPre, a, b, bias)
			if !gotPre.Equal(wantPre) {
				t.Fatalf("fused pre-activation diverges (max diff %g)", gotPre.MaxAbsDiff(wantPre))
			}
			if !gotAct.Equal(wantAct) {
				t.Fatalf("fused activation diverges (max diff %g)", gotAct.MaxAbsDiff(wantAct))
			}

			// nil bias: activation-only fusion.
			wantPre2 := seed.Clone()
			MatMulInto(wantPre2, a, b)
			wantAct2 := New(s.m, s.n)
			GELUTo(wantAct2, wantPre2)
			gotPre2 := seed.Clone()
			gotAct2 := New(s.m, s.n)
			MatMulBiasGELUInto(gotAct2, gotPre2, a, b, nil)
			if !gotPre2.Equal(wantPre2) || !gotAct2.Equal(wantAct2) {
				t.Fatal("activation-only fusion diverges from separate passes")
			}
		})
	}
}

// TestGELUGradHadamardBitwise pins the fused backward epilogue to the
// two-pass GELUGradTo + Mul form.
func TestGELUGradHadamardBitwise(t *testing.T) {
	rng := NewRNG(31)
	pre := RandomMatrix(9, 14, rng)
	dy := RandomMatrix(9, 14, rng)
	pre.Set(0, 0, math.Inf(1))
	dy.Set(0, 1, math.NaN())

	grad := New(9, 14)
	GELUGradTo(grad, pre)
	want := Mul(dy, grad)

	got := New(9, 14)
	GELUGradHadamardTo(got, pre, dy)
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("lane %d: fused %v vs two-pass %v", i, got.Data[i], want.Data[i])
		}
	}
}
