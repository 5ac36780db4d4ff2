//go:build amd64

package tensor

import (
	"math"
	"runtime"
	"testing"
)

// TestTanhCoreMatchesMath holds the kernels' tanh core to math.Tanh itself,
// bit for bit, on a dense sweep: every float in windows of a few thousand
// ulps around each of math.Tanh's switch points and around the ties of
// math.Exp's round-to-integer, plus a million log-uniform magnitudes in both
// signs. The core replicates this toolchain's math.Tanh and the FMA path of
// its amd64 math.Exp; if a Go release changes either, this is the test that
// fails, and the scalar loops are the fallback until the core follows.
func TestTanhCoreMatchesMath(t *testing.T) {
	if _, fma := cpuAVX2FMA(); !fma {
		t.Skip("no AVX2+FMA: the kernels are not bound on this host")
	}
	const half = 2048 // ulps either side of a centre
	centres := []float64{0, 0.625, 0.5 * 8.8029691931113054295988e+01, 1, 20}
	for k := 2; k <= 127; k++ {
		// exp(2z) rounds 2z·log2(e) to k: the tie is at z = (k ± ½)·ln2/2.
		centres = append(centres, (float64(k)-0.5)*math.Ln2/2)
	}
	var in []float64
	for _, c := range centres {
		bits := math.Float64bits(c)
		for d := -half; d <= half; d++ {
			b := int64(bits) + int64(d)
			if b < 0 {
				continue
			}
			v := math.Float64frombits(uint64(b))
			in = append(in, v, -v)
		}
	}
	rng := NewRNG(41)
	for i := 0; i < 1_000_000; i++ {
		// 10^[-320, 4): denormals through saturation.
		v := math.Pow(10, rng.Float64()*324-320)
		if i&1 == 1 {
			v = -v
		}
		in = append(in, v)
	}
	in = append(in, math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, math.NaN())
	for len(in)%4 != 0 {
		in = append(in, 0)
	}

	out := make([]float64, len(in))
	tanhPtr(&out[0], &in[0], len(in))
	bad := 0
	for i, v := range in {
		want := math.Tanh(v)
		if math.Float64bits(out[i]) != math.Float64bits(want) {
			if bad++; bad <= 5 {
				t.Errorf("tanh(%v = %#x): core %v (%#x) vs math.Tanh %v (%#x)",
					v, math.Float64bits(v), out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d inputs differ from math.Tanh under %s: gelu_amd64.s replicates go1.24's math.Tanh and exp_amd64.s",
			bad, len(in), runtime.Version())
	}
}
