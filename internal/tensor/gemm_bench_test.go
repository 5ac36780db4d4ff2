package tensor

import (
	"fmt"
	"testing"
)

// Benchmarks pairing every optimised kernel with its naive single-goroutine
// reference (the seed's loops), at the sizes the acceptance gate tracks.
// BenchmarkGEMMNaive256 is the baseline BenchmarkGEMM256 (in the repo root)
// must beat by ≥ 3×.

// benchPair times one orientation at C[m,n] with inner dimension k: the
// tiled kernel ("blocked") against its naive reference.
func benchPair(b *testing.B, op gemmOp, m, k, n int) {
	rng := NewRNG(uint64(n))
	x, y, naive := RandomMatrix(m, k, rng), RandomMatrix(k, n, rng), matMulAccumNaive
	switch op {
	case opNT:
		y, naive = RandomMatrix(n, k, rng), matMulNTNaive
	case opTN:
		x, naive = RandomMatrix(k, m, rng), matMulTNNaive
	}
	c := New(m, n)
	flops := GEMMFlops(float64(m), float64(n), float64(k))
	run := func(b *testing.B, kernel func(c, x, y *Matrix)) {
		b.ReportMetric(0, "ns/op") // replaced below; keeps metric slot stable
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Zero()
			kernel(c, x, y)
		}
		b.StopTimer()
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
	}
	b.Run("blocked", func(b *testing.B) { run(b, func(c, x, y *Matrix) { gemm(op, c, x, y, epilogue{}) }) })
	b.Run("naive", func(b *testing.B) { run(b, naive) })
}

func BenchmarkGEMMKernels(b *testing.B) {
	for _, n := range []int{64, 128, 256, 384} {
		b.Run(fmt.Sprintf("NN%d", n), func(b *testing.B) { benchPair(b, opNN, n, n, n) })
	}
	b.Run("NT256", func(b *testing.B) { benchPair(b, opNT, 256, 256, 256) })
	b.Run("TN256", func(b *testing.B) { benchPair(b, opTN, 256, 256, 256) })
	// The repository benchmark's probe shapes (bench/, m×k×n): the two MLP
	// tiles of train-wide and the MLP tile of train-small.
	for _, s := range []struct{ m, k, n int }{{64, 128, 512}, {64, 512, 128}, {8, 8, 32}} {
		for op, name := range []string{opNN: "NN", opNT: "NT", opTN: "TN"} {
			b.Run(fmt.Sprintf("%s%dx%dx%d", name, s.m, s.k, s.n), func(b *testing.B) { benchPair(b, gemmOp(op), s.m, s.k, s.n) })
		}
	}
}

// BenchmarkGEMMNaive256 is the single-goroutine seed kernel at the
// acceptance size, directly comparable to the root BenchmarkGEMM256.
func BenchmarkGEMMNaive256(b *testing.B) {
	rng := NewRNG(1)
	x := RandomMatrix(256, 256, rng)
	y := RandomMatrix(256, 256, rng)
	c := New(256, 256)
	flops := 2 * float64(256) * float64(256) * float64(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Zero()
		matMulAccumNaive(c, x, y)
	}
	b.StopTimer()
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

// BenchmarkZeroSkipDense measures what the seed's `if av == 0` zero-skip
// branch costs on dense inputs — the evidence for removing it.
func BenchmarkZeroSkipDense(b *testing.B) {
	rng := NewRNG(2)
	x := RandomMatrix(192, 192, rng)
	y := RandomMatrix(192, 192, rng)
	c := New(192, 192)
	zeroSkip := func(c, a, bm *Matrix) {
		n, k := bm.Cols, a.Cols
		for i := 0; i < a.Rows; i++ {
			arow := a.Data[i*k : (i+1)*k]
			crow := c.Data[i*n : (i+1)*n]
			for l := 0; l < k; l++ {
				av := arow[l]
				if av == 0 {
					continue
				}
				brow := bm.Data[l*n : (l+1)*n]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	}
	b.Run("withSkip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Zero()
			zeroSkip(c, x, y)
		}
	})
	b.Run("withoutSkip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Zero()
			matMulAccumNaive(c, x, y)
		}
	})
}
