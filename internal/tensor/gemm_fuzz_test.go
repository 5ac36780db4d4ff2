package tensor

import (
	"math"
	"testing"
)

// fuzzDepths are the inner dimensions the fuzzer picks from: empty, shorter
// than a tile, and one either side of both panel depths.
var fuzzDepths = []int{0, 1, 2, 3, 5, 8, gemmKCShallow - 1, gemmKCShallow, gemmKCShallow + 1, 70, gemmKC - 1, gemmKC, gemmKC + 1, 2*gemmKC + 3}

// sameBits reports whether two matrices agree bit for bit, the sign of zero
// included. Two NaNs count as equal whatever their sign and payload: when
// both operands of an add or multiply are NaN, x86 returns the first one,
// and which operand comes first in naive.go is the compiler's choice.
func sameBits(a, b *Matrix) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, v := range a.Data {
		w := b.Data[i]
		if math.Float64bits(v) != math.Float64bits(w) && !(math.IsNaN(v) && math.IsNaN(w)) {
			return false
		}
	}
	return true
}

// sprinkle overwrites a few elements of m, chosen by rng, with the special
// values mask selects: bit 0 NaN, bit 1 +Inf, bit 2 −Inf, bit 3 −0.
func sprinkle(m *Matrix, mask uint8, rng *RNG) {
	for bit, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)} {
		if mask&(1<<bit) == 0 || len(m.Data) == 0 {
			continue
		}
		for n := 0; n < 1+len(m.Data)/16; n++ {
			m.Data[rng.Uint64()%uint64(len(m.Data))] = v
		}
	}
}

// FuzzGEMMBitwise draws a shape biased to the tile edges (every m%gemmMR and
// n%gemmNR, depths from fuzzDepths), an orientation, an epilogue and a
// sprinkle of NaN/±Inf/−0, and demands that the tiled kernel
// equals the naive kernel followed by the separate bias and GELU passes, bit
// for bit — once on the micro-kernel the CPU selected and once with tileAsm
// cleared, so the portable twin runs through the same loop nest on amd64 too.
// An NN product runs a second time against PackNN's view of B, packed under
// the same binding: the pre-packed operand must not move a bit either. The
// sixth byte is unused; it stays in the signature so the committed corpus
// under testdata keeps decoding.
func FuzzGEMMBitwise(f *testing.F) {
	f.Add(uint8(3), uint8(7), uint8(4), uint8(0), uint8(0), uint8(0), uint8(0), uint64(1))     // full tiles, shallow panel
	f.Add(uint8(4), uint8(8), uint8(12), uint8(1), uint8(1), uint8(2), uint8(1), uint64(2))    // ragged NT across the deep panel, NaN
	f.Add(uint8(16), uint8(0), uint8(0), uint8(1), uint8(2), uint8(5), uint8(6), uint64(3))    // k = 0: NT must still overwrite
	f.Add(uint8(6), uint8(33), uint8(13), uint8(2), uint8(2), uint8(16), uint8(15), uint64(4)) // TN, two deep blocks, every special
	f.Add(uint8(0), uint8(2), uint8(9), uint8(0), uint8(1), uint8(0), uint8(8), uint64(5))     // one row, half a strip, −0
	f.Fuzz(func(t *testing.T, mb, nb, kb, opb, epib, _, special uint8, seed uint64) {
		m, n := 1+int(mb)%19, 1+int(nb)%35
		k := fuzzDepths[int(kb)%len(fuzzDepths)]
		op := gemmOp(opb % 3)
		rng := NewRNG(seed)

		a, b := RandomMatrix(m, k, rng), RandomMatrix(k, n, rng)
		naive := matMulAccumNaive
		switch op {
		case opNT:
			b, naive = RandomMatrix(n, k, rng), matMulNTNaive
		case opTN:
			a, naive = RandomMatrix(k, m, rng), matMulTNNaive
		}
		bias, seedC := RandomMatrix(1, n, rng), RandomMatrix(m, n, rng)
		sprinkle(a, special, rng)
		sprinkle(b, special>>1, rng)
		sprinkle(seedC, special>>2, rng)

		want, wantAct := seedC.Clone(), New(m, n)
		naive(want, a, b)
		var epi epilogue
		if epib%3 >= 1 {
			epi.bias = bias
			AddRowVectorInPlace(want, bias)
		}
		if epib%3 == 2 {
			epi.act = New(m, n)
			GELUTo(wantAct, want)
		}

		defer func(asm bool) { tileAsm = asm }(tileAsm)
		for _, asm := range []bool{tileAsm, false} {
			tileAsm = asm
			rights := []*Matrix{b}
			if op == opNN {
				packed := new(Matrix)
				PackNN(packed, b)
				rights = append(rights, packed)
			}
			for _, b := range rights {
				got := seedC.Clone()
				gemm(op, got, a, b, epi)
				if !sameBits(got, want) {
					t.Fatalf("op %d %dx%dx%d asm %v packed %v: C diverges from naive", op, m, k, n, asm, b.Packed())
				}
				if epi.act != nil && !sameBits(epi.act, wantAct) {
					t.Fatalf("op %d %dx%dx%d asm %v packed %v: fused GELU diverges", op, m, k, n, asm, b.Packed())
				}
			}
		}
	})
}
