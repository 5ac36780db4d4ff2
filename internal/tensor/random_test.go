package tensor

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce same stream")
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatal("different seeds should produce different streams")
	}
}

func TestFloat64Range(t *testing.T) {
	rng := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := rng.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", v)
		}
	}
}

func TestIntnRange(t *testing.T) {
	rng := NewRNG(9)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := rng.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn should hit all values, got %d", len(seen))
	}
}

func TestNormalMoments(t *testing.T) {
	rng := NewRNG(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := rng.Normal()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %g too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance %g too far from 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	rng := NewRNG(13)
	p := make([]int, 20)
	rng.Perm(p)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestXavierBounds(t *testing.T) {
	rng := NewRNG(17)
	in, out := 30, 50
	m := XavierMatrix(in, out, rng)
	limit := math.Sqrt(6 / float64(in+out))
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("Xavier value %g outside ±%g", v, limit)
		}
	}
	// The draw must be non-degenerate.
	if Frobenius(m) == 0 {
		t.Fatal("Xavier matrix is all zeros")
	}
}

func TestSplitIndependence(t *testing.T) {
	rng := NewRNG(19)
	a := rng.Split()
	b := rng.Split()
	if a.Uint64() == b.Uint64() {
		t.Fatal("split streams should differ")
	}
}

func TestRandomMatrixRange(t *testing.T) {
	rng := NewRNG(23)
	m := RandomMatrix(10, 10, rng)
	for _, v := range m.Data {
		if v < -1 || v >= 1 {
			t.Fatalf("RandomMatrix value %g outside [-1,1)", v)
		}
	}
}

// FuzzXavierBlock: a rectangle drawn alone, row by row, from the state a
// weight starts at (XavierFill, as parallel.Weight.Param draws) is that
// rectangle of the whole matrix bit for bit, the whole matrix is the serial
// stream's element by element, and a generator that copies its state and
// jumps past the matrix (Skip, as parallel.Draw does) draws next what one
// that drew every element in sequence draws.
func FuzzXavierBlock(f *testing.F) {
	f.Add(uint8(6), uint8(4), uint8(1), uint8(1), uint8(3), uint8(2), uint64(1)) // interior block
	f.Add(uint8(8), uint8(8), uint8(0), uint8(0), uint8(8), uint8(8), uint64(2)) // the whole matrix
	f.Add(uint8(5), uint8(9), uint8(4), uint8(0), uint8(1), uint8(9), uint64(3)) // last row, full width
	f.Add(uint8(1), uint8(1), uint8(0), uint8(0), uint8(1), uint8(1), uint64(0)) // one element, seed 0
	f.Fuzz(func(t *testing.T, rb, cb, r0b, c0b, brb, bcb uint8, seed uint64) {
		rows, cols := 1+int(rb)%48, 1+int(cb)%48
		r0, c0 := int(r0b)%rows, int(c0b)%cols
		br, bc := 1+int(brb)%(rows-r0), 1+int(bcb)%(cols-c0)

		seq := NewRNG(seed)
		limit := math.Sqrt(6 / float64(rows+cols))
		want := New(rows, cols)
		for i := range want.Data {
			want.Data[i] = limit * (2*seq.Float64() - 1)
		}

		rng := NewRNG(seed)
		at := *rng
		rng.Skip(rows * cols)
		if got, next := rng.Uint64(), seq.Uint64(); got != next {
			t.Fatalf("[%d, %d]: after the jump the generator draws %#x, after the sequence %#x", rows, cols, got, next)
		}
		full := XavierMatrix(rows, cols, NewRNG(seed))
		block := New(br, bc)
		for i := 0; i < br; i++ {
			XavierFill(block.Data[i*bc:(i+1)*bc], rows, cols, &at, (r0+i)*cols+c0)
		}
		cut := want.SubMatrix(r0, c0, br, bc)
		for i := range want.Data {
			if math.Float64bits(full.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("[%d, %d] element %d: XavierMatrix %v, the serial stream %v", rows, cols, i, full.Data[i], want.Data[i])
			}
		}
		for i := range cut.Data {
			if math.Float64bits(block.Data[i]) != math.Float64bits(cut.Data[i]) {
				t.Fatalf("[%d, %d] block [%d, %d] at (%d, %d) element %d: %v, want %v", rows, cols, br, bc, r0, c0, i, block.Data[i], cut.Data[i])
			}
		}
		if at != *NewRNG(seed) {
			t.Fatal("XavierFill moved the state it drew from")
		}
	})
}
