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
