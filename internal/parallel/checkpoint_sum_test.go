package parallel

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// TestSlotSumDetectsEveryWord pins what the word-wise digest must still do
// now that it no longer walks bytes: any single changed bit — in any lane,
// in the tail past the last group of four, in any of the three tensors, low
// mantissa bit or sign bit — changes the digest, two sign flips on one lane
// do not cancel, and the same floats under another shape hash differently.
func TestSlotSumDetectsEveryWord(t *testing.T) {
	rng := tensor.NewRNG(7)
	e := CheckpointSlot{
		Value: tensor.RandomMatrix(3, 7, rng), // 21 elements: five groups of four and a tail of one
		M:     tensor.RandomMatrix(3, 7, rng),
		V:     tensor.RandomMatrix(3, 7, rng),
	}
	want := e.sum()
	if want == 0 {
		t.Fatal("a digest of 0 means \"no checksum\"")
	}
	flip := func(m *tensor.Matrix, i int, bit uint) {
		m.Data[i] = math.Float64frombits(math.Float64bits(m.Data[i]) ^ 1<<bit)
	}
	for name, m := range map[string]*tensor.Matrix{"Value": e.Value, "M": e.M, "V": e.V} {
		for i := range m.Data {
			for _, bit := range []uint{0, 31, 52, 63} {
				flip(m, i, bit)
				if e.sum() == want {
					t.Fatalf("%s[%d] bit %d flipped, digest unchanged", name, i, bit)
				}
				flip(m, i, bit)
			}
		}
		// Elements 1 and 5 share a lane.
		flip(m, 1, 63)
		flip(m, 5, 63)
		if e.sum() == want {
			t.Fatalf("%s: two sign flips on one lane cancel", name)
		}
		flip(m, 1, 63)
		flip(m, 5, 63)
	}
	if e.sum() != want {
		t.Fatal("restored slot does not hash to the original digest")
	}

	// A reshaped buffer: same 21 floats, 7×3 instead of 3×7.
	e.Value.Rows, e.Value.Cols = 7, 3
	if e.sum() == want {
		t.Fatal("reshaped Value hashes like the original")
	}
}
