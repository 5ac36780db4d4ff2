package plan

import (
	"testing"

	"repro/internal/parallel"
)

// TestSoloExactIsAFunctionOfPlacement: which cluster prices a layout depends
// on the layout and the node size alone. Both sides are held to the
// measurement by tables.TestEveryPredictionEqualsItsMeasurement.
func TestSoloExactIsAFunctionOfPlacement(t *testing.T) {
	for _, tc := range []struct {
		l    parallel.Layout
		gpn  int
		solo bool
	}{
		{parallel.Layout{Family: "megatron", Ranks: 64}, 4, true},
		{parallel.Layout{Family: "seqpar", Ranks: 6}, 4, true},
		{parallel.Layout{Family: "tesseract", Q: 4, D: 4, Ranks: 64}, 4, true},
		{parallel.Layout{Family: "tesseract", Q: 2, D: 2, Ranks: 8}, 4, true},
		{parallel.Layout{Family: "optimus", Q: 6, D: 1, Ranks: 36}, 4, true},
		{parallel.Layout{Family: "optimus", Q: 3, D: 1, Ranks: 9}, 4, false},
		{parallel.Layout{Family: "tesseract", Q: 3, D: 3, Ranks: 27}, 4, false},
		{parallel.Layout{Family: "tesseract", Q: 3, D: 3, Ranks: 27}, 9, true},
		{parallel.Layout{Family: "optimus", Q: 6, D: 1, Ranks: 36}, 8, false},
	} {
		if got := soloExact(tc.l, tc.gpn); got != tc.solo {
			t.Errorf("%s at %d GPUs per node: solo = %v, want %v", tc.l, tc.gpn, got, tc.solo)
		}
	}
}
