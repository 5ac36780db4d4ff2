package vit

import (
	"errors"
	"math"
	"testing"

	"repro/internal/parallel"
)

// TestCheckpointCorruptionDetected pins the integrity satellite: flip one
// mantissa bit in a collected checkpoint and the restore path must refuse
// it with ErrCheckpointCorrupt instead of silently training from garbage.
func TestCheckpointCorruptionDetected(t *testing.T) {
	ds, mcfg := tinyData()
	tc := elasticTC()
	sb, err := NewStepBencher(parallel.Layout{Family: "tesseract", Q: 2, D: 2}, ds, mcfg, tc, 1)
	if err != nil {
		t.Fatalf("NewStepBencher: %v", err)
	}
	cks := make([]*parallel.Checkpoint, 8)
	if err := sb.StepsCheckpointed(1, cks); err != nil {
		t.Fatalf("StepsCheckpointed: %v", err)
	}
	ck := cks[0]
	if err := ck.Verify(); err != nil {
		t.Fatalf("fresh checkpoint fails verification: %v", err)
	}

	// One flipped low mantissa bit in one weight of one slot.
	slot := len(ck.Slots) / 2
	row := ck.Slots[slot].Value.Row(0)
	orig := row[0]
	row[0] = math.Float64frombits(math.Float64bits(orig) ^ 1)
	if err := ck.Verify(); !errors.Is(err, parallel.ErrCheckpointCorrupt) {
		t.Fatalf("Verify missed the bit flip: %v", err)
	}

	// Repairing the bit clears the verdict (the clean restore round-trip
	// itself is pinned by TestRestoreBitwise).
	row[0] = orig
	if err := ck.Verify(); err != nil {
		t.Fatalf("repaired checkpoint fails verification: %v", err)
	}

	// Moment corruption is caught too, and a hand-built slot (Sum == 0)
	// is exempt from verification.
	mrow := ck.Slots[0].M.Row(0)
	morig := mrow[0]
	mrow[0] = math.Float64frombits(math.Float64bits(morig) ^ 1)
	if err := ck.Verify(); !errors.Is(err, parallel.ErrCheckpointCorrupt) {
		t.Fatalf("Verify missed the moment corruption: %v", err)
	}
	mrow[0] = morig
	ck.Slots[0].Sum = 0
	if err := ck.Verify(); err != nil {
		t.Fatalf("Verify checked a checksum-less slot: %v", err)
	}

	// Restore refuses the corrupt snapshot. Last, because the holder's error
	// aborts the simulated cluster like a real node loss would.
	row[0] = math.Float64frombits(math.Float64bits(orig) ^ 1)
	if err := sb.Restore(cks); !errors.Is(err, parallel.ErrCheckpointCorrupt) {
		t.Fatalf("Restore accepted a corrupt checkpoint: %v", err)
	}
}
