package vit

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// DistModel is the distributed ViT over any tensor-parallel family: the
// one parallel.Model the trainer, the server and every replay run, here
// with the patch embedding and the classification head.
type DistModel = parallel.Model

// NewDistModel draws parameters from the same stream as NewModel, so the
// distributed weights shard (or replicate) the serial model's weights
// exactly, whatever the family.
func NewDistModel(f parallel.Family, cfg ModelConfig) *DistModel {
	return parallel.NewModel(f, cfg.PatchDim, cfg.SeqLen, cfg.Hidden, cfg.Heads, cfg.Layers, cfg.Classes,
		cfg.Positional(), tensor.NewRNG(cfg.Seed))
}

// DistributeBatch slices a global token matrix [b·s, patchDim] into this
// processor's block. Whole sequences land on one processor, which requires
// b to divide by the family's row-shard count (d·q for Tesseract, 1 for
// replicated-activation families). Callers validate the batch first
// (TrainableErr is the error a user sees); the panic guards the invariant.
func DistributeBatch(f parallel.Family, x *tensor.Matrix, s int) *tensor.Matrix {
	b := x.Rows / s
	if b%f.RowShards() != 0 {
		panic(fmt.Sprintf("vit: DistributeBatch: %d sequences do not split over the %s family's %d row shards",
			b, f.Layout().Family, f.RowShards()))
	}
	return f.Distribute(x)
}
