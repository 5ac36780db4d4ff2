package vit

import (
	"math"

	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// ModelConfig describes the Vision Transformer architecture.
type ModelConfig struct {
	PatchDim int // flattened patch width (input)
	SeqLen   int // patches per image
	Hidden   int
	Heads    int
	Layers   int
	Classes  int
	Seed     uint64
}

// Positional returns the fixed sinusoidal positional encoding [SeqLen,
// Hidden]. It is deterministic (not learned), so the serial and distributed
// models share it exactly and it needs no gradient synchronisation.
func (c ModelConfig) Positional() *tensor.Matrix {
	p := tensor.New(c.SeqLen, c.Hidden)
	for pos := 0; pos < c.SeqLen; pos++ {
		for i := 0; i < c.Hidden; i++ {
			angle := float64(pos) / math.Pow(10000, float64(2*(i/2))/float64(c.Hidden))
			if i%2 == 0 {
				p.Set(pos, i, math.Sin(angle))
			} else {
				p.Set(pos, i, math.Cos(angle))
			}
		}
	}
	return p
}

// Model is the serial reference ViT: patch-embedding linear, sinusoidal
// positions, a stack of Transformer blocks, mean pooling over patches and a
// linear classification head.
type Model struct {
	Config ModelConfig

	Embed  *nn.Linear
	Pos    *tensor.Matrix
	Blocks []*nn.Block
	Head   *nn.Linear

	batch  int
	pooled *tensor.Matrix
}

// NewModel draws parameters from a SplitMix64 stream seeded with
// Config.Seed, in the fixed order Embed, Blocks..., Head — the distributed
// constructor consumes the identical stream.
func NewModel(cfg ModelConfig) *Model {
	rng := tensor.NewRNG(cfg.Seed)
	m := &Model{Config: cfg, Pos: cfg.Positional()}
	m.Embed = nn.NewLinear(cfg.PatchDim, cfg.Hidden, nn.ActNone, true, rng)
	for i := 0; i < cfg.Layers; i++ {
		m.Blocks = append(m.Blocks, nn.NewBlock(cfg.Hidden, cfg.Heads, cfg.SeqLen, rng))
	}
	m.Head = nn.NewLinear(cfg.Hidden, cfg.Classes, nn.ActNone, true, rng)
	return m
}

// Params returns all trainable parameters.
func (m *Model) Params() []*nn.Param {
	out := m.Embed.Params()
	for _, b := range m.Blocks {
		out = append(out, b.Params()...)
	}
	return append(out, m.Head.Params()...)
}

// Forward maps patch tokens [b·s, patchDim] to logits [b, classes].
func (m *Model) Forward(x *tensor.Matrix) *tensor.Matrix {
	s := m.Config.SeqLen
	m.batch = x.Rows / s
	h := m.Embed.Forward(x)
	h = addPositional(h, m.Pos)
	for _, b := range m.Blocks {
		h = b.Forward(h)
	}
	m.pooled = meanPool(h, s)
	return m.Head.Forward(m.pooled)
}

// Backward takes dLogits [b, classes] and propagates to the parameters.
func (m *Model) Backward(dlogits *tensor.Matrix) {
	dpooled := m.Head.Backward(dlogits)
	dh := meanPoolBackward(dpooled, m.Config.SeqLen)
	for i := len(m.Blocks) - 1; i >= 0; i-- {
		dh = m.Blocks[i].Backward(dh)
	}
	m.Embed.Backward(dh) // positional encoding is fixed: gradient passes through
}

// addPositional adds pos (s×h) to every sequence of rows.
func addPositional(h, pos *tensor.Matrix) *tensor.Matrix {
	s := pos.Rows
	out := h.Clone()
	for r := 0; r < h.Rows; r++ {
		prow := pos.Row(r % s)
		orow := out.Row(r)
		for j := range orow {
			orow[j] += prow[j]
		}
	}
	return out
}

// meanPool averages each sequence's s token rows into one row.
func meanPool(h *tensor.Matrix, s int) *tensor.Matrix {
	out := tensor.New(h.Rows/s, h.Cols)
	parallel.MeanPoolInto(out, h, s)
	return out
}

// meanPoolBackward spreads each pooled gradient row back over its s tokens.
func meanPoolBackward(dpooled *tensor.Matrix, s int) *tensor.Matrix {
	out := tensor.New(dpooled.Rows*s, dpooled.Cols)
	parallel.MeanPoolBackwardInto(out, dpooled, s)
	return out
}
