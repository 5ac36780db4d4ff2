// Package vit implements the Vision Transformer experiment of §4.3 /
// Figure 7: a ViT trained serially and under Tesseract [2,2,1] and [2,2,2],
// demonstrating that the parallelisation changes nothing about convergence.
//
// The paper trains on ImageNet-100; that dataset is not available here, so
// (per the reproduction rules) we substitute a synthetic 100-class image
// dataset: every class has a smooth random prototype image and samples are
// prototype + pixel noise. The task is learnable by a small ViT in a few
// epochs and exercises exactly the code path under study — patch embedding,
// Transformer encoder, classification head, cross-entropy and Adam, all
// distributed with Tesseract. Figure 7's claim is about the *equality of
// curves* across parallelisation settings, which the substitution preserves.
package vit

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// DataConfig describes the synthetic image dataset.
type DataConfig struct {
	Classes   int // number of classes (100 for the Figure 7 scale)
	ImageSize int // square image side in pixels
	Channels  int // colour channels
	PatchSize int // square patch side; must divide ImageSize
	Train     int // training samples per class
	Test      int // test samples per class
	Noise     float64
	Seed      uint64
}

func (c DataConfig) withDefaults() DataConfig {
	if c.Classes == 0 {
		c.Classes = 100
	}
	if c.ImageSize == 0 {
		c.ImageSize = 32
	}
	if c.Channels == 0 {
		c.Channels = 3
	}
	if c.PatchSize == 0 {
		c.PatchSize = 4
	}
	if c.Train == 0 {
		c.Train = 20
	}
	if c.Test == 0 {
		c.Test = 5
	}
	if c.Noise == 0 {
		c.Noise = 0.8
	}
	if c.Seed == 0 {
		c.Seed = 2022
	}
	return c
}

// Check reports what NewDataset cannot build from c: a negative count or
// size (zero means the default) or a patch that does not tile the image.
func (c DataConfig) Check() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"class count", c.Classes},
		{"image size", c.ImageSize},
		{"channel count", c.Channels},
		{"patch size", c.PatchSize},
		{"training samples per class", c.Train},
		{"test samples per class", c.Test},
	} {
		if f.v < 0 {
			return fmt.Errorf("vit: %s %d: want 1 or more (0 means the default)", f.name, f.v)
		}
	}
	if d := c.withDefaults(); d.ImageSize%d.PatchSize != 0 {
		return fmt.Errorf("vit: patch %d does not divide image %d", d.PatchSize, d.ImageSize)
	}
	return nil
}

// Patches returns the number of patches per image (the sequence length s)
// of the samples NewDataset builds from c, defaults applied.
func (c DataConfig) Patches() int {
	c = c.withDefaults()
	side := c.ImageSize / c.PatchSize
	return side * side
}

// PatchDim returns the flattened patch width (the ViT input width) of the
// samples NewDataset builds from c, defaults applied.
func (c DataConfig) PatchDim() int {
	c = c.withDefaults()
	return c.PatchSize * c.PatchSize * c.Channels
}

// Sample is one image, already cut into flattened patches.
type Sample struct {
	// Patches has shape [s, patchDim].
	Patches *tensor.Matrix
	Label   int
}

// Dataset is a fixed, deterministic synthetic image classification set.
type Dataset struct {
	Config      DataConfig
	Train, Test []Sample
}

// NewDataset generates the dataset deterministically from the seed. It
// panics on a configuration Check rejects.
func NewDataset(cfg DataConfig) *Dataset {
	if err := cfg.Check(); err != nil {
		panic(err.Error())
	}
	cfg = cfg.withDefaults()
	rng := tensor.NewRNG(cfg.Seed)
	pixels := cfg.ImageSize * cfg.ImageSize * cfg.Channels

	// Class prototypes: low-frequency random patterns so classes are
	// separable but overlapping under noise.
	protos := make([]*tensor.Matrix, cfg.Classes)
	for c := range protos {
		protos[c] = smoothPattern(cfg, rng)
	}

	ds := &Dataset{Config: cfg}
	gen := func(n int) []Sample {
		out := make([]Sample, 0, n*cfg.Classes)
		for c := 0; c < cfg.Classes; c++ {
			for i := 0; i < n; i++ {
				img := protos[c].Clone()
				for j := 0; j < pixels; j++ {
					img.Data[j] += cfg.Noise * rng.Normal()
				}
				out = append(out, Sample{Patches: toPatches(cfg, img), Label: c})
			}
		}
		return out
	}
	ds.Train = gen(cfg.Train)
	ds.Test = gen(cfg.Test)
	return ds
}

// smoothPattern builds a [1, pixels] low-frequency image.
func smoothPattern(cfg DataConfig, rng *tensor.RNG) *tensor.Matrix {
	n := cfg.ImageSize
	img := tensor.New(1, n*n*cfg.Channels)
	// A few random 2-D cosine modes per channel.
	for ch := 0; ch < cfg.Channels; ch++ {
		fx := 1 + rng.Intn(3)
		fy := 1 + rng.Intn(3)
		px := rng.Float64() * 2 * math.Pi
		py := rng.Float64() * 2 * math.Pi
		amp := 0.5 + rng.Float64()
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				v := amp * math.Cos(float64(fx)*float64(x)/float64(n)*2*math.Pi+px) *
					math.Cos(float64(fy)*float64(y)/float64(n)*2*math.Pi+py)
				img.Data[(y*n+x)*cfg.Channels+ch] = v
			}
		}
	}
	return img
}

// toPatches cuts a flat image into [s, patchDim] row-major patches.
func toPatches(cfg DataConfig, img *tensor.Matrix) *tensor.Matrix {
	n, ps, ch := cfg.ImageSize, cfg.PatchSize, cfg.Channels
	side := n / ps
	out := tensor.New(side*side, cfg.PatchDim())
	for py := 0; py < side; py++ {
		for px := 0; px < side; px++ {
			row := py*side + px
			idx := 0
			for y := py * ps; y < (py+1)*ps; y++ {
				for x := px * ps; x < (px+1)*ps; x++ {
					for c := 0; c < ch; c++ {
						out.Set(row, idx, img.Data[(y*n+x)*ch+c])
						idx++
					}
				}
			}
		}
	}
	return out
}

// Batch assembles samples idx into a token matrix [len(idx)·s, patchDim]
// plus labels, the layout the ViT forward pass consumes.
func (d *Dataset) Batch(samples []Sample, idx []int) (*tensor.Matrix, []int) {
	return d.batchInto(nil, nil, samples, idx)
}

// batchInto is Batch into the buffers of an earlier batch of the same size,
// or into fresh ones when x is nil.
func (d *Dataset) batchInto(x *tensor.Matrix, labels []int, samples []Sample, idx []int) (*tensor.Matrix, []int) {
	s := d.Config.Patches()
	if x == nil {
		x, labels = tensor.New(len(idx)*s, d.Config.PatchDim()), make([]int, len(idx))
	}
	for i, j := range idx {
		x.SetSubMatrix(i*s, 0, samples[j].Patches)
		labels[i] = samples[j].Label
	}
	return x, labels
}
