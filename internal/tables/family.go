package tables

import (
	"fmt"
	"strings"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// FamilyParity is one row of the cross-family study: a scheme run through
// the shared parallel.Family interface on real data, compared element-wise
// against the serial reference layer.
type FamilyParity struct {
	// Layout is the family arrangement that was run.
	Layout parallel.Layout
	// MaxDiffY and MaxDiffDx are the largest absolute deviations of the
	// collected forward output and input gradient from the serial
	// reference.
	MaxDiffY, MaxDiffDx float64
	// SimSeconds is the simulated wall clock of the forward+backward pass.
	SimSeconds float64
	// Bytes is the simulated network traffic.
	Bytes int64
}

// FamilyParityStudy runs one real-data Transformer layer under every
// family layout through the single parallel.Family interface — the same
// generic runner path the tables use — and reports each scheme's deviation
// from the serial reference plus its simulated cost. It is the §4
// interchangeability claim as a regenerable artifact: same math, four
// layouts, one interface.
func FamilyParityStudy(layouts []parallel.Layout) ([]FamilyParity, error) {
	const (
		hidden, heads, seqLen, batch = 16, 4, 4, 8
		seed                         = 123
	)
	dataRng := tensor.NewRNG(55)
	x := tensor.RandomMatrix(batch*seqLen, hidden, dataRng)
	dy := tensor.RandomMatrix(batch*seqLen, hidden, dataRng)
	ref := nn.NewBlock(hidden, heads, seqLen, tensor.NewRNG(seed))
	wantY := ref.Forward(x)
	wantDx := ref.Backward(dy)

	var out []FamilyParity
	for _, raw := range layouts {
		l, err := parallel.Validate(raw)
		if err != nil {
			return nil, err
		}
		c := dist.New(dist.Config{WorldSize: l.Ranks})
		var gotY, gotDx *tensor.Matrix
		err = c.Run(func(w *dist.Worker) error {
			f, err := parallel.New(w, l)
			if err != nil {
				return err
			}
			blk := f.NewBlock(hidden, heads, seqLen, tensor.NewRNG(seed))
			y := blk.Forward(f.Distribute(x))
			dx := blk.Backward(f.Distribute(dy))
			f.DrainGradients()
			fy, fdx := f.Collect(y), f.Collect(dx)
			if w.Rank() == 0 {
				gotY, gotDx = fy, fdx
			}
			return nil
		})
		c.Close()
		if err != nil {
			return nil, fmt.Errorf("tables: family study %s: %w", l, err)
		}
		out = append(out, FamilyParity{
			Layout:     l,
			MaxDiffY:   gotY.MaxAbsDiff(wantY),
			MaxDiffDx:  gotDx.MaxAbsDiff(wantDx),
			SimSeconds: c.MaxClock(),
			Bytes:      c.Stats().Bytes,
		})
	}
	return out, nil
}

// DefaultFamilyLayouts are the four schemes on the small comparable
// arrangements the parity study runs by default.
func DefaultFamilyLayouts() []parallel.Layout {
	return []parallel.Layout{
		{Family: "megatron", Ranks: 4},
		{Family: "optimus", Q: 2},
		{Family: "tesseract", Q: 2, D: 2},
		{Family: "seqpar", Ranks: 4},
	}
}

// FormatFamilyParity renders the cross-family study.
func FormatFamilyParity(points []FamilyParity) string {
	var b strings.Builder
	b.WriteString("Cross-family parity: one Transformer layer, one parallel.Family interface\n")
	fmt.Fprintf(&b, "%-20s %6s | %12s %12s | %12s %10s\n",
		"layout", "#GPUs", "max|Δy|", "max|Δdx|", "sim time", "traffic")
	for _, p := range points {
		fmt.Fprintf(&b, "%-20s %6d | %12.3g %12.3g | %10.3gs %8.1fKB\n",
			p.Layout, p.Layout.Ranks, p.MaxDiffY, p.MaxDiffDx, p.SimSeconds, float64(p.Bytes)/1e3)
	}
	return b.String()
}
