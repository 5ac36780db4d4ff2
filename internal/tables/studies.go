package tables

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cannon"
	"repro/internal/claims"
	"repro/internal/dist"
	"repro/internal/megatron"
	"repro/internal/mesh"
	"repro/internal/nn"
	"repro/internal/solomonik"
	"repro/internal/summa"
	"repro/internal/tensor"
)

// AblationPoint is one depth setting in the depth-sweep ablation.
type AblationPoint struct {
	// Q and D are the mesh dimensions of the point ([q, q, d]).
	Q, D int
	// GPUs is the resulting processor count q²·d.
	GPUs int
	// Result carries the measured timing columns.
	Result
}

// DepthAblation sweeps the Tesseract depth at fixed q for the Table 1
// problem (batch 16, hidden 3072, 64 heads), isolating the paper's central
// trade: deeper meshes shrink the SUMMA panels broadcast inside each layer
// at the cost of the (rare) depth all-reduce. The depths replay concurrently
// (replayEach); points come back in the order of depths.
func DepthAblation(q int, depths []int, opts Options) ([]AblationPoint, error) {
	return replayEach(len(depths), func(i int) (AblationPoint, error) {
		d := depths[i]
		row := Row{Scheme: Tesseract, GPUs: q * q * d, Q: q, D: d, Batch: 16, Hidden: 3072, Heads: 64}
		res, err := RunRow(row, opts)
		return AblationPoint{Q: q, D: d, GPUs: row.GPUs, Result: res}, err
	})
}

// FormatAblation renders a depth sweep.
func FormatAblation(points []AblationPoint) string {
	var b strings.Builder
	b.WriteString("Depth ablation (strong scaling problem, hidden 3072, batch 16)\n")
	fmt.Fprintf(&b, "%-10s %5s | %9s %9s %10s\n", "shape", "#GPUs", "fwd(s)", "bwd(s)", "thru(seq/s)")
	for _, p := range points {
		fmt.Fprintf(&b, "[%d,%d,%d]    %5d | %9.4f %9.4f %10.4f\n", p.Q, p.Q, p.D, p.GPUs, p.Forward, p.Backward, p.Throughput)
	}
	return b.String()
}

// MemoryPoint compares per-GPU memory for a single [a,b]·[b,c] multiply.
type MemoryPoint struct {
	// Label names the arrangement, e.g. "Tesseract [4,4,2]".
	Label string
	// GPUs is the processor count of the arrangement.
	GPUs int
	// FormulaElems is the Eq. 7-10 element count per processor.
	FormulaElems float64
	// MeasuredElems is what a rank of the phantom run holds across the
	// multiply — its two operand blocks and the result — which is what
	// Eq. 8/10 count.
	MeasuredElems int
	// PeakElems is the most the rank held at once: the operands plus the
	// workspace high-water, which adds the transients the equations leave
	// out (SUMMA's double-buffered receive panels).
	PeakElems int
}

// MemoryStudy evaluates Eqs. 7-10 and checks them against a run: each
// arrangement's one multiply in phantom mode — summa.MulAB on the mesh for
// Tesseract (A block · B block), Megatron-LM's column-parallel product
// (replicated input · weight shard) — measuring, on the heaviest rank, the
// matrices it holds (operands x and wt plus the result y) and the peak its
// workspace reached on top of the operands.
func MemoryStudy(a, b, c int) ([]MemoryPoint, error) {
	var out []MemoryPoint
	run := func(pt MemoryPoint, divides bool, mul func(w *dist.Worker) (x, wt, y *tensor.Matrix)) error {
		if !divides {
			return fmt.Errorf("tables: memory study: [%d,%d]x[%d,%d] does not divide over %s", a, b, b, c, pt.Label)
		}
		held, peaks := make([]int, pt.GPUs), make([]int, pt.GPUs)
		err := dist.New(dist.Config{WorldSize: pt.GPUs}).Run(func(w *dist.Worker) error {
			x, wt, y := mul(w)
			operands := x.Size() + wt.Size()
			held[w.Rank()] = operands + y.Size()
			peaks[w.Rank()] = operands + int(w.Workspace().Stats().HighWaterBytes/8)
			return nil
		})
		if err != nil {
			return err
		}
		pt.MeasuredElems, pt.PeakElems = slices.Max(held), slices.Max(peaks)
		out = append(out, pt)
		return nil
	}
	for _, cfg := range []struct{ q, d int }{{2, 1}, {2, 2}, {4, 2}, {4, 4}} {
		shape := mesh.Shape{Q: cfg.q, D: cfg.d}
		err := run(MemoryPoint{
			Label:        fmt.Sprintf("Tesseract [%d,%d,%d]", cfg.q, cfg.q, cfg.d),
			GPUs:         shape.Size(),
			FormulaElems: claims.MemoryTesseract(float64(a), float64(b), float64(c), float64(cfg.q), float64(cfg.d)),
		}, a%(cfg.d*cfg.q) == 0 && b%cfg.q == 0 && c%cfg.q == 0, func(w *dist.Worker) (x, wt, y *tensor.Matrix) {
			p := mesh.NewProc(w, shape)
			x = summa.DistributeA(p, tensor.NewPhantom(a, b))
			wt = summa.DistributeB(p, tensor.NewPhantom(b, c))
			return x, wt, summa.MulAB(p, x, wt)
		})
		if err != nil {
			return nil, err
		}
	}
	for _, p := range []int{4, 8, 32, 64} {
		err := run(MemoryPoint{
			Label:        fmt.Sprintf("Megatron-LM [%d]", p),
			GPUs:         p,
			FormulaElems: claims.MemoryMegatron(float64(a), float64(b), float64(c), float64(p)),
		}, c%p == 0, func(w *dist.Worker) (x, wt, y *tensor.Matrix) {
			mp := megatron.NewProcAt(w, p, 0)
			l := megatron.NewColLinear(mp, b, c, nn.ActNone, false, nil)
			x = tensor.NewPhantom(a, b)
			return x, l.W.Value, l.Forward(x)
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// FormatMemory renders the memory study.
func FormatMemory(a, b, c int, points []MemoryPoint) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Per-GPU memory for one [%d,%d]x[%d,%d] multiply (Eqs. 7-10), in elements\n", a, b, b, c)
	fmt.Fprintf(&sb, "%-22s %5s %14s %14s %14s\n", "arrangement", "#GPUs", "formula", "measured", "peak")
	for _, p := range points {
		fmt.Fprintf(&sb, "%-22s %5d %14.0f %14d %14d\n", p.Label, p.GPUs, p.FormulaElems, p.MeasuredElems, p.PeakElems)
	}
	return sb.String()
}

// TransmissionPoint compares the paper's closed-form transfer counts with
// the block-message counts our implementations actually generate for one
// matrix multiplication at p = 64.
type TransmissionPoint struct {
	// Algorithm names the scheme and its arrangement.
	Algorithm string
	// Formula is the paper's closed-form transfer count.
	Formula float64
	// MeasuredBlocks counts the pairwise block transfers our
	// implementation generated.
	MeasuredBlocks int64
	// RatioToTesseract is Formula divided by Tesseract's formula count.
	RatioToTesseract float64
}

// TransmissionStudy reproduces the §1 claim (Cannon 31.5×, 2.5-D 3.75× the
// communication of Tesseract at 64 GPUs). The formula column uses the
// paper's expressions; the measured column counts every pairwise block
// transfer in our implementations (broadcast/reduce over n ranks = n−1
// transfers, all-reduce = 2(n−1)), which uses a finer-grained convention
// than the paper's per-operation count and is reported for transparency.
func TransmissionStudy() ([]TransmissionPoint, error) {
	const p = 64

	countMessages := func(shape mesh.Shape, run func(pr *mesh.Proc) error) (int64, error) {
		c := dist.New(dist.Config{WorldSize: shape.Size()})
		if err := c.Run(func(w *dist.Worker) error {
			return run(mesh.NewProc(w, shape))
		}); err != nil {
			return 0, err
		}
		return c.Stats().Messages, nil
	}

	cannonCount, err := countMessages(mesh.Shape{Q: 8, D: 1}, func(pr *mesh.Proc) error {
		cannon.MulAB(pr, tensor.NewPhantom(8, 8), tensor.NewPhantom(8, 8))
		return nil
	})
	if err != nil {
		return nil, err
	}
	soloCount, err := countMessages(mesh.Shape{Q: 4, D: 4}, func(pr *mesh.Proc) error {
		solomonik.MulAB(pr, tensor.NewPhantom(8, 8), tensor.NewPhantom(8, 8))
		return nil
	})
	if err != nil {
		return nil, err
	}
	tessCount, err := countMessages(mesh.Shape{Q: 4, D: 4}, func(pr *mesh.Proc) error {
		summa.MulAB(pr, tensor.NewPhantom(4, 8), tensor.NewPhantom(8, 8))
		return nil
	})
	if err != nil {
		return nil, err
	}

	tess := claims.TesseractTransfers(p)
	return []TransmissionPoint{
		{"Cannon [8,8]", claims.CannonTransfers(p), cannonCount, claims.CannonTransfers(p) / tess},
		{"2.5-D [4,4,4]", claims.Solomonik25DTransfers(p), soloCount, claims.Solomonik25DTransfers(p) / tess},
		{"Tesseract [4,4,4]", tess, tessCount, 1},
	}, nil
}

// FormatTransmissions renders the transmission study.
func FormatTransmissions(points []TransmissionPoint) string {
	var b strings.Builder
	b.WriteString("Inter-GPU transfers for one matmul at p = 64 (paper §1/§3.1)\n")
	fmt.Fprintf(&b, "%-18s %14s %16s %18s\n", "algorithm", "paper formula", "measured blocks", "formula/Tesseract")
	for _, p := range points {
		fmt.Fprintf(&b, "%-18s %14.1f %16d %18.2f\n", p.Algorithm, p.Formula, p.MeasuredBlocks, p.RatioToTesseract)
	}
	return b.String()
}
