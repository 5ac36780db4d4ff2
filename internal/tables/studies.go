package tables

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cannon"
	"repro/internal/dist"
	"repro/internal/megatron"
	"repro/internal/mesh"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/solomonik"
	"repro/internal/summa"
	"repro/internal/tensor"
	"repro/internal/tesseract"
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
// (parallel.ReplayEach); points come back in the order of depths.
func DepthAblation(q int, depths []int, opts Options) ([]AblationPoint, error) {
	return parallel.ReplayEach(len(depths), func(i int) (AblationPoint, error) {
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
// arrangement's one multiply in phantom mode — a Tesseract linear on the
// mesh (A block · B block), Megatron-LM's column-parallel product
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
		c := dist.New(dist.Config{WorldSize: pt.GPUs})
		err := c.Run(func(w *dist.Worker) error {
			x, wt, y := mul(w)
			operands := x.Size() + wt.Size()
			held[w.Rank()] = operands + y.Size()
			peaks[w.Rank()] = operands + int(w.Workspace().Stats().HighWaterBytes/8)
			return nil
		})
		c.Close()
		if err != nil {
			return err
		}
		pt.MeasuredElems, pt.PeakElems = slices.Max(held), slices.Max(peaks)
		out = append(out, pt)
		return nil
	}
	for _, cfg := range []struct{ q, d int }{{2, 1}, {2, 2}, {4, 2}, {4, 4}} {
		l := parallel.Layout{Family: "tesseract", Q: cfg.q, D: cfg.d, Ranks: cfg.q * cfg.q * cfg.d}
		err := run(MemoryPoint{
			Label:        fmt.Sprintf("Tesseract [%d,%d,%d]", cfg.q, cfg.q, cfg.d),
			GPUs:         l.Ranks,
			FormulaElems: memoryTesseract(float64(a), float64(b), float64(c), float64(cfg.q), float64(cfg.d)),
		}, a%(cfg.d*cfg.q) == 0 && b%cfg.q == 0 && c%cfg.q == 0, func(w *dist.Worker) (x, wt, y *tensor.Matrix) {
			f := tesseract.NewFamily(w, l)
			lin := f.NewLinear(b, c, nn.ActNone, false, nil)
			s := f.Slice(a, b)
			x = tensor.NewPhantom(s.Rows, s.Cols)
			return x, lin.Params()[0].Value, lin.Forward(x)
		})
		if err != nil {
			return nil, err
		}
	}
	for _, p := range []int{4, 8, 32, 64} {
		err := run(MemoryPoint{
			Label:        fmt.Sprintf("Megatron-LM [%d]", p),
			GPUs:         p,
			FormulaElems: memoryMegatron(float64(a), float64(b), float64(c), float64(p)),
		}, c%p == 0, func(w *dist.Worker) (x, wt, y *tensor.Matrix) {
			mp := megatron.NewProc(w, p)
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

// memoryTesseract is Eq. 8: per-GPU elements for one [a,b]·[b,c] multiply on
// p = d·q² processors, ab/p + bcd/p + ac/p.
func memoryTesseract(a, b, c, q, d float64) float64 {
	p := d * q * q
	return a*b/p + b*c*d/p + a*c/p
}

// memoryMegatron is Eq. 10: a replicated input plus 1/p of the weight and
// the output, ab + bc/p + ac/p.
func memoryMegatron(a, b, c, p float64) float64 {
	return a*b + b*c/p + a*c/p
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

// transmissionN is the side of the one square multiply every algorithm runs.
const transmissionN = 4096

// TransmissionPoint is one algorithm's measured communication for the
// study's multiply, beside the paper's count.
type TransmissionPoint struct {
	// Algorithm names the scheme and its arrangement.
	Algorithm string
	// D is the arrangement's depth (1 for Cannon).
	D int
	// Paper is the paper's §3.1 transfer count at p = 64.
	Paper int
	// Messages counts block messages in dist.OpStats' convention: a
	// broadcast over n ranks is n−1, an all-reduce 2(n−1).
	Messages int64
	// Rounds counts collective calls, one per group call (Σ OpStats.Calls).
	Rounds int64
	// Bytes is the payload those messages moved.
	Bytes int64
	// Seconds is the multiply's simulated time, compute included (MaxClock).
	Seconds float64
	// PaperRatio, ByteRatio and SecondRatio divide Paper, Bytes and Seconds
	// by Tesseract's.
	PaperRatio, ByteRatio, SecondRatio float64
	// PaperUnit names the measured count equal to Paper ("" if none).
	PaperUnit string
}

// TransmissionStudy tests the §1 claim — at p = 64 Cannon needs 31.5× and
// 2.5-D 3.75× the communication of Tesseract — by running Cannon [8,8], 2.5-D
// [4,4,4] and Tesseract [4,4,4] on one phantom
// [4096,4096]·[4096,4096] multiply and reading every number off that run's
// dist.Stats and MaxClock. The paper's counts are kept beside the
// measurement, each with the measured unit it equals, if any.
func TransmissionStudy() ([]TransmissionPoint, error) {
	const n = transmissionN
	var points []TransmissionPoint
	for _, alg := range []struct {
		name  string
		shape mesh.Shape
		paper int
		mul   func(pr *mesh.Proc)
	}{
		// The paper's §3.1 counts at p = 64 are 2p^{3/2} − 2p^{1/2}, 2p −
		// 2p^{1/3} and 2p^{2/3}, whose quotients are §1's 31.5× and 3.75×.
		// Cannon and 2.5-D hold square [n/q, n/q] blocks of A and B (2.5-D's
		// deeper layers receive theirs); Tesseract holds an [n/(dq), n/q]
		// block of A and an [n/q, n/q] block of B.
		{"Cannon [8,8]", mesh.Shape{Q: 8, D: 1}, 1008, func(pr *mesh.Proc) {
			cannon.MulAB(pr, tensor.NewPhantom(n/8, n/8), tensor.NewPhantom(n/8, n/8))
		}},
		{"2.5-D [4,4,4]", mesh.Shape{Q: 4, D: 4}, 120, func(pr *mesh.Proc) {
			solomonik.MulAB(pr, tensor.NewPhantom(n/4, n/4), tensor.NewPhantom(n/4, n/4))
		}},
		{"Tesseract [4,4,4]", mesh.Shape{Q: 4, D: 4}, 32, func(pr *mesh.Proc) {
			summa.MulAB(pr, tensor.NewPhantom(n/16, n/4), tensor.NewPhantom(n/4, n/4))
		}},
	} {
		c := dist.New(dist.Config{WorldSize: alg.shape.Size()})
		err := c.Run(func(w *dist.Worker) error {
			alg.mul(mesh.NewProc(w, alg.shape))
			return nil
		})
		c.Close()
		if err != nil {
			return nil, err
		}
		st := c.Stats()
		pt := TransmissionPoint{Algorithm: alg.name, D: alg.shape.D, Paper: alg.paper,
			Messages: st.Messages, Bytes: st.Bytes, Seconds: c.MaxClock()}
		for _, op := range st.PerOp {
			pt.Rounds += op.Calls
		}
		points = append(points, pt)
	}
	tess := points[len(points)-1]
	for i := range points {
		p := &points[i]
		p.PaperRatio = float64(p.Paper) / float64(tess.Paper)
		p.ByteRatio = float64(p.Bytes) / float64(tess.Bytes)
		p.SecondRatio = p.Seconds / tess.Seconds
		d := int64(p.D)
		for _, u := range []struct {
			name       string
			count, per int64
		}{
			{"block messages", p.Messages, 1},
			{"rounds", p.Rounds, 1},
			{"block messages ÷ d", p.Messages, d},
			{"rounds ÷ d", p.Rounds, d},
		} {
			if u.count == int64(p.Paper)*u.per {
				p.PaperUnit = u.name
				break
			}
		}
	}
	return points, nil
}

// FormatTransmissions renders the transmission study: the measured columns
// and the unit of each paper count. The §1 ratios' verdicts are the
// scorecard's (Scorecard).
func FormatTransmissions(points []TransmissionPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Communication of one [%d,%d]x[%d,%d] multiply at p = 64, measured (paper §1/§3.1)\n",
		transmissionN, transmissionN, transmissionN, transmissionN)
	fmt.Fprintf(&b, "%-18s %6s %9s %7s %14s %10s | %8s %8s %8s\n",
		"algorithm", "paper", "messages", "rounds", "bytes", "sim(s)", "paper/T", "bytes/T", "sim/T")
	for _, p := range points {
		fmt.Fprintf(&b, "%-18s %6d %9d %7d %14d %10.6f | %7.2fx %7.2fx %7.2fx\n",
			p.Algorithm, p.Paper, p.Messages, p.Rounds, p.Bytes, p.Seconds, p.PaperRatio, p.ByteRatio, p.SecondRatio)
	}
	for _, p := range points {
		unit := "no measured count"
		if p.PaperUnit != "" {
			unit = "its " + p.PaperUnit
		}
		fmt.Fprintf(&b, "paper's %d for %s (d = %d) is %s\n", p.Paper, p.Algorithm, p.D, unit)
	}
	return b.String()
}
