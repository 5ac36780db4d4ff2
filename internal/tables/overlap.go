package tables

import (
	"fmt"
	"strings"

	"repro/internal/dist"
	"repro/internal/parallel"
)

// OverlapPoint is how much communication a double-buffered SUMMA schedule
// hid behind compute in the simulated run (dist.Cluster.Overlap) over a full
// Transformer layer forward+backward.
type OverlapPoint struct {
	Row Row
	// MeasuredFrac is hidden/total simulated comm seconds across all ranks
	// and all collectives of the phase — layer norms, biases and gradient
	// sync included.
	MeasuredFrac float64
	// HiddenSeconds and TotalCommSeconds are the measured numerator and
	// denominator.
	HiddenSeconds, TotalCommSeconds float64
}

// OverlapStudy runs Tesseract rows in phantom mode and reports the measured
// communication overlap of each, in row order. Rows from other schemes are
// skipped (they have no pipelined SUMMA schedule); the rest replay
// concurrently (parallel.ReplayEach). It is the one study that reads every rank's
// overlap account, so each row replays on its full cluster, not solo.
func OverlapStudy(rows []Row, opts Options) ([]OverlapPoint, error) {
	if err := opts.check(); err != nil {
		return nil, err
	}
	var tess []Row
	for _, row := range rows {
		if row.Scheme == Tesseract {
			tess = append(tess, row)
		}
	}
	return parallel.ReplayEach(len(tess), func(i int) (OverlapPoint, error) {
		return overlapRow(tess[i], opts)
	})
}

func overlapRow(row Row, opts Options) (OverlapPoint, error) {
	l, err := LayoutForRow(row)
	if err != nil {
		return OverlapPoint{}, err
	}
	w, err := opts.apply(row.workload()).WithDefaults()
	if err != nil {
		return OverlapPoint{}, err
	}
	rp, err := parallel.NewPhantomReplay(dist.New, dist.Config{},
		l, row.Batch, w.SeqLen, row.Hidden, row.Heads, w.Layers)
	if err != nil {
		return OverlapPoint{}, fmt.Errorf("row %s %s: %w", row.Scheme, row.Shape(), err)
	}
	c := rp.Cluster()
	defer c.Close()
	// One window over the whole layer, without the recompute forward.
	if _, err := rp.Phase(func(s *parallel.Stack) {
		s.Forward(s.X)
		s.Backward(s.DY)
	}); err != nil {
		return OverlapPoint{}, err
	}
	hidden, total := c.Overlap()
	pt := OverlapPoint{Row: row, HiddenSeconds: hidden, TotalCommSeconds: total}
	if total > 0 {
		pt.MeasuredFrac = hidden / total
	}
	return pt, nil
}

// FormatOverlap renders an overlap study.
func FormatOverlap(points []OverlapPoint) string {
	var b strings.Builder
	b.WriteString("Communication overlap: double-buffered SUMMA, measured\n")
	fmt.Fprintf(&b, "%-10s %5s | %10s | %12s %12s\n",
		"shape", "#GPUs", "meas frac", "hidden(s)", "comm(s)")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10s %5d | %10.3f | %12.5f %12.5f\n",
			p.Row.Shape(), p.Row.GPUs, p.MeasuredFrac, p.HiddenSeconds, p.TotalCommSeconds)
	}
	return b.String()
}
