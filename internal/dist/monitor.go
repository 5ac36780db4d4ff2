package dist

import (
	"fmt"
	"sort"
)

// MonitorConfig tunes the gray-failure telemetry and detector.
type MonitorConfig struct {
	// Window is the per-rank ring capacity in steps. Zero means 8.
	Window int
	// K is the straggler threshold: a rank is flagged on a step when its
	// busy time exceeds K × the cross-rank median busy time. Zero means 2.
	K float64
	// W is how many consecutive recent steps must flag a rank before
	// Suspects reports it — the hysteresis that keeps one noisy step from
	// triggering a re-layout. Zero means 3.
	W int
}

func (c MonitorConfig) withDefaults() MonitorConfig {
	if c.Window == 0 {
		c.Window = 8
	}
	if c.K == 0 {
		c.K = 2
	}
	if c.W == 0 {
		c.W = 3
	}
	if c.Window < 1 || c.W < 1 || c.W > c.Window || c.K <= 1 {
		panic(fmt.Sprintf("dist: monitor config needs Window ≥ W ≥ 1 and K > 1, got Window=%d W=%d K=%g",
			c.Window, c.W, c.K))
	}
	return c
}

// StepSample is one rank's wall-clock record for one training step. Total
// is end-to-end simulated seconds; Busy is the part the rank spent
// computing. Total − Busy is wait: time parked on collectives. On a
// synchronized cluster every
// rank's Total converges to the slowest member's pace, so Busy — not Total
// — is the signal that identifies a straggler.
type StepSample struct {
	Step        int
	Total, Busy float64
}

// Monitor is the median-based straggler detector over the step samples the
// workers record in their own rings (Worker.EndStep, each on its own
// goroutine, lock-free). It holds the configuration and the baseline; every
// read-side method — Samples, Suspects, MarkBaseline, EffectiveCost and
// friends — must be called between cluster Runs, exactly like Cluster.Stats
// and MaxClock.
//
// Recording never touches simulated clocks, so an attached monitor changes
// no run's timing or arithmetic.
type Monitor struct {
	cfg     MonitorConfig
	workers []*Worker

	// Baseline captured by MarkBaseline during known-healthy steps: the
	// yardstick EffectiveCost measures degradation against.
	baseBusy []float64 // per-rank mean busy seconds per step
	baseWait float64   // mean over steps of min-across-ranks wait
	baseStep float64   // mean over steps of max-across-ranks total
	based    bool
}

// newMonitor gives every worker its ring, all carved from one allocation.
func newMonitor(cfg MonitorConfig, workers []*Worker) *Monitor {
	cfg = cfg.withDefaults()
	rings := make([]StepSample, cfg.Window*len(workers))
	for i, w := range workers {
		w.ring = rings[i*cfg.Window : (i+1)*cfg.Window]
	}
	return &Monitor{cfg: cfg, workers: workers}
}

// Config returns the resolved (defaulted) configuration.
func (m *Monitor) Config() MonitorConfig { return m.cfg }

// depth returns how many aligned recent steps are available: the smallest
// ring fill, shrunk further if the ranks' step indices disagree at some
// lag (ranks running different loops are not comparable).
func (m *Monitor) depth() int {
	d := m.workers[0].samples()
	for _, w := range m.workers {
		if c := w.samples(); c < d {
			d = c
		}
	}
	for j := 0; j < d; j++ {
		step := m.workers[0].last(j).Step
		for _, w := range m.workers {
			if w.last(j).Step != step {
				return j
			}
		}
	}
	return d
}

// Samples returns a rank's recorded window in chronological order.
func (m *Monitor) Samples(rank int) []StepSample {
	w := m.workers[rank]
	c := w.samples()
	out := make([]StepSample, c)
	for j := 0; j < c; j++ {
		out[c-1-j] = w.last(j)
	}
	return out
}

// median returns the median of xs, destroying their order. Zero for empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	h := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[h]
	}
	return (xs[h-1] + xs[h]) / 2
}

// Suspects returns the ranks whose busy time exceeded K × the cross-rank
// median busy time on each of the W most recent aligned steps, in ascending
// rank order. Nil until every rank has W aligned samples — the detector
// never fires on a cold window. Call between Runs only.
func (m *Monitor) Suspects() []int {
	w := m.cfg.W
	if m.depth() < w {
		return nil
	}
	meds := make([]float64, w)
	scratch := make([]float64, len(m.workers))
	for j := 0; j < w; j++ {
		for i, wk := range m.workers {
			scratch[i] = wk.last(j).Busy
		}
		meds[j] = median(scratch)
	}
	var out []int
	for i, wk := range m.workers {
		flagged := true
		for j := 0; j < w; j++ {
			if meds[j] <= 0 || wk.last(j).Busy <= m.cfg.K*meds[j] {
				flagged = false
				break
			}
		}
		if flagged {
			out = append(out, i)
		}
	}
	return out
}

// window walks the aligned recent steps, handing fn the lag j.
func (m *Monitor) window(fn func(j int)) int {
	d := m.depth()
	for j := 0; j < d; j++ {
		fn(j)
	}
	return d
}

// meanBusy returns a rank's mean busy seconds over the aligned window.
func (m *Monitor) meanBusy(rank, depth int) float64 {
	if depth == 0 {
		return 0
	}
	var sum float64
	for j := 0; j < depth; j++ {
		sum += m.workers[rank].last(j).Busy
	}
	return sum / float64(depth)
}

// minWaitMean returns the mean over aligned steps of the minimum wait
// (total − busy) across ranks. The minimum matters: healthy ranks' wait is
// dominated by skew (idling for the straggler), but every rank — including
// the straggler itself — pays at least the wire time of each collective, so
// the cross-rank minimum isolates link health from compute skew.
func (m *Monitor) minWaitMean() float64 {
	var sum float64
	d := m.window(func(j int) {
		min := -1.0
		for _, wk := range m.workers {
			s := wk.last(j)
			w := s.Total - s.Busy
			if min < 0 || w < min {
				min = w
			}
		}
		if min > 0 {
			sum += min
		}
	})
	if d == 0 {
		return 0
	}
	return sum / float64(d)
}

// stepSecondsMean returns the mean over aligned steps of the slowest rank's
// total — the cluster's effective per-step cost, since synchronized
// training advances at the slowest member's pace.
func (m *Monitor) stepSecondsMean() float64 {
	var sum float64
	d := m.window(func(j int) {
		var max float64
		for _, wk := range m.workers {
			if t := wk.last(j).Total; t > max {
				max = t
			}
		}
		sum += max
	})
	if d == 0 {
		return 0
	}
	return sum / float64(d)
}

// ClusterStepSeconds returns the current mean per-step seconds at the
// slowest rank's pace over the aligned window. Call between Runs only.
func (m *Monitor) ClusterStepSeconds() float64 { return m.stepSecondsMean() }

// MarkBaseline snapshots the current window as the known-healthy yardstick:
// per-rank mean busy time, the link-health wait floor, and the cluster step
// seconds. Call it between Runs after a window the driver believes is
// clean (typically the first probe window); EffectiveCost measures
// against it.
func (m *Monitor) MarkBaseline() {
	d := m.depth()
	if d == 0 {
		return
	}
	m.baseBusy = make([]float64, len(m.workers))
	for i := range m.workers {
		m.baseBusy[i] = m.meanBusy(i, d)
	}
	m.baseWait = m.minWaitMean()
	m.baseStep = m.stepSecondsMean()
	m.based = true
}

// Baselined reports whether MarkBaseline has captured a yardstick.
func (m *Monitor) Baselined() bool { return m.based }

// BaselineStepSeconds returns the cluster step seconds at MarkBaseline
// (zero before any baseline).
func (m *Monitor) BaselineStepSeconds() float64 { return m.baseStep }

// EffectiveCost reprices a cost model as the cluster actually performs,
// from telemetry alone — no access to the fault plan:
//
//   - Compute: the median busy-time inflation of the healthy ranks versus
//     the baseline divides FLOPS. Excluded suspects do not drag the
//     estimate down, so a replan over the healthy subset prices those
//     ranks at their real (usually full) speed.
//   - Links: the inflation of the cross-rank minimum wait — the wire-time
//     floor every rank pays regardless of skew — multiplies Alpha and both
//     betas, lumping bandwidth loss and added latency into one factor.
//
// Inflations below 1 are clamped to 1 (a recovering cluster is priced as
// healthy, never as better-than-spec). Without a baseline the model is
// returned unchanged. base is the model the cluster runs on, defaulted
// (Cluster.Machine().Cost). Call between Runs only.
func (m *Monitor) EffectiveCost(base CostModel, healthy []int) CostModel {
	out := base
	if !m.based {
		return out
	}
	d := m.depth()
	var infl []float64
	for _, r := range healthy {
		if m.baseBusy[r] > 0 {
			infl = append(infl, m.meanBusy(r, d)/m.baseBusy[r])
		}
	}
	if cf := median(infl); cf > 1 {
		out.FLOPS /= cf
	}
	if m.baseWait > 0 {
		if lf := m.minWaitMean() / m.baseWait; lf > 1 {
			out.Alpha *= lf
			out.BetaIntra *= lf
			out.BetaInter *= lf
		}
	}
	return out
}
