package plan

import (
	"fmt"
	"math"
)

// Measurement is what a replay of one plan on the simulated cluster
// observed: seconds per phase, directly comparable to Breakdown.
type Measurement struct {
	// Forward and Backward are measured simulated seconds per phase.
	Forward, Backward float64
}

// Step returns the measured seconds per training step.
func (m Measurement) Step() float64 { return m.Forward + m.Backward }

// Measurer executes one plan for real — typically on the simulated
// dist.Cluster via tables.MeasurePlan, which builds a cluster of
// Grid.Ranks workers, runs the scheme's layer stack in phantom mode and
// reads the clocks back — and returns what it measured. Keeping the replay
// behind a closure lets the planner stay ignorant of the runners while
// callers choose sequence length, node size and cost model once for both
// sides of the comparison.
type Measurer func(Plan) (Measurement, error)

// Validation pairs a plan with its replayed measurement and the
// prediction errors.
type Validation struct {
	// Plan is the candidate that was replayed.
	Plan Plan
	// Measured is the replay's observation.
	Measured Measurement
	// StepErr, FwdErr and BwdErr are relative errors
	// |predicted − measured| / measured for the step, forward and
	// backward times.
	StepErr, FwdErr, BwdErr float64
}

// Validate replays the plan through the measurer and reports the
// predicted-vs-measured errors.
func (p Plan) Validate(measure Measurer) (Validation, error) {
	m, err := measure(p)
	if err != nil {
		return Validation{}, fmt.Errorf("plan: validating %s: %w", p, err)
	}
	return Validation{
		Plan:     p,
		Measured: m,
		StepErr:  relErr(p.Predicted.Step(), m.Step()),
		FwdErr:   relErr(p.Predicted.Forward, m.Forward),
		BwdErr:   relErr(p.Predicted.Backward, m.Backward),
	}, nil
}

// ValidateTop replays the first n plans of a ranked list (all of them when
// n exceeds the list, none when n is negative) and returns their
// validations in rank order. It calls measure one plan at a time, in that
// order, on the calling goroutine, so a Measurer may carry state — a tracer,
// running sums. A batch of stateless replays that wants them concurrent
// calls Plan.Validate itself, as tables.PlannerStudy does.
func ValidateTop(plans []Plan, n int, measure Measurer) ([]Validation, error) {
	if n > len(plans) {
		n = len(plans)
	}
	if n < 0 {
		n = 0
	}
	out := make([]Validation, 0, n)
	for _, p := range plans[:n] {
		v, err := p.Validate(measure)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// MaxStepErr returns the largest step-time error in a validation list, the
// single number the acceptance gate and the bench metrics track.
func MaxStepErr(vs []Validation) float64 {
	var max float64
	for _, v := range vs {
		if v.StepErr > max {
			max = v.StepErr
		}
	}
	return max
}

// relErr is |predicted−measured|/measured, with the convention that a zero
// measurement matched by a zero prediction is a perfect 0 and any other
// prediction of a zero measurement is an infinite miss.
func relErr(predicted, measured float64) float64 {
	if measured == 0 {
		if predicted == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(predicted-measured) / measured
}
