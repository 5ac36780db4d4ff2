package parallel

// Held exposes the footprint each rank recorded in its last Step or Forward
// phase, indexed by rank (zero where a solo cluster built no stack), to the
// external tests that compare a phantom replay with its real twin.
func (r *Replay) Held() []int64 {
	out := make([]int64, len(r.stacks))
	for i, s := range r.stacks {
		if s != nil {
			out[i] = s.held
		}
	}
	return out
}
