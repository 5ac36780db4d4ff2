package tensor

import "math"

// RNG is a deterministic SplitMix64 pseudo-random generator. It is used for
// every initialisation and dataset in the repository so that experiments are
// reproducible bit-for-bit from a seed, independent of the Go runtime's
// global randomness.
type RNG struct {
	state uint64
	// spare holds a cached Box-Muller normal deviate.
	spare    float64
	hasSpare bool
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// gamma is SplitMix64's increment: the state after n draws is the seed plus
// n·gamma, which is what lets Skip jump ahead.
const gamma = 0x9e3779b97f4a7c15

// Uint64 returns the next 64 pseudo-random bits (SplitMix64).
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform deviate in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Normal returns a standard normal deviate via Box-Muller.
func (r *RNG) Normal() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * f
	r.hasSpare = true
	return u * f
}

// Skip advances r past n draws of Uint64 (and so of Float64) in O(1): the
// state is a counter, so r then draws exactly what it would after n calls.
func (r *RNG) Skip(n int) { r.state += uint64(n) * gamma }

// Split returns an independent generator derived from r; useful for giving
// each layer or shard its own stream while keeping global determinism.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }

// Perm fills p with a pseudo-random permutation of [0, len(p))
// (Fisher-Yates); the caller owns the buffer, so a reused one costs no
// allocation.
func (r *RNG) Perm(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// RandomMatrix returns a rows×cols matrix of uniform deviates in [-1, 1).
func RandomMatrix(rows, cols int, rng *RNG) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = 2*rng.Float64() - 1
	}
	return m
}

// XavierMatrix returns a rows×cols matrix with Xavier/Glorot uniform
// initialisation, the scheme the paper uses for its parameter matrices:
// U(−√(6/(fanIn+fanOut)), +√(6/(fanIn+fanOut))) with fanIn=rows, fanOut=cols.
// It leaves rng past the rows·cols draws.
func XavierMatrix(rows, cols int, rng *RNG) *Matrix {
	m := New(rows, cols)
	XavierFill(m.Data, rows, cols, rng, 0)
	rng.Skip(rows * cols)
	return m
}

// XavierFill writes elements k, k+1, … (row-major) of the rows×cols matrix
// XavierMatrix would draw from at into dst, bit for bit, leaving at where
// it was: a rank draws its block of a weight a row at a time, alone.
func XavierFill(dst []float64, rows, cols int, at *RNG, k int) {
	limit := math.Sqrt(6 / float64(rows+cols))
	g := *at
	g.Skip(k)
	for i := range dst {
		dst[i] = limit * (2*g.Float64() - 1)
	}
}
