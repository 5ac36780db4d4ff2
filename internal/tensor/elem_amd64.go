//go:build amd64

package tensor

import "math"

// AVX2 bindings for the elementwise kernels in elem_amd64.s. Each lane is
// an independent chain of individually rounded operations, so the vector
// forms are bitwise identical to the portable loops in elem.go (the tests
// in elem_test.go compare them lane for lane, NaN/Inf included).

//go:noescape
func vaddToPtr(dst, a, b *float64, n int)

//go:noescape
func vaddInPtr(dst, src *float64, n int)

//go:noescape
func vscalePtr(dst *float64, n int, alpha float64)

//go:noescape
func adamPtr(val, grad, m, v *float64, n int, lr, b1, omb1, b2, omb2, eps, wd, bc1, bc2 float64)

// The GELU kernels of gelu_amd64.s (see elem.go for what they replicate and
// why they need FMA). n must be a multiple of 4.

//go:noescape
func geluPtr(dst, src *float64, n int)

//go:noescape
func geluGradMulPtr(dst, pre, dy *float64, n int)

// tanhPtr is the kernels' tanh core on its own; only TestTanhCoreMatchesMath
// calls it.
//
//go:noescape
func tanhPtr(dst, src *float64, n int)

func init() {
	avx2, fma := cpuAVX2FMA()
	if avx2 {
		vaddTo = vaddToAVX2
		vaddIn = vaddInAVX2
		vscale = vscaleAVX2
		adamKernel = adamAVX2
	}
	if avx2 && fma {
		geluTo = geluToAVX2
		geluGradMulTo = geluGradMulToAVX2
	}
}

func vaddToAVX2(dst, a, b []float64) {
	if len(dst) == 0 {
		return
	}
	_ = a[len(dst)-1]
	_ = b[len(dst)-1]
	vaddToPtr(&dst[0], &a[0], &b[0], len(dst))
}

func vaddInAVX2(dst, src []float64) {
	if len(dst) == 0 {
		return
	}
	_ = src[len(dst)-1]
	vaddInPtr(&dst[0], &src[0], len(dst))
}

func vscaleAVX2(dst []float64, alpha float64) {
	if len(dst) == 0 {
		return
	}
	vscalePtr(&dst[0], len(dst), alpha)
}

func adamAVX2(val, grad, m, v []float64, lr, b1, b2, eps, wd, bc1, bc2 float64) {
	n := len(val)
	if n == 0 {
		return
	}
	_ = grad[n-1]
	_ = m[n-1]
	_ = v[n-1]
	n4 := n &^ 3
	if n4 > 0 {
		// 1-b1 and 1-b2 are single subtractions, rounded here exactly as the
		// scalar loop rounds them inline.
		adamPtr(&val[0], &grad[0], &m[0], &v[0], n4, lr, b1, 1-b1, b2, 1-b2, eps, wd, bc1, bc2)
	}
	for i := n4; i < n; i++ {
		g := grad[i]
		m[i] = b1*m[i] + (1-b1)*g
		v[i] = b2*v[i] + (1-b2)*g*g
		mh := m[i] / bc1
		vh := v[i] / bc2
		val[i] -= lr * (mh/(math.Sqrt(vh)+eps) + wd*val[i])
	}
}

// The lanes past the last multiple of four go to the portable loops.

func geluToAVX2(dst, src []float64) {
	n4 := len(src) &^ 3
	if n4 > 0 {
		_ = dst[n4-1]
		geluPtr(&dst[0], &src[0], n4)
	}
	geluToGeneric(dst[n4:], src[n4:])
}

func geluGradMulToAVX2(dst, pre, dy []float64) {
	n4 := len(pre) &^ 3
	if n4 > 0 {
		_ = dst[n4-1]
		_ = dy[n4-1]
		geluGradMulPtr(&dst[0], &pre[0], &dy[0], n4)
	}
	geluGradMulToGeneric(dst[n4:], pre[n4:], dy[n4:])
}
