package tensor

// GEMM execution strategy. One register-tiled micro-kernel serves all three
// orientations (C += A·B, C = A·Bᵀ, C += Aᵀ·B):
//
//   - the micro-kernel (gemmTile: assembly on amd64 with AVX2, see
//     gemm_amd64.s; gemmTileGeneric everywhere else) owns a gemmMR×gemmNR
//     tile of C for a whole k block. The tile sits in registers while k
//     runs, every k step loads one gemmNR-wide row of B once and reuses it
//     for gemmMR broadcast A scalars, and each C element still receives one
//     individually rounded multiply and one individually rounded add per k
//     step, in ascending k — exactly the sequence of roundings the naive
//     kernels in naive.go perform, so results are bitwise identical to them;
//   - the orientations are addressing modes of that kernel, not transposes
//     in front of it. A is read in place through a row stride and a k
//     stride (swapped for Aᵀ). B reaches the kernel as a [kc][gemmNR] strip
//     panel on the stack (pack.go) that stays cache-resident while the
//     row tiles of C stream past it: a row copy for B, a gather of
//     gemmNR rows for Bᵀ. C = A·Bᵀ overwrites, so its first k block starts
//     the accumulators from zero instead of reading C. A B that arrives
//     already packed (PackNN's view, NN only) is read strip by strip where
//     it lies, at full depth, with no panel at all;
//   - ragged edges (rows%gemmMR, cols%gemmNR) run the same kernel on a
//     full-size stack tile and copy the valid corner back.
//
// A GEMM runs on its caller's goroutine. The simulated cluster already runs
// one goroutine per rank, so the host's cores are busy without a second
// level of parallelism inside each product, and the package starts no
// goroutine of its own.
const (
	// gemmMR×gemmNR is the C tile: four rows of two 4-lane vectors, eight
	// accumulators, which with two B vectors and the broadcast/product
	// temporaries fills the sixteen YMM registers.
	gemmMR = 4
	gemmNR = 8
	// gemmKC is the k block: the strip panel holds gemmKC rows of gemmNR
	// columns of B, and the C tile is stored and reloaded (exactly, so
	// without a rounding) between blocks.
	gemmKC = 256
	// gemmKCShallow is the depth of the small panel (see gemmRows).
	gemmKCShallow = 32
)

// tileAsm selects the assembly micro-kernel. The amd64 init sets it when the
// CPU qualifies; tests clear it to drive the pure-Go twin through the same
// loop nest. It is a flag rather than a rebindable function value because a
// call through a function value would force the stack panel to the heap.
var tileAsm bool

// gemmOp is the orientation of a GEMM: how the kernel addresses A and B and
// whether it accumulates into C or overwrites it.
type gemmOp uint8

const (
	opNN gemmOp = iota // C += A·B
	opNT               // C = A·Bᵀ (overwrites)
	opTN               // C += Aᵀ·B
)

// gemmTask is one GEMM's orientation and operands.
type gemmTask struct {
	op      gemmOp
	c, a, b *Matrix
}

// gemm runs one GEMM of the given orientation over all rows of C, then
// applies the epilogue to them.
func gemm(op gemmOp, c, a, b *Matrix, epi epilogue) {
	if c.packed || a.packed || (b.packed && op != opNN) {
		panic("tensor: a packed matrix (PackNN) is only the right operand of C += A·B")
	}
	gemmRows(&gemmTask{op: op, c: c, a: a, b: b})
	epi.apply(c)
}

// depth is the inner dimension k of the task's product.
func (t *gemmTask) depth() int {
	if t.op == opTN {
		return t.a.Rows
	}
	return t.a.Cols
}

// gemmRows runs the tile kernel over all rows of C with a strip panel on its
// own stack. Go zeroes a stack array on entry, and clearing gemmKC rows
// costs more than the whole product of the Hidden-16 models, so products no
// deeper than gemmKCShallow take a panel of that depth instead.
func gemmRows(t *gemmTask) {
	if t.b.packed {
		gemmRowsPanel(t, nil) // B came packed (PackNN): no panel to fill
		return
	}
	if t.depth() <= gemmKCShallow {
		var panel [gemmKCShallow * gemmNR]float64
		gemmRowsPanel(t, panel[:])
		return
	}
	gemmRowsDeep(t)
}

// gemmRowsDeep is gemmRows with the full-depth panel; it is its own frame so
// that shallow products do not grow the goroutine stack for a panel they
// never touch.
//
//go:noinline
func gemmRowsDeep(t *gemmTask) {
	var panel [gemmKC * gemmNR]float64
	gemmRowsPanel(t, panel[:])
}

// gemmRowsPanel is the loop nest: k blocks of the panel's depth outermost,
// then gemmNR-column strips of B packed once per block, then C's row tiles
// against the packed strip. A nil panel means B came packed: one k
// block of the whole depth, each strip read where PackNN left it.
func gemmRowsPanel(t *gemmTask, panel []float64) {
	c, a, b := t.c, t.a, t.b
	m, n, k := c.Rows, c.Cols, t.depth()
	kb := len(panel) / gemmNR
	var strips []float64
	if panel == nil {
		kb, strips = k, b.Data
	}
	ars, aks := a.Cols, 1
	if t.op == opTN {
		ars, aks = 1, a.Cols
	}
	if k == 0 && t.op == opNT {
		clear(c.Data[:m*n])
	}
	var edge [gemmMR * gemmNR]float64
	for k0 := 0; k0 < k; k0 += kb {
		kc := min(kb, k-k0)
		zero := t.op == opNT && k0 == 0
		for j0 := 0; j0 < n; j0 += gemmNR {
			nr := min(gemmNR, n-j0)
			switch {
			case strips != nil:
				panel = strips[j0*k : (j0+gemmNR)*k]
			case t.op == opNT:
				packCols(panel, b.Data[j0*k+k0:], k, nr, kc)
			default:
				packRows(panel, b.Data[k0*n+j0:], n, nr, kc)
			}
			for i := 0; i < m; i += gemmMR {
				mr := min(gemmMR, m-i)
				at := a.Data[i*ars+k0*aks:]
				if mr == gemmMR && nr == gemmNR {
					gemmTile(c.Data[i*n+j0:], n, at, ars, aks, mr, panel, kc, zero)
					continue
				}
				for r := 0; r < mr && !zero; r++ {
					copy(edge[r*gemmNR:r*gemmNR+nr], c.Data[(i+r)*n+j0:])
				}
				gemmTile(edge[:], gemmNR, at, ars, aks, mr, panel, kc, zero)
				for r := 0; r < mr; r++ {
					copy(c.Data[(i+r)*n+j0:(i+r)*n+j0+nr], edge[r*gemmNR:])
				}
			}
		}
	}
}

// gemmTileGeneric is the portable micro-kernel and the reference twin of the
// assembly one: rows [0, mr) of the gemmMR×gemmNR tile at c (row stride ldc)
// gain Σ_l a[r·ars+l·aks]·b[l·gemmNR+j] over l in [0, k), one rounded
// multiply and one rounded add per step in ascending l, starting from zero
// instead of from c when zero is set.
func gemmTileGeneric(c []float64, ldc int, a []float64, ars, aks, mr int, b []float64, k int, zero bool) {
	for r := 0; r < mr; r++ {
		cr := c[r*ldc : r*ldc+gemmNR : r*ldc+gemmNR]
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		if !zero {
			s0, s1, s2, s3, s4, s5, s6, s7 = cr[0], cr[1], cr[2], cr[3], cr[4], cr[5], cr[6], cr[7]
		}
		ai := r * ars
		for l := 0; l < k; l++ {
			av := a[ai]
			bp := b[l*gemmNR : l*gemmNR+gemmNR : l*gemmNR+gemmNR]
			s0 += av * bp[0]
			s1 += av * bp[1]
			s2 += av * bp[2]
			s3 += av * bp[3]
			s4 += av * bp[4]
			s5 += av * bp[5]
			s6 += av * bp[6]
			s7 += av * bp[7]
			ai += aks
		}
		cr[0], cr[1], cr[2], cr[3], cr[4], cr[5], cr[6], cr[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
}
