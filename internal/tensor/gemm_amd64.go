//go:build amd64

package tensor

// amd64 micro-kernel: AVX2 vectorisation over the output columns with
// separate multiply and add instructions (never FMA), so every C element
// sees exactly the scalar kernel's sequence of individually rounded
// operations — the optimised path is bitwise identical to the naive one.
// Detection happens at init; pre-AVX2 machines keep the portable kernel.
// ("Never FMA" is the rule wherever the Go twin is unfused, which is every
// kernel but one: gelu_amd64.s replicates math.Exp's amd64 assembly, which
// fuses, and so must its replica — see elem.go.)

// cpuAVX2FMA reports AVX2 plus OS support for YMM state (CPUID + XGETBV),
// and whether such a CPU also has FMA3.
func cpuAVX2FMA() (avx2, fma bool)

// gemmTile4x8 is gemmTileGeneric's full-tile case in assembly: strides and
// the three row offsets ao1..ao3 of A are in elements, and all four C rows
// are loaded and stored whatever ao1..ao3 repeat.
//
//go:noescape
func gemmTile4x8(c *float64, ldc int, a *float64, ao1, ao2, ao3, aks int, b *float64, k int, zero bool)

func init() { tileAsm, _ = cpuAVX2FMA() }

// gemmTile runs the micro-kernel on one tile (see gemmTileGeneric for the
// contract). The assembly kernel always computes gemmMR rows, so a tile
// with mr < gemmMR — always the driver's stack tile — repeats A's last valid
// row in the rows past mr, whose results the driver never copies out.
func gemmTile(c []float64, ldc int, a []float64, ars, aks, mr int, b []float64, k int, zero bool) {
	if !tileAsm {
		gemmTileGeneric(c, ldc, a, ars, aks, mr, b, k, zero)
		return
	}
	last := (mr - 1) * ars
	_ = c[(gemmMR-1)*ldc+gemmNR-1]
	_ = a[last+(k-1)*aks]
	_ = b[k*gemmNR-1]
	gemmTile4x8(&c[0], ldc, &a[0], min(ars, last), min(2*ars, last), last, aks, &b[0], k, zero)
}

// packRows8 is packRowsGeneric's full-width case: one 64-byte row per step,
// prefetching the same row of the next strip, which shares its page.
//
//go:noescape
func packRows8(panel, b *float64, ldb, k int)

// packRows packs a strip of a row-major B (see packRowsGeneric).
func packRows(panel, b []float64, ldb, nr, kc int) {
	if !tileAsm || nr < gemmNR {
		packRowsGeneric(panel, b, ldb, nr, kc)
		return
	}
	_ = panel[kc*gemmNR-1]
	_ = b[(kc-1)*ldb+gemmNR-1]
	packRows8(&panel[0], &b[0], ldb, kc)
}

// packCols8 is packColsGeneric's full-width case, four k steps at a time.
//
//go:noescape
func packCols8(panel, b *float64, ldb, k int)

// packCols packs a strip of a row-major Bᵀ (see packColsGeneric). The k steps
// past the last multiple of four go to the portable gather.
func packCols(panel, b []float64, ldb, nr, kc int) {
	kc4 := kc &^ 3
	if !tileAsm || nr < gemmNR || kc4 == 0 {
		packColsGeneric(panel, b, ldb, nr, kc)
		return
	}
	_ = panel[kc*gemmNR-1]
	_ = b[(gemmNR-1)*ldb+kc-1]
	packCols8(&panel[0], &b[0], ldb, kc4)
	if kc4 < kc {
		packColsGeneric(panel[kc4*gemmNR:], b[kc4:], ldb, nr, kc-kc4)
	}
}
