//go:build !amd64

package tensor

// Non-amd64 builds run the portable micro-kernel (which the compiler may
// still fuse per-platform; the naive and the tiled kernels share the same
// expression shapes, so they stay bitwise aligned).
func gemmTile(c []float64, ldc int, a []float64, ars, aks, mr int, b []float64, k int, zero bool) {
	gemmTileGeneric(c, ldc, a, ars, aks, mr, b, k, zero)
}

func packRows(panel, b []float64, ldb, nr, kc int) { packRowsGeneric(panel, b, ldb, nr, kc) }

func packCols(panel, b []float64, ldb, nr, kc int) { packColsGeneric(panel, b, ldb, nr, kc) }
