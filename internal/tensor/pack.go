package tensor

// Strip packing. The tile kernel reads B as a contiguous [kc][gemmNR] panel:
// one 64-byte row per k step, so a strip's whole k block sits in a few KB of
// L1 however wide B is (read in place, a gemmNR-column strip of a row-major
// B touches one cache line per row at a stride of the full row — at the
// power-of-two widths the models use those lines alias into one L1 set).
// The panel belongs to the band that packs it: a stack array in gemmRows,
// filled once per (k block, strip) and reused by every row tile of the band.
//
//   - B (NN, TN): packRows copies gemmNR consecutive elements of each row.
//   - Bᵀ (NT): packCols gathers one element from each of gemmNR rows of B —
//     the only transposition left in the package, eight rows at a time (on
//     amd64 as 4×4 blocks transposed in registers).
//
// Packing only relocates operands, so it cannot change a bit of the result.
// A strip narrower than gemmNR fills only its own columns; the kernel still
// computes all gemmNR lanes, and the lanes past the strip — whatever the
// panel held there — land in the part of the edge tile that is never copied
// back to C.

// packRowsGeneric fills panel[l·gemmNR+j] = b[l·ldb+j] for l < kc, j < nr. It
// is the portable twin of packRows, which on amd64 hands full-width strips
// to assembly.
func packRowsGeneric(panel, b []float64, ldb, nr, kc int) {
	if nr < gemmNR {
		for l := 0; l < kc; l++ {
			copy(panel[l*gemmNR:l*gemmNR+nr], b[l*ldb:])
		}
		return
	}
	for l := 0; l < kc; l++ {
		d := panel[l*gemmNR : l*gemmNR+gemmNR : l*gemmNR+gemmNR]
		s := b[l*ldb : l*ldb+gemmNR : l*ldb+gemmNR]
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
	}
}

// packColsGeneric fills panel[l·gemmNR+j] = b[j·ldb+l] for l < kc, j < nr. It
// is the portable twin of packCols, which on amd64 transposes full-width
// strips four k steps at a time in registers.
func packColsGeneric(panel, b []float64, ldb, nr, kc int) {
	if nr < gemmNR {
		for j := 0; j < nr; j++ {
			for l, v := range b[j*ldb : j*ldb+kc] {
				panel[l*gemmNR+j] = v
			}
		}
		return
	}
	r0 := b[0*ldb : 0*ldb+kc]
	r1 := b[1*ldb : 1*ldb+kc]
	r2 := b[2*ldb : 2*ldb+kc]
	r3 := b[3*ldb : 3*ldb+kc]
	r4 := b[4*ldb : 4*ldb+kc]
	r5 := b[5*ldb : 5*ldb+kc]
	r6 := b[6*ldb : 6*ldb+kc]
	r7 := b[7*ldb : 7*ldb+kc]
	for l := range r0 {
		d := panel[l*gemmNR : l*gemmNR+gemmNR : l*gemmNR+gemmNR]
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = r0[l], r1[l], r2[l], r3[l], r4[l], r5[l], r6[l], r7[l]
	}
}
