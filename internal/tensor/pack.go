package tensor

import "fmt"

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
//
// A right operand that does not change between products — a served model's
// weight block — can be packed once instead of once per product: PackNN lays
// the whole matrix out as the strips packRows would produce, each strip at
// full depth, and the NN loop nest reads a strip where it lies instead of
// filling a stack panel. The operands the tile kernel sees are the same
// values in the same order, so the product is the same bits.

// PackNN makes view the packed form of b for the right-operand slot of
// C += A·B: b's shape, and in Data b's elements laid out as ⌈Cols/gemmNR⌉
// strips of [Rows][gemmNR] (the last one padded), which the NN kernel
// multiplies against in place of packing b again. view's Data is reused when
// it is large enough. A packed matrix is good for exactly two things — that
// operand slot, and lending as a broadcast payload (its shape prices it) —
// and CopyInto and the other GEMM slots refuse it; nothing else looks. It
// goes stale the moment b is written: whoever packs owns the argument that
// nobody writes b while the packed form is in use. b must be real.
func PackNN(view, b *Matrix) {
	if b.Phantom() || b.packed {
		panic(fmt.Sprintf("tensor: PackNN of a phantom or already packed %dx%d matrix", b.Rows, b.Cols))
	}
	k, n := b.Rows, b.Cols
	need := (n + gemmNR - 1) / gemmNR * gemmNR * k
	if cap(view.Data) < need {
		view.Data = make([]float64, need)
	}
	view.Rows, view.Cols, view.Data, view.packed = k, n, view.Data[:need], true
	for j0 := 0; j0 < n && k > 0; j0 += gemmNR {
		packRows(view.Data[j0*k:], b.Data[j0:], n, min(gemmNR, n-j0), k)
	}
}

// Packed reports whether m was made by PackNN.
func (m *Matrix) Packed() bool { return m.packed }

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
