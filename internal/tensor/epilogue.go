package tensor

// Epilogue fusion. A GEMM's C rows leave the microkernels cache-hot; the
// linear layers immediately stream them again for a bias add and once more
// for the activation. An epilogue folds those passes into the GEMM's own
// output: once C is fully accumulated, the bias add and the GELU run over
// its rows in one pass, each row read once.
//
// The fusion contract — when callers may fuse without changing rounding —
// is that the epilogue performs exactly the per-element operation sequence
// of the separate passes, in the same order: the bias add is the single
// `row[j] + bias[j]` rounding of AddRowVectorInPlace, and the activation
// reads the finished pre-activation row and writes geluScalar of it to a
// separate destination, exactly like GELUTo. Only the memory traffic
// changes, never an arithmetic order, so fused results are bitwise
// identical to the unfused ones (TestFusedEpilogueBitwise).
type epilogue struct {
	bias *Matrix // optional [1, n] row vector added to every C row
	act  *Matrix // optional GELU destination; C keeps the pre-activation
}

// apply applies the epilogue to every row of C.
func (e *epilogue) apply(c *Matrix) {
	if e.bias == nil && e.act == nil {
		return
	}
	n := c.Cols
	for i := 0; i < c.Rows; i++ {
		row := c.Data[i*n : (i+1)*n]
		if e.bias != nil {
			vaddIn(row, e.bias.Data)
		}
		if e.act != nil {
			geluTo(e.act.Data[i*n:(i+1)*n], row)
		}
	}
}
