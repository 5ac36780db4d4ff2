package tensor

import "testing"

func TestIntoVariantsMatchAllocating(t *testing.T) {
	rng := NewRNG(41)
	a := RandomMatrix(5, 7, rng)
	b := RandomMatrix(5, 7, rng)

	dst := New(5, 7)
	AddTo(dst, a, b)
	if !dst.Equal(Add(a, b)) {
		t.Fatal("AddTo differs from Add")
	}
	// Aliasing: dst == a.
	aCopy := a.Clone()
	AddTo(aCopy, aCopy, b)
	if !aCopy.Equal(Add(a, b)) {
		t.Fatal("aliased AddTo differs from Add")
	}

	x := RandomMatrix(4, 6, rng)
	y := RandomMatrix(3, 6, rng)
	nt := New(4, 3)
	MatMulNTInto(nt, x, y)
	if !nt.Equal(MatMulNT(x, y)) {
		t.Fatal("MatMulNTInto differs from MatMulNT")
	}
	// NT overwrites: a dirty destination must not leak into the result.
	nt.Fill(99)
	MatMulNTInto(nt, x, y)
	if !nt.Equal(MatMulNT(x, y)) {
		t.Fatal("MatMulNTInto must overwrite a dirty destination")
	}

	z := RandomMatrix(4, 5, rng)
	tn := New(6, 5)
	MatMulTNInto(tn, x, z)
	if !tn.Equal(MatMulTN(x, z)) {
		t.Fatal("MatMulTNInto (zeroed dst) differs from MatMulTN")
	}

	cs := New(1, 7)
	ColSumsInto(cs, a)
	if !cs.Equal(ColSums(a)) {
		t.Fatal("ColSumsInto differs from ColSums")
	}

	sub := New(2, 3)
	SubMatrixInto(sub, a, 1, 2)
	if !sub.Equal(a.SubMatrix(1, 2, 2, 3)) {
		t.Fatal("SubMatrixInto differs from SubMatrix")
	}

	g := New(5, 7)
	GELUTo(g, a)
	if !g.Equal(GELU(a)) {
		t.Fatal("GELUTo differs from GELU")
	}
	GELUGradTo(g, a)
	if !g.Equal(GELUGrad(a)) {
		t.Fatal("GELUGradTo differs from GELUGrad")
	}

	sm := New(5, 7)
	SoftmaxRowsTo(sm, a)
	if !sm.Equal(SoftmaxRows(a)) {
		t.Fatal("SoftmaxRowsTo differs from SoftmaxRows")
	}
	ds := RandomMatrix(5, 7, rng)
	bk := New(5, 7)
	SoftmaxRowsBackwardTo(bk, sm, ds)
	if !bk.Equal(SoftmaxRowsBackward(sm, ds)) {
		t.Fatal("SoftmaxRowsBackwardTo differs from SoftmaxRowsBackward")
	}

	ar := New(5, 7)
	AddRowVectorInPlace(ar, FromRows([][]float64{make([]float64, 7)}))
	cp := a.Clone()
	v := RandomMatrix(1, 7, rng)
	AddRowVectorInPlace(cp, v)
	if !cp.Equal(AddRowVector(a, v)) {
		t.Fatal("AddRowVectorInPlace differs from AddRowVector")
	}
}

func TestIntoVariantsPhantomNoOps(t *testing.T) {
	ph := NewPhantom(3, 3)
	dst := NewPhantom(3, 3)
	AddTo(dst, ph, ph)
	MatMulNTInto(dst, ph, ph)
	MatMulTNInto(dst, ph, ph)
	SubMatrixInto(dst, ph, 0, 0)
	GELUTo(dst, ph)
	SoftmaxRowsTo(dst, ph)
	CopyInto(dst, ph)
	if !dst.Phantom() {
		t.Fatal("phantom destinations must stay phantom")
	}
}

func TestCopyIntoPhantomnessMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CopyInto real<-phantom must panic rather than silently skip")
		}
	}()
	CopyInto(New(2, 2), NewPhantom(2, 2))
}

func TestCopyIntoSelfIsNoOp(t *testing.T) {
	m := New(2, 2)
	m.Fill(5)
	CopyInto(m, m) // the dst==payload broadcast-root case
	if m.At(0, 0) != 5 {
		t.Fatal("self CopyInto corrupted data")
	}
}
