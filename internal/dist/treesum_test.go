package dist

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// treeSumScalar is the reference treeSumInto must match bit for bit: the
// binary-counter association walked one element at a time, as the engine did
// before the chunked vector version.
func treeSumScalar(dd []float64, vdata [][]float64) {
	n := len(vdata)
	var stack [16]float64
	for e := range dd {
		cnt := 0
		for v := 0; v < n; v++ {
			x := vdata[v][e]
			lvl := 0
			for c := cnt; c&1 == 1; c >>= 1 {
				x = stack[lvl] + x
				lvl++
			}
			stack[lvl] = x
			cnt++
		}
		lvl := 0
		for cnt&(1<<lvl) == 0 {
			lvl++
		}
		t := stack[lvl]
		for lvl++; 1<<lvl <= cnt; lvl++ {
			if cnt&(1<<lvl) != 0 {
				t = stack[lvl] + t
			}
		}
		dd[e] = t
	}
}

// treeSumGroups are the group sizes the tree sum is pinned at: every ragged
// shape up to 9, and the two larger powers of two the tables run.
var treeSumGroups = []int{2, 3, 4, 5, 6, 7, 8, 9, 16, 64}

// roundingData fills n members with values whose sum depends on the order
// of the adds: magnitudes spread over twelve decades, mixed signs.
func roundingData(n, length int, seed uint64) [][]float64 {
	rng := tensor.NewRNG(seed)
	out := make([][]float64, n)
	for v := range out {
		m := tensor.RandomMatrix(1, length, rng)
		for i, x := range m.Data {
			m.Data[i] = x * math.Pow(10, float64((i+3*v)%13-6))
		}
		out[v] = m.Data
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestTreeSumMatchesScalarBitwise drives treeSumInto directly across the
// chunk boundaries: whole and windowed, into a fresh destination and in
// place over the first member.
func TestTreeSumMatchesScalarBitwise(t *testing.T) {
	for _, n := range treeSumGroups {
		scratch := make([]float64, 6*treeChunk)
		for _, length := range []int{1, 7, treeChunk - 1, treeChunk, treeChunk + 1, 3*treeChunk + 5} {
			vdata := roundingData(n, length, uint64(100*n+length))
			want := make([]float64, length)
			treeSumScalar(want, vdata)
			// The association must matter on this data, or the test pins nothing.
			if length > 7 && n > 3 { // up to three members the tree is the left-to-right sum
				naive := make([]float64, length)
				for _, d := range vdata {
					for i, x := range d {
						naive[i] += x
					}
				}
				if sameBits(naive, want) {
					t.Fatalf("n=%d len=%d: left-to-right sum equals the tree sum; data does not exercise rounding", n, length)
				}
			}

			got := make([]float64, length)
			treeSumInto(got, vdata, scratch)
			if !sameBits(got, want) {
				t.Fatalf("n=%d len=%d: whole sum differs from the scalar reference", n, length)
			}

			// A window summed on its own equals the same range of the whole.
			lo, hi := length/3, length-length/4
			win := make([][]float64, n)
			for v := range win {
				win[v] = vdata[v][lo:hi]
			}
			gotWin := make([]float64, hi-lo)
			treeSumInto(gotWin, win, scratch)
			if !sameBits(gotWin, want[lo:hi]) {
				t.Fatalf("n=%d len=%d: window [%d,%d) differs from the whole sum's range", n, length, lo, hi)
			}

			// In place: the destination is the first member's own data.
			treeSumInto(vdata[0], vdata, scratch)
			if !sameBits(vdata[0], want) {
				t.Fatalf("n=%d len=%d: in-place sum differs from the scalar reference", n, length)
			}
		}
	}
}

// TestCollectivesMatchScalarTreeBitwise runs the same comparison through the
// collectives that call treeSumInto: all-reduce in place and into a separate
// destination, reduce onto a non-zero root (the rotated virtual order), and
// reduce-scatter (the windowed form).
func TestCollectivesMatchScalarTreeBitwise(t *testing.T) {
	for _, n := range treeSumGroups {
		const br, cols = 2, 300 // n·br·cols spans several chunks for every n
		rows := n * br
		data := roundingData(n, rows*cols, uint64(n))
		member := func(r int) *tensor.Matrix {
			return tensor.FromSlice(rows, cols, append([]float64(nil), data[r]...))
		}
		want := make([]float64, rows*cols)
		treeSumScalar(want, data)
		root := n / 2
		rotated := make([][]float64, n)
		for v := range rotated {
			rotated[v] = data[(v+root)%n]
		}
		wantRooted := make([]float64, rows*cols)
		treeSumScalar(wantRooted, rotated)

		runWorld(t, n, func(w *Worker) error {
			g := w.Cluster().WorldGroup()
			r := w.Rank()

			m := member(r)
			g.AllReduceInto(w, m, m)
			if !sameBits(m.Data, want) {
				return errRankf(w, "n=%d: in-place all-reduce differs from the scalar tree", n)
			}
			dst := tensor.New(rows, cols)
			g.AllReduceInto(w, member(r), dst)
			if !sameBits(dst.Data, want) {
				return errRankf(w, "n=%d: all-reduce into dst differs from the scalar tree", n)
			}

			var rdst *tensor.Matrix
			if r == root {
				rdst = tensor.New(rows, cols)
			}
			g.ReduceInto(w, root, member(r), rdst)
			if r == root && !sameBits(rdst.Data, wantRooted) {
				return errRankf(w, "n=%d: reduce onto root %d differs from the scalar tree", n, root)
			}

			block := tensor.New(br, cols)
			g.ReduceScatterInto(w, member(r), block)
			if !sameBits(block.Data, want[r*br*cols:(r+1)*br*cols]) {
				return errRankf(w, "n=%d: reduce-scatter block differs from the scalar tree's rows", n)
			}
			return nil
		})
	}
}
