// Quickstart: multiply two matrices with Tesseract on a simulated [2,2,2]
// mesh and verify the result against a serial multiplication — the
// experiment the paper itself runs on randomly generated inputs ("we compute
// the matrix multiplication result and the result using our Tesseract method
// respectively, to guarantee outputs are the same", §4).
package main

import (
	"fmt"
	"log"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/tesseract"
)

func main() {
	const q, d = 2, 2 // Tesseract dimension and depth: p = d·q² = 8 "GPUs"

	// Random input A [a, b] and a Xavier-initialised parameter B [b, c],
	// drawn from rng after A — the stream every processor's linear below
	// draws its weight from, starting where A ended.
	rng := tensor.NewRNG(42)
	a := tensor.RandomMatrix(16, 12, rng)
	weights := *rng
	b := tensor.XavierMatrix(12, 8, rng)
	want := tensor.MatMul(a, b)

	cluster := dist.New(dist.Config{WorldSize: q * q * d})
	var fromRank0 *tensor.Matrix
	err := cluster.Run(func(w *dist.Worker) error {
		f := tesseract.NewFamily(w, parallel.Layout{Family: "tesseract", Q: q, D: d, Ranks: q * q * d})
		// Every processor keeps its replica block of B (shape [b/q, c/q])
		// as a linear layer's weight, takes its block of A (shape
		// [a/(dq), b/q])...
		stream := weights
		linear := f.NewLinear(b.Rows, b.Cols, nn.ActNone, false, &stream)
		// ...and runs Algorithm 3.
		localC := linear.Forward(f.Distribute(a))
		// Reassemble for the check (training code never does this).
		full := f.Collect(localC)
		if w.Rank() == 0 {
			fromRank0 = full
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("A[%dx%d] · B[%dx%d] on a [%d,%d,%d] Tesseract mesh (%d workers)\n",
		a.Rows, a.Cols, b.Rows, b.Cols, q, q, d, q*q*d)
	fmt.Printf("max |tesseract - serial| = %.3g\n", fromRank0.MaxAbsDiff(want))
	fmt.Printf("simulated time: %.3gs, traffic: %d block messages, %d bytes\n",
		cluster.MaxClock(), cluster.Stats().Messages, cluster.Stats().Bytes)
	if !fromRank0.AllClose(want, 1e-9) {
		log.Fatal("MISMATCH: Tesseract result differs from serial result")
	}
	fmt.Println("outputs are the same — exactly as §4 of the paper requires")
}
