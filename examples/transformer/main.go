// Transformer example: train one Tesseract-parallel Transformer layer on a
// synthetic regression task, side by side with the serial reference layer,
// and show that the two models produce the same losses step for step —
// tensor parallelism without approximation (§3.2).
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

const (
	hidden = 16
	heads  = 4
	seqLen = 4
	batch  = 8 // sequences; must divide by d·q
	steps  = 10
	q, d   = 2, 2
)

func main() {
	// Shared, deterministic task: map token streams to rotated targets.
	dataRng := tensor.NewRNG(7)
	xs := make([]*tensor.Matrix, steps)
	targets := make([]*tensor.Matrix, steps)
	for i := range xs {
		xs[i] = tensor.RandomMatrix(batch*seqLen, hidden, dataRng)
		targets[i] = tensor.RandomMatrix(batch*seqLen, hidden, dataRng)
	}

	// Serial run.
	serialLosses := make([]float64, steps)
	{
		block := nn.NewBlock(hidden, heads, seqLen, tensor.NewRNG(99))
		opt := nn.NewAdam(1e-2, 0)
		for i := 0; i < steps; i++ {
			y := block.Forward(xs[i])
			loss, dy := nn.MSE(y, targets[i])
			serialLosses[i] = loss
			for _, p := range block.Params() {
				p.ZeroGrad()
			}
			block.Backward(dy)
			opt.Step(block.Params())
		}
	}

	// Tesseract run on a [2,2,2] mesh: 8 simulated GPUs, same seeds.
	distLosses := make([]float64, steps)
	cluster := dist.New(dist.Config{WorldSize: q * q * d})
	err := cluster.Run(func(w *dist.Worker) error {
		f := tesseract.NewFamily(w, parallel.Layout{Family: "tesseract", Q: q, D: d, Ranks: q * q * d})
		block := f.NewBlock(hidden, heads, seqLen, tensor.NewRNG(99))
		opt := nn.NewAdam(1e-2, 0)
		for i := 0; i < steps; i++ {
			y := block.Forward(f.Distribute(xs[i]))
			full := f.Collect(y)
			loss, dyFull := nn.MSE(full, targets[i])
			if w.Rank() == 0 {
				distLosses[i] = loss
			}
			for _, pa := range block.Params() {
				pa.ZeroGrad()
			}
			block.Backward(f.Distribute(dyFull))
			f.DrainGradients() // complete the queued depth all-reduces before stepping
			opt.Step(block.Params())
			f.EndStep() // step boundary: recycle panels, partials, activations
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-6s %14s %14s %12s\n", "step", "serial loss", "[2,2,2] loss", "|diff|")
	for i := 0; i < steps; i++ {
		diff := serialLosses[i] - distLosses[i]
		if diff < 0 {
			diff = -diff
		}
		fmt.Printf("%-6d %14.9f %14.9f %12.3g\n", i, serialLosses[i], distLosses[i], diff)
		if diff > 1e-7 {
			log.Fatalf("step %d: distributed training diverged from serial", i)
		}
	}
	fmt.Printf("\n%d training steps on %d simulated GPUs: losses identical to the serial model\n", steps, q*q*d)
	fmt.Printf("simulated time: %.4gs; traffic: %.1f MB\n",
		cluster.MaxClock(), float64(cluster.Stats().Bytes)/1e6)
}
