// Package serve is the inference serving runtime: it runs a trained
// parallel.Family model forward-only (no backward, no gradient sync, no
// optimiser state) against the simulated cluster clock, behind a bounded
// request queue and a continuous micro-batcher.
//
// The moving parts are deliberately small:
//
//   - ArrivalConfig generates a seeded synthetic arrival process (Poisson,
//     or an instantaneous burst at rate +Inf).
//   - Config bounds the queue (admission control rejects arrivals past
//     QueueDepth) and the batcher (at most MaxBatch requests per forward,
//     no request co-batched past its LatencyBudget).
//   - The batcher event loop (batcher.go) is pure sequential code every
//     rank executes identically; the only cross-rank quantity — when a
//     batch's forward finished — is agreed on by all-gathering the
//     per-rank simulated clocks and taking the max locally, so batch
//     formation is deterministic and invariant to goroutine scheduling.
//   - Server (server.go) drives a real vit.DistModel; MeasureLayout
//     (measure.go) drives a phantom block stack for the planner's
//     predicted-vs-measured loop.
//
// Per-request latency is accounted on the simulated clock through the whole
// pipeline: enqueue (Arrive) → admit → batch close (BatchClose) → forward →
// reply (Reply), aggregated into p50/p95/p99 and throughput by Report.
package serve

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/tensor"
)

// Config bounds the request queue and the micro-batcher.
type Config struct {
	// MaxBatch is the most requests one forward pass may carry (default 8).
	MaxBatch int
	// LatencyBudget is the longest a request may wait in the open batch for
	// co-batching, in simulated seconds (default 2ms). A batch closes when
	// its oldest request has waited this long, or earlier when it fills.
	// Zero means batches close as soon as the server is free.
	LatencyBudget float64
	// QueueDepth bounds the pending queue; arrivals that find it full are
	// rejected (default 32). Slots free when a batch closes.
	QueueDepth int
	// KeepLogits retains every admitted request's logits row in
	// Report.Logits (Server only; the measurement path has no real data).
	KeepLogits bool
}

// WithDefaults fills the zero fields and validates the rest.
func (c Config) WithDefaults() (Config, error) {
	if c.MaxBatch == 0 {
		c.MaxBatch = 8
	}
	if c.LatencyBudget == 0 {
		c.LatencyBudget = 2e-3
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 32
	}
	if c.MaxBatch < 1 || c.QueueDepth < 1 || c.LatencyBudget < 0 ||
		math.IsNaN(c.LatencyBudget) || math.IsInf(c.LatencyBudget, 0) {
		return c, fmt.Errorf("serve: config needs MaxBatch ≥ 1, QueueDepth ≥ 1 and a finite LatencyBudget ≥ 0, got %+v", c)
	}
	return c, nil
}

// ArrivalConfig is the seeded synthetic arrival process feeding the queue.
type ArrivalConfig struct {
	// N is the number of requests.
	N int
	// Rate is the mean arrival rate in requests per simulated second.
	// +Inf means an instantaneous burst: every request arrives at t=0.
	Rate float64
	// Seed seeds the exponential inter-arrival draws (default 1; unused
	// for a burst).
	Seed uint64
}

// Times renders the process into nondecreasing arrival instants. Draws are
// exponential with mean 1/Rate from a SplitMix64 stream, so the process is
// Poisson and fully determined by (N, Rate, Seed).
func (a ArrivalConfig) Times() ([]float64, error) {
	if a.N < 0 {
		return nil, fmt.Errorf("serve: negative request count %d", a.N)
	}
	if math.IsNaN(a.Rate) || a.Rate <= 0 {
		return nil, fmt.Errorf("serve: arrival rate must be positive or +Inf, got %v", a.Rate)
	}
	seed := a.Seed
	if seed == 0 {
		seed = 1
	}
	out := make([]float64, a.N)
	if math.IsInf(a.Rate, 1) {
		return out, nil // burst: all zeros
	}
	rng := tensor.NewRNG(seed)
	t := 0.0
	for i := range out {
		t += -math.Log(1-rng.Float64()) / a.Rate
		out[i] = t
	}
	return out, nil
}

// Saturated is the burst process: n requests all at t=0 — the offered load
// that measures pure service throughput.
func Saturated(n int) ArrivalConfig {
	return ArrivalConfig{N: n, Rate: math.Inf(1)}
}

// Request is one served request's full latency record, every stamp in
// simulated seconds on a shared time base.
type Request struct {
	// ID is the arrival index.
	ID int
	// Arrive is the enqueue instant.
	Arrive float64
	// Rejected marks an arrival the admission control bounced (its
	// BatchClose/Reply stay zero).
	Rejected bool
	// BatchClose is when the micro-batcher sealed this request's batch.
	BatchClose float64
	// Reply is when the batch's forward pass finished.
	Reply float64
	// Class is the predicted label (Server only; -1 where no real
	// inference ran).
	Class int
}

// Wait is the co-batching delay: batch close minus arrival.
func (r Request) Wait() float64 { return r.BatchClose - r.Arrive }

// Latency is the full enqueue→reply time.
func (r Request) Latency() float64 { return r.Reply - r.Arrive }

// BatchStat is one executed batch: how many real requests it carried, the
// padded row count the forward actually ran, and its close/done stamps.
type BatchStat struct {
	Size, Padded int
	Close, Done  float64
}

// Report aggregates one serving trace.
type Report struct {
	// Requests holds every arrival in order, rejected ones included.
	Requests []Request
	// Batches lists every executed forward batch in order.
	Batches []BatchStat
	// Logits is the [N, classes] per-request logits matrix when
	// Config.KeepLogits was set (rejected requests keep zero rows).
	Logits *tensor.Matrix

	// Admitted, Rejected and Completed count requests; SimSeconds is the
	// last reply instant — the trace's simulated makespan.
	Admitted, Rejected, Completed int
	SimSeconds                    float64

	latencies []float64 // completed-request latencies, sorted lazily
}

// Throughput is completed requests per simulated second.
func (r *Report) Throughput() float64 {
	if r.SimSeconds == 0 {
		return 0
	}
	return float64(r.Completed) / r.SimSeconds
}

// MeanBatch is the average real batch size the forwards ran at.
func (r *Report) MeanBatch() float64 {
	if len(r.Batches) == 0 {
		return 0
	}
	return float64(r.Completed) / float64(len(r.Batches))
}

// Percentile returns the p-quantile (0 < p ≤ 1) of completed-request
// latency, by the nearest-rank rule; 0 when nothing completed.
func (r *Report) Percentile(p float64) float64 {
	if r.latencies == nil {
		r.latencies = make([]float64, 0, r.Completed)
		for _, q := range r.Requests {
			if !q.Rejected { // the trace drains fully: every admitted request replied
				r.latencies = append(r.latencies, q.Latency())
			}
		}
		sort.Float64s(r.latencies)
	}
	n := len(r.latencies)
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return r.latencies[k]
}

// P50, P95 and P99 are the tail-latency headline numbers.
func (r *Report) P50() float64 { return r.Percentile(0.50) }

// P95 is the 95th percentile of completed-request latency.
func (r *Report) P95() float64 { return r.Percentile(0.95) }

// P99 is the 99th percentile of completed-request latency.
func (r *Report) P99() float64 { return r.Percentile(0.99) }
