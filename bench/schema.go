package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// runSeconds is how long one contract run measures; BENCHMARK.json repeats
// it as run_seconds.
const runSeconds = 15

// workloadDef names a workload and records why it is in the benchmark.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// workloadDefs are the five workloads, in the order `-workload all` runs
// them. The names are final: later issues state their predictions in them.
var workloadDefs = []workloadDef{
	{"train-small", "Hidden 16 ViT step on tesseract [2,2,2], the fixture CI gates: rendezvous-bound, so dist, summa and the workspace pool set its speed and GEMM kernels barely matter"},
	{"train-wide", "same model code at Hidden 256, batch 16: GEMM and Adam kernels are over 90% of the step and dist is negligible, so a kernel gain shows here and a rendezvous gain must not"},
	{"train-1d-elastic", "Hidden 64 alternating megatron [4] and seqpar [4] every 16 steps through checkpoint collect and restore: the 1-D families, all-gather/reduce-scatter and the re-shard path"},
	{"paper-tables", "phantom replay of Tables 1 and 2 plus the planner study at up to 64 ranks: no arithmetic, cost is cluster construction, goroutine spawn, allocation and 64-rank rendezvous"},
	{"serve-mixed", "Hidden 64 on tesseract [2,2,2] served through the queue and batcher over a 10k-120k req/s Poisson ladder: ragged padded batches at the bottom, saturation and rejects at the top"},
}

// metricDef declares one metric. Bound is the share of the base median an
// end-to-end metric may worsen by before -compare (and the contract's
// driver) calls it a regression; Floor is the absolute slack -compare adds
// for metrics whose base can be tiny (0.25 s of set-up, 1 allocation, 8 MB).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Floor  float64
}

// endToEnd are the metrics of the untraced pass: what someone running the
// system sees. All four are host measurements; every simulated-clock
// result is exact for a seed and lives in perLayer (see README, "What moved
// out of end-to-end").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.25},
	{Name: "wall_ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.05, Floor: 1},
	{Name: "host_peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10, Floor: 8},
}

// serveRungs is the fixed rate ladder of serve-mixed, in requests per
// simulated second; rungLabel names a rung in metric names.
var serveRungs = []float64{10e3, 20e3, 40e3, 60e3, 80e3, 120e3}

func rungLabel(rate float64) string { return fmt.Sprintf("r%dk", int(rate/1e3)) }

// perLayer are the metrics of the traced pass, one layer per name prefix
// (the prefix is the package name; "driver" is the benchmark itself and the
// unprefixed names are the simulated results that the issue listed as
// end-to-end). A metric that does not apply to a workload reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lower := func(unit string, names ...string) []metricDef {
		out := make([]metricDef, len(names))
		for i, n := range names {
			out[i] = metricDef{Name: n, Unit: unit, Better: "lower"}
		}
		return out
	}
	higher := func(unit string, names ...string) []metricDef {
		out := lower(unit, names...)
		for i := range out {
			out[i].Better = "higher"
		}
		return out
	}
	var m []metricDef
	add := func(defs []metricDef) { m = append(m, defs...) }

	// Simulated results (exact for a seed) and the failure share.
	add(lower("sim_s", "sim_s_per_op"))
	add(lower("ratio", "failed_frac"))
	add(lower("sim_ms", "sim_latency_p50_ms", "sim_latency_p99_ms"))
	add(higher("sim_req/s", "sim_max_rate_rps"))
	add(lower("ratio", "sim_paper_speedup_err"))

	// driver: validity of the run.
	add(higher("count", "driver.ops", "driver.chunks"))
	add(lower("ratio", "driver.chunk_cv"))
	add(lower("us", "driver.wall_us_per_op_p50", "driver.wall_us_per_op_p95"))
	add(higher("%", "driver.wall_tail_pct"))
	add(lower("ratio", "driver.trace_overhead_frac"))
	add(higher("ratio", "driver.step_cover_frac"))
	add(lower("us", "driver.serial_step_wall_us"))
	add(higher("count", "driver.gomaxprocs"))
	add(higher("ratio", "driver.machine_speed"))
	add(higher("ops/s", "driver.raw_wall_ops_per_s"))
	add(lower("s", "driver.raw_setup_s"))
	add(lower("s", "driver.build_s"))

	// tensor: kernels at the workload's local shard shape, and the pool.
	add(higher("GFLOP/s", "tensor.gemm_nn_gflops", "tensor.gemm_nt_gflops", "tensor.gemm_tn_gflops"))
	add(lower("ns", "tensor.epilogue_ns_per_elem", "tensor.softmax_ns_per_elem", "tensor.ws_get_put_ns"))
	add(lower("count", "tensor.ws_gets_per_op", "tensor.ws_misses_per_op"))
	add(lower("B", "tensor.ws_peak_bytes"))

	// dist: counts from Cluster.Stats, rendezvous probes, simulated comm.
	add(lower("count", "dist.calls_per_op", "dist.msgs_per_op"))
	add(lower("B", "dist.bytes_per_op"))
	for _, k := range collectiveKinds {
		add(lower("count", "dist."+k+"_calls_per_op"))
	}
	for _, k := range append(append([]string(nil), collectiveKinds...), "barrier") {
		add(lower("us", "dist.round_wall_us."+k))
	}
	add(lower("us", "dist.run_spawn_wall_us"))
	add(lower("sim_s", "dist.sim_comm_s_per_op"))
	add(higher("sim_s", "dist.sim_hidden_s_per_op"))
	add(higher("ratio", "dist.sim_overlap_frac", "dist.sim_busy_frac"))
	add(lower("ratio", "dist.est_wall_share"))

	// summa through tesseract.Proc.
	add(lower("us", "summa.ab_wall_us", "summa.abt_wall_us", "summa.atb_wall_us"))
	add(lower("sim_s", "summa.sim_s_per_call"))

	// One Transformer block of each family through parallel.Layer.
	for _, f := range []string{"tesseract", "optimus", "megatron", "seqpar"} {
		add(lower("us", f+".block_fwd_wall_us", f+".block_bwd_wall_us"))
		add(lower("sim_s", f+".sim_fwd_s", f+".sim_bwd_s"))
	}
	add(lower("us", "megatron.step_wall_us", "seqpar.step_wall_us"))

	// parallel: checkpoint collect and restore.
	add(lower("us", "parallel.collect_wall_us", "parallel.restore_wall_us"))
	add(lower("B", "parallel.ckpt_bytes"))
	add(lower("count", "parallel.ckpt_allocs"))
	add(lower("ratio", "parallel.sim_reshard_steps"))

	// vit, nn: self times of the benchmark's own step loop.
	add(lower("us", "vit.fwd_wall_us", "nn.xent_wall_us", "vit.bwd_wall_us", "nn.adam_wall_us", "vit.endstep_wall_us"))
	add(lower("ratio", "vit.loss_dev"))

	// plan.
	add(lower("us", "plan.search_wall_us", "plan.serving_search_wall_us"))
	add(lower("count", "plan.candidates"))
	add(lower("ms", "plan.validate_wall_ms"))
	add(lower("ratio", "plan.top3_err"))

	// tables, cmd.
	add(lower("ms", "tables.row_wall_ms_p50", "tables.row_wall_ms_max"))
	add(lower("count", "tables.row_allocs"))
	add(lower("sim_s", "tables.sim_fwd_s_444", "tables.sim_bwd_s_444"))
	add(higher("ratio", "tables.sim_speedup_vs_1d", "tables.sim_speedup_vs_2d"))
	add(lower("ms", "cmd.tesseract-bench_wall_ms", "cmd.tesseract-plan_wall_ms"))

	// serve.
	add(lower("sim_ms", "serve.sim_queue_wait_ms_p50", "serve.sim_queue_wait_ms_p99", "serve.sim_service_ms_p50"))
	add(higher("count", "serve.mean_batch"))
	add(lower("ratio", "serve.pad_frac"))
	add(lower("count", "serve.batches_per_1k_req"))
	add(lower("us", "serve.wall_us_per_batch"))
	for _, r := range serveRungs {
		add(lower("sim_ms", "serve.sim_p99_ms."+rungLabel(r)))
	}
	for _, r := range serveRungs {
		add(lower("ratio", "serve.rejected_frac."+rungLabel(r)))
	}
	return m
}

// collectiveKinds are the dist operation kinds counted per op, by the
// names Cluster.Stats uses.
var collectiveKinds = []string{"broadcast", "reduce", "allreduce", "allgather", "reducescatter"}

// exactMetric reports whether a metric must repeat bit-exactly for the
// same seed on the same code: simulated-clock values (names starting sim_
// or containing .sim_), the failure share, and the per-op dist counts.
func exactMetric(name string) bool {
	return strings.HasPrefix(name, "sim_") || strings.Contains(name, ".sim_") || name == "failed_frac" ||
		(strings.HasPrefix(name, "dist.") && strings.HasSuffix(name, "_per_op"))
}

// benchmarkJSON renders BENCHMARK.json from the tables above; `bench
// -schema` prints it and a test keeps the committed file equal to it.
func benchmarkJSON() ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
