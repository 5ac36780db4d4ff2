// Command vit-train regenerates Figure 7: Vision Transformer training
// accuracy under (1) a single GPU, (2) Tesseract [2,2,1], (3) Tesseract
// [2,2,2]. The paper's point — the curves coincide because tensor
// parallelism introduces no approximation — is reproduced on a synthetic
// 100-class image dataset (see internal/vit for the substitution
// rationale), and because the trainer is written against parallel.Family
// the same check runs for every scheme:
//
//	vit-train                         # Figure 7 (serial + two Tesseract meshes)
//	vit-train -family megatron -ranks 4
//	vit-train -family seqpar -ranks 4
//	vit-train -family optimus -q 2
//	vit-train -family tesseract -q 2 -d 2
//	vit-train -plan 8                 # search layouts, train the best one
//	vit-train -elastic                # lose a rank mid-run, replan, re-shard, resume
//	vit-train -chaos -chaos-seed 7    # seeded gray faults; the watchdog detects and adapts
//	vit-train -serve -serve-rate 500/s -serve-budget 2ms   # train, then serve inference
//
// Output is CSV: setting,epoch,loss,train_acc,test_acc (or
// setting,step,loss in -elastic/-chaos modes, where work is step- not
// epoch-based; or per-request serving records in -serve mode).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/serve"
	// tables imports every family package, which registers them with the
	// parallel runtime; its DefaultAlgos is the list -plan searches.
	"repro/internal/tables"
	"repro/internal/vit"
)

func main() {
	var (
		epochs  = flag.Int("epochs", 5, "training epochs")
		classes = flag.Int("classes", 100, "number of classes (ImageNet-100 scale: 100)")
		train   = flag.Int("train-per-class", 12, "training samples per class")
		test    = flag.Int("test-per-class", 4, "test samples per class")
		batch   = flag.Int("batch", 8, "batch size (must divide by the family's row shards)")
		hidden  = flag.Int("hidden", 64, "ViT hidden size")
		heads   = flag.Int("heads", 4, "attention heads")
		layers  = flag.Int("layers", 2, "Transformer layers")
		lr      = flag.Float64("lr", 0.003, "Adam learning rate (paper: 0.003)")
		wd      = flag.Float64("weight-decay", 0.05, "weight decay (paper: 0.3; lower fits the small synthetic task)")
		seed    = flag.Uint64("seed", 2022, "random seed (fixed seeds, as in §4.3)")
		family  = flag.String("family", "", "tensor-parallel family to train (tesseract|optimus|megatron|seqpar; empty runs the Figure 7 trio)")
		q       = flag.Int("q", 2, "mesh dimension for tesseract/optimus")
		d       = flag.Int("d", 1, "tesseract depth")
		ranks   = flag.Int("ranks", 4, "tensor-parallel size for megatron/seqpar")
		planFor = flag.Int("plan", 0, "rank budget: search layouts with plan.Search and train the best candidate (overrides -family)")
		elastic = flag.Bool("elastic", false, "elastic demo: train, lose the highest rank mid-run, replan, re-shard onto the survivors, resume")
		failAt  = flag.Int("fail-step", 0, "with -elastic: global step the rank dies at (default: halfway)")
		chaos   = flag.Bool("chaos", false, "chaos demo: seeded gray faults (straggler, sick links, stalls); the watchdog detects and re-lays-out or rides out")
		chaosAt = flag.Uint64("chaos-seed", 1, "with -chaos: seed for the generated fault plan")

		doServe   = flag.Bool("serve", false, "serving demo: train -serve-steps steps, then run inference through the continuous batcher")
		srvRate   = flag.String("serve-rate", "burst", "with -serve: Poisson arrival rate (\"500/s\", \"0.5/ms\", \"200hz\"; \"burst\" = all at t=0)")
		srvBudget = flag.String("serve-budget", "2ms", "with -serve: per-batch coalescing latency budget (\"2ms\", \"250us\", \"0.01s\")")
		srvReqs   = flag.Int("serve-requests", 32, "with -serve: number of requests in the trace")
		srvBatch  = flag.Int("serve-batch", 8, "with -serve: max batch size the batcher seals at")
		srvDepth  = flag.Int("serve-depth", 32, "with -serve: admission queue depth (arrivals beyond it are rejected)")
		srvSteps  = flag.Int("serve-steps", 3, "with -serve: training steps before serving")
	)
	flag.Parse()

	dcfg := vit.DataConfig{
		Classes: *classes, ImageSize: 16, Channels: 3, PatchSize: 4,
		Train: *train, Test: *test, Seed: *seed,
	}
	ds := vit.NewDataset(dcfg)
	mcfg := vit.ModelConfig{
		PatchDim: dcfg.PatchDim(),
		SeqLen:   dcfg.Patches(),
		Hidden:   *hidden,
		Heads:    *heads,
		Layers:   *layers,
		Classes:  *classes,
		Seed:     *seed + 1,
	}
	tc := vit.TrainConfig{Epochs: *epochs, BatchSize: *batch, LR: *lr, WeightDecay: *wd, Seed: *seed + 2}

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	// Everything below is decided and checked before the first training
	// run: a flag combination the model or the layout cannot honour is one
	// actionable line on stderr, never a panic deep inside model
	// construction, a NaN curve, or an error after the serial baseline has
	// already trained.
	if err := tc.Check(); err != nil {
		fatalf("%v", err)
	}
	if *batch < 1 || *batch > len(ds.Train) {
		fatalf("-batch %d outside [1, %d training samples]: no step would run (lower -batch or raise -classes/-train-per-class)",
			*batch, len(ds.Train))
	}
	staged := *elastic || *chaos || *doServe
	var layouts []parallel.Layout
	var planNotes []string // -plan's report, printed where the planned run starts
	switch {
	case staged && *family == "":
		layouts = []parallel.Layout{{Family: "tesseract", Q: 2, D: 2}}
	case staged || (*planFor == 0 && *family != ""):
		l, err := layoutFromFlags(*family, *q, *d, *ranks, set)
		if err != nil {
			fatalf("%v", err)
		}
		layouts = []parallel.Layout{l}
	case *planFor > 0:
		l, notes, err := planLayout(*planFor, *batch, mcfg)
		if err != nil {
			fatalf("%v", err)
		}
		layouts, planNotes = []parallel.Layout{l}, notes
	default:
		layouts = []parallel.Layout{{Family: "tesseract", Q: 2, D: 1}, {Family: "tesseract", Q: 2, D: 2}}
	}
	for i, l := range layouts {
		nl, err := parallel.Validate(l)
		if err == nil {
			err = vit.TrainableErr(nl, tc.BatchSize, mcfg)
		}
		if err != nil {
			fatalf("%v", err)
		}
		layouts[i] = nl
	}

	fmt.Fprintf(os.Stderr, "vit-train: %d classes, %d train / %d test samples, seq %d, patch dim %d\n",
		*classes, len(ds.Train), len(ds.Test), mcfg.SeqLen, mcfg.PatchDim)

	switch {
	case *doServe:
		runServe(layouts[0], *srvRate, *srvBudget, *srvReqs, *srvBatch, *srvDepth, *srvSteps, ds, mcfg, tc)
		return
	case *chaos:
		runChaos(layouts[0], *chaosAt, ds, mcfg, tc)
		return
	case *elastic:
		runElastic(layouts[0], *failAt, ds, mcfg, tc)
		return
	}

	fmt.Println("setting,epoch,loss,train_acc,test_acc")
	emit := func(h vit.History) {
		for e := range h.Loss {
			fmt.Printf("%s,%d,%.6f,%.4f,%.4f\n", h.Setting, e+1, h.Loss[e], h.TrainAcc[e], h.TestAcc[e])
		}
	}
	serial, err := vit.TrainSerial(ds, mcfg, tc)
	if err != nil {
		fatalf("%v", err)
	}
	emit(serial)
	for _, note := range planNotes {
		fmt.Fprintln(os.Stderr, "vit-train:", note)
	}
	for _, l := range layouts {
		hist, err := vit.TrainLayout(l, ds, mcfg, tc)
		if err != nil {
			fatalf("%v", err)
		}
		emit(hist)
	}
	fmt.Fprintln(os.Stderr, "vit-train: done — the claim holds iff the curves coincide with serial")
}

// planLayout is -plan: search → pick the layout to instantiate and train.
// The search's feasibility filter is per-token (the timing harness's unit),
// while the ViT trainer needs whole sequences per rank, so the pick is the
// best candidate whose layout this model can actually train on. notes are
// the lines reporting the choice.
func planLayout(budget, batch int, mcfg vit.ModelConfig) (parallel.Layout, []string, error) {
	plans, err := plan.Search(mcfg.Workload(batch), plan.Topology{RankBudget: budget}, tables.DefaultAlgos())
	if err != nil {
		return parallel.Layout{}, nil, err
	}
	best, skipped := pickTrainable(plans, batch, mcfg)
	if skipped == len(plans) {
		return parallel.Layout{}, nil, fmt.Errorf("no searched layout can train this model; the best-ranked, %s: %v",
			plans[0], vit.TrainableErr(plans[0].Layout(), batch, mcfg))
	}
	var notes []string
	if skipped > 0 {
		notes = append(notes, fmt.Sprintf("skipped %d higher-ranked candidates this model cannot train on", skipped))
	}
	notes = append(notes, fmt.Sprintf("plan.Search picked %s (predicted %.3gs/step over %d candidates)",
		best, best.Predicted.Step(), len(plans)))
	return best.Layout(), notes, nil
}

// replanBudget is the per-rank memory budget the -elastic and -chaos
// replanners run under: a replan may not collapse onto one survivor.
func replanBudget(w plan.Workload) int64 {
	budget, err := plan.DistributedBudget(w, tables.DefaultAlgos())
	if err != nil {
		fatalf("%v", err)
	}
	return budget
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vit-train: "+format+"\n", args...)
	os.Exit(1)
}

// layoutFromFlags builds the layout the -family/-q/-d/-ranks flags describe.
// set marks flags the user passed explicitly; explicitly set flags that do
// not apply to the family are rejected — a silently dropped -d would train a
// different layout than the user asked for. Unknown family names flow
// through to parallel.Validate's error at the call site.
func layoutFromFlags(family string, q, d, ranks int, set map[string]bool) (parallel.Layout, error) {
	l := parallel.Layout{Family: family}
	if family == "megatron" || family == "seqpar" {
		if set["q"] || set["d"] {
			return l, fmt.Errorf("-q/-d do not apply to the 1-D %s family (use -ranks)", family)
		}
		l.Ranks = ranks
		return l, nil
	}
	if set["ranks"] {
		return l, fmt.Errorf("-ranks applies only to the 1-D families megatron/seqpar (use -q/-d)")
	}
	l.Q, l.D = q, d
	return l, nil
}

// runServe is the -serve mode: train a few steps, then drain one arrival
// trace through the continuous batcher and print per-request records plus a
// latency/throughput summary on stderr.
func runServe(l parallel.Layout, rateS, budgetS string, n, maxBatch, depth, steps int,
	ds *vit.Dataset, mcfg vit.ModelConfig, tc vit.TrainConfig) {
	rate, err := serve.ParseRate(rateS)
	if err != nil {
		fatalf("%v", err)
	}
	budget, err := serve.ParseDuration(budgetS)
	if err != nil {
		fatalf("%v", err)
	}
	srv, err := serve.NewServer(l, ds, mcfg, tc, serve.Config{MaxBatch: maxBatch, LatencyBudget: budget, QueueDepth: depth})
	if err != nil {
		fatalf("%v", err)
	}
	if err := srv.TrainSteps(steps); err != nil {
		fatalf("%v", err)
	}
	rep, err := srv.Serve(serve.ArrivalConfig{N: n, Rate: rate, Seed: tc.Seed})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "vit-train: %s served %d/%d requests (%d rejected) in %d batches (mean size %.2f) over %.3g simulated s\n",
		srv.Layout(), rep.Completed, len(rep.Requests), rep.Rejected, len(rep.Batches), rep.MeanBatch(), rep.SimSeconds)
	fmt.Fprintf(os.Stderr, "vit-train: latency p50 %.3gs p95 %.3gs p99 %.3gs; throughput %.1f req/s\n",
		rep.P50(), rep.P95(), rep.P99(), rep.Throughput())
	fmt.Println("request,arrive,batch_close,reply,latency,class")
	for i, q := range rep.Requests {
		if q.Rejected {
			fmt.Printf("%d,%.6g,,,,rejected\n", i, q.Arrive)
			continue
		}
		fmt.Printf("%d,%.6g,%.6g,%.6g,%.6g,%d\n", i, q.Arrive, q.BatchClose, q.Reply, q.Latency(), q.Class)
	}
	fmt.Fprintln(os.Stderr, "vit-train: done — same weights, same logits as the trainer's eval, batched continuously")
}

// pickTrainable returns the first (best-ranked) plan whose layout the ViT
// trainer accepts (vit.Trainable: whole sequences per rank and widths that
// split over the mesh) plus how many better-ranked candidates were skipped.
func pickTrainable(plans []plan.Plan, batch int, mcfg vit.ModelConfig) (plan.Plan, int) {
	for i, p := range plans {
		if vit.Trainable(p.Layout(), batch, mcfg) {
			return p, i
		}
	}
	return plan.Plan{}, len(plans)
}

// runElastic is the -elastic mode: the full recovery loop with the failure
// injected mid-run, reported as a step-indexed loss CSV plus a cost summary
// on stderr.
func runElastic(from parallel.Layout, failAt int, ds *vit.Dataset, mcfg vit.ModelConfig, tc vit.TrainConfig) {
	spe := len(ds.Train) / tc.BatchSize
	total := tc.Epochs * spe
	if total < 2 {
		fmt.Fprintln(os.Stderr, "vit-train: -elastic needs at least 2 total steps (raise -epochs or -train-per-class)")
		os.Exit(1)
	}
	if failAt <= 0 {
		failAt = total / 2
	}
	if failAt < 1 || failAt >= total {
		fmt.Fprintf(os.Stderr, "vit-train: -fail-step %d outside (0, %d)\n", failAt, total)
		os.Exit(1)
	}
	run, err := vit.TrainElastic(from, vit.ElasticConfig{
		FailStep:   failAt,
		TotalSteps: total,
		FailRank:   -1,
		Algos:      tables.DefaultAlgos(),
		Topology:   plan.Topology{MemoryBudget: replanBudget(mcfg.Workload(tc.BatchSize))},
	}, ds, mcfg, tc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vit-train:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "vit-train: %v\n", run.Failure)
	fmt.Fprintf(os.Stderr, "vit-train: replanned %s → %s over %d survivors\n", run.From, run.To, run.From.Ranks-1)
	fmt.Fprintf(os.Stderr, "vit-train: re-shard cost: collect %.3gs + restore %.3gs ≈ %.1f training steps (%.3gs each)\n",
		run.CollectSeconds, run.RestoreSeconds,
		(run.CollectSeconds+run.RestoreSeconds)/run.StepSeconds, run.StepSeconds)
	fmt.Println("setting,step,loss")
	for s, loss := range run.Losses {
		l := run.From
		if s >= run.FailStep {
			l = run.To
		}
		fmt.Printf("%s,%d,%.6f\n", l, s+1, loss)
	}
	fmt.Fprintln(os.Stderr, "vit-train: done — the post-reshard curve continues the pre-failure trajectory")
}

// runChaos is the -chaos mode: a seeded fault plan (one straggler, maybe a
// sick link and transient stalls) hits the run, and the adaptive watchdog
// decides whether demoting the straggler pays for the re-shard. The loss
// CSV is unchanged by construction — gray faults move clocks, never
// arithmetic.
func runChaos(from parallel.Layout, seed uint64, ds *vit.Dataset, mcfg vit.ModelConfig, tc vit.TrainConfig) {
	spe := len(ds.Train) / tc.BatchSize
	total := tc.Epochs * spe
	const probe = 6
	if total < 4*probe {
		fmt.Fprintf(os.Stderr, "vit-train: -chaos needs at least %d total steps so the fault lands after a clean probe window (raise -epochs or -train-per-class)\n", 4*probe)
		os.Exit(1)
	}
	fp := dist.NewChaosPlan(seed, from.Ranks, total)
	// The tiny ViT's arithmetic would vanish at accelerator FLOPS — the run
	// would be α-dominated and a compute straggler invisible in the step
	// clock. A scaled-down machine keeps the demo compute-bound, as the
	// paper's real workloads are (same model as tables.StragglerStudy).
	cost := dist.CostModel{FLOPS: 1e8, Alpha: 1e-7, BetaIntra: 1.0 / 250e9, BetaInter: 1.0 / 6.25e9}
	run, err := vit.TrainAdaptive(from, vit.AdaptiveConfig{
		TotalSteps: total,
		Probe:      probe,
		Monitor:    dist.MonitorConfig{Window: probe, K: 1.5, W: 3},
		Faults:     fp,
		Algos:      tables.DefaultAlgos(),
		Topology:   plan.Topology{Cost: cost, MemoryBudget: replanBudget(mcfg.Workload(tc.BatchSize))},
	}, ds, mcfg, tc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vit-train:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "vit-train: chaos seed %d over %d ranks: %d compute fault(s), %d link fault(s), %d stall(s)\n",
		seed, from.Ranks, len(fp.Ranks), len(fp.Links), len(fp.Collectives))
	if run.DetectedStep < 0 {
		fmt.Fprintln(os.Stderr, "vit-train: watchdog saw no sustained straggler")
	} else {
		fmt.Fprintf(os.Stderr, "vit-train: watchdog flagged rank(s) %v at step %d (healthy %.3gs/step, degraded %.3gs/step)\n",
			run.Suspects, run.DetectedStep, run.HealthyStepSeconds, run.DegradedStepSeconds)
	}
	switch {
	case run.RelayoutStep >= 0:
		fmt.Fprintf(os.Stderr, "vit-train: re-laid-out %s → %s at step %d (collect %.3gs + restore %.3gs)\n",
			run.From, run.To, run.RelayoutStep, run.CollectSeconds, run.RestoreSeconds)
	case run.RodeOut:
		fmt.Fprintf(os.Stderr, "vit-train: rode the fault out: %s\n", run.RideOutReason)
	}
	fmt.Fprintf(os.Stderr, "vit-train: %d steps in %.3g simulated seconds\n", total, run.TotalSeconds)
	fmt.Println("setting,step,loss")
	for s, loss := range run.Losses {
		l := run.From
		if run.RelayoutStep >= 0 && s >= run.RelayoutStep {
			l = run.To
		}
		fmt.Printf("%s,%d,%.6f\n", l, s+1, loss)
	}
	fmt.Fprintln(os.Stderr, "vit-train: done — gray faults stretch the clock, never the loss curve")
}
