// Command tesseract-plan is the auto-parallelism planner's front end: it
// searches every feasible [p], [q,q] and [q,q,d] layout for a Transformer
// workload within a rank and per-rank memory budget, ranks the candidates
// against the α–β cost model, and (with -validate) replays the leaders on
// the simulated cluster to report predicted-vs-measured step-time error.
//
// Usage:
//
//	tesseract-plan -ranks 64                      # rank the Table 1 problem
//	tesseract-plan -ranks 64 -validate            # ...and replay the top 3
//	tesseract-plan -ranks 64 -mem 4GiB -model vit-base
//	tesseract-plan -ranks 32 -hidden 2048 -heads 32 -batch 96
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/plan"
	"repro/internal/tables"
)

// presets are ready-made workloads: the paper's two headline problems and
// two Vision-Transformer shapes (ImageNet patching, 196 tokens).
var presets = map[string]plan.Workload{
	"table1":    {Batch: 16, Hidden: 3072, Heads: 64, SeqLen: 512},
	"table2":    {Batch: 768, Hidden: 4096, Heads: 64, SeqLen: 512},
	"vit-base":  {Batch: 256, Hidden: 768, Heads: 12, SeqLen: 196},
	"vit-large": {Batch: 256, Hidden: 1024, Heads: 16, SeqLen: 196},
}

func main() {
	var (
		ranks    = flag.Int("ranks", 64, "rank budget (maximum processor count)")
		mem      = flag.String("mem", "", "per-rank memory budget, e.g. 4GiB (empty = unlimited)")
		model    = flag.String("model", "table1", "workload preset: table1, table2, vit-base, vit-large (flags below override fields)")
		batch    = flag.Int("batch", 0, "global batch size (overrides preset)")
		seqLen   = flag.Int("seq", 0, "sequence length (overrides preset)")
		hidden   = flag.Int("hidden", 0, "hidden width (overrides preset)")
		heads    = flag.Int("heads", 0, "attention heads (overrides preset)")
		layers   = flag.Int("layers", 0, "Transformer layers (default 1)")
		noRecomp = flag.Bool("no-recompute", false, "disable activation recomputation in the backward pass")
		gpn      = flag.Int("gpus-per-node", 0, "node size for inter-node link pricing (default 4)")
		exact    = flag.Bool("exact", false, "only layouts using exactly -ranks processors (the paper's fixed-p comparisons)")
		top      = flag.Int("top", 10, "ranked candidates to print")
		validate = flag.Bool("validate", false, "replay the top candidates on the simulated cluster")
		valTop   = flag.Int("validate-top", 3, "candidates to replay with -validate")
	)
	flag.Parse()

	// Zero means "preset" (or "default") for the workload counts; a negative
	// one used to be ignored in silence and the preset planned instead. The
	// row counts default to 10 and 3, so a zero there came from the user and
	// used to print every layout, or validate none.
	for _, f := range []struct {
		name   string
		v, min int
	}{
		{"batch", *batch, 0}, {"seq", *seqLen, 0}, {"hidden", *hidden, 0}, {"heads", *heads, 0}, {"layers", *layers, 0},
		{"top", *top, 1}, {"validate-top", *valTop, 1},
	} {
		if f.v < f.min {
			fatal(fmt.Errorf("-%s %d must be at least %d", f.name, f.v, f.min))
		}
	}
	w, ok := presets[*model]
	if !ok {
		fatal(fmt.Errorf("unknown -model %q (have table1, table2, vit-base, vit-large)", *model))
	}
	if *batch > 0 {
		w.Batch = *batch
	}
	if *seqLen > 0 {
		w.SeqLen = *seqLen
	}
	if *hidden > 0 {
		w.Hidden = *hidden
	}
	if *heads > 0 {
		w.Heads = *heads
	}
	if *layers > 0 {
		w.Layers = *layers
	}
	w.NoRecompute = *noRecomp

	topo := plan.Topology{RankBudget: *ranks, GPUsPerNode: *gpn, ExactRanks: *exact}
	if *mem != "" {
		budget, err := plan.ParseBytes(*mem)
		if err != nil {
			fatal(err)
		}
		if budget < 1 {
			fatal(fmt.Errorf("-mem %s is below 1 byte (omit -mem for no memory budget)", *mem))
		}
		topo.MemoryBudget = budget
	}

	w, err := w.WithDefaults()
	if err != nil {
		fatal(err)
	}
	plans, err := plan.Search(w, topo, tables.DefaultAlgos())
	if err != nil {
		fatal(err)
	}
	// The title names the preset only while it still supplies a field.
	name := *model
	if *batch > 0 && *seqLen > 0 && *hidden > 0 && *heads > 0 {
		name = "custom workload"
	}
	title := fmt.Sprintf("Ranked layouts for %s (batch %d, seq %d, hidden %d, heads %d, layers %d) within %d ranks",
		name, w.Batch, w.SeqLen, w.Hidden, w.Heads, w.Layers, *ranks)
	if topo.MemoryBudget > 0 {
		title += fmt.Sprintf(", %s/rank", plan.FormatBytes(topo.MemoryBudget))
	}
	fmt.Println(plan.FormatPlans(title, plans, *top))

	if *validate {
		vs, err := plan.ValidateTop(plans, *valTop, plan.Measure(w, topo))
		if err != nil {
			fatal(err)
		}
		fmt.Println(plan.FormatValidations("Replay on the simulated cluster (predicted vs measured)", vs))
		fmt.Printf("max step-time error across top %d: %.1f%%\n", len(vs), 100*plan.MaxStepErr(vs))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tesseract-plan:", err)
	os.Exit(1)
}
