// Command tesseract-bench regenerates the paper's quantitative artifacts on
// the simulated cluster: Table 1 (strong scaling), Table 2 (weak scaling),
// the §4 speedup claims, the §1/§3.1 transmission-count comparison, the
// Eq. 7-10 memory study, and this repository's depth ablation.
//
// Usage:
//
//	tesseract-bench                  # everything
//	tesseract-bench -table 1         # one table
//	tesseract-bench -claims -memory  # selected studies
//	tesseract-bench -seqlen 1024     # different sequence length
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/tables"
)

func main() {
	var (
		table      = flag.String("table", "", "which table to run: 1, 2, or empty for both")
		claimsOnly = flag.Bool("claims", false, "run the transmission-count study")
		memory     = flag.Bool("memory", false, "run the Eq. 7-10 memory study")
		ablation   = flag.Bool("ablation", false, "run the depth ablation")
		overlap    = flag.Bool("overlap", false, "run the communication-overlap study (predicted vs measured)")
		planner    = flag.Bool("planner", false, "run the auto-parallelism planner study (best layouts from search, not hard-coded)")
		families   = flag.Bool("families", false, "run the cross-family parity study (all schemes through one parallel.Family interface)")
		elastic    = flag.Bool("elastic", false, "run the elastic re-layout study (checkpoint, rank loss, replan, re-shard; cost vs step)")
		straggler  = flag.Bool("straggler", false, "run the gray-failure study (2×/4×/8× compute stragglers: ride out vs detect-and-re-layout)")
		serving    = flag.Bool("serving", false, "run the serving study (continuous batching per family/layout) and the serving-objective planner")
		speedups   = flag.Bool("speedups", false, "print the derived §4 speedups")
		seqLen     = flag.Int("seqlen", tables.DefaultSeqLen, "Transformer sequence length")
		layers     = flag.Int("layers", 1, "Transformer layers per model")
		noRecomp   = flag.Bool("no-recompute", false, "disable activation recomputation in the backward pass")
	)
	flag.Parse()

	if err := checkTable(*table); err != nil {
		fatal(err)
	}
	opts := tables.Options{SeqLen: *seqLen, Layers: *layers, NoRecompute: *noRecomp}
	// Once, before the first study prints: some studies take no options, so
	// leaving the check to the first one that does would let them run first.
	if err := opts.Check(); err != nil {
		fatal(err)
	}
	all := !*claimsOnly && !*memory && !*ablation && !*overlap && !*planner && !*families && !*elastic && !*straggler && !*serving && !*speedups && *table == ""

	runTable := func(rows []tables.Row, title string, derive func([]tables.TableResult) []tables.Speedup, label string) {
		res, err := tables.RunTable(rows, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(tables.Format(title, res))
		if all || *speedups {
			fmt.Println(tables.FormatSpeedups(label, derive(res)))
		}
	}

	if all || *table == "1" {
		runTable(tables.Table1Rows(),
			"Table 1 — strong scaling (batch 12/16, hidden 3072, 64 heads; simulated seconds)",
			tables.StrongScalingSpeedups, "Derived §4.1 strong-scaling speedups (Tesseract [4,4,4] vs baselines)")
	}
	if all || *table == "2" {
		runTable(tables.Table2Rows(),
			"Table 2 — weak scaling (per-GPU problem fixed; simulated seconds)",
			tables.WeakScalingSpeedups, "Derived §4.2 weak-scaling speedups (Tesseract [4,4,4] vs baselines)")
	}
	if all || *claimsOnly {
		points, err := tables.TransmissionStudy()
		if err != nil {
			fatal(err)
		}
		fmt.Println(tables.FormatTransmissions(points))
	}
	if all || *memory {
		const a, b, c = 4096, 4096, 4096
		points, err := tables.MemoryStudy(a, b, c)
		if err != nil {
			fatal(err)
		}
		fmt.Println(tables.FormatMemory(a, b, c, points))
	}
	if all || *ablation {
		points, err := tables.DepthAblation(4, []int{1, 2, 4}, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(tables.FormatAblation(points))
	}
	if all || *overlap {
		points, err := tables.OverlapStudy(tables.Table1Rows(), opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(tables.FormatOverlap(points))
	}
	if all || *planner {
		points, err := tables.PlannerStudy(tables.PlannerScenarios(), 3, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(tables.FormatPlannerStudy(points))
	}
	if all || *families {
		points, err := tables.FamilyParityStudy(tables.DefaultFamilyLayouts())
		if err != nil {
			fatal(err)
		}
		fmt.Println(tables.FormatFamilyParity(points))
	}
	if all || *elastic {
		points, err := tables.ElasticStudy()
		if err != nil {
			fatal(err)
		}
		fmt.Println(tables.FormatElastic(points))
	}
	if all || *straggler {
		points, err := tables.StragglerStudy()
		if err != nil {
			fatal(err)
		}
		fmt.Println(tables.FormatStraggler(points))
	}
	if all || *serving {
		points, err := tables.ServingStudy(tables.DefaultFamilyLayouts())
		if err != nil {
			fatal(err)
		}
		fmt.Println(tables.FormatServing(points))
		pt, err := tables.ServingPlannerStudy(3, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(tables.FormatServingPlanner(pt))
	}
}

// checkTable rejects -table values the CLI does not know, so a typo ("-table
// 3") is one actionable error instead of a silent run of nothing.
func checkTable(v string) error {
	switch v {
	case "", "1", "2":
		return nil
	}
	return fmt.Errorf("unknown -table %q (valid: 1, 2, or empty for both)", v)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tesseract-bench:", err)
	os.Exit(1)
}
