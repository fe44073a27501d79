// Command sitbench regenerates every figure of the paper's evaluation
// (Section 5) as text tables:
//
//	sitbench -experiment fig7     # Figures 7(a)-(c): single-SIT accuracy
//	sitbench -experiment uniform  # Section 5.1 prose: independent attributes
//	sitbench -experiment fig8     # Figure 8: scheduling vs numSITs
//	sitbench -experiment fig9     # Figure 9: scheduling vs number of tables
//	sitbench -experiment fig10    # Figure 10: scheduling vs memory budget
//	sitbench -experiment all      # everything
//
// Flags scale the workloads between quick smoke runs and the paper's full
// setting (e.g. -instances 100 restores the paper's instance count).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/sitstats/sits/internal/experiments"
	"github.com/sitstats/sits/internal/mem"
)

func main() {
	var (
		exp       = flag.String("experiment", "all", "fig7 | uniform | fig8 | fig9 | fig10 | all")
		queries   = flag.Int("queries", 1000, "random range queries per accuracy measurement (paper: 1000)")
		buckets   = flag.String("buckets", "", "comma-separated histogram sizes for fig7 (default 20,50,100,200)")
		instances = flag.Int("instances", 20, "random instances per scheduling point (paper: 100)")
		numSITs   = flag.Int("numsits", 10, "default number of SITs per scheduling instance (paper: 10)")
		lenSITs   = flag.Int("lensits", 5, "maximum dependency-sequence length (paper: 5)")
		tables    = flag.Int("tables", 10, "number of tables in scheduling instances (paper: 10)")
		memory    = flag.Float64("memory", 50000, "memory budget M (paper: 50000)")
		hybridMS  = flag.Int("hybrid-ms", 1000, "Hybrid's A* budget in milliseconds (paper: 1000)")
		optCap    = flag.Int("opt-cap", 2000000, "abort Opt after this many A* expansions (0 = unlimited); capped instances count as failures")
		parallel  = flag.Int("parallel", 0, "width of the shared exec worker pool, used by experiment cells, shared scans, and query pipelines (0 = all CPUs, 1 = serial; output is bit-identical at every width)")
		batch     = flag.Int("batch", 0, "executor rows per batch (0 = adaptive from plan width)")
		memBudget = flag.String("mem-budget", "0", "executor memory budget, e.g. 512M or 2G (0 = unlimited); joins spill beyond it")
		spillOn   = flag.Bool("spill-compress", true, "spill block-compressed SRN2 runs; =false spills raw SRN1 (same results, more spill bytes)")
		seed      = flag.Int64("seed", 11, "random seed")
	)
	flag.Parse()
	budget, err := mem.ParseBytes(*memBudget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sitbench:", err)
		os.Exit(1)
	}
	if err := run(*exp, *queries, *buckets, *instances, *numSITs, *lenSITs, *tables, *memory, *hybridMS, *optCap, *parallel, *batch, budget, !*spillOn, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "sitbench:", err)
		os.Exit(1)
	}
}

func run(exp string, queries int, buckets string, instances, numSITs, lenSITs, tables int,
	memory float64, hybridMS, optCap, parallel, batch int, memBudget int64, spillRaw bool, seed int64) error {

	schedCfg := experiments.DefaultSchedConfig()
	schedCfg.Instances = instances
	schedCfg.NumSITs = numSITs
	schedCfg.LenSITs = lenSITs
	schedCfg.NumTables = tables
	schedCfg.Memory = memory
	schedCfg.HybridBudget = time.Duration(hybridMS) * time.Millisecond
	schedCfg.OptExpansionCap = optCap
	schedCfg.Parallelism = parallel
	schedCfg.Seed = seed

	all := exp == "all"
	ran := false
	if exp == "fig7" || all {
		ran = true
		cfg := experiments.DefaultFig7Config()
		cfg.Queries = queries
		cfg.Seed = seed
		cfg.Parallelism = parallel
		cfg.BatchSize = batch
		cfg.MemBudget = memBudget
		cfg.SpillRaw = spillRaw
		if buckets != "" {
			var err error
			cfg.Buckets, err = parseInts(buckets)
			if err != nil {
				return err
			}
		}
		fmt.Println("== Figure 7: single-SIT accuracy, skewed correlated join attributes (z=1) ==")
		res, err := experiments.RunFigure7(cfg)
		if err != nil {
			return err
		}
		if err := experiments.PrintFigure7(os.Stdout, res, "Figure 7"); err != nil {
			return err
		}
		if err := experiments.PrintFigure7BuildTimes(os.Stdout, res); err != nil {
			return err
		}
		fmt.Println()
	}
	if exp == "uniform" || all {
		ran = true
		cfg := experiments.UniformConfig()
		cfg.Queries = queries
		cfg.Seed = seed
		cfg.Parallelism = parallel
		cfg.BatchSize = batch
		cfg.MemBudget = memBudget
		cfg.SpillRaw = spillRaw
		fmt.Println("== Section 5.1 (prose): uniform, independent join attributes ==")
		res, err := experiments.RunFigure7(cfg)
		if err != nil {
			return err
		}
		if err := experiments.PrintFigure7(os.Stdout, res, "Uniform data"); err != nil {
			return err
		}
		fmt.Println()
	}
	if exp == "fig8" || all {
		ran = true
		fmt.Printf("== Figure 8: multi-SIT scheduling vs numSITs (%d instances/point) ==\n", schedCfg.Instances)
		points, err := experiments.RunFigure8(schedCfg, []int{2, 5, 10, 15, 20})
		if err != nil {
			return err
		}
		if err := experiments.PrintSchedSweep(os.Stdout, points, "numSITs", "Figure 8"); err != nil {
			return err
		}
		fmt.Println()
	}
	if exp == "fig9" || all {
		ran = true
		fmt.Printf("== Figure 9: multi-SIT scheduling vs number of tables (%d instances/point) ==\n", schedCfg.Instances)
		points, err := experiments.RunFigure9(schedCfg, []int{5, 10, 20, 30, 40})
		if err != nil {
			return err
		}
		if err := experiments.PrintSchedSweep(os.Stdout, points, "tables", "Figure 9"); err != nil {
			return err
		}
		fmt.Println()
	}
	if exp == "fig10" || all {
		ran = true
		fmt.Printf("== Figure 10: multi-SIT scheduling vs memory budget (%d instances/point) ==\n", schedCfg.Instances)
		rng := rand.New(rand.NewSource(schedCfg.Seed))
		_, env, err := experiments.RandomInstance(rng, schedCfg)
		if err != nil {
			return err
		}
		floor := experiments.MinFeasibleMemory(env)
		memories := []float64{floor * 1.05, floor * 1.5, floor * 2, floor * 3, floor * 5, floor * 10}
		points, err := experiments.RunFigure10(schedCfg, memories)
		if err != nil {
			return err
		}
		if err := experiments.PrintSchedSweep(os.Stdout, points, "memory", "Figure 10"); err != nil {
			return err
		}
		fmt.Println()
	}
	if exp == "ablation" || all {
		ran = true
		fmt.Println("== Ablation: histogram construction algorithms (extension) ==")
		cfg := experiments.DefaultAblationConfig()
		cfg.Queries = queries
		cfg.Seed = seed
		cfg.Parallelism = parallel
		cfg.BatchSize = batch
		cfg.MemBudget = memBudget
		cfg.SpillRaw = spillRaw
		cells, err := experiments.RunHistogramAblation(cfg)
		if err != nil {
			return err
		}
		if err := experiments.PrintHistogramAblation(os.Stdout, cfg, cells); err != nil {
			return err
		}
		fmt.Println()
	}
	if exp == "acyclic" || all {
		ran = true
		fmt.Println("== Acyclic generating queries: snowflake SIT accuracy (extension) ==")
		cfg := experiments.DefaultAcyclicConfig()
		cfg.Queries = queries
		cfg.Seed = seed
		cfg.Parallelism = parallel
		cfg.BatchSize = batch
		cfg.MemBudget = memBudget
		cfg.SpillRaw = spillRaw
		cells, err := experiments.RunAcyclic(cfg)
		if err != nil {
			return err
		}
		if err := experiments.PrintAcyclic(os.Stdout, cfg, cells); err != nil {
			return err
		}
		fmt.Println()
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want fig7, uniform, fig8, fig9, fig10, ablation, acyclic or all)", exp)
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitComma(s) {
		var v int
		if _, err := fmt.Sscanf(part, "%d", &v); err != nil || v <= 0 {
			return nil, fmt.Errorf("bad integer list %q", s)
		}
		out = append(out, v)
	}
	return out, nil
}

func splitComma(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == ',' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	return append(out, cur)
}
