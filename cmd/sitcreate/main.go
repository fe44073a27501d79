// Command sitcreate builds a SIT over a database from a textual spec and
// reports its histogram and accuracy:
//
//	sitcreate -sit "T4.a | T1 JOIN T2 ON T1.jnext = T2.jprev ..." \
//	          [-method sweep] [-buckets 100] [-rate 0.1] [-csv dir] [-verify]
//
// With -csv the database is loaded from <dir>/<table>.csv files (header row,
// int64 fields); without it the paper's synthetic chain database is
// generated, whose tables are T1..T4 with join columns jnext/jprev and
// payload columns a, b, c.
//
// With -verify the generating query is also executed and the SIT's range
// estimates are scored against the true result distribution.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/sitstats/sits"
)

func main() {
	var (
		sitSpec  = flag.String("sit", "", "SIT spec, e.g. \"S.a | R JOIN S ON R.x = S.y\" (required)")
		method   = flag.String("method", "sweep", "histsit | sweep | sweepindex | sweepfull | sweepexact | materialize")
		buckets  = flag.Int("buckets", 100, "histogram buckets")
		rate     = flag.Float64("rate", 0.10, "sampling rate for sweep/sweepindex")
		csvDir   = flag.String("csv", "", "directory of <table>.csv files; default: generated chain database")
		segDir   = flag.String("segments", "", "directory of <table>.seg segment files; tables stream off disk block by block instead of loading into memory")
		verify   = flag.Bool("verify", false, "execute the generating query and score the SIT's accuracy")
		queries  = flag.Int("queries", 1000, "range queries used by -verify")
		parallel = flag.Int("parallel", 0, "width of the shared exec worker pool for scans and query pipelines (0 = all CPUs, 1 = serial; output is bit-identical at every width)")
		batch    = flag.Int("batch", 0, "executor rows per batch (0 = adaptive from plan width)")
		memFlag  = flag.String("mem-budget", "0", "executor memory budget, e.g. 512M or 2G (0 = unlimited); joins spill beyond it")
		spillOn  = flag.Bool("spill-compress", true, "spill block-compressed SRN2 runs; =false spills raw SRN1 (same results, more spill bytes)")
		seed     = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	if err := run(*sitSpec, *method, *buckets, *rate, *csvDir, *segDir, *verify, *queries, *parallel, *batch, *memFlag, *spillOn, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "sitcreate:", err)
		os.Exit(1)
	}
}

func run(sitSpec, methodName string, buckets int, rate float64, csvDir, segDir string, verify bool, queries, parallel, batch int, memFlag string, spillCompress bool, seed int64) error {
	if sitSpec == "" {
		return fmt.Errorf("missing -sit (e.g. -sit \"T2.a | T1 JOIN T2 ON T1.jnext = T2.jprev\")")
	}
	spec, err := sits.ParseSIT(sitSpec)
	if err != nil {
		return err
	}
	method, err := parseMethod(methodName)
	if err != nil {
		return err
	}
	cat, err := loadCatalog(csvDir, segDir, spec)
	if err != nil {
		return err
	}
	cfg := sits.DefaultConfig()
	cfg.Buckets = buckets
	cfg.SampleRate = rate
	cfg.Seed = seed
	cfg.Parallelism = parallel
	cfg.BatchSize = batch
	cfg.SpillCompress = spillCompress
	cfg.MemBudget, err = sits.ParseMemBudget(memFlag)
	if err != nil {
		return err
	}
	b, err := sits.NewBuilder(cat, cfg)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := b.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "sitcreate: closing spill store:", cerr)
		}
	}()
	start := time.Now() //statcheck:ignore rawrand wall-clock timing column, not part of the result
	s, err := b.Build(spec, method)
	if err != nil {
		return err
	}
	elapsed := time.Since(start) //statcheck:ignore rawrand wall-clock timing column, not part of the result
	fmt.Printf("built %s with %s in %v\n", spec.String(), method, elapsed.Round(time.Microsecond))
	if gov := b.Governor(); gov != nil {
		line := fmt.Sprintf("memory: peak %d of %d budget bytes", gov.Peak(), gov.Budget())
		if store, rerr := gov.Runs(); rerr == nil {
			if st := store.Stats(); st.SpilledBytes > 0 {
				line += fmt.Sprintf(", spilled %d bytes (%.2fx raw)", st.SpilledBytes, st.Ratio())
			}
		}
		fmt.Println(line)
	}
	fmt.Printf("estimated result cardinality: %.0f\n", s.EstimatedCard)
	fmt.Printf("histogram: %v\n", s.Hist)
	if !verify {
		return nil
	}
	truth, err := sits.GroundTruth(cat, spec.Expr, spec.Table, spec.Attr)
	if err != nil {
		return err
	}
	lo, ok := truth.Min()
	if !ok {
		fmt.Println("generating query result is empty; nothing to verify")
		return nil
	}
	hi, _ := truth.Max()
	qs, err := sits.RandomRangeQueries(seed, lo, hi, queries)
	if err != nil {
		return err
	}
	acc, err := sits.EvaluateAccuracy(s, truth, qs)
	if err != nil {
		return err
	}
	fmt.Printf("true result cardinality:      %d\n", truth.Len())
	fmt.Printf("accuracy over %d range queries: avg relative error %.2f%%, median %.2f%%, max %.2f%%\n",
		acc.Queries, 100*acc.AvgRelError, 100*acc.MedianRelError, 100*acc.MaxRelError)
	return nil
}

func parseMethod(name string) (sits.Method, error) {
	switch strings.ToLower(name) {
	case "histsit", "hist-sit":
		return sits.HistSIT, nil
	case "sweep":
		return sits.Sweep, nil
	case "sweepindex":
		return sits.SweepIndex, nil
	case "sweepfull":
		return sits.SweepFull, nil
	case "sweepexact":
		return sits.SweepExact, nil
	case "materialize":
		return sits.Materialize, nil
	default:
		return 0, fmt.Errorf("unknown method %q", name)
	}
}

// loadCatalog loads the referenced tables — streamed from segment files with
// -segments, loaded from CSV files with -csv — or generates the synthetic
// chain database when neither directory is given.
func loadCatalog(csvDir, segDir string, spec sits.SITSpec) (*sits.Catalog, error) {
	if csvDir == "" && segDir == "" {
		return sits.GenerateChainDB(sits.DefaultChainConfig())
	}
	return sits.LoadCatalog(csvDir, segDir, spec.Expr.Tables())
}
