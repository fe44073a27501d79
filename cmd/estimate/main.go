// Command estimate runs the SIT-aware cardinality estimator (Section 2.2's
// optimizer integration) over an SPJ query:
//
//	estimate -query "T1 JOIN T2 ON T1.jnext = T2.jprev" -pred "T2.a:1:100" \
//	         [-build "T2.a | T1 JOIN T2 ON T1.jnext = T2.jprev"] [-method sweep] \
//	         [-sits stats.json] [-save stats.json] [-csv dir] [-truth]
//
// Predicates are "Table.attr:lo:hi", comma-separated. With -build, the named
// SITs are created first and registered; with -sits, previously saved SITs
// are loaded and registered. -truth additionally executes the query for the
// exact answer. Without -csv the synthetic chain database is generated.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/sitstats/sits"
)

func main() {
	var (
		queryStr = flag.String("query", "", "join expression, e.g. \"T1 JOIN T2 ON T1.jnext = T2.jprev\" (required)")
		predStr  = flag.String("pred", "", "range predicates \"T.a:lo:hi[,T.b:lo:hi...]\"")
		builds   = flag.String("build", "", "semicolon-separated SIT specs to create and register first")
		method   = flag.String("method", "sweep", "creation method for -build")
		sitsFile = flag.String("sits", "", "load previously saved SITs from this JSON file")
		saveFile = flag.String("save", "", "save all built/loaded SITs to this JSON file")
		csvDir   = flag.String("csv", "", "directory of <table>.csv files; default: generated chain database")
		segDir   = flag.String("segments", "", "directory of <table>.seg segment files; tables stream off disk block by block instead of loading into memory")
		truth    = flag.Bool("truth", false, "also execute the query for the exact cardinality")
		parallel = flag.Int("parallel", 0, "width of the shared exec worker pool for -build scans and query pipelines (0 = all CPUs, 1 = serial; output is bit-identical at every width)")
		batch    = flag.Int("batch", 0, "executor rows per batch (0 = adaptive from plan width)")
		memFlag  = flag.String("mem-budget", "0", "executor memory budget, e.g. 512M or 2G (0 = unlimited); joins spill beyond it")
		spillOn  = flag.Bool("spill-compress", true, "spill block-compressed SRN2 runs; =false spills raw SRN1 (same results, more spill bytes)")
		seed     = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	if err := run(*queryStr, *predStr, *builds, *method, *sitsFile, *saveFile, *csvDir, *segDir, *truth, *parallel, *batch, *memFlag, *spillOn, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "estimate:", err)
		os.Exit(1)
	}
}

func run(queryStr, predStr, builds, methodName, sitsFile, saveFile, csvDir, segDir string, truth bool, parallel, batch int, memFlag string, spillCompress bool, seed int64) error {
	if queryStr == "" {
		return fmt.Errorf("missing -query")
	}
	expr, err := sits.ParseExpr(queryStr)
	if err != nil {
		return err
	}
	preds, err := parsePreds(predStr)
	if err != nil {
		return err
	}
	cat, err := loadCatalog(csvDir, segDir, expr)
	if err != nil {
		return err
	}
	cfg := sits.DefaultConfig()
	cfg.Seed = seed
	cfg.Parallelism = parallel
	cfg.BatchSize = batch
	cfg.SpillCompress = spillCompress
	cfg.MemBudget, err = sits.ParseMemBudget(memFlag)
	if err != nil {
		return err
	}
	builder, err := sits.NewBuilder(cat, cfg)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := builder.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "estimate: closing spill store:", cerr)
		}
	}()
	est, err := sits.NewEstimator(builder)
	if err != nil {
		return err
	}
	var registered []*sits.SIT
	if sitsFile != "" {
		f, err := os.Open(sitsFile)
		if err != nil {
			return err
		}
		loaded, err := sits.LoadSITs(f)
		_ = f.Close()
		if err != nil {
			return err
		}
		if err := builder.AdoptCached(loaded); err != nil {
			return err
		}
		for _, s := range loaded {
			if err := est.Register(s); err != nil {
				return err
			}
		}
		registered = append(registered, loaded...)
		fmt.Printf("loaded %d SIT(s) from %s\n", len(loaded), sitsFile)
	}
	if builds != "" {
		m, err := parseMethod(methodName)
		if err != nil {
			return err
		}
		for _, specText := range strings.Split(builds, ";") {
			spec, err := sits.ParseSIT(strings.TrimSpace(specText))
			if err != nil {
				return err
			}
			s, err := builder.Build(spec, m)
			if err != nil {
				return err
			}
			if err := est.Register(s); err != nil {
				return err
			}
			registered = append(registered, s)
			fmt.Printf("built and registered %s (%s)\n", spec.String(), m)
		}
	}
	res, err := est.Estimate(sits.SPJQuery{Expr: expr, Preds: preds})
	if err != nil {
		return err
	}
	fmt.Printf("\nestimated cardinality: %.1f\n", res.Cardinality)
	fmt.Printf("join cardinality:      %.1f (from %s)\n", res.JoinCard, res.JoinStat)
	for _, src := range res.Sources {
		fmt.Printf("  %-30s selectivity %.4f from %s\n", src.Pred.String(), src.Selectivity, src.Stat)
	}
	if truth {
		card, err := exactCardinality(cat, expr, preds)
		if err != nil {
			return err
		}
		fmt.Printf("true cardinality:      %d\n", card)
	}
	if saveFile != "" {
		f, err := os.Create(saveFile)
		if err != nil {
			return err
		}
		if err := sits.SaveSITs(f, registered); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("saved %d SIT(s) to %s\n", len(registered), saveFile)
	}
	return nil
}

// exactCardinality executes the query with every predicate applied.
func exactCardinality(cat *sits.Catalog, expr *sits.Expr, preds []sits.Predicate) (int64, error) {
	if len(preds) == 0 {
		return sits.TrueCardinality(cat, expr)
	}
	// Apply the first predicate through GroundTruth; additional predicates
	// need full row filtering, which the facade exposes only one attribute at
	// a time — fall back to intersect counts conservatively for the CLI.
	if len(preds) == 1 {
		truth, err := sits.GroundTruth(cat, expr, preds[0].Table, preds[0].Attr)
		if err != nil {
			return 0, err
		}
		return truth.Count(sits.RangeQuery{Lo: preds[0].Lo, Hi: preds[0].Hi}), nil
	}
	return 0, fmt.Errorf("-truth supports at most one predicate")
}

func parsePreds(s string) ([]sits.Predicate, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []sits.Predicate
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("bad predicate %q (want T.a:lo:hi)", part)
		}
		ta := strings.Split(fields[0], ".")
		if len(ta) != 2 || ta[0] == "" || ta[1] == "" {
			return nil, fmt.Errorf("bad predicate attribute %q", fields[0])
		}
		lo, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad predicate bound %q: %v", fields[1], err)
		}
		hi, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad predicate bound %q: %v", fields[2], err)
		}
		out = append(out, sits.Predicate{Table: ta[0], Attr: ta[1], Lo: lo, Hi: hi})
	}
	return out, nil
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

// loadCatalog loads the query's tables through the shared -csv/-segments
// path, or generates the synthetic chain database when neither is given.
func loadCatalog(csvDir, segDir string, expr *sits.Expr) (*sits.Catalog, error) {
	if csvDir == "" && segDir == "" {
		return sits.GenerateChainDB(sits.DefaultChainConfig())
	}
	return sits.LoadCatalog(csvDir, segDir, expr.Tables())
}
