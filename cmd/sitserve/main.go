// Command sitserve runs the statistics service: a long-lived HTTP daemon
// that serves SIT-based cardinality estimates over a loaded catalog.
//
//	sitserve -addr :8642 [-csv dir | -segments dir] [-tables T1,T2] \
//	         [-sits stats.json] [-build "spec;spec"] [-method sweepfull] \
//	         [-mem-budget 512M] [-parallel 0] [-cache 4096] \
//	         [-refresh 30s] [-stale-threshold 0.2]
//
// Endpoints:
//
//	GET  /estimate?query=T1+JOIN+T2+ON+T1.jnext+=+T2.jprev&pred=T2.a:0:100
//	POST /estimate   {"query": "...", "preds": [{"table":"T2","attr":"a","lo":0,"hi":100}]} (body at most 1 MiB)
//	GET  /stats      cache hit/miss counters, registry epoch, SIT count
//	POST /refresh    run one staleness sweep immediately
//	GET  /healthz    liveness
//
// The catalog comes from -csv or -segments (the shared loader also used by
// sitcreate and estimate); with neither, the synthetic chain database is
// generated. SITs are preloaded from -sits (a file written by estimate
// -save) and/or built at startup from the semicolon-separated -build specs.
// All concurrent requests share one memory governor bounded by -mem-budget;
// estimates are cached (bit-identical to recomputation) and invalidated by
// table mutations and SIT refreshes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/sitstats/sits"
)

// Connection timeouts. A client gets readHeaderTimeout to send its request
// headers, so a slow or stalled client cannot pin a connection forever, and
// an idle keep-alive connection is closed after idleTimeout.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr      = flag.String("addr", ":8642", "HTTP listen address")
		csvDir    = flag.String("csv", "", "directory of <table>.csv files; default: generated chain database")
		segDir    = flag.String("segments", "", "directory of <table>.seg segment files; tables stream off disk block by block")
		tables    = flag.String("tables", "", "comma-separated tables to load from -csv/-segments (default: every table file)")
		sitsFile  = flag.String("sits", "", "preload SITs from this JSON file (written by estimate -save)")
		builds    = flag.String("build", "", "semicolon-separated SIT specs to build at startup")
		method    = flag.String("method", "sweepfull", "creation method for -build and staleness rebuilds")
		memFlag   = flag.String("mem-budget", "0", "memory budget shared by every concurrent request, e.g. 512M (0 = unlimited)")
		parallel  = flag.Int("parallel", 0, "exec pool width for builds (0 = all CPUs, 1 = serial)")
		batch     = flag.Int("batch", 0, "executor rows per batch (0 = adaptive)")
		spillOn   = flag.Bool("spill-compress", true, "spill block-compressed SRN2 runs beyond the budget")
		cacheSize = flag.Int("cache", 0, "estimate result-cache entries (0 = default, negative = disabled)")
		planSize  = flag.Int("plan-cache", 0, "prepared-plan cache entries (0 = default, negative = disabled)")
		shedQueue = flag.Int("shed-queue", 64, "cold requests queued on the builder before /estimate sheds with 429 under budget pressure (0 = never shed)")
		refresh   = flag.Duration("refresh", 0, "background staleness sweep interval (0 = disabled)")
		threshold = flag.Float64("stale-threshold", 0.2, "relative base-table growth that triggers a SIT rebuild")
		seed      = flag.Int64("seed", 1, "random seed for sampling builds")
	)
	flag.Parse()
	if err := run(*addr, *csvDir, *segDir, *tables, *sitsFile, *builds, *method,
		*memFlag, *parallel, *batch, *spillOn, *cacheSize, *planSize, *shedQueue, *refresh, *threshold, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "sitserve:", err)
		os.Exit(1)
	}
}

func run(addr, csvDir, segDir, tables, sitsFile, builds, methodName,
	memFlag string, parallel, batch int, spillOn bool, cacheSize, planSize, shedQueue int,
	refresh time.Duration, threshold float64, seed int64) error {
	cat, err := loadCatalog(csvDir, segDir, tables)
	if err != nil {
		return err
	}
	cfg := sits.DefaultConfig()
	cfg.Seed = seed
	cfg.Parallelism = parallel
	cfg.BatchSize = batch
	cfg.SpillCompress = spillOn
	if cfg.MemBudget, err = sits.ParseMemBudget(memFlag); err != nil {
		return err
	}
	reg, err := sits.NewRegistry(cat, cfg)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := reg.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "sitserve: closing registry:", cerr)
		}
	}()

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
		if err := reg.Adopt(loaded); err != nil {
			return err
		}
		fmt.Printf("adopted %d SIT(s) from %s\n", len(loaded), sitsFile)
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
			if _, err := reg.Get(spec, m); err != nil {
				return err
			}
			fmt.Printf("built %s (%s)\n", spec.String(), m)
		}
	}

	svc, err := sits.NewService(reg, sits.ServeConfig{
		CacheEntries:     cacheSize,
		PlanCacheEntries: planSize,
		ShedQueue:        shedQueue,
	})
	if err != nil {
		return err
	}
	if refresh > 0 {
		if err := reg.StartRefresh(refresh, threshold); err != nil {
			return err
		}
		fmt.Printf("background refresh every %v at staleness threshold %.2f\n", refresh, threshold)
	}

	srv := &http.Server{
		Addr:              addr,
		Handler:           newServer(svc, threshold),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		fmt.Printf("serving %d SIT(s) on %s\n", reg.Len(), addr)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Println("shutting down")
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shutCancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// loadCatalog loads tables through the shared -csv/-segments path, or
// generates the synthetic chain database when neither directory is given.
func loadCatalog(csvDir, segDir, tables string) (*sits.Catalog, error) {
	if csvDir == "" && segDir == "" {
		return sits.GenerateChainDB(sits.DefaultChainConfig())
	}
	var names []string
	for _, t := range strings.Split(tables, ",") {
		if t = strings.TrimSpace(t); t != "" {
			names = append(names, t)
		}
	}
	return sits.LoadCatalog(csvDir, segDir, names)
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
