package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/datagen"
	"github.com/sitstats/sits/internal/exec"
	"github.com/sitstats/sits/internal/histogram"
	"github.com/sitstats/sits/internal/mem"
	"github.com/sitstats/sits/internal/sit"
)

// spillTail is the materialize-spill workload's tail percentile.
const spillTail = 90

// spillRows is each table's row count, and spillBudget the executor's
// memory budget in bytes. Smoke runs use the same size: a run of a few
// operations takes about a second.
const (
	spillRows         = 25000
	spillBudget int64 = 128 << 10
)

// spillEnv is the materialize-spill set-up: four uniform tables written as
// segments, and per join width the unlimited-budget Materialize SIT and the
// exact truth.
type spillEnv struct {
	dir    string
	names  []string
	truths map[int]truthSet
	refs   map[int]*sit.SIT
}

func setupSpill(o options) (env *spillEnv, err error) {
	cfg := datagen.DefaultChainConfig() // default data seed; see createConfig
	cfg.Rows = []int{spillRows, spillRows, spillRows, spillRows}
	cfg.Domain = spillRows
	cfg.JoinZ = 0
	memCat, err := datagen.ChainDB(cfg)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "perfbench-segments-")
	if err != nil {
		return nil, err
	}
	env = &spillEnv{dir: dir, names: memCat.Names(), truths: map[int]truthSet{}, refs: map[int]*sit.SIT{}}
	made := env // the returns below replace env with nil
	defer func() {
		if err != nil {
			err = errors.Join(err, made.close())
		}
	}()
	cat, err := segmentCatalog(memCat, dir)
	if err != nil {
		return nil, err
	}
	defer closeCatalog(cat)
	ref, err := sit.NewBuilder(cat, sit.DefaultConfig())
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	rng := rand.New(rand.NewSource(o.seed))
	for w := 2; w <= 4; w++ {
		spec, err := chainSpec(1, w, true)
		if err != nil {
			return nil, err
		}
		if env.truths[w], err = newTruthSet(cat, spec, exec.Options{}, rng, 1000); err != nil {
			return nil, err
		}
		if env.refs[w], err = ref.Build(spec, sit.Materialize); err != nil {
			return nil, err
		}
	}
	return env, nil
}

func (e *spillEnv) close() error { return os.RemoveAll(e.dir) }

func (e *spillEnv) open() (*data.Catalog, error) { return data.LoadCatalog("", e.dir, e.names) }

// op builds the Materialize SIT of width w under the memory budget on a
// freshly opened segment catalog and checks it against the unlimited-budget
// result, the governor's drained ledger and the spill directory's removal.
func (e *spillEnv) op(w int, tr *tracer) (c cost, relErr float64, err error) {
	ts := e.truths[w]
	tr.beginOp()
	m0 := startMeter()
	var cat *data.Catalog
	if err := tr.do("data.LoadCatalog", func() error {
		var err error
		cat, err = e.open()
		return err
	}); err != nil {
		return noRun, 0, err
	}
	defer closeCatalog(cat)
	cfg := serialConfig(1)
	cfg.MemBudget = spillBudget
	b, err := sit.NewBuilder(cat, cfg)
	if err != nil {
		return noRun, 0, err
	}
	var s *sit.SIT
	err = tr.do(fmt.Sprintf("sit.Builder.Build/materialize.w%d", w), func() error {
		var err error
		s, err = b.Build(ts.spec, sit.Materialize)
		return err
	})
	c = m0.stop()
	if err != nil {
		b.Close()
		return noRun, 0, err
	}
	if err := closeBuilder(b); err != nil {
		return c, 0, err
	}
	if err := sameSIT(s, e.refs[w]); err != nil {
		return c, 0, err
	}
	rel, err := ts.medianRelErr(s)
	return c, rel, err
}

func runSpill(o options, r *result) error {
	env, setupS, err := repeatSetup(o, func() (*spillEnv, error) { return setupSpill(o) }, (*spillEnv).close)
	if err != nil {
		return err
	}
	defer closeEnv(r, env.close)
	seq := 0
	var relErrs []float64
	op := func(tr *tracer) opFunc {
		return func(int) (string, cost, error) {
			w := 2 + seq%3
			seq++
			c, rel, err := env.op(w, tr)
			if err == nil {
				relErrs = append(relErrs, rel)
			}
			return fmt.Sprintf("w%d", w), c, err
		}
	}
	off := newTracer(false)
	for i := 0; i < 3; i++ {
		_, c, err := op(off)(0)
		if !c.ran() {
			return err
		}
		r.check(err)
	}
	baseline := runtime.NumGoroutine()
	d := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		relErrs = relErrs[:0]
		return untracedClosedLoop(r, d, setupS, baseline, spillTail, op(off),
			func() (float64, int) { return 100 * mean(relErrs), len(relErrs) })
	}

	tr := newTracer(true)
	untraced, traced, err := interleaved(d, 3, r, op(off), op(tr))
	if err != nil {
		return err
	}
	oh, n := traceOverhead(untraced, traced)
	r.set("trace.overhead_pct", oh, n)
	if err := env.probes(r, tr); err != nil {
		return err
	}
	checkGoroutines(r, baseline)
	return nil
}

// spillRun is one exact execution of a width's generating query.
type spillRun struct {
	ms      float64
	rows    int
	vals    []int64
	spilled mem.RunStats
	peak    int64
}

// execute runs exec.AttrValuesOpts for width w on a fresh catalog with the
// given budget (0 = unlimited) and pool width, checks the governor drained
// and its spill directory is removed, and reports the run.
func (e *spillEnv) execute(w int, budget int64, par int, tr *tracer, r *result) (spillRun, error) {
	cat, err := e.open()
	if err != nil {
		return spillRun{}, err
	}
	defer closeCatalog(cat)
	var gov *mem.Governor
	if budget > 0 {
		gov = mem.NewGovernor(budget)
		gov.SetSpillCompression(true)
	}
	spec := e.truths[w].spec
	var run spillRun
	t0 := now()
	err = tr.do(fmt.Sprintf("exec.AttrValuesOpts/w%d/budget%d/par%d", w, budget, par), func() error {
		var err error
		run.vals, err = exec.AttrValuesOpts(cat, spec.Expr, spec.Table, spec.Attr, exec.Options{Parallelism: par, Gov: gov})
		return err
	})
	run.ms = float64(now().Sub(t0)) / float64(time.Millisecond)
	run.rows = len(run.vals)
	if err != nil {
		gov.Close()
		return run, err
	}
	if gov != nil {
		if used := gov.Used(); used != 0 {
			r.fail(fmt.Errorf("width %d: governor holds %d bytes after the plan closed", w, used))
		}
		rs, err := gov.Runs()
		if err != nil {
			return run, err
		}
		run.spilled, run.peak = rs.Stats(), gov.Peak()
		dir := rs.Dir()
		if err := gov.Close(); err != nil {
			return run, err
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			r.fail(fmt.Errorf("width %d: spill dir %s survives Close", w, dir))
		}
	}
	if run.rows != e.truths[w].truth.Len() {
		r.fail(fmt.Errorf("width %d: %d result rows, exact truth has %d", w, run.rows, e.truths[w].truth.Len()))
	}
	return run, nil
}

// probes measure the executor, the spill store and the result histogram
// outside the timed operations, three runs per setting.
func (e *spillEnv) probes(r *result, tr *tracer) error {
	const reps = 3
	var spilled, raw int64
	var peak int64
	var w4Budget spillRun
	for w := 2; w <= 4; w++ {
		var lim, unl []float64
		for rep := 0; rep < reps; rep++ {
			run, err := e.execute(w, spillBudget, 1, tr, r)
			if err != nil {
				return err
			}
			lim = append(lim, run.ms)
			if rep == 0 {
				r.set(fmt.Sprintf("mem.spilled_mb.w%d", w), float64(run.spilled.SpilledBytes)/1e6, 1)
				spilled += run.spilled.SpilledBytes
				raw += run.spilled.RawBytes
				if run.peak > peak {
					peak = run.peak
				}
				if w == 4 {
					w4Budget = run
				}
			}
			urun, err := e.execute(w, 0, 1, tr, r)
			if err != nil {
				return err
			}
			unl = append(unl, urun.ms)
		}
		r.set(fmt.Sprintf("exec.materialize_ms.w%d", w), median(lim), reps)
		r.set(fmt.Sprintf("exec.unlimited_ms.w%d", w), median(unl), reps)
	}
	w4 := r.values["exec.materialize_ms.w4"]
	r.set("exec.ns_per_out_row", w4*1e6/float64(w4Budget.rows), reps)
	if raw > 0 {
		r.set("mem.spill_ratio", float64(spilled)/float64(raw), 3)
	}
	r.set("mem.peak_mb", float64(peak)/1e6, 3)
	r.set("mem.peak_over_budget", float64(peak)/float64(spillBudget), 3)

	// Width 2 needs a second thread of Go code (run keeps one).
	procs := runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	var one, two []float64
	for rep := 0; rep < reps; rep++ {
		a, err := e.execute(4, spillBudget, 1, tr, r)
		if err != nil {
			return err
		}
		b, err := e.execute(4, spillBudget, 2, tr, r)
		if err != nil {
			return err
		}
		one, two = append(one, a.ms), append(two, b.ms)
	}
	runtime.GOMAXPROCS(procs)
	r.set("exec.width2_speedup", median(one)/median(two), reps)

	var hms []float64
	for rep := 0; rep < reps; rep++ {
		id := tr.start("histogram.FromValues/result")
		t0 := now()
		h, err := histogram.FromValues(w4Budget.vals, sit.DefaultConfig().Buckets, histogram.MaxDiffArea)
		hms = append(hms, float64(now().Sub(t0))/float64(time.Millisecond))
		tr.end(id)
		if err != nil {
			return err
		}
		r.check(sameHist(&sit.SIT{Hist: h, Spec: e.refs[4].Spec, Method: sit.Materialize}, e.refs[4]))
	}
	r.set("histogram.result_build_ms", median(hms), reps)

	mbs, n, err := segmentScanRate(e.dir, e.names, tr, 5)
	if err != nil {
		return err
	}
	r.set("data.segment_scan_mb_s", mbs, n)
	return nil
}
