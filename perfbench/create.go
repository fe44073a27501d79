package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/datagen"
	"github.com/sitstats/sits/internal/exec"
	"github.com/sitstats/sits/internal/histogram"
	"github.com/sitstats/sits/internal/sample"
	"github.com/sitstats/sits/internal/sit"
)

// createTail is the create workload's tail percentile: a 10 s run completes
// well over 1000 operations, leaving more than 10 beyond p99.
const createTail = 99

// createMethods is the operation cycle's method order; Materialize is left
// out (its 4-way run would dominate the cycle) and serves as set-up truth.
var createMethods = []sit.Method{sit.HistSIT, sit.Sweep, sit.SweepIndex, sit.SweepFull, sit.SweepExact}

// createEnv is the create workload's set-up: the Fig. 7 skewed chain
// database, per-width truth and the reference SITs of the deterministic
// methods.
type createEnv struct {
	cat    *data.Catalog
	truths map[int]truthSet
	// refs holds the reference SIT per method key and width for the
	// deterministic methods, built once at set-up.
	refs map[string]*sit.SIT
}

// createConfig is the default skewed chain database of Fig. 7. No
// workload's data follows the seed: on zipfian data the 4-way join, and with
// it Sweep's work, varies 2.4x between data seeds (2.2 M to 5.2 M units of
// multiplicity over seeds 11-18), and even on uniform data the error of an
// exact histogram moved 25% between them, so runs with different seeds
// would measure different work and quality. Every database uses the default
// data seed; the workload seed drives everything else: sampling seeds,
// range queries, batches and request streams.
func createConfig(smoke bool) datagen.ChainConfig {
	cfg := datagen.DefaultChainConfig()
	if smoke {
		cfg.Rows = []int{200, 160, 120, 100}
		cfg.Domain = 400
	}
	return cfg
}

// builderConfig is the Fig. 7 builder: the paper's defaults with the
// reservoir floored at 500 rows, at pool width 1.
func builderConfig(seed int64) sit.Config {
	cfg := serialConfig(seed)
	cfg.MinSample = 500
	return cfg
}

// serialConfig is the default builder configuration at pool width 1. The
// closed-loop workloads measure one CPU's worth of work: the 2-CPU host
// they are sized for gives its VM anywhere between one and two CPUs over a
// few minutes, which moved runs at pool width 2 by up to 2x from one run to
// the next. exec.width2_speedup reports what width 2 buys.
func serialConfig(seed int64) sit.Config {
	cfg := sit.DefaultConfig()
	cfg.Seed = seed
	cfg.Parallelism = 1
	return cfg
}

func refKey(m sit.Method, w int) string { return fmt.Sprintf("%s.w%d", methodKey(m.String()), w) }

func setupCreate(o options) (*createEnv, error) {
	cat, err := datagen.ChainDB(createConfig(o.smoke))
	if err != nil {
		return nil, err
	}
	env := &createEnv{cat: cat, truths: map[int]truthSet{}, refs: map[string]*sit.SIT{}}
	rng := rand.New(rand.NewSource(o.seed))
	ref, err := sit.NewBuilder(cat, builderConfig(o.seed))
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	for w := 2; w <= 4; w++ {
		spec, err := chainSpec(1, w, true)
		if err != nil {
			return nil, err
		}
		if env.truths[w], err = newTruthSet(cat, spec, exec.Options{}, rng, 1000); err != nil {
			return nil, err
		}
		for _, m := range []sit.Method{sit.HistSIT, sit.SweepFull, sit.SweepExact, sit.Materialize} {
			s, err := ref.Build(spec, m)
			if err != nil {
				return nil, err
			}
			env.refs[refKey(m, w)] = s
		}
	}
	return env, nil
}

// createOp is operation i of the cycle: method × width on a fresh Builder
// with its own sampling seed. With tracing on, the base histograms and
// indexes the build will need are built first under their own spans, so the
// Build span measures SIT creation with base statistics warmed; the total
// work is the same either way.
func (e *createEnv) op(i int, seed int64, tr *tracer) (kind string, c cost, relErr float64, err error) {
	m := createMethods[(i/3)%len(createMethods)]
	w := 2 + i%3
	kind = refKey(m, w)
	ts := e.truths[w]
	tr.beginOp()
	m0 := startMeter()
	b, err := sit.NewBuilder(e.cat, builderConfig(seed))
	if err != nil {
		return kind, noRun, 0, err
	}
	if tr.on {
		if err := warmBase(b, m, w, tr); err != nil {
			b.Close()
			return kind, noRun, 0, err
		}
	}
	var s *sit.SIT
	err = tr.do("sit.Builder.Build/"+kind, func() error {
		var err error
		s, err = b.Build(ts.spec, m)
		return err
	})
	c = m0.stop()
	if err != nil {
		b.Close()
		return kind, noRun, 0, err
	}
	if err := closeBuilder(b); err != nil {
		return kind, c, 0, err
	}
	rel, err := e.checkSIT(s, m, w)
	return kind, c, rel, err
}

// checkSIT compares a built SIT with the set-up references and returns its
// median relative error. Deterministic methods must equal their reference
// bit for bit. The sampled methods must report, at width 2, the same
// creation-time cardinality as their exact counterparts (one join step's
// multiplicities do not depend on sampling; wider joins probe sampled
// intermediate SITs) and at every width a positive cardinality and a finite
// error.
func (e *createEnv) checkSIT(s *sit.SIT, m sit.Method, w int) (float64, error) {
	switch m {
	case sit.HistSIT, sit.SweepFull, sit.SweepExact:
		if err := sameSIT(s, e.refs[refKey(m, w)]); err != nil {
			return 0, err
		}
	case sit.Sweep, sit.SweepIndex:
		exact := sit.SweepFull
		if m == sit.SweepIndex {
			exact = sit.SweepExact
		}
		want := e.refs[refKey(exact, w)].EstimatedCard
		if w == 2 && math.Abs(s.EstimatedCard-want) > 1e-9*want {
			return 0, fmt.Errorf("%s w%d: cardinality %v, %s reports %v", m, w, s.EstimatedCard, exact, want)
		}
		if !(s.EstimatedCard > 0) || math.IsInf(s.EstimatedCard, 0) {
			return 0, fmt.Errorf("%s w%d: cardinality %v", m, w, s.EstimatedCard)
		}
	}
	rel, err := e.truths[w].medianRelErr(s)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(rel) || math.IsInf(rel, 0) {
		return 0, fmt.Errorf("%s w%d: relative error %v", m, w, rel)
	}
	return rel, nil
}

// warmBase builds, under spans, the base histograms and indexes that
// building method m at width w reads through the Builder's public API. The
// exact-bucket base histograms of SweepExact are internal and stay inside
// its Build span.
func warmBase(b *sit.Builder, m sit.Method, w int, tr *tracer) error {
	tn := datagen.ChainTableName
	var hists [][2]string
	index := ""
	switch m {
	case sit.HistSIT:
		hists = append(hists, [2]string{tn(w), "a"}, [2]string{tn(w), "jprev"}, [2]string{tn(1), "jnext"})
		for i := 2; i < w; i++ {
			hists = append(hists, [2]string{tn(i), "jnext"}, [2]string{tn(i), "jprev"})
		}
	case sit.Sweep, sit.SweepFull:
		hists = append(hists, [2]string{tn(1), "jnext"})
		for i := 2; i <= w; i++ {
			hists = append(hists, [2]string{tn(i), "jprev"})
		}
	case sit.SweepIndex:
		index = tn(1)
		for i := 3; i <= w; i++ {
			hists = append(hists, [2]string{tn(i), "jprev"})
		}
	case sit.SweepExact:
		index = tn(1)
	}
	for _, h := range hists {
		if err := tr.do("sit.Builder.BaseHistogram", func() error {
			_, err := b.BaseHistogram(h[0], h[1])
			return err
		}); err != nil {
			return err
		}
	}
	if index != "" {
		return tr.do("sit.Builder.Index", func() error {
			_, err := b.Index(index, "jnext")
			return err
		})
	}
	return nil
}

// opTotals sums, per operation, the durations of the spans named name and
// returns the per-operation totals of operations that had any.
func opTotals(tr *tracer, name string) []float64 {
	per := map[int]float64{}
	for _, s := range tr.closed(name) {
		per[s.op] += ms(s.dur())
	}
	out := make([]float64, 0, len(per))
	for _, op := range sortedIntKeys(per) {
		out = append(out, per[op])
	}
	return out
}

func runCreate(o options, r *result) error {
	env, setupS, err := repeatSetup(o, func() (*createEnv, error) { return setupCreate(o) }, func(*createEnv) error { return nil })
	if err != nil {
		return err
	}
	for w := 2; w <= 4; w++ {
		// SweepExact is exact: it must reproduce the executed result.
		r.check(sameHist(env.refs[refKey(sit.SweepExact, w)], env.refs[refKey(sit.Materialize, w)]))
	}
	cycle := 3 * len(createMethods)
	var relErrs []float64
	seq := 0
	op := func(tr *tracer) opFunc {
		return func(int) (string, cost, error) {
			i := seq
			seq++
			kind, c, rel, err := env.op(i, o.seed*1_000_003+int64(i), tr)
			if err == nil {
				relErrs = append(relErrs, rel)
			}
			return kind, c, err
		}
	}
	off := newTracer(false)
	// Warm-up: one full cycle, checked like every other operation.
	for i := 0; i < cycle; i++ {
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
		return untracedClosedLoop(r, d, setupS, baseline, createTail, op(off),
			func() (float64, int) { return 100 * mean(relErrs), len(relErrs) })
	}

	// Traced run: untraced and traced cycles alternate, then single-layer
	// probes.
	tr := newTracer(true)
	untraced, traced, err := interleaved(d, cycle, r, op(off), op(tr))
	if err != nil {
		return err
	}
	oh, n := traceOverhead(untraced, traced)
	r.set("trace.overhead_pct", oh, n)
	for _, m := range createMethods {
		mk := methodKey(m.String())
		for w := 2; w <= 4; w++ {
			v, n := medianOf(tr.durations("sit.Builder.Build/" + refKey(m, w)))
			r.set(fmt.Sprintf("sit.build_ms.%s.w%d", mk, w), v, n)
		}
	}
	for w := 2; w <= 4; w++ {
		sw := r.values[fmt.Sprintf("sit.build_ms.sweep.w%d", w)]
		full := r.values[fmt.Sprintf("sit.build_ms.sweepfull.w%d", w)]
		if full > 0 {
			r.set(fmt.Sprintf("claim.sweep_over_sweepfull.w%d", w), sw/full, r.samples[fmt.Sprintf("sit.build_ms.sweep.w%d", w)])
			verdict := "holds"
			if sw > full {
				verdict = "FAILS"
			}
			r.note("paper claim Sweep <= SweepFull at width %d %s: %.3f ms vs %.3f ms (ratio %.2f)", w, verdict, sw, full, sw/full)
		}
	}
	v, n := medianOf(opTotals(tr, "sit.Builder.BaseHistogram"))
	r.set("histogram.base_build_ms", v, n)
	v, n = medianOf(opTotals(tr, "sit.Builder.Index"))
	r.set("btree.index_build_ms", v, n)
	if err := env.qualityByMethod(o, r); err != nil {
		return err
	}
	if err := env.probes(o, r, tr); err != nil {
		return err
	}
	checkGoroutines(r, baseline)
	return nil
}

// qualityByMethod reports each method's mean median relative error over one
// build per width (sampled methods with the run's first seeds).
func (e *createEnv) qualityByMethod(o options, r *result) error {
	for _, m := range createMethods {
		var errs []float64
		for w := 2; w <= 4; w++ {
			b, err := sit.NewBuilder(e.cat, builderConfig(o.seed+int64(w)))
			if err != nil {
				return err
			}
			s, err := b.Build(e.truths[w].spec, m)
			b.Close()
			if err != nil {
				return err
			}
			rel, err := e.checkSIT(s, m, w)
			r.check(err)
			errs = append(errs, 100*rel)
		}
		r.set("sit.rel_err_pct."+methodKey(m.String()), mean(errs), len(errs))
	}
	return nil
}

// probes measure single layers the operations use: the reservoir fed
// Sweep's multiplicity total, histogram building over a sample, and
// in-memory chunk scans.
func (e *createEnv) probes(o options, r *result, tr *tracer) error {
	for _, w := range []int{3, 4} {
		b, err := sit.NewBuilder(e.cat, builderConfig(o.seed))
		if err != nil {
			return err
		}
		s, err := b.Build(e.truths[w].spec, sit.Sweep)
		if err != nil {
			b.Close()
			return err
		}
		k, err := b.SampleSize(e.truths[w].spec.Table)
		b.Close()
		if err != nil {
			return err
		}
		units := int64(math.Round(s.EstimatedCard))
		r.set(fmt.Sprintf("sample.units.w%d", w), float64(units), 1)
		if w != 4 {
			continue
		}
		vals := e.cat.MustTable(e.truths[w].spec.Table).MustColumn("a")
		var nsPerUnit, sampleMS []float64
		for rep := 0; rep < 5; rep++ {
			res, d, err := feedReservoir(k, o.seed+int64(rep), vals, units, tr)
			if err != nil {
				return err
			}
			nsPerUnit = append(nsPerUnit, float64(d.Nanoseconds())/float64(units))
			var h *histogram.Histogram
			id := tr.start("histogram.FromValues/sample")
			t0 := now()
			h, err = histogram.FromValues(res.Sample(), 100, histogram.MaxDiffArea)
			sampleMS = append(sampleMS, float64(now().Sub(t0))/float64(time.Millisecond))
			tr.end(id)
			if err != nil {
				return err
			}
			if len(h.Buckets) == 0 {
				r.check(fmt.Errorf("histogram over the reservoir sample is empty"))
			}
		}
		r.set("sample.ns_per_unit", median(nsPerUnit), len(nsPerUnit))
		r.set("histogram.sample_build_ms", median(sampleMS), len(sampleMS))
	}
	rate, n, err := scanRate(e.cat, tr, 200)
	if err != nil {
		return err
	}
	r.set("data.scan_rows_per_s", rate, n)
	return nil
}

// feedReservoir streams units of multiplicity over vals (shares as equal
// as integers allow) into a Reservoir of capacity k, as Sweep's sampled
// consumer does for the root table's rows.
func feedReservoir(k int, seed int64, vals []int64, units int64, tr *tracer) (*sample.Reservoir, time.Duration, error) {
	id := tr.start("sample.Reservoir")
	t0 := now()
	res, err := sample.NewReservoir(k, seed)
	if err != nil {
		return nil, 0, err
	}
	n := int64(len(vals))
	for j, v := range vals {
		share := units / n
		if int64(j) < units%n {
			share++
		}
		res.AddN(v, share)
	}
	d := now().Sub(t0)
	tr.end(id)
	return res, d, nil
}

// scanRate streams every column of every table through OpenChunks reps
// times and returns rows per second.
func scanRate(cat *data.Catalog, tr *tracer, reps int) (float64, int, error) {
	rows := 0
	t0 := now()
	for rep := 0; rep < reps; rep++ {
		for _, name := range cat.Names() {
			t := cat.MustTable(name)
			var n int
			if err := tr.do("data.Table.OpenChunks", func() error {
				var err error
				n, _, err = drainChunks(t)
				return err
			}); err != nil {
				return 0, 0, err
			}
			rows += n
		}
	}
	return float64(rows) / now().Sub(t0).Seconds(), reps, nil
}

// drainChunks reads t's every column in 4096-row chunks and returns the
// rows and decoded bytes seen.
func drainChunks(t *data.Table) (rows int, bytes int64, err error) {
	cols := t.ColumnNames()
	rd, err := t.OpenChunks(4096, cols...)
	if err != nil {
		return 0, 0, err
	}
	for {
		c, ok, err := rd.Next()
		if err != nil {
			rd.Close()
			return 0, 0, err
		}
		if !ok {
			break
		}
		rows += c.Len()
		bytes += int64(c.Len()) * int64(len(cols)) * 8
	}
	return rows, bytes, rd.Close()
}

func sortedIntKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
