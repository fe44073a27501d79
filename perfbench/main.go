// Command perfbench is the repository's benchmark. It generates a workload
// from a seed, runs it for a fixed time, checks every output, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run,
// with spans recorded around the calls into each module) as one JSON object
// on the last line of standard output.
//
//	perfbench --workload create|schedule|materialize-spill|serve \
//	          --seed N --seconds S --trace 0|1 [--sitserve path]
//
// See README.md for the workloads, the metrics and which layer metric
// should move which end-to-end metric. The command exits non-zero when a
// check fails or the run cannot complete.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// now is the benchmark's clock. Timing is what a benchmark measures, so
// it reads the wall clock; nothing it decides depends on it except how
// long a phase runs.
var now = time.Now //statcheck:ignore rawrand the benchmark measures wall-clock time by definition

// options are the run's parameters.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sitserve string // path of the sitserve binary (serve workload)
	// smoke shrinks every input so a full run takes about a second; used by
	// the tests.
	smoke bool
}

// setupReps is how many times each workload builds its set-up; setup_s is
// the median.
const setupReps = 3

var workloads = map[string]func(options, *result) error{
	"create":            runCreate,
	"schedule":          runSchedule,
	"materialize-spill": runSpill,
	"serve":             runServe,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: create, schedule, materialize-spill or serve")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&o.sitserve, "sitserve", "", "sitserve binary for the serve workload")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	r, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := r.report(os.Stdout, o.workload, o.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if r.failed > 0 {
		os.Exit(1)
	}
}

// run executes one workload and returns its result. An error means the run
// could not complete; failed checks are counted in the result instead.
func run(o options) (*result, error) {
	f, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, sortedKeys(workloads))
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	// One thread of Go code. Every workload is one client doing one
	// operation at a time at pool width 1; with a second P the runtime would
	// spin it looking for work and run the collector on the VM's other CPU,
	// so timings would follow what the host does with two CPUs instead of
	// one (README.md gives the measurements). The sitserve child runs the
	// same way.
	runtime.GOMAXPROCS(1)
	r := newResult()
	if err := f(o, r); err != nil {
		return nil, err
	}
	if r.attempted == 0 {
		return nil, fmt.Errorf("no operation completed in %v s", o.seconds)
	}
	return r, nil
}

// repeatSetup builds a workload's set-up setupReps times, tearing down all
// but the last, and returns the last with the median set-up time in
// seconds. A traced run builds it once: it reports no setup_s.
func repeatSetup[T any](o options, setup func() (T, error), teardown func(T) error) (T, float64, error) {
	reps := setupReps
	if o.trace || o.smoke {
		reps = 1
	}
	var (
		env   T
		times []float64
	)
	for i := 0; i < reps; i++ {
		start := now()
		e, err := setup()
		if err != nil {
			return env, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, now().Sub(start).Seconds())
		if i < reps-1 {
			if err := teardown(e); err != nil {
				return env, 0, fmt.Errorf("set-up teardown: %w", err)
			}
		}
		env = e
	}
	return env, median(times), nil
}

// loopStats are the latencies (ms) of a closed-loop phase, grouped by
// operation kind, and the CPU time (ms) its operations used.
type loopStats struct {
	all    []float64
	byKind map[string][]float64
	cpu    float64
}

func newLoopStats() loopStats { return loopStats{byKind: map[string][]float64{}} }

func (st *loopStats) add(kind string, c cost) {
	v := ms(c.wall)
	st.all = append(st.all, v)
	st.byKind[kind] = append(st.byKind[kind], v)
	st.cpu += ms(c.cpu)
}

// opFunc is one closed-loop operation: it returns its kind, its cost — the
// operation alone, excluding the benchmark's checks — and the result of its
// checks. A cost that did not run (noRun) ends the loop with the error.
type opFunc func(i int) (kind string, c cost, err error)

// closedLoop runs f back to back for d (at least one operation).
func closedLoop(d time.Duration, r *result, f opFunc) (loopStats, error) {
	st := newLoopStats()
	defer noteSteal(r)()
	deadline := now().Add(d)
	for i := 0; i == 0 || now().Before(deadline); i++ {
		kind, c, err := f(i)
		if !c.ran() {
			return st, err
		}
		r.check(err)
		st.add(kind, c)
	}
	return st, nil
}

// noteSteal starts watching the host's steal time; the returned function
// notes its share of the CPU time since.
func noteSteal(r *result) func() {
	s0, t0 := cpuTimes()
	return func() {
		s1, t1 := cpuTimes()
		if t1 > t0 {
			r.note("host steal during the timed phase: %.1f%% of CPU time", 100*float64(s1-s0)/float64(t1-t0))
		}
	}
}

// interleaved runs a traced run's closed loop for d, alternating cycles of
// k untraced operations with k traced ones so that both see the same mix
// and the same drift of the host; it returns the two sides separately.
func interleaved(d time.Duration, k int, r *result, off, on opFunc) (loopStats, loopStats, error) {
	st := [2]loopStats{newLoopStats(), newLoopStats()}
	deadline := now().Add(d)
	for c := 0; c < 2 || now().Before(deadline); c++ {
		f, side := off, &st[c%2]
		if c%2 == 1 {
			f = on
		}
		for j := 0; j < k; j++ {
			kind, cst, err := f(c*k + j)
			if !cst.ran() {
				return st[0], st[1], err
			}
			r.check(err)
			side.add(kind, cst)
		}
	}
	return st[0], st[1], nil
}

// untracedClosedLoop is a closed-loop workload's untraced run: it times op
// for d with the RSS high-water mark reset after set-up, checks that no
// goroutine outlived it, and reports every end-to-end metric. relErrPct
// returns rel_err_median_pct over the run's SITs and their count.
func untracedClosedLoop(r *result, d time.Duration, setupS float64, baseline int, tailP float64,
	f opFunc, relErrPct func() (float64, int)) error {
	if !resetPeakRSS() {
		r.note("the kernel kept the RSS high-water mark: max_rss_mb includes set-up")
	}
	st, err := closedLoop(d, r, f)
	if err != nil {
		return err
	}
	checkGoroutines(r, baseline)
	r.set("setup_s", setupS, setupReps)
	n := len(st.all)
	r.set("cpu_ms_per_op", st.cpu/float64(n), n)
	r.set("latency_p50_ms", median(st.all), n)
	busy := 0.0
	for _, v := range st.all {
		busy += v
	}
	noteTiming(r, st.all, float64(n)/(busy/1000), tailP)
	v, c := relErrPct()
	r.set("rel_err_median_pct", v, c)
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	r.set("max_rss_mb", rss, 1)
	return nil
}

// noteTiming prints, without reporting them as metrics, the throughput (per
// second of wall-clock time spent in the operations) and the tail latency
// at the fixed percentile tailP. Both follow how much CPU the host lends the
// VM from one minute to the next, by far more than the bound a regression
// is judged by, so cpu_ms_per_op stands for throughput in the JSON.
func noteTiming(r *result, lat []float64, opsPerS, tailP float64) {
	n := len(lat)
	r.note("throughput %.4g operations per second of operation time (not gated)", opsPerS)
	r.note("latency p%g %.4g ms, %d of %d samples beyond it (not gated)", tailP, nearestRank(lat, tailP), beyond(n, tailP), n)
	if b := beyond(n, tailP); b < 10 {
		r.note("WARNING: only %d samples beyond p%g; the run is too short for this percentile", b, tailP)
	}
}

// traceOverhead compares per-kind median latencies of the traced phase with
// the untraced one: sum of traced medians over sum of untraced medians,
// minus one, in percent. Kinds missing from either phase are skipped.
func traceOverhead(untraced, traced loopStats) (float64, int) {
	var a, b float64
	n := 0
	for _, k := range sortedKeys(untraced.byKind) {
		t, ok := traced.byKind[k]
		if !ok {
			continue
		}
		a += median(untraced.byKind[k])
		b += median(t)
		n += len(t)
	}
	if a == 0 {
		return 0, 0
	}
	return (b/a - 1) * 100, n
}

// medianOf returns the median of the values (0 for none) and their count.
func medianOf(vals []float64) (float64, int) {
	if len(vals) == 0 {
		return 0, 0
	}
	return median(vals), len(vals)
}

// closeEnv releases a workload's set-up at the end of a run; failing to
// (a directory left behind) fails the run.
func closeEnv(r *result, close func() error) {
	if err := close(); err != nil {
		r.fail(fmt.Errorf("releasing the set-up: %w", err))
	}
}

// checkGoroutines fails the run when goroutines outlive the workload.
func checkGoroutines(r *result, baseline int) {
	if n := settleGoroutines(baseline); n > baseline {
		r.fail(fmt.Errorf("goroutines grew from %d to %d over the workload", baseline, n))
	}
}
