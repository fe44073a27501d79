package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics a user of the system sees. Every untraced run
// reports all of them; see README.md for how each workload defines them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"latency_p50_ms", "ms"},
	{"rel_err_median_pct", "%"},
	{"max_rss_mb", "MB"},
}

var methodKeys = []string{"histsit", "sweep", "sweepindex", "sweepfull", "sweepexact"}

var tierKeys = []string{"result_hit", "plan_hit", "cold"}

// perLayer lists the metrics of single layers. Every traced run reports all
// of them; a layer the workload does not call reports 0.
var perLayer = func() []metricDef {
	var d []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			d = append(d, metricDef{n, unit})
		}
	}
	add("count", "sample.units.w3", "sample.units.w4")
	add("ns", "sample.ns_per_unit")
	for _, m := range methodKeys {
		for w := 2; w <= 4; w++ {
			add("ms", fmt.Sprintf("sit.build_ms.%s.w%d", m, w))
		}
	}
	for _, m := range methodKeys {
		add("%", "sit.rel_err_pct."+m)
	}
	add("ratio", "claim.sweep_over_sweepfull.w2", "claim.sweep_over_sweepfull.w3",
		"claim.sweep_over_sweepfull.w4", "claim.sched_over_naive")
	add("ms", "histogram.base_build_ms", "histogram.sample_build_ms", "histogram.result_build_ms",
		"btree.index_build_ms")
	add("1/s", "data.scan_rows_per_s")
	add("MB/s", "data.segment_scan_mb_s")
	add("ms", "sched.search_ms")
	add("count", "sched.expanded")
	add("ratio", "sched.cost_ratio")
	add("count", "sched.scans")
	add("ms", "sched.exec_ms", "sched.naive_exec_ms")
	for w := 2; w <= 4; w++ {
		add("ms", fmt.Sprintf("exec.materialize_ms.w%d", w))
	}
	for w := 2; w <= 4; w++ {
		add("ms", fmt.Sprintf("exec.unlimited_ms.w%d", w))
	}
	add("ns", "exec.ns_per_out_row")
	add("ratio", "exec.width2_speedup")
	for w := 2; w <= 4; w++ {
		add("MB", fmt.Sprintf("mem.spilled_mb.w%d", w))
	}
	add("ratio", "mem.spill_ratio")
	add("MB", "mem.peak_mb")
	add("ratio", "mem.peak_over_budget")
	for _, t := range tierKeys {
		add("us", "serve."+t+"_us.p50", "serve."+t+"_us.p99")
	}
	for _, t := range tierKeys {
		add("ratio", "serve."+t+"_frac")
	}
	add("ms", "serve.http_overhead_ms.p50")
	add("count", "serve.plan_evictions", "serve.sheds")
	add("MB", "registry.mem_peak_mb")
	add("us", "cardest.prepare_us.p50", "cardest.execute_us.p50", "query.parse_us.p50")
	for _, t := range tierKeys {
		add("us", "serve.estimate_us."+t)
	}
	add("%", "trace.overhead_pct")
	return d
}()

// result is what one benchmark run reports.
type result struct {
	attempted, failed int
	// failures keeps the first few check failures for the log.
	failures []string
	values   map[string]float64
	// samples records how many measurements stand behind a value.
	samples map[string]int
	// notes are printed with the human-readable summary (claims, chosen
	// percentiles, checks).
	notes []string
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check counts one checked operation; a non-nil err counts it as failed.
func (r *result) check(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail records a failed check without counting a new attempt (for checks
// on operations already counted).
func (r *result) fail(err error) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, err.Error())
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report writes the human-readable summary and, as the last line, the JSON
// result with the end-to-end (traced=false) or per-layer (traced=true)
// metrics. Values that are not finite are an error: the contract wants
// numbers.
func (r *result) report(w io.Writer, workload string, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := jsonResult{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]jsonMetric{}}
	fmt.Fprintf(w, "workload %s (traced=%v): %d operations, %d failed\n", workload, traced, r.attempted, r.failed)
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-34s %14.6g %-6s n=%d\n", "failed_frac", frac, "ratio", r.attempted)
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not a finite number (%v)", d.name, v)
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-6s n=%d\n", d.name, v, d.unit, r.samples[d.name])
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(b))
	return nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// methodKey maps a sit.Method name to its metric key ("Hist-SIT" ->
// "histsit").
func methodKey(name string) string {
	return strings.ToLower(strings.ReplaceAll(name, "-", ""))
}
