package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	vals := []float64{7, 1, 10, 3, 9, 2, 8, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10},
	} {
		if got := nearestRank(vals, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if vals[0] != 7 {
		t.Errorf("nearestRank reordered its input")
	}
	if !math.IsNaN(nearestRank(nil, 50)) {
		t.Errorf("empty input should give NaN")
	}
	// 99.9% of 1000 is exactly rank 999, not 1000.
	thousand := make([]float64, 1000)
	for i := range thousand {
		thousand[i] = float64(i + 1)
	}
	if got := nearestRank(thousand, 99.9); got != 999 {
		t.Errorf("p99.9 of 1..1000 = %v, want 999", got)
	}
}

// TestTailRule: beyond counts the samples above a nearest-rank
// percentile, which decides the highest of p99.9/p99/p90 that leaves at
// least 10 samples beyond it.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{99, 90, 9},
		{100, 90, 10},
		{999, 99, 9},
		{1000, 99, 10},
		{1009, 99.9, 1},
		{9999, 99.9, 9},
		{10000, 99.9, 10},
	} {
		if got := beyond(c.n, c.p); got != c.beyond {
			t.Errorf("beyond(%d, p%v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
	}
}

// TestClosedLoopCost: a closed loop sums its operations' CPU time, takes
// their wall-clock latencies, and stops with the error of an operation that
// could not run.
func TestClosedLoopCost(t *testing.T) {
	r := newResult()
	f := func(i int) (string, cost, error) {
		if i == 4 {
			return "x", noRun, errors.New("cannot run")
		}
		return "x", cost{wall: time.Duration(i+1) * time.Millisecond, cpu: 2 * time.Millisecond}, nil
	}
	st, err := closedLoop(time.Hour, r, f)
	if err == nil || err.Error() != "cannot run" {
		t.Fatalf("err = %v, want the operation's error", err)
	}
	if len(st.all) != 4 || st.cpu != 8 || median(st.all) != 2 || r.attempted != 4 {
		t.Errorf("%d latencies, cpu %v ms, median %v ms, %d attempted; want 4, 8, 2, 4",
			len(st.all), st.cpu, median(st.all), r.attempted)
	}
}

// TestCPUClocks: the child-process reader sees the CPU time this process
// burns, as the in-process one does.
func TestCPUClocks(t *testing.T) {
	c0, err := childCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	p0 := processCPU()
	for start := now(); processCPU()-p0 < 200*time.Millisecond; {
		if now().Sub(start) > 10*time.Second {
			t.Fatalf("10 s of spinning used %v of CPU time", processCPU()-p0)
		}
	}
	c1, err := childCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	p := processCPU() - p0
	if d := c1 - c0; d < p-50*time.Millisecond || d > p+50*time.Millisecond {
		t.Errorf("spinning: process CPU %v, /proc stat %v", p, d)
	}
}

// sitserveBinary builds the daemon once for the serve smoke test.
func sitserveBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sitserve")
	cmd := exec.Command("go", "build", "-o", bin, "github.com/sitstats/sits/cmd/sitserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building sitserve: %v\n%s", err, out)
	}
	return bin
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bin := sitserveBinary(t)
	for _, w := range sortedKeys(workloads) {
		for _, traced := range []bool{false, true} {
			o := options{workload: w, seed: 3, seconds: 0.3, trace: traced, smoke: true, sitserve: bin}
			r, err := run(o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Fatalf("%s traced=%v: %d of %d failed: %v", w, traced, r.failed, r.attempted, r.failures)
			}
			if err := r.report(io.Discard, w, traced); err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				if _, ok := r.values[d.name]; !ok && !traced {
					t.Errorf("%s: end-to-end metric %s not measured", w, d.name)
				}
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(os.TempDir(), "perfbench-*")); len(left) > 0 {
		t.Errorf("temporary directories left behind: %v", left)
	}
}

// TestFailedSetupCleansUp: a daemon that cannot start fails the run and
// leaves no temporary directory behind.
func TestFailedSetupCleansUp(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	bad := filepath.Join(tmp, "no-such-sitserve")
	if _, err := run(options{workload: "serve", seed: 1, seconds: 0.3, smoke: true, sitserve: bad}); err == nil {
		t.Fatal("serve ran without a daemon")
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "perfbench-*")); len(left) > 0 {
		t.Errorf("temporary directories left behind: %v", left)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the command
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the command %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
}

// TestScheduleBatchWidths: every schedule batch holds distinct SITs and the
// same number of each join width, give or take one.
func TestScheduleBatchWidths(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	env, err := setupSchedule(options{seed: 1, smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := env.close(); err != nil {
			t.Error(err)
		}
	}()
	width := map[string]int{}
	for w, idx := range env.byWidth {
		for _, i := range idx {
			width[env.cands[i].spec.Canonical()] = w
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		sets, _, err := env.batch(seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(sets) != env.params.batch {
			t.Fatalf("seed %d: %d SITs, want %d", seed, len(sets), env.params.batch)
		}
		count := make([]int, len(env.byWidth))
		seen := map[string]bool{}
		for _, ts := range sets {
			c := ts.spec.Canonical()
			if seen[c] {
				t.Fatalf("seed %d: %s drawn twice", seed, c)
			}
			seen[c] = true
			count[width[c]]++
		}
		for _, n := range count {
			if n < env.params.batch/len(count) || n > (env.params.batch+len(count)-1)/len(count) {
				t.Fatalf("seed %d: width counts %v", seed, count)
			}
		}
	}
}
