package exec

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/mem"
	"github.com/sitstats/sits/internal/query"
)

func makeTable(t *testing.T, name string, cols []string, rows [][]int64) *data.Table {
	t.Helper()
	tab := data.MustNewTable(name, cols...)
	for _, r := range rows {
		if err := tab.AppendRow(r...); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func TestHashJoinSmall(t *testing.T) {
	r := makeTable(t, "R", []string{"x"}, [][]int64{{1}, {2}, {2}, {5}})
	s := makeTable(t, "S", []string{"y", "a"}, [][]int64{{2, 100}, {3, 200}, {2, 300}, {1, 400}})
	j, err := NewVecHashJoin(NewBatchScan(r), NewBatchScan(s), 1, JoinCond{LeftCol: "R.x", RightCol: "S.y"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(j.Columns(), []string{"R.x", "S.y", "S.a"}) {
		t.Errorf("columns = %v", j.Columns())
	}
	// Probe rows in order, each with its build matches in build order.
	want := [][]int64{
		{2, 2, 100}, {2, 2, 100},
		{2, 2, 300}, {2, 2, 300},
		{1, 1, 400},
	}
	if rows := drainBatches(t, j); !reflect.DeepEqual(rows, want) {
		t.Errorf("join = %v, want %v", rows, want)
	}
	// Reset re-probes with the retained build side.
	j.Reset()
	if got := drainBatches(t, j); !reflect.DeepEqual(got, want) {
		t.Errorf("after Reset: %v", got)
	}
}

// randomJoinInputs builds two random tables for join equivalence testing.
func randomJoinInputs(seed int64, n1, n2, domain int) (*data.Table, *data.Table) {
	rng := rand.New(rand.NewSource(seed))
	r := data.MustNewTable("R", "x", "p")
	for i := 0; i < n1; i++ {
		r.AppendRow(rng.Int63n(int64(domain)), rng.Int63n(100))
	}
	s := data.MustNewTable("S", "y", "q")
	for i := 0; i < n2; i++ {
		s.AppendRow(rng.Int63n(int64(domain)), rng.Int63n(100))
	}
	return r, s
}

// TestJoinEquivalence: the hash join must reproduce the nested-loop
// reference row for row at every parallelism level.
func TestJoinEquivalence(t *testing.T) {
	cond := JoinCond{LeftCol: "R.x", RightCol: "S.y"}
	for seed := int64(0); seed < 5; seed++ {
		r, s := randomJoinInputs(seed, 200, 150, 20)
		want := refJoin(refTable(r), refTable(s), cond).rows
		for _, p := range []int{1, 4} {
			hj, err := NewVecHashJoin(NewBatchScan(r), NewBatchScan(s), p, cond)
			if err != nil {
				t.Fatal(err)
			}
			if got := drainBatches(t, hj); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d parallelism %d: hash join != nested loop (%d vs %d rows)", seed, p, len(got), len(want))
			}
		}
	}
}

// Property: the hash join agrees with the reference on arbitrary small
// inputs.
func TestJoinEquivalenceQuick(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		r := data.MustNewTable("R", "x")
		for _, v := range xs {
			r.AppendRow(int64(v % 8))
		}
		s := data.MustNewTable("S", "y")
		for _, v := range ys {
			s.AppendRow(int64(v % 8))
		}
		cond := JoinCond{LeftCol: "R.x", RightCol: "S.y"}
		hj, err := NewVecHashJoin(NewBatchScan(r), NewBatchScan(s), 1, cond)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(drainBatches(t, hj), refJoin(refTable(r), refTable(s), cond).rows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPlanAndMaterializeChain(t *testing.T) {
	cat := data.NewCatalog()
	cat.MustAdd(makeTable(t, "R", []string{"x"}, [][]int64{{1}, {2}}))
	cat.MustAdd(makeTable(t, "S", []string{"y", "z", "a"}, [][]int64{{1, 7, 10}, {2, 8, 20}, {2, 7, 30}}))
	cat.MustAdd(makeTable(t, "T", []string{"w", "b"}, [][]int64{{7, 100}, {7, 200}, {8, 300}}))
	e, err := query.Chain([]string{"R", "S", "T"}, []string{"x", "z"}, []string{"y", "w"})
	if err != nil {
		t.Fatal(err)
	}
	card, err := Cardinality(cat, e)
	if err != nil {
		t.Fatal(err)
	}
	// R(1)-S(1,7,10)-T(7,*): 2 rows; R(2)-S(2,8,20)-T(8,300): 1; R(2)-S(2,7,30)-T(7,*): 2.
	if card != 5 {
		t.Errorf("cardinality = %d, want 5", card)
	}
	vals, err := AttrValues(cat, e, "S", "a")
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	if !reflect.DeepEqual(vals, []int64{10, 10, 20, 30, 30}) {
		t.Errorf("S.a values = %v", vals)
	}
	n, err := RangeCardinality(cat, e, "S", "a", 15, 35)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("range cardinality = %d, want 3", n)
	}
	op, err := PlanBatch(cat, e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ClosePlan(op)
	ref, err := refPlan(cat, e)
	if err != nil {
		t.Fatal(err)
	}
	if got := drainBatches(t, op); !reflect.DeepEqual(op.Columns(), ref.cols) || !reflect.DeepEqual(got, ref.rows) {
		t.Errorf("plan %v = %v, want %v %v", op.Columns(), got, ref.cols, ref.rows)
	}
}

func TestPlanBaseTable(t *testing.T) {
	cat := data.NewCatalog()
	cat.MustAdd(makeTable(t, "R", []string{"x"}, [][]int64{{1}, {2}}))
	e, err := query.NewBaseExpr("R")
	if err != nil {
		t.Fatal(err)
	}
	card, err := Cardinality(cat, e)
	if err != nil {
		t.Fatal(err)
	}
	if card != 2 {
		t.Errorf("cardinality = %d", card)
	}
}

func TestPlanMultiPredicate(t *testing.T) {
	cat := data.NewCatalog()
	cat.MustAdd(makeTable(t, "R", []string{"w", "y"}, [][]int64{{1, 5}, {1, 6}, {2, 5}}))
	cat.MustAdd(makeTable(t, "S", []string{"x", "z"}, [][]int64{{1, 5}, {1, 7}, {2, 5}}))
	e, err := query.NewExpr(
		query.JoinPred{LeftTable: "R", LeftAttr: "w", RightTable: "S", RightAttr: "x"},
		query.JoinPred{LeftTable: "R", LeftAttr: "y", RightTable: "S", RightAttr: "z"},
	)
	if err != nil {
		t.Fatal(err)
	}
	card, err := Cardinality(cat, e)
	if err != nil {
		t.Fatal(err)
	}
	// Matches: (1,5)-(1,5) and (2,5)-(2,5).
	if card != 2 {
		t.Errorf("multi-predicate cardinality = %d, want 2", card)
	}
}

func TestPlanErrors(t *testing.T) {
	cat := data.NewCatalog()
	cat.MustAdd(makeTable(t, "R", []string{"x"}, nil))
	e := query.MustNewExpr(query.JoinPred{LeftTable: "R", LeftAttr: "x", RightTable: "S", RightAttr: "y"})
	if _, err := PlanBatch(cat, e, Options{}); err == nil {
		t.Error("missing table S: want error")
	}
	if _, err := AttrValues(cat, e, "S", "a"); err == nil {
		t.Error("AttrValues with missing table: want error")
	}
}

// TestOperatorResets: every operator's Reset replays its stream — filters
// rewind their input, hash joins re-probe the retained build side (or replay
// their spilled output runs), and pipelines restart their morsels.
func TestOperatorResets(t *testing.T) {
	cat, e := chainCatalog(1_000, 200)
	gov := mem.NewGovernor(1)
	defer func() {
		if err := gov.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	for _, opts := range []Options{
		{Parallelism: 1},
		{Parallelism: 1, Gov: gov},
		{Parallelism: 4, BatchSize: 64},
	} {
		op, err := PlanBatch(cat, e, opts)
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewBatchRangeFilter(op, "T3.a", 100, 300)
		if err != nil {
			t.Fatal(err)
		}
		first := drainBatches(t, f)
		if len(first) == 0 {
			t.Fatal("filtered plan is empty; the test data is broken")
		}
		f.Reset()
		if again := drainBatches(t, f); !reflect.DeepEqual(again, first) {
			t.Errorf("parallelism %d budgeted %v: Reset replay diverges (%d vs %d rows)",
				opts.Parallelism, opts.Gov != nil, len(again), len(first))
		}
		ClosePlan(f)
	}
}
