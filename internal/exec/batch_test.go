package exec

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/mem"
	"github.com/sitstats/sits/internal/query"
)

func drainBatches(t *testing.T, op BatchOperator) [][]int64 {
	t.Helper()
	var out [][]int64
	for {
		b, ok := op.NextBatch()
		if !ok {
			return out
		}
		n := b.NumRows()
		for i := 0; i < n; i++ {
			r := i
			if b.Sel != nil {
				r = int(b.Sel[i])
			}
			row := make([]int64, len(b.Cols))
			for c, col := range b.Cols {
				row[c] = col[r]
			}
			out = append(out, row)
		}
	}
}

func TestBatchScan(t *testing.T) {
	tab := data.MustNewTable("R", "x", "a")
	for i := int64(0); i < 2500; i++ {
		if err := tab.AppendRow(i, i*10); err != nil {
			t.Fatal(err)
		}
	}
	s := NewBatchScan(tab)
	if !reflect.DeepEqual(s.Columns(), []string{"R.x", "R.a"}) {
		t.Errorf("columns = %v", s.Columns())
	}
	var rows int
	var batches int
	for {
		b, ok := s.NextBatch()
		if !ok {
			break
		}
		batches++
		if b.Sel != nil {
			t.Fatal("scan batches must not carry a selection vector")
		}
		for i, v := range b.Cols[0] {
			if b.Cols[1][i] != v*10 {
				t.Fatalf("row %d: a = %d, want %d", rows+i, b.Cols[1][i], v*10)
			}
		}
		rows += b.NumRows()
	}
	if rows != 2500 {
		t.Errorf("rows = %d, want 2500", rows)
	}
	if batches != 3 { // 1024 + 1024 + 452
		t.Errorf("batches = %d, want 3", batches)
	}
	s.Reset()
	if b, ok := s.NextBatch(); !ok || b.NumRows() != 1024 {
		t.Error("Reset did not rewind the scan")
	}
}

func TestAdaptiveBatchSize(t *testing.T) {
	cases := []struct{ ncols, want int }{
		{0, DefaultBatchSize},
		{1, DefaultBatchSize},
		{16, DefaultBatchSize}, // 128KiB / (8*16) = exactly 1024 rows
		{17, 512},
		{33, 256},
		{256, MinBatchSize},
		{10000, MinBatchSize},
	}
	for _, c := range cases {
		if got := AdaptiveBatchSize(c.ncols); got != c.want {
			t.Errorf("AdaptiveBatchSize(%d) = %d, want %d", c.ncols, got, c.want)
		}
	}
	// Always a power of two within [MinBatchSize, DefaultBatchSize], and
	// monotonically non-increasing in the column count.
	prev := DefaultBatchSize
	for n := 1; n < 2000; n++ {
		got := AdaptiveBatchSize(n)
		if got < MinBatchSize || got > DefaultBatchSize || got&(got-1) != 0 {
			t.Fatalf("AdaptiveBatchSize(%d) = %d out of contract", n, got)
		}
		if got > prev {
			t.Fatalf("AdaptiveBatchSize not monotone at %d: %d > %d", n, got, prev)
		}
		prev = got
	}
}

func TestBatchFilter(t *testing.T) {
	tab := makeTable(t, "R", []string{"x", "a"}, [][]int64{{1, 10}, {2, 20}, {3, 30}, {4, 40}})
	f, err := NewBatchRangeFilter(NewBatchScan(tab), "R.a", 15, 35)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{2, 20}, {3, 30}}
	if rows := drainBatches(t, f); !reflect.DeepEqual(rows, want) {
		t.Errorf("filtered = %v", rows)
	}
	f.Reset()
	if rows := drainBatches(t, f); !reflect.DeepEqual(rows, want) {
		t.Errorf("after Reset = %v", rows)
	}
	// A filter over a filter narrows the inherited selection vector.
	g, err := NewBatchRangeFilter(f, "R.x", 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	f.Reset()
	if rows := drainBatches(t, g); !reflect.DeepEqual(rows, [][]int64{{3, 30}}) {
		t.Errorf("stacked filter = %v", rows)
	}
	if _, err := NewBatchRangeFilter(NewBatchScan(tab), "R.zz", 0, 1); err == nil {
		t.Error("bad column: want error")
	}
}

// TestVecHashJoinBitIdentical: the vectorized join must produce exactly the
// same output sequence (not just multiset) as the nested-loop reference, at
// every parallelism level.
func TestVecHashJoinBitIdentical(t *testing.T) {
	r, s := randomJoinInputs(3, 5000, 4000, 300)
	cond := JoinCond{LeftCol: "R.x", RightCol: "S.y"}
	want := refJoin(refTable(r), refTable(s), cond).rows
	for _, p := range []int{1, 2, 4, 0} {
		vj, err := NewVecHashJoin(NewBatchScan(r), NewBatchScan(s), p, cond)
		if err != nil {
			t.Fatal(err)
		}
		if got := drainBatches(t, vj); !reflect.DeepEqual(got, want) {
			t.Fatalf("parallelism %d: VecHashJoin output differs from the reference (%d vs %d rows)", p, len(got), len(want))
		}
	}
}

// TestVecHashJoinLongChain exercises a match chain longer than a batch, which
// must pause and resume across NextBatch calls.
func TestVecHashJoinLongChain(t *testing.T) {
	r := data.MustNewTable("R", "x", "p")
	for i := int64(0); i < 3000; i++ {
		if err := r.AppendRow(7, i); err != nil {
			t.Fatal(err)
		}
	}
	s := makeTable(t, "S", []string{"y"}, [][]int64{{7}, {8}, {7}})
	vj, err := NewVecHashJoin(NewBatchScan(r), NewBatchScan(s), 1, JoinCond{LeftCol: "R.x", RightCol: "S.y"})
	if err != nil {
		t.Fatal(err)
	}
	rows := drainBatches(t, vj)
	if len(rows) != 6000 {
		t.Fatalf("rows = %d, want 6000", len(rows))
	}
	// Matches stream in build order per probe row, twice.
	for i := 0; i < 3000; i++ {
		if rows[i][1] != int64(i) || rows[3000+i][1] != int64(i) {
			t.Fatalf("row %d: chain order broken: %v / %v", i, rows[i], rows[3000+i])
		}
	}
	vj.Reset()
	if again := drainBatches(t, vj); len(again) != 6000 {
		t.Errorf("after Reset: %d rows", len(again))
	}
}

func TestVecHashJoinEmptyInputs(t *testing.T) {
	empty := data.MustNewTable("E", "x")
	full := makeTable(t, "F", []string{"y"}, [][]int64{{1}, {2}})
	j1, err := NewVecHashJoin(NewBatchScan(empty), NewBatchScan(full), 1, JoinCond{LeftCol: "E.x", RightCol: "F.y"})
	if err != nil {
		t.Fatal(err)
	}
	if rows := drainBatches(t, j1); len(rows) != 0 {
		t.Errorf("empty build side: %d rows", len(rows))
	}
	j2, err := NewVecHashJoin(NewBatchScan(full), NewBatchScan(empty), 1, JoinCond{LeftCol: "F.y", RightCol: "E.x"})
	if err != nil {
		t.Fatal(err)
	}
	if rows := drainBatches(t, j2); len(rows) != 0 {
		t.Errorf("empty probe side: %d rows", len(rows))
	}
	if _, err := NewVecHashJoin(NewBatchScan(full), NewBatchScan(empty), 1); err == nil {
		t.Error("no conditions: want error")
	}
	if _, err := NewVecHashJoin(NewBatchScan(full), NewBatchScan(empty), 1, JoinCond{LeftCol: "F.q", RightCol: "E.x"}); err == nil {
		t.Error("bad column: want error")
	}
}

// randomMultiCondInputs builds tables with duplicates on both sides, negative
// keys, and (sometimes) empty inputs, for multi-condition join testing.
func randomMultiCondInputs(seed int64) (*data.Table, *data.Table, []JoinCond) {
	rng := rand.New(rand.NewSource(seed))
	n1, n2 := rng.Intn(120), rng.Intn(120)
	if seed%7 == 0 {
		n1 = 0 // occasionally empty build side
	}
	if seed%11 == 0 {
		n2 = 0 // occasionally empty probe side
	}
	dom := int64(2 + rng.Intn(6))                           // tiny domains force duplicates
	draw := func() int64 { return rng.Int63n(2*dom) - dom } // negative and positive keys
	r := data.MustNewTable("R", "w", "y", "p")
	for i := 0; i < n1; i++ {
		r.AppendRow(draw(), draw(), rng.Int63n(50))
	}
	s := data.MustNewTable("S", "x", "z", "q")
	for i := 0; i < n2; i++ {
		s.AppendRow(draw(), draw(), rng.Int63n(50))
	}
	conds := []JoinCond{
		{LeftCol: "R.w", RightCol: "S.x"},
		{LeftCol: "R.y", RightCol: "S.z"},
	}
	return r, s, conds
}

// TestJoinPropertyMultiCond is the join property test: on randomized
// multi-condition inputs (duplicates on both sides, negative keys, empty
// inputs) VecHashJoin must reproduce the nested-loop reference row for row at
// every parallelism level, in memory and spilled through the grace join.
func TestJoinPropertyMultiCond(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r, s, conds := randomMultiCondInputs(seed)
		want := refJoin(refTable(r), refTable(s), conds...).rows
		for _, budget := range []int64{0, 1} {
			for _, p := range []int{1, 3} {
				gov := mem.NewGovernor(budget)
				vj, err := NewVecHashJoinMem(NewBatchScan(r), NewBatchScan(s), p, 0, gov, conds...)
				if err != nil {
					t.Fatal(err)
				}
				if got := drainBatches(t, vj); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d budget %d parallelism %d: VecHashJoin != reference (%d vs %d rows)",
						seed, budget, p, len(got), len(want))
				}
				ClosePlan(vj)
				if err := gov.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestPlanBatchMatchesRowReference: the full batch pipeline must be
// row-for-row identical to the nested-loop reference evaluated in the same
// join order, at every parallelism level and budget — the executor's
// acceptance check.
func TestPlanBatchMatchesRowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cat := data.NewCatalog()
	r := data.MustNewTable("R", "x")
	for i := 0; i < 400; i++ {
		r.AppendRow(rng.Int63n(40))
	}
	s := data.MustNewTable("S", "y", "z", "a")
	for i := 0; i < 500; i++ {
		s.AppendRow(rng.Int63n(40), rng.Int63n(30), rng.Int63n(100))
	}
	u := data.MustNewTable("T", "w", "b")
	for i := 0; i < 300; i++ {
		u.AppendRow(rng.Int63n(30), rng.Int63n(100))
	}
	cat.MustAdd(r)
	cat.MustAdd(s)
	cat.MustAdd(u)
	e, err := query.Chain([]string{"R", "S", "T"}, []string{"x", "z"}, []string{"y", "w"})
	if err != nil {
		t.Fatal(err)
	}

	// The connectivity-preserving join order spelled out: each new table is
	// the build side (left), the accumulated result the probe side (right).
	j1 := refJoin(refTable(s), refTable(r), JoinCond{LeftCol: "S.y", RightCol: "R.x"})
	want := refJoin(refTable(u), j1, JoinCond{LeftCol: "T.w", RightCol: "S.z"})
	if ref, err := refPlan(cat, e); err != nil || !reflect.DeepEqual(ref, want) {
		t.Fatalf("refPlan disagrees with the spelled-out join order (err %v)", err)
	}

	for _, budget := range []int64{0, 1} {
		for _, p := range []int{1, 2, 0} {
			gov := mem.NewGovernor(budget)
			op, err := PlanBatch(cat, e, Options{Parallelism: p, Gov: gov})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(op.Columns(), want.cols) {
				t.Fatalf("columns = %v, want %v", op.Columns(), want.cols)
			}
			got := drainBatches(t, op)
			if len(got) != len(want.rows) {
				t.Fatalf("budget %d parallelism %d: %d rows, want %d", budget, p, len(got), len(want.rows))
			}
			if !reflect.DeepEqual(got, want.rows) {
				t.Fatalf("budget %d parallelism %d: batch plan output differs from nested-loop reference", budget, p)
			}
			ClosePlan(op)
			if err := gov.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRangeCardinalityOpts: the counting drain agrees with filtering.
func TestRangeCardinalityOpts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cat := data.NewCatalog()
	r := data.MustNewTable("R", "x")
	for i := 0; i < 300; i++ {
		r.AppendRow(rng.Int63n(25))
	}
	s := data.MustNewTable("S", "y", "a")
	for i := 0; i < 400; i++ {
		s.AppendRow(rng.Int63n(25), rng.Int63n(200))
	}
	cat.MustAdd(r)
	cat.MustAdd(s)
	e := query.MustNewExpr(query.JoinPred{LeftTable: "R", LeftAttr: "x", RightTable: "S", RightAttr: "y"})
	vals, err := AttrValues(cat, e, "S", "a")
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, v := range vals {
		if v >= 50 && v <= 120 {
			want++
		}
	}
	for _, p := range []int{1, 2} {
		got, err := RangeCardinalityOpts(cat, e, "S", "a", 50, 120, Options{Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("parallelism %d: range cardinality = %d, want %d", p, got, want)
		}
	}
	card, err := Cardinality(cat, e)
	if err != nil {
		t.Fatal(err)
	}
	if card != int64(len(vals)) {
		t.Errorf("cardinality = %d, want %d", card, len(vals))
	}
}
