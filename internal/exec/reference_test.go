package exec

import (
	"fmt"

	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/query"
)

// This file is the executor's test oracle: a deliberately naive evaluator
// over data.Table that every bit-identity, property, fuzz and spill suite
// compares against. It shares no code with the operators under test beyond
// columnIndex.

// refRel is a relation as the reference evaluator holds it: qualified column
// names and row-major rows.
type refRel struct {
	cols []string
	rows [][]int64
}

// refTable reads every row of a table, qualifying its column names.
func refTable(t *data.Table) refRel {
	names := t.ColumnNames()
	rel := refRel{cols: make([]string, len(names))}
	for i, n := range names {
		rel.cols[i] = t.Name() + "." + n
	}
	for r := 0; r < t.NumRows(); r++ {
		row := make([]int64, len(names))
		for i, n := range names {
			row[i] = t.MustColumn(n)[r]
		}
		rel.rows = append(rel.rows, row)
	}
	return rel
}

// refJoin is the nested-loop equi-join on the conjunction of conds: for each
// probe (right) row in input order, every matching build (left) row in input
// order, emitting left-row ++ right-row. That is the row order VecHashJoin
// and the grace join promise at any width and budget.
func refJoin(left, right refRel, conds ...JoinCond) refRel {
	lIdx := make([]int, len(conds))
	rIdx := make([]int, len(conds))
	for i, c := range conds {
		lIdx[i] = mustColumn(left.cols, c.LeftCol)
		rIdx[i] = mustColumn(right.cols, c.RightCol)
	}
	out := refRel{cols: append(append([]string(nil), left.cols...), right.cols...)}
	for _, r := range right.rows {
	build:
		for _, l := range left.rows {
			for i := range conds {
				if l[lIdx[i]] != r[rIdx[i]] {
					continue build
				}
			}
			out.rows = append(out.rows, append(append([]int64(nil), l...), r...))
		}
	}
	return out
}

// refPlan evaluates a join expression in PlanBatch's join order: start from
// the expression's first table and repeatedly take the first remaining
// predicate touching the joined set — joining the new table as the build
// side, or filtering when both sides are already joined.
func refPlan(cat *data.Catalog, e *query.Expr) (refRel, error) {
	tables := e.Tables()
	first, err := cat.Table(tables[0])
	if err != nil {
		return refRel{}, err
	}
	acc := refTable(first)
	joined := map[string]bool{tables[0]: true}
	remaining := append([]query.JoinPred(nil), e.Joins()...)
	for len(remaining) > 0 {
		i := 0
		for i < len(remaining) && !joined[remaining[i].LeftTable] && !joined[remaining[i].RightTable] {
			i++
		}
		if i == len(remaining) {
			return refRel{}, fmt.Errorf("reference: expression %q is not connected", e.String())
		}
		p := remaining[i]
		remaining = append(remaining[:i], remaining[i+1:]...)
		lc, rc := p.LeftTable+"."+p.LeftAttr, p.RightTable+"."+p.RightAttr
		switch {
		case joined[p.LeftTable] && joined[p.RightTable]:
			a, b := mustColumn(acc.cols, lc), mustColumn(acc.cols, rc)
			var kept [][]int64
			for _, row := range acc.rows {
				if row[a] == row[b] {
					kept = append(kept, row)
				}
			}
			acc.rows = kept
		default:
			newTable, buildCol, probeCol := p.RightTable, rc, lc
			if joined[p.RightTable] {
				newTable, buildCol, probeCol = p.LeftTable, lc, rc
			}
			t, err := cat.Table(newTable)
			if err != nil {
				return refRel{}, err
			}
			acc = refJoin(refTable(t), acc, JoinCond{LeftCol: buildCol, RightCol: probeCol})
			joined[newTable] = true
		}
	}
	return acc, nil
}

func mustColumn(cols []string, name string) int {
	i, err := columnIndex(cols, name)
	if err != nil {
		panic(err)
	}
	return i
}
