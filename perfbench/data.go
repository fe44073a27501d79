package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"

	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/datagen"
	"github.com/sitstats/sits/internal/exec"
	"github.com/sitstats/sits/internal/mem"
	"github.com/sitstats/sits/internal/query"
	"github.com/sitstats/sits/internal/sit"
	"github.com/sitstats/sits/internal/workload"
)

// chainSpec is the SIT over the sub-chain T(first) ... T(first+w-1) of a
// chain database. With attrAtEnd the statistic is on the last table's "a"
// (the Fig. 7 shape, SIT(Tw.a | T1 ⋈ ... ⋈ Tw)); otherwise on the first
// table's "a". Either way the join tree is a path, which is what
// sched.NewSITTask executes.
func chainSpec(first, w int, attrAtEnd bool) (query.SITSpec, error) {
	tables := make([]string, w)
	outs := make([]string, w-1)
	ins := make([]string, w-1)
	for i := range tables {
		tables[i] = datagen.ChainTableName(first + i)
	}
	for i := range outs {
		outs[i], ins[i] = "jnext", "jprev"
	}
	e, err := query.Chain(tables, outs, ins)
	if err != nil {
		return query.SITSpec{}, err
	}
	table := tables[0]
	if attrAtEnd {
		table = tables[w-1]
	}
	return query.NewSITSpec(table, "a", e)
}

// truthSet is the exact result distribution of one SIT's generating query
// and the fixed range queries its quality is measured on.
type truthSet struct {
	spec    query.SITSpec
	truth   *workload.Truth
	queries []workload.RangeQuery
}

// newTruthSet executes spec's generating query exactly and draws nq range
// queries whose true answer holds at least 0.05% of the result (floored at
// 10 rows), as the Fig. 7 harness does.
func newTruthSet(cat *data.Catalog, spec query.SITSpec, opts exec.Options, rng *rand.Rand, nq int) (truthSet, error) {
	vals, err := exec.AttrValuesOpts(cat, spec.Expr, spec.Table, spec.Attr, opts)
	if err != nil {
		return truthSet{}, err
	}
	truth := workload.NewTruth(vals)
	lo, ok := truth.Min()
	if !ok {
		return truthSet{}, fmt.Errorf("generating query of %s is empty", spec.String())
	}
	hi, _ := truth.Max()
	minCount := int64(float64(truth.Len()) * 0.0005)
	if minCount < 10 {
		minCount = 10
	}
	qs, err := workload.FilteredRangeQueries(rng, lo, hi, nq, minCount, truth)
	if err != nil {
		return truthSet{}, err
	}
	return truthSet{spec: spec, truth: truth, queries: qs}, nil
}

// medianRelErr is the median relative error of s over the truth set's
// queries.
func (ts truthSet) medianRelErr(s *sit.SIT) (float64, error) {
	res, err := workload.Evaluate(s, ts.truth, ts.queries)
	if err != nil {
		return 0, err
	}
	return res.MedianRelError, nil
}

// segmentCatalog writes every table of cat as a SEG1 segment file into dir
// and loads the segment-backed catalog through data.LoadCatalog, the path
// the CLIs use.
func segmentCatalog(cat *data.Catalog, dir string) (*data.Catalog, error) {
	names := cat.Names()
	for _, n := range names {
		if err := data.WriteSegment(filepath.Join(dir, n+".seg"), cat.MustTable(n)); err != nil {
			return nil, err
		}
	}
	return data.LoadCatalog("", dir, names)
}

// closeCatalog closes every segment-backed table of cat.
func closeCatalog(cat *data.Catalog) error {
	var first error
	for _, n := range cat.Names() {
		if err := cat.MustTable(n).Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// sameSIT reports whether two SITs carry identical histograms and
// cardinalities, bit for bit.
func sameSIT(got, want *sit.SIT) error {
	if got.EstimatedCard != want.EstimatedCard {
		return fmt.Errorf("%s %s: cardinality %v, reference %v", got.Method, got.Spec.String(), got.EstimatedCard, want.EstimatedCard)
	}
	if !reflect.DeepEqual(got.Hist, want.Hist) {
		return fmt.Errorf("%s %s: histogram differs from the reference", got.Method, got.Spec.String())
	}
	return nil
}

// sameHist reports whether two SITs carry identical histograms.
func sameHist(got, want *sit.SIT) error {
	if !reflect.DeepEqual(got.Hist, want.Hist) {
		return fmt.Errorf("%s %s: histogram differs from %s", got.Method, got.Spec.String(), want.Method)
	}
	return nil
}

// closeBuilder closes b and checks the lifecycle guarantees of its private
// governor: every reservation released and the spill directory removed.
func closeBuilder(b *sit.Builder) error {
	gov := b.Governor()
	var dir string
	if gov != nil && gov.Used() != 0 {
		b.Close()
		return fmt.Errorf("governor still holds %d bytes after the build", gov.Used())
	}
	if gov != nil {
		dir = spillDir(gov)
	}
	if err := b.Close(); err != nil {
		return err
	}
	if dir != "" {
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			return fmt.Errorf("spill dir %s survives Close", dir)
		}
	}
	return nil
}

// spillDir returns the governor's spill directory, creating the (lazily
// made) run store if nothing spilled yet, so Close has a directory to
// remove in every case.
func spillDir(gov *mem.Governor) string {
	rs, err := gov.Runs()
	if err != nil || rs == nil {
		return ""
	}
	return rs.Dir()
}
