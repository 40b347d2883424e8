package experiments

import (
	"fmt"

	"firehose/internal/core"
	"firehose/internal/simindex"
)

// IndexStudyResult reproduces the paper's Section 3 argument against reusing
// the SimHash index of Manku et al. at λc = 18: the table count of a
// block-permutation index is exponential in the distance threshold. For the
// feasible strict-threshold regime it also measures UniBin with its global
// bin indexed (IndexOn) against the same bin scanned (IndexOff), quantifying
// what the index would have bought had λc been small.
type IndexStudyResult struct {
	Plans []simindex.Plan
	// StrictLambdaC is the threshold of the IndexOn vs IndexOff comparison.
	StrictLambdaC int
	Indexed, Scan PerfResult
	// tables is the index's table count at StrictLambdaC
	// (simindex.AutoParams): every post the ring stores is also stored once
	// per table, which the counters' StoredPeak does not count.
	tables int64
}

// IndexStudy runs the feasibility analysis and the strict-threshold
// comparison.
func IndexStudy(ds *Dataset) (*IndexStudyResult, error) {
	res := &IndexStudyResult{
		Plans:         simindex.FeasiblePlans([]int{3, 6, 10, 14, 18}, 24),
		StrictLambdaC: 3,
	}
	params, ok := simindex.AutoParams(res.StrictLambdaC)
	if !ok {
		return nil, fmt.Errorf("experiments: λc=%d is not index-feasible", res.StrictLambdaC)
	}
	res.tables = params.TableCount()
	g := ds.Graph(DefaultLambdaA)
	posts := ds.Posts()
	setting := fmt.Sprintf("λc=%d", res.StrictLambdaC)
	// Both policies are explicit: under IndexAuto this strict λc would index
	// the bin too, and the comparison would measure probes against probes.
	th := core.Thresholds{
		LambdaC: res.StrictLambdaC,
		LambdaT: DefaultLambdaTMillis,
		LambdaA: DefaultLambdaA,
		Index:   core.IndexOn,
	}
	res.Indexed = measure(core.NewUniBin(g, th), posts, setting)
	th.Index = core.IndexOff
	res.Scan = measure(core.NewUniBin(g, th), posts, setting)
	return res, nil
}

// feasibilityTable renders index plans as the Section 3 feasibility table.
// Pure function of the plans (no measurements), so its output is
// deterministic — the report golden test renders it directly.
func feasibilityTable(plans []simindex.Plan) *Table {
	t := &Table{
		Title:   "Section 3: SimHash index feasibility (block-permutation tables vs λc)",
		Columns: []string{"λc", "blocks", "key bits", "tables", "GiB per 1M posts"},
	}
	for _, p := range plans {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.Params.K), fmt.Sprintf("%d", p.Params.Blocks),
			fmt.Sprintf("%d", p.KeyBits), fmtInt(uint64(p.Tables)),
			fmtFloat(p.CopiesGB),
		})
	}
	return t
}

// Table renders the study.
func (r *IndexStudyResult) Table() *Table {
	t := feasibilityTable(r.Plans)
	t.Notes = append(t.Notes,
		"the paper's λc=18 needs a table count exponential in λc — Section 4's scan-based algorithms exist because of this row")
	t.Notes = append(t.Notes, fmt.Sprintf(
		"at a strict λc=%d the index IS feasible: UniBin's indexed bin probes %s candidates vs %s full-window comparisons when scanned (runtime %s vs %s); "+
			"its memory cost is %d tables × %s stored peak = %s index entries on top of the ring's %s copies",
		r.StrictLambdaC,
		fmtInt(r.Indexed.Comparisons), fmtInt(r.Scan.Comparisons),
		fmtDur(r.Indexed.RunTime), fmtDur(r.Scan.RunTime),
		r.tables, fmtInt(uint64(r.Indexed.PeakCopies)), fmtInt(uint64(r.tables*r.Indexed.PeakCopies)),
		fmtInt(uint64(r.Scan.PeakCopies))))
	return t
}
