package summary

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
)

// perComboGroupBy is the group-by answer of one masked count per value
// combination: every combination the predicate admits is estimated with
// EstimateCount on pred ∧ (grouped attributes = combination), and the
// positive estimates are the groups.
func perComboGroupBy(t *testing.T, s *Summary, groupAttrs []int, pred *query.Predicate) []core.GroupEstimate {
	t.Helper()
	base := pred
	if base == nil {
		base = query.NewPredicate(s.Schema().NumAttrs())
	}
	var out []core.GroupEstimate
	vals := make([]int, len(groupAttrs))
	var walk func(k int)
	walk = func(k int) {
		if k == len(groupAttrs) {
			q := base.Clone()
			for i, a := range groupAttrs {
				q.WhereEq(a, vals[i])
			}
			est, err := s.EstimateCount(q)
			if err != nil {
				t.Fatal(err)
			}
			if est > 0 {
				out = append(out, core.GroupEstimate{Values: append([]int(nil), vals...), Estimate: est})
			}
			return
		}
		a := groupAttrs[k]
		for v := 0; v < s.Schema().Attr(a).Size(); v++ {
			if base.Constraint(a).Matches(v) {
				vals[k] = v
				walk(k + 1)
			}
		}
	}
	walk(0)
	return out
}

// sameGroups checks that two group-by answers hold the same group set with
// every estimate within a relative 1e-9.
func sameGroups(t *testing.T, what string, got, want []core.GroupEstimate) {
	t.Helper()
	byKey := make(map[core.GroupKey]float64, len(want))
	for _, g := range want {
		byKey[core.MakeGroupKey(g.Values)] = g.Estimate
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, want %d", what, len(got), len(want))
	}
	for _, g := range got {
		w, ok := byKey[core.MakeGroupKey(g.Values)]
		if !ok {
			t.Fatalf("%s: unexpected group %v", what, g.Values)
		}
		if math.Abs(g.Estimate-w) > 1e-9*math.Abs(w) {
			t.Fatalf("%s: group %v estimate %g, per-combination answer %g", what, g.Values, g.Estimate, w)
		}
	}
}

// TestGroupByMatchesPerCombination checks 1-, 2- and 3-attribute group-bys
// against one masked count per value combination, under random predicates
// (including ones constraining grouped attributes), on the built summary,
// its decoded snapshot, and a partitioned summary.
func TestGroupByMatchesPerCombination(t *testing.T) {
	rel := codecTestRelation(t, 4000, 13)
	s := buildSolved(t, rel, Options{})
	dec, ok := roundTrip(t, s).(*Summary)
	if !ok {
		t.Fatal("decoded estimator is not a *Summary")
	}
	part := buildPartitionedSolved(t, rel, PartitionedOptions{Partitions: 3})
	sch := rel.Schema()
	rng := rand.New(rand.NewSource(17))
	attrSets := [][]int{{1}, {0, 1}, {1, 3}, {3, 0}, {0, 1, 2}, {2, 3, 1}}
	for trial := 0; trial < 24; trial++ {
		var pred *query.Predicate
		if trial%4 != 0 {
			pred = randomPredicate(sch, rng)
		}
		for _, attrs := range attrSets {
			label := fmt.Sprintf("group by %v where %v", attrs, pred)
			want := perComboGroupBy(t, s, attrs, pred)
			for name, est := range map[string]*Summary{"built": s, "decoded": dec} {
				got, err := est.EstimateGroupBy(attrs, pred)
				if err != nil {
					t.Fatal(err)
				}
				sameGroups(t, name+" "+label, got, want)
			}
			parts := make([][]core.GroupEstimate, part.NumPartitions())
			for k, ps := range part.parts {
				parts[k] = perComboGroupBy(t, ps, attrs, pred)
			}
			got, err := part.EstimateGroupBy(attrs, pred)
			if err != nil {
				t.Fatal(err)
			}
			sameGroups(t, "partitioned "+label, got, core.MergeGroupEstimates(parts...))
		}
	}
}

// TestGroupByUnsatisfiableIsEmpty checks that an unsatisfiable predicate,
// on a grouped attribute or on another one, yields no groups without
// evaluating the model (the copy below has no polynomial system, so any
// evaluation would panic), while malformed requests still fail.
func TestGroupByUnsatisfiableIsEmpty(t *testing.T) {
	rel := testRelation(t, 1000, 5)
	built := buildSolved(t, rel, Options{})
	s := *built
	s.sys = nil
	for _, attr := range []int{0, 2} {
		bad := query.NewPredicate(rel.NumAttrs()).Where(attr, query.ValueIn(query.NewRange(3, 1)))
		groups, err := s.EstimateGroupBy([]int{0, 1}, bad)
		if err != nil || len(groups) != 0 {
			t.Fatalf("unsatisfiable on attribute %d: %d groups, %v; want none", attr, len(groups), err)
		}
	}
	bad := query.NewPredicate(rel.NumAttrs()).Where(2, query.ValueSet(nil))
	if _, err := s.EstimateGroupBy([]int{0, 5}, bad); err == nil {
		t.Fatal("out-of-range group-by attribute accepted under an unsatisfiable predicate")
	}
	if _, err := s.EstimateGroupBy([]int{1, 1}, nil); err == nil {
		t.Fatal("duplicate group-by attribute accepted")
	}
}
