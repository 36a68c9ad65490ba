package main

import "testing"

func sp(start, end int64) span { return span{Start: start, End: end} }

func TestSelfTime(t *testing.T) {
	parent := sp(100, 200)
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{sp(110, 130)}, 80},
		{"disjoint children", []span{sp(110, 130), sp(150, 160)}, 70},
		{"overlapping children count once", []span{sp(110, 140), sp(120, 150)}, 60},
		{"nested child inside another", []span{sp(110, 190), sp(120, 130)}, 20},
		{"children out of order", []span{sp(150, 170), sp(110, 120), sp(115, 155)}, 40},
		{"child clipped to the parent", []span{sp(50, 120), sp(190, 260)}, 70},
		{"child outside the parent", []span{sp(10, 90), sp(210, 300)}, 100},
		{"touching children", []span{sp(110, 120), sp(120, 130)}, 80},
		{"child covers the parent", []span{sp(90, 210)}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestTracedOpCoversEveryQueryKind(t *testing.T) {
	// Half of the operations are traced, and half of each residue mod 4
	// (every fourth query is a group-by).
	var byResidue [4]int
	traced := 0
	for i := 0; i < 800; i++ {
		if tracedOp(i) {
			traced++
			byResidue[i%4]++
		}
	}
	if traced != 400 {
		t.Fatalf("%d of 800 traced, want 400", traced)
	}
	for r, n := range byResidue {
		if n != 100 {
			t.Errorf("residue %d: %d of 200 traced, want 100", r, n)
		}
	}
}

func TestEstimatorKeysMatchQueryKeys(t *testing.T) {
	sch := flightsSchema()
	for _, q := range workloadQueries(sch, 200, 1) {
		var k string
		if q.IsGroupBy() {
			k = groupKey(q.GroupBy, q.Pred)
		} else {
			k = countKey(q.Pred)
		}
		if k != queryKey(q) {
			t.Fatalf("estimator-side key %q != client-side key %q", k, queryKey(q))
		}
	}
}
