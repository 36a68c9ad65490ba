package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	p := percentile(seq(1000), 99)
	if p.Value != 990 || p.N != 1000 || p.Tail != 10 || !p.Supported() {
		t.Fatalf("p99 of 1..1000 = %+v, want value 990, n 1000, tail 10, supported", p)
	}
	p = percentile(seq(999), 99)
	if p.Tail != 9 || p.Supported() {
		t.Fatalf("p99 of 999 samples = %+v, want 9 beyond and unsupported", p)
	}
	if p := percentile(nil, 50); p.N != 0 || p.Value != 0 {
		t.Fatalf("empty sample = %+v", p)
	}
}

func TestHighestPercentileKeepsTenBeyond(t *testing.T) {
	cands := []float64{99.9, 99, 95, 90}
	for _, tc := range []struct {
		n     int
		wantP float64
	}{
		{20000, 99.9}, // 20 beyond p99.9
		{10000, 99.9}, // exactly 10 beyond
		{9999, 99},    // p99.9 would leave 9
		{1000, 99},
		{999, 95},
		{100, 90},
		{99, 50}, // too few for any candidate: the median
	} {
		p := highestPercentile(seq(tc.n), cands)
		if p.P != tc.wantP || p.N != tc.n {
			t.Errorf("n=%d: got p%g over %d samples, want p%g", tc.n, p.P, p.N, tc.wantP)
		}
		if tc.wantP != 50 && p.Tail < minTail {
			t.Errorf("n=%d: p%g has only %d samples beyond", tc.n, p.P, p.Tail)
		}
	}
}
