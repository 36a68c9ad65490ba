package polynomial

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/query"
)

// fullWalkPerValue runs the full-walk reference of EvalPerValue.
func fullWalkPerValue(s *System, attr int, pred *query.Predicate, out []float64) {
	s.refreshAll()
	sc := s.getScratch(pred)
	defer s.putScratch(sc)
	s.perValue(attr, sc, out, true)
}

// canonicalFor is constraintFor with InSet value lists sorted and
// deduplicated, so Matches is exact on the unsorted lists shapedConstraint
// draws.
func canonicalFor(pred *query.Predicate, attr int) query.Constraint {
	c := constraintFor(pred, attr)
	if c.Kind == query.InSet {
		c = query.ValueSet(c.Values)
	}
	return c
}

// evalLoopPerValue answers EvalPerValue the way group-by did before it
// existed: one masked Eval per value the predicate admits on attr, with
// that value replacing the predicate's constraint on attr.
func evalLoopPerValue(s *System, attr int, pred *query.Predicate, out []float64) {
	cons := canonicalFor(pred, attr)
	for v := range out {
		out[v] = 0
		if !cons.Matches(v) {
			continue
		}
		q := query.NewPredicate(len(s.alpha))
		if pred != nil {
			q = pred.Clone()
		}
		out[v] = s.Eval(q.WhereEq(attr, v))
	}
}

// checkPerValue compares EvalPerValue with both oracles on one attribute:
// the full walk within a relative 1e-9, and the per-value masked Eval loop
// within the tolerance the mask-delta identity of Eval allows. Values the
// predicate rejects on attr must be exactly 0 in every answer.
func checkPerValue(t *testing.T, sys *System, attr int, pred *query.Predicate, what string) {
	t.Helper()
	n := len(sys.alpha[attr])
	got, walk, loop := make([]float64, n), make([]float64, n), make([]float64, n)
	sys.EvalPerValue(attr, pred, got)
	fullWalkPerValue(sys, attr, pred, walk)
	evalLoopPerValue(sys, attr, pred, loop)
	cons := canonicalFor(pred, attr)
	for v := range got {
		if !approxEqual(got[v], walk[v]) {
			t.Fatalf("%s attr %d value %d pred %v: EvalPerValue = %g, full walk = %g", what, attr, v, pred, got[v], walk[v])
		}
		if !closeEnough(got[v], loop[v], sys.Total()) {
			t.Fatalf("%s attr %d value %d pred %v: EvalPerValue = %g, masked Eval = %g", what, attr, v, pred, got[v], loop[v])
		}
		if !cons.Matches(v) && (got[v] != 0 || walk[v] != 0) {
			t.Fatalf("%s attr %d value %d pred %v: rejected value evaluated to %g (walk %g), want exactly 0",
				what, attr, v, pred, got[v], walk[v])
		}
	}
}

// TestEvalPerValueMatchesOracles is the randomized equivalence test of the
// one-pass per-value evaluation: across instances, every attribute, and
// nil, InRange and InSet predicates (including ones constraining the
// per-value attribute itself), it agrees with the full-walk reference and
// with one masked Eval per value.
func TestEvalPerValueMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 80; trial++ {
		sizes, _, sys := randomInstance(rng)
		sys.Eval(nil)
		for attr := range sizes {
			for _, k := range []int{0, 1, 2, len(sizes)} {
				checkPerValue(t, sys, attr, shapedPredicate(sizes, k, rng), "shaped")
			}
			checkPerValue(t, sys, attr, nil, "nil")
			// A constraint on the per-value attribute itself, alone and
			// next to one on another attribute.
			own := query.NewPredicate(len(sizes)).Where(attr, shapedConstraint(sizes[attr], rng))
			checkPerValue(t, sys, attr, own, "own")
			other := (attr + 1) % len(sizes)
			checkPerValue(t, sys, attr, own.Clone().Where(other, shapedConstraint(sizes[other], rng)), "own+other")
		}
	}
}

// TestEvalPerValueBenchShape pins the equivalence on the benchmark shape
// for every benchmark predicate and every attribute.
func TestEvalPerValueBenchShape(t *testing.T) {
	sys, pred := benchSystem(t)
	sys.Eval(nil)
	preds := []*query.Predicate{nil, pred}
	for _, name := range selectiveOrder {
		preds = append(preds, selectivePreds(sys.Poly().NumAttrs())[name])
	}
	for attr := range sys.alpha {
		for _, p := range preds {
			checkPerValue(t, sys, attr, p, "bench")
		}
	}
}

// TestEvalPerValueExactZeros pins the exact-zero rule: an unsatisfiable
// predicate, a value whose α is 0, and a predicate whose other-attribute
// mask zeroes every term all give groups that are exactly 0, never a
// rounding residue. Zeroed variables also drive full-domain sums to 0,
// which routes to the full-walk fallback.
func TestEvalPerValueExactZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 60; trial++ {
		sizes, _, sys := randomInstance(rng)
		attr := rng.Intn(len(sizes))
		zeroV := rng.Intn(sizes[attr])
		sys.SetOneD(attr, zeroV, 0)
		if rng.Intn(3) == 0 {
			// A whole column of another attribute: its full-domain sum is 0.
			b := (attr + 1) % len(sizes)
			for v := 0; v < sizes[b]; v++ {
				sys.SetOneD(b, v, 0)
			}
		}
		sys.Eval(nil)
		out := make([]float64, sizes[attr])
		for q := 0; q < 6; q++ {
			pred := shapedPredicate(sizes, rng.Intn(len(sizes)+1), rng)
			sys.EvalPerValue(attr, pred, out)
			if out[zeroV] != 0 {
				t.Fatalf("trial %d pred %v: value %d with α = 0 evaluated to %g, want exactly 0", trial, pred, zeroV, out[zeroV])
			}
			checkPerValue(t, sys, attr, pred, "zeroed")
		}

		unsat := query.NewPredicate(len(sizes)).WhereRange((attr+1)%len(sizes), 2, 1)
		sys.EvalPerValue(attr, unsat, out)
		for v, x := range out {
			if x != 0 {
				t.Fatalf("trial %d: unsatisfiable predicate gave value %d = %g, want exactly 0", trial, v, x)
			}
		}
		// Masking another attribute to a single zero-α value zeroes every
		// term's factor on it.
		b := (attr + 1) % len(sizes)
		sys.SetOneD(b, 0, 0)
		sys.Eval(nil)
		sys.EvalPerValue(attr, query.NewPredicate(len(sizes)).WhereEq(b, 0), out)
		for v, x := range out {
			if x != 0 {
				t.Fatalf("trial %d: zero mask on attribute %d gave value %d = %g, want exactly 0", trial, b, v, x)
			}
		}
	}
}

// TestEvalPerValueConcurrentReaders checks that concurrent EvalPerValue
// calls after the Eval(nil) handoff agree bit for bit with their serial
// answers; under -race it also proves the pass is read-only.
func TestEvalPerValueConcurrentReaders(t *testing.T) {
	sys, pred := benchSystem(t)
	sys.Eval(nil)
	preds := []*query.Predicate{nil, pred}
	for _, name := range selectiveOrder {
		preds = append(preds, selectivePreds(sys.Poly().NumAttrs())[name])
	}
	want := make([][]float64, len(preds))
	for i, p := range preds {
		want[i] = make([]float64, len(sys.alpha[0]))
		sys.EvalPerValue(0, p, want[i])
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]float64, len(sys.alpha[0]))
			for it := 0; it < 50; it++ {
				i := (g + it) % len(preds)
				sys.EvalPerValue(0, preds[i], out)
				for v := range out {
					if out[v] != want[i][v] {
						errs <- "concurrent EvalPerValue diverged from serial answer"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestEvalPerValueRejectsShortBuffer pins the output-length contract.
func TestEvalPerValueRejectsShortBuffer(t *testing.T) {
	sys, _ := benchSystem(t)
	defer func() {
		if recover() == nil {
			t.Fatal("EvalPerValue accepted a buffer shorter than the domain")
		}
	}()
	sys.EvalPerValue(0, nil, make([]float64, 3))
}
