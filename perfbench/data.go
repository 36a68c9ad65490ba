package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"sort"

	"repro/internal/experiment"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/solver"
	"repro/internal/stats"
	"repro/internal/summary"
)

// The workload relation: a seeded, flights-shaped table. Origin is
// Zipf-skewed, destination follows origin through a per-origin route
// table, the distance bin is a function of the route plus noise, and
// departure hour and month are independent of everything.
const (
	baseRows    = 200_000
	numOrigins  = 50
	numDests    = 50
	numHours    = 24
	numDistance = 20
	numMonths   = 12
	datasetName = "flights"
	maxentName  = datasetName + "/maxent"
)

// summaryOptions is the build configuration every workload serves:
// B_a=3 attribute pairs, B_s=32 statistics per pair, the COMPOSITE
// heuristic and a 200-sweep solver budget.
func summaryOptions() summary.Options {
	return summary.Options{
		PairBudget:    3,
		PerPairBudget: 32,
		Heuristic:     stats.Composite,
		Solver:        solver.Options{MaxSweeps: 200},
	}
}

func flightsSchema() *schema.Schema {
	labels := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%02d", prefix, i)
		}
		return out
	}
	return schema.MustNew(
		schema.MustCategorical("origin", labels("O", numOrigins)),
		schema.MustCategorical("dest", labels("D", numDests)),
		schema.MustBinned("dep_hour", 0, 24, numHours),
		schema.MustBinned("distance", 0, 5000, numDistance),
		schema.MustCategorical("month", labels("M", numMonths)),
	)
}

// flightsGen draws rows of the workload relation. Its route structure is
// fixed by its own seed, so ingest batches drawn with another row seed
// follow the same distribution as the base relation.
type flightsGen struct {
	rng       *rand.Rand
	originCDF []float64
	routes    [numOrigins][4]int // the destinations each origin mostly flies to
	distance  [numOrigins][numDests]int
}

// newFlightsGen draws the route tables from structSeed and the rows from
// seed.
func newFlightsGen(structSeed, seed int64) *flightsGen {
	g := &flightsGen{rng: rand.New(rand.NewSource(seed))}
	st := rand.New(rand.NewSource(structSeed))
	// Zipf(1.1) over origins: a few hubs carry most departures, and the
	// tail origins are rare but present.
	total := 0.0
	g.originCDF = make([]float64, numOrigins)
	for i := range g.originCDF {
		total += 1 / math.Pow(float64(i+1), 1.1)
		g.originCDF[i] = total
	}
	for i := range g.originCDF {
		g.originCDF[i] /= total
	}
	for o := 0; o < numOrigins; o++ {
		for k := range g.routes[o] {
			g.routes[o][k] = (o*7 + 1 + st.Intn(numDests-1)) % numDests
		}
		for d := 0; d < numDests; d++ {
			g.distance[o][d] = st.Intn(numDistance)
		}
	}
	return g
}

// row fills dst (length 5) with one tuple.
func (g *flightsGen) row(dst []int) {
	r := g.rng
	o := sort.SearchFloat64s(g.originCDF, r.Float64())
	if o >= numOrigins {
		o = numOrigins - 1
	}
	var d int
	switch u := r.Float64(); {
	case u < 0.55:
		d = g.routes[o][0]
	case u < 0.75:
		d = g.routes[o][1]
	case u < 0.85:
		d = g.routes[o][2+r.Intn(2)]
	default:
		d = r.Intn(numDests)
	}
	dist := g.distance[o][d]
	if r.Float64() < 0.15 {
		dist = (dist + 1 + r.Intn(2)) % numDistance
	}
	// Departures cluster in the daytime; the shape is the same for every
	// route, so the hour stays independent of the other attributes.
	hour := 6 + r.Intn(16)
	if r.Float64() < 0.1 {
		hour = r.Intn(numHours)
	}
	dst[0], dst[1], dst[2], dst[3], dst[4] = o, d, hour, dist, r.Intn(numMonths)
}

// rows draws n tuples.
func (g *flightsGen) rows(n int) [][]int {
	out := make([][]int, n)
	for i := range out {
		out[i] = make([]int, 5)
		g.row(out[i])
	}
	return out
}

// relation draws the base relation of n rows.
func (g *flightsGen) relation(n int) *relation.Relation {
	rel := relation.NewWithCapacity(flightsSchema(), n)
	row := make([]int, 5)
	for i := 0; i < n; i++ {
		g.row(row)
		rel.MustAppend(row)
	}
	return rel
}

// The served relation is drawn from fixed seeds, so every run builds the
// same summary (same pairs, same polynomial terms) and run-to-run
// differences come from the workload seed alone. These seeds give a model
// the solver converges on within its budget (125 of 200 sweeps), so a
// refresh is a short warm solve rather than a full-budget one.
const (
	relationStructSeed = 53
	relationRowSeed    = 53
)

func workloadRelation() *relation.Relation {
	return newFlightsGen(relationStructSeed, relationRowSeed).relation(baseRows)
}

// Seeds derived from the workload seed, one stream per input, so adding a
// draw to one stream never shifts another.
func querySeed(seed int64) int64  { return seed*1_000_003 + 2 }
func ingestSeed(seed int64) int64 { return seed*1_000_003 + 3 }

// workloadQueries draws n queries of the paper's templates over the
// schema (see experiment.GenerateWorkload: 1–2 attribute point and range
// predicates, every fourth a single-attribute group-by).
func workloadQueries(sch *schema.Schema, n int, seed int64) []experiment.Query {
	return experiment.GenerateWorkload(sch, n, rand.New(rand.NewSource(seed)))
}

// queryKey is the identity of one query: its kind, grouping attributes
// and canonical predicate.
func queryKey(q experiment.Query) string {
	key := "c"
	if q.IsGroupBy() {
		key = fmt.Sprintf("g%v", q.GroupBy)
	}
	if q.Pred == nil {
		return key + "|-"
	}
	return key + "|" + q.Pred.CanonicalKey()
}

// repeatShare is the share of queries in qs whose identity already
// occurred earlier in the sequence: the fraction any answer cache could
// serve at best.
func repeatShare(qs []experiment.Query) float64 {
	if len(qs) == 0 {
		return 0
	}
	seen := make(map[string]bool, len(qs))
	rep := 0
	for _, q := range qs {
		k := queryKey(q)
		if seen[k] {
			rep++
		}
		seen[k] = true
	}
	return float64(rep) / float64(len(qs))
}

// digest fingerprints workload inputs, so two runs can be shown to have
// received identical inputs.
type digest struct {
	h   hash.Hash
	buf []byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) ints(vs ...int) {
	d.buf = d.buf[:0]
	for _, v := range vs {
		d.buf = binary.AppendVarint(d.buf, int64(v))
	}
	d.h.Write(d.buf)
}

func (d *digest) relation(rel *relation.Relation) {
	for a := 0; a < rel.NumAttrs(); a++ {
		d.buf = d.buf[:0]
		for _, v := range rel.Column(a) {
			d.buf = binary.AppendVarint(d.buf, int64(v))
		}
		d.h.Write(d.buf)
	}
}

func (d *digest) queries(qs []experiment.Query) {
	for _, q := range qs {
		k := queryKey(q)
		d.ints(len(k))
		d.h.Write([]byte(k))
	}
}

func (d *digest) hex() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }
