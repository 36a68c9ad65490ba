// Package query models the linear (counting) queries supported by the
// EntropyDB summary: conjunctions of per-attribute predicates over the
// encoded active domain (Sec. 3.1 and Eq. (16) of the paper). Attribute
// values are addressed by their domain index, so the package is independent
// of the concrete schema.
package query

import (
	"fmt"
	"sort"
	"strings"
)

// Range is an inclusive range [Lo, Hi] of encoded domain values.
type Range struct {
	Lo, Hi int
}

// NewRange returns the inclusive range [lo, hi].
func NewRange(lo, hi int) Range { return Range{Lo: lo, Hi: hi} }

// Point returns the single-value range [v, v].
func Point(v int) Range { return Range{Lo: v, Hi: v} }

// Empty reports whether the range contains no values.
func (r Range) Empty() bool { return r.Hi < r.Lo }

// Len returns the number of values in the range (0 if empty).
func (r Range) Len() int {
	if r.Empty() {
		return 0
	}
	return r.Hi - r.Lo + 1
}

// Contains reports whether v lies in the range.
func (r Range) Contains(v int) bool { return v >= r.Lo && v <= r.Hi }

// Intersect returns the intersection of two ranges; the result may be empty.
func (r Range) Intersect(o Range) Range {
	lo, hi := r.Lo, r.Hi
	if o.Lo > lo {
		lo = o.Lo
	}
	if o.Hi < hi {
		hi = o.Hi
	}
	return Range{Lo: lo, Hi: hi}
}

// Overlaps reports whether the two ranges share at least one value.
func (r Range) Overlaps(o Range) bool { return !r.Intersect(o).Empty() }

// String renders the range as "[lo,hi]".
func (r Range) String() string {
	if r.Empty() {
		return "[]"
	}
	if r.Lo == r.Hi {
		return fmt.Sprintf("[%d]", r.Lo)
	}
	return fmt.Sprintf("[%d,%d]", r.Lo, r.Hi)
}

// ConstraintKind distinguishes the supported per-attribute predicate shapes.
type ConstraintKind int

const (
	// Any places no restriction on the attribute (ρ_i ≡ true).
	Any ConstraintKind = iota
	// InRange restricts the attribute to an inclusive value range.
	InRange
	// InSet restricts the attribute to an explicit set of values.
	InSet
)

// Constraint is the predicate ρ_i over a single attribute.
type Constraint struct {
	Kind   ConstraintKind
	Range  Range
	Values []int // sorted, for InSet
}

// AnyValue returns the unconstrained predicate.
func AnyValue() Constraint { return Constraint{Kind: Any} }

// ValueIn returns a range constraint.
func ValueIn(r Range) Constraint { return Constraint{Kind: InRange, Range: r} }

// ValueEq returns a point constraint A_i = v.
func ValueEq(v int) Constraint { return Constraint{Kind: InRange, Range: Point(v)} }

// ValueSet returns a set constraint A_i ∈ values. The value slice is copied
// and sorted.
func ValueSet(values []int) Constraint {
	vs := append([]int(nil), values...)
	sort.Ints(vs)
	// Deduplicate in place.
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || v != vs[i-1] {
			out = append(out, v)
		}
	}
	return Constraint{Kind: InSet, Values: out}
}

// Matches reports whether domain value v satisfies the constraint.
func (c Constraint) Matches(v int) bool {
	switch c.Kind {
	case Any:
		return true
	case InRange:
		return c.Range.Contains(v)
	case InSet:
		i := sort.SearchInts(c.Values, v)
		return i < len(c.Values) && c.Values[i] == v
	default:
		return false
	}
}

// IsAny reports whether the constraint places no restriction.
func (c Constraint) IsAny() bool { return c.Kind == Any }

// Empty reports whether the constraint can never be satisfied.
func (c Constraint) Empty() bool {
	switch c.Kind {
	case InRange:
		return c.Range.Empty()
	case InSet:
		return len(c.Values) == 0
	default:
		return false
	}
}

// String renders the constraint.
func (c Constraint) String() string {
	switch c.Kind {
	case Any:
		return "*"
	case InRange:
		return c.Range.String()
	case InSet:
		parts := make([]string, len(c.Values))
		for i, v := range c.Values {
			parts[i] = fmt.Sprintf("%d", v)
		}
		return "{" + strings.Join(parts, ",") + "}"
	default:
		return "?"
	}
}

// Predicate is a conjunction π = ρ_1 ∧ ... ∧ ρ_m of per-attribute
// constraints, Eq. (16) of the paper. Attributes not mentioned are
// unconstrained.
type Predicate struct {
	numAttrs    int
	constraints map[int]Constraint
}

// NewPredicate creates an empty (always-true) predicate over a relation with
// numAttrs attributes.
func NewPredicate(numAttrs int) *Predicate {
	return &Predicate{numAttrs: numAttrs, constraints: make(map[int]Constraint)}
}

// NumAttrs returns the arity of the underlying relation.
func (p *Predicate) NumAttrs() int { return p.numAttrs }

// Where adds (replaces) the constraint on attribute attr and returns the
// predicate for chaining.
func (p *Predicate) Where(attr int, c Constraint) *Predicate {
	if attr < 0 || attr >= p.numAttrs {
		panic(fmt.Sprintf("query: attribute index %d out of range [0,%d)", attr, p.numAttrs))
	}
	if c.IsAny() {
		delete(p.constraints, attr)
		return p
	}
	p.constraints[attr] = c
	return p
}

// WhereEq constrains attribute attr to the single value v.
func (p *Predicate) WhereEq(attr, v int) *Predicate { return p.Where(attr, ValueEq(v)) }

// WhereRange constrains attribute attr to [lo, hi].
func (p *Predicate) WhereRange(attr, lo, hi int) *Predicate {
	return p.Where(attr, ValueIn(NewRange(lo, hi)))
}

// WhereIn constrains attribute attr to the given value set.
func (p *Predicate) WhereIn(attr int, values ...int) *Predicate {
	return p.Where(attr, ValueSet(values))
}

// Constraint returns the constraint on attribute attr (Any when
// unconstrained).
func (p *Predicate) Constraint(attr int) Constraint {
	if c, ok := p.constraints[attr]; ok {
		return c
	}
	return AnyValue()
}

// ConstrainedAttrs returns the sorted indexes of attributes carrying a
// non-trivial constraint.
func (p *Predicate) ConstrainedAttrs() []int {
	out := make([]int, 0, len(p.constraints))
	for a := range p.constraints {
		out = append(out, a)
	}
	sort.Ints(out)
	return out
}

// Matches reports whether the encoded row satisfies the conjunction.
func (p *Predicate) Matches(row []int) bool {
	for attr, c := range p.constraints {
		if !c.Matches(row[attr]) {
			return false
		}
	}
	return true
}

// Unsatisfiable reports whether some constraint is empty, i.e. the predicate
// can never match any tuple.
func (p *Predicate) Unsatisfiable() bool {
	for _, c := range p.constraints {
		if c.Empty() {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the predicate.
func (p *Predicate) Clone() *Predicate {
	q := NewPredicate(p.numAttrs)
	for a, c := range p.constraints {
		q.constraints[a] = c
	}
	return q
}

// String renders the predicate as "A0∈[..] ∧ A3∈{..}".
func (p *Predicate) String() string {
	attrs := p.ConstrainedAttrs()
	if len(attrs) == 0 {
		return "true"
	}
	parts := make([]string, 0, len(attrs))
	for _, a := range attrs {
		parts = append(parts, fmt.Sprintf("A%d∈%s", a, p.constraints[a]))
	}
	return strings.Join(parts, " ∧ ")
}
