// Package skql implements the declarative query front-end: a small
// text query language (and an equivalent structured-JSON form) parsed
// into a typed AST, lowered through a logical plan with rewrite rules
// (conjunct extraction, DNF split), costed by the one shared cost
// model, and executed against any engine facade — single, sharded, or
// replicated follower — with EXPLAIN / EXPLAIN ANALYZE rendering.
//
// The language covers the query classes the paper's engines already
// serve (ICDE 2008 §4–§5): distance-first top-k, ranked (MIR²) top-k,
// area/boolean range, and counting, each combined with an arbitrary
// boolean keyword tree:
//
//	[EXPLAIN [ANALYZE]] SELECT (TOP k | RANKED k | ALL | COUNT)
//	    [NEAR (x, y)]
//	    [MATCH <bool-expr>]
//	    [WHERE score > 0]
//	    [WITHIN rect(lox, loy, hix, hiy)]
//	    [USING ir2|iio|rtree|auto]
//
// where <bool-expr> is quoted or bare keywords combined with AND, OR,
// NOT and parentheses (OR binds loosest, then AND, then NOT).
package skql

import (
	"strconv"
	"strings"
)

// Proj is the projection kind of a query.
type Proj int

const (
	// ProjTop is distance-first top-k (SELECT TOP k).
	ProjTop Proj = iota
	// ProjRanked is IR-scored top-k (SELECT RANKED k).
	ProjRanked
	// ProjAll returns every match inside the WITHIN rect (SELECT ALL).
	ProjAll
	// ProjCount counts matches inside the WITHIN rect (SELECT COUNT).
	ProjCount
)

// String returns the keyword used in query text for the projection.
func (p Proj) String() string {
	switch p {
	case ProjTop:
		return "TOP"
	case ProjRanked:
		return "RANKED"
	case ProjAll:
		return "ALL"
	case ProjCount:
		return "COUNT"
	}
	return "?"
}

// Path names a physical access path. PathAuto lets the planner choose.
type Path int

const (
	// PathAuto defers the choice to the cost-based planner.
	PathAuto Path = iota
	// PathIR2 is the IR²-Tree distance-first traversal with
	// signature pruning (the paper's main algorithm, §4).
	PathIR2
	// PathIIO is "inverted index only": intersect posting lists,
	// load the survivors, sort by distance (§5 baseline).
	PathIIO
	// PathRTree is the plain R-Tree traversal with all keyword
	// work done as a residual filter on loaded objects.
	PathRTree
	// PathRanked is the MIR²-Tree scored traversal; it is the only
	// path for RANKED projections and never chosen elsewhere.
	PathRanked
)

// String returns the lower-case spelling used in USING clauses and
// EXPLAIN output.
func (p Path) String() string {
	switch p {
	case PathAuto:
		return "auto"
	case PathIR2:
		return "ir2"
	case PathIIO:
		return "iio"
	case PathRTree:
		return "rtree"
	case PathRanked:
		return "ranked"
	}
	return "?"
}

// CmpOp is the comparison operator in a WHERE score clause.
type CmpOp int

const (
	// CmpGT is ">".
	CmpGT CmpOp = iota
	// CmpGE is ">=".
	CmpGE
)

func (op CmpOp) String() string {
	if op == CmpGE {
		return ">="
	}
	return ">"
}

// ScoreFilter is a WHERE score <op> <value> clause.
type ScoreFilter struct {
	Op    CmpOp
	Value float64
}

// Rect is an axis-aligned query rectangle in the WITHIN clause,
// spelled rect(lox, loy, hix, hiy).
type Rect struct {
	Lo [2]float64
	Hi [2]float64
}

// Query is the typed AST of one SKQL statement.
type Query struct {
	Explain bool // EXPLAIN prefix: plan only, no execution
	Analyze bool // EXPLAIN ANALYZE: execute and report actuals

	Proj Proj
	K    int // TOP/RANKED k; 0 for ALL/COUNT

	Near   []float64 // nil when absent; always 2-D when present
	Match  Expr      // nil when absent (match everything)
	Where  *ScoreFilter
	Within *Rect
	Force  Path // USING clause; PathAuto when absent
}

// Expr is a boolean keyword expression: Term, Not, And, or Or.
type Expr interface {
	// write appends the canonical text form, parenthesizing when
	// the node's precedence is not above prec.
	write(b *strings.Builder, prec int)
}

// Term matches objects whose text contains the keyword.
type Term struct{ Word string }

// Not negates a sub-expression.
type Not struct{ X Expr }

// And requires every child to match. Kids has at least 2 entries.
type And struct{ Kids []Expr }

// Or requires at least one child to match. Kids has at least 2 entries.
type Or struct{ Kids []Expr }

// Expression precedence, loosest to tightest. A child at or below its
// parent's precedence is parenthesized, so printing is unambiguous and
// parse → print → parse is a fixpoint.
const (
	precOr = iota + 1
	precAnd
	precNot
)

func (t Term) write(b *strings.Builder, prec int) {
	b.WriteString(strconv.Quote(t.Word))
}

func (n Not) write(b *strings.Builder, prec int) {
	wrap := precNot <= prec
	if wrap {
		b.WriteByte('(')
	}
	b.WriteString("NOT ")
	n.X.write(b, precNot)
	if wrap {
		b.WriteByte(')')
	}
}

func (a And) write(b *strings.Builder, prec int) {
	wrap := precAnd <= prec
	if wrap {
		b.WriteByte('(')
	}
	for i, k := range a.Kids {
		if i > 0 {
			b.WriteString(" AND ")
		}
		k.write(b, precAnd)
	}
	if wrap {
		b.WriteByte(')')
	}
}

func (o Or) write(b *strings.Builder, prec int) {
	wrap := precOr <= prec
	if wrap {
		b.WriteByte('(')
	}
	for i, k := range o.Kids {
		if i > 0 {
			b.WriteString(" OR ")
		}
		k.write(b, precOr)
	}
	if wrap {
		b.WriteByte(')')
	}
}

// ExprString renders the canonical text form of a boolean expression.
func ExprString(e Expr) string {
	var b strings.Builder
	e.write(&b, 0)
	return b.String()
}

// formatFloat renders a float the shortest way that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// String renders the canonical text form of the query. Parsing the
// result yields a Query whose String is byte-identical (the fuzz
// round-trip property).
func (q *Query) String() string {
	var b strings.Builder
	if q.Explain {
		b.WriteString("EXPLAIN ")
		if q.Analyze {
			b.WriteString("ANALYZE ")
		}
	}
	b.WriteString("SELECT ")
	b.WriteString(q.Proj.String())
	if q.Proj == ProjTop || q.Proj == ProjRanked {
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(q.K))
	}
	if q.Near != nil {
		b.WriteString(" NEAR (")
		b.WriteString(formatFloat(q.Near[0]))
		b.WriteString(", ")
		b.WriteString(formatFloat(q.Near[1]))
		b.WriteByte(')')
	}
	if q.Match != nil {
		b.WriteString(" MATCH ")
		q.Match.write(&b, 0)
	}
	if q.Where != nil {
		b.WriteString(" WHERE score ")
		b.WriteString(q.Where.Op.String())
		b.WriteByte(' ')
		b.WriteString(formatFloat(q.Where.Value))
	}
	if q.Within != nil {
		b.WriteString(" WITHIN rect(")
		b.WriteString(formatFloat(q.Within.Lo[0]))
		b.WriteString(", ")
		b.WriteString(formatFloat(q.Within.Lo[1]))
		b.WriteString(", ")
		b.WriteString(formatFloat(q.Within.Hi[0]))
		b.WriteString(", ")
		b.WriteString(formatFloat(q.Within.Hi[1]))
		b.WriteByte(')')
	}
	if q.Force != PathAuto {
		b.WriteString(" USING ")
		b.WriteString(q.Force.String())
	}
	return b.String()
}
