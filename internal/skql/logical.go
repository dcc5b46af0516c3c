package skql

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"spatialkeyword/internal/textutil"
)

// DefaultMaxBranches caps how many conjunctive branches a DNF split
// may produce before the planner falls back to a single filter-scan.
const DefaultMaxBranches = 8

// Conj is one conjunctive DNF branch: every Pos term must appear in
// the object text and no Neg term may. Both slices are sorted and
// deduplicated.
type Conj struct {
	Pos []string
	Neg []string
}

func (c Conj) key() string {
	return strings.Join(c.Pos, "\x00") + "\x01" + strings.Join(c.Neg, "\x00")
}

// normalizeTree rewrites every Term through the analyzer so tree
// terms compare equal to indexed tokens. A keyword that dissolves
// under the analyzer (stopword, punctuation-only) is an error: it can
// never match and silently dropping it would change semantics.
func normalizeTree(e Expr, an *textutil.Analyzer) (Expr, error) {
	switch n := e.(type) {
	case Term:
		w := an.Keyword(n.Word)
		if w == "" {
			return nil, fmt.Errorf("skql: keyword %q dissolves under the text analyzer", n.Word)
		}
		return Term{Word: w}, nil
	case Not:
		x, err := normalizeTree(n.X, an)
		if err != nil {
			return nil, err
		}
		return Not{X: x}, nil
	case And:
		kids, err := normalizeKids(n.Kids, an)
		if err != nil {
			return nil, err
		}
		return And{Kids: kids}, nil
	case Or:
		kids, err := normalizeKids(n.Kids, an)
		if err != nil {
			return nil, err
		}
		return Or{Kids: kids}, nil
	}
	return nil, fmt.Errorf("skql: unknown expression node %T", e)
}

func normalizeKids(kids []Expr, an *textutil.Analyzer) ([]Expr, error) {
	out := make([]Expr, len(kids))
	for i, k := range kids {
		nk, err := normalizeTree(k, an)
		if err != nil {
			return nil, err
		}
		out[i] = nk
	}
	return out, nil
}

// nnf pushes negations down to the leaves (De Morgan) and flattens
// nested And/Or chains. The result contains Not only directly above
// Term.
func nnf(e Expr, neg bool) Expr {
	switch n := e.(type) {
	case Term:
		if neg {
			return Not{X: n}
		}
		return n
	case Not:
		return nnf(n.X, !neg)
	case And:
		kids := flattenNNF(n.Kids, neg)
		if neg {
			return orOf(kids)
		}
		return andOf(kids)
	case Or:
		kids := flattenNNF(n.Kids, neg)
		if neg {
			return andOf(kids)
		}
		return orOf(kids)
	}
	return e
}

func flattenNNF(kids []Expr, neg bool) []Expr {
	out := make([]Expr, 0, len(kids))
	for _, k := range kids {
		out = append(out, nnf(k, neg))
	}
	return out
}

// andOf builds a flattened And, collapsing single-child chains.
func andOf(kids []Expr) Expr {
	flat := make([]Expr, 0, len(kids))
	for _, k := range kids {
		if a, ok := k.(And); ok {
			flat = append(flat, a.Kids...)
		} else {
			flat = append(flat, k)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return And{Kids: flat}
}

// orOf builds a flattened Or, collapsing single-child chains.
func orOf(kids []Expr) Expr {
	flat := make([]Expr, 0, len(kids))
	for _, k := range kids {
		if o, ok := k.(Or); ok {
			flat = append(flat, o.Kids...)
		} else {
			flat = append(flat, k)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return Or{Kids: flat}
}

// dnfSplit rewrites an NNF tree into disjunctive normal form. It
// returns (branches, true) when the tree fits within maxBranches
// conjunctive branches, or (nil, false) when distribution would
// explode past the cap. Contradictory branches (a term both required
// and negated) and exact duplicates are dropped, so an empty branch
// list with ok=true means the query matches nothing.
func dnfSplit(e Expr, maxBranches int) ([]Conj, bool) {
	branches, ok := dnfNode(e, maxBranches)
	if !ok {
		return nil, false
	}
	out := branches[:0]
	seen := make(map[string]bool, len(branches))
	for _, b := range branches {
		b.Pos = sortDedup(b.Pos)
		b.Neg = sortDedup(b.Neg)
		if intersects(b.Pos, b.Neg) {
			continue // contradiction: matches nothing
		}
		if k := b.key(); !seen[k] {
			seen[k] = true
			out = append(out, b)
		}
	}
	return out, true
}

func dnfNode(e Expr, maxBranches int) ([]Conj, bool) {
	switch n := e.(type) {
	case Term:
		return []Conj{{Pos: []string{n.Word}}}, true
	case Not:
		t, ok := n.X.(Term)
		if !ok {
			return nil, false // not NNF; refuse rather than mis-split
		}
		return []Conj{{Neg: []string{t.Word}}}, true
	case Or:
		var out []Conj
		for _, k := range n.Kids {
			bs, ok := dnfNode(k, maxBranches)
			if !ok {
				return nil, false
			}
			out = append(out, bs...)
			if len(out) > maxBranches {
				return nil, false
			}
		}
		return out, true
	case And:
		out := []Conj{{}}
		for _, k := range n.Kids {
			bs, ok := dnfNode(k, maxBranches)
			if !ok {
				return nil, false
			}
			next := make([]Conj, 0, len(out)*len(bs))
			for _, a := range out {
				for _, b := range bs {
					next = append(next, Conj{
						Pos: append(append([]string{}, a.Pos...), b.Pos...),
						Neg: append(append([]string{}, a.Neg...), b.Neg...),
					})
					if len(next) > maxBranches {
						return nil, false
					}
				}
			}
			out = next
		}
		return out, true
	}
	return nil, false
}

func sortDedup(ss []string) []string {
	if len(ss) < 2 {
		return ss
	}
	sort.Strings(ss)
	out := ss[:1]
	for _, s := range ss[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}

func intersects(a, b []string) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// commonConjuncts returns the positive terms shared by every branch —
// safe to push into the engine query for signature pruning — and, for
// convenience, whether any branch has no positive term at all (which
// rules out the IR² and IIO paths for that branch).
func commonConjuncts(branches []Conj) []string {
	if len(branches) == 0 {
		return nil
	}
	common := append([]string{}, branches[0].Pos...)
	for _, b := range branches[1:] {
		kept := common[:0]
		for _, t := range common {
			if containsSorted(b.Pos, t) {
				kept = append(kept, t)
			}
		}
		common = kept
		if len(common) == 0 {
			return nil
		}
	}
	return common
}

func containsSorted(ss []string, t string) bool {
	i := sort.SearchStrings(ss, t)
	return i < len(ss) && ss[i] == t
}

// evalExpr evaluates a boolean tree (any shape, not just NNF) against
// a term-membership predicate. This is the brute-force semantics the
// oracle tests compare against.
func evalExpr(e Expr, has func(string) bool) bool {
	switch n := e.(type) {
	case Term:
		return has(n.Word)
	case Not:
		return !evalExpr(n.X, has)
	case And:
		for _, k := range n.Kids {
			if !evalExpr(k, has) {
				return false
			}
		}
		return true
	case Or:
		for _, k := range n.Kids {
			if evalExpr(k, has) {
				return true
			}
		}
		return false
	}
	return false
}

// selectivityExpr estimates the fraction of documents matching the
// tree under the paper's term-independence assumption: terms are
// independent Bernoulli events with probability df/N.
func selectivityExpr(e Expr, sel func(term string) float64) float64 {
	switch n := e.(type) {
	case Term:
		return sel(n.Word)
	case Not:
		return 1 - selectivityExpr(n.X, sel)
	case And:
		p := 1.0
		for _, k := range n.Kids {
			p *= selectivityExpr(k, sel)
		}
		return p
	case Or:
		q := 1.0
		for _, k := range n.Kids {
			q *= 1 - selectivityExpr(k, sel)
		}
		return 1 - q
	}
	return 0
}

// appendTerms appends to out, in first-appearance order, the terms of e
// that out does not hold yet; with positive set, only the terms of an NNF
// tree that no Not negates (what RANKED projections score against).
func appendTerms(out []string, e Expr, positive bool) []string {
	var kids []Expr
	switch n := e.(type) {
	case Term:
		if !slices.Contains(out, n.Word) {
			out = append(out, n.Word)
		}
	case Not:
		if !positive {
			kids = []Expr{n.X}
		}
	case And:
		kids = n.Kids
	case Or:
		kids = n.Kids
	}
	for _, k := range kids {
		out = appendTerms(out, k, positive)
	}
	return out
}
