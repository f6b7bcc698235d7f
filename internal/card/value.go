package card

import (
	"mdq/internal/cq"
	"mdq/internal/plan"
	"mdq/internal/schema"
)

// This file holds the value-sensitive half of the estimator: when a
// predicate, an atom input or a constrained output position carries a
// bound constant and the attribute it touches has a profiled value
// distribution (schema.Stats.Dists), the selectivity is read off the
// histogram/MCV list instead of the uniform 1/V model. Everything
// degrades to the uniform path when distributions are absent or
// Config.NoValueStats is set, so plans over unprofiled services cost
// exactly as before.

// constExpr evaluates an expression that references no variables,
// reporting ok=false otherwise. It is how the estimator recognizes a
// bound constant side of a predicate ('2007/3/14' + 180 included).
// Eval itself fails on any variable (the binding function always
// reports unbound), so no separate variable scan is needed — this
// runs in the estimator's hot loop.
func constExpr(e *cq.Expr) (schema.Value, bool) {
	if e == nil {
		return schema.Null, false
	}
	v, err := e.Eval(func(cq.Var) (schema.Value, bool) { return schema.Null, false })
	if err != nil {
		return schema.Null, false
	}
	return v, true
}

// varExpr reports whether the expression is a bare variable term.
func varExpr(e *cq.Expr) (cq.Var, bool) {
	if e != nil && e.Kind == cq.ETerm && e.Term.IsVar() {
		return e.Term.Var, true
	}
	return "", false
}

// mirror flips a comparison for swapped operands: c OP X becomes
// X mirror(OP) c.
func mirror(op cq.CmpOp) cq.CmpOp {
	switch op {
	case cq.Lt:
		return cq.Gt
	case cq.Le:
		return cq.Ge
	case cq.Gt:
		return cq.Lt
	case cq.Ge:
		return cq.Le
	default:
		return op // Eq and Ne are symmetric
	}
}

// attrDistribution finds the most informative value distribution for
// a variable: among every attribute position of the query where x
// occurs, the non-empty distribution built from the most rows.
func attrDistribution(q *cq.Query, x cq.Var) *schema.Distribution {
	var best *schema.Distribution
	for _, a := range q.Atoms {
		if a.Sig == nil {
			continue
		}
		for i, t := range a.Terms {
			if !t.IsVar() || t.Var != x {
				continue
			}
			if d := a.Sig.Statistics().Distribution(i); !d.Empty() {
				if best == nil || d.Total > best.Total {
					best = d
				}
			}
		}
	}
	return best
}

// distCmpSelectivity prices X op v against a distribution. ok is
// false when the distribution is empty.
func distCmpSelectivity(d *schema.Distribution, op cq.CmpOp, v schema.Value) (float64, bool) {
	if d.Empty() {
		return 0, false
	}
	eq, _ := d.EqSelectivity(v)
	switch op {
	case cq.Eq:
		return eq, true
	case cq.Ne:
		return clamp01(1 - eq), true
	}
	le, _ := d.LeSelectivity(v)
	var s float64
	switch op {
	case cq.Le:
		s = le
	case cq.Lt:
		s = le - eq
	case cq.Ge:
		s = 1 - le + eq
	case cq.Gt:
		s = 1 - le
	default:
		return 0, false
	}
	// Range predicates keep the same floor as equalities: a plan must
	// never be priced as if a comparison could return strictly nothing.
	if min := d.MinSelectivity(); s < min {
		s = min
	}
	return clamp01(s), true
}

func clamp01(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// valueJoinDistribution returns the distribution backing a value
// equi-join estimate for x, or nil when the value layer is disabled
// or no usable distribution exists. The NoValueStats check comes
// first so the uniform path never pays the attribute scan.
func valueJoinDistribution(c Config, q *cq.Query, x cq.Var) *schema.Distribution {
	if c.NoValueStats {
		return nil
	}
	if d := attrDistribution(q, x); !d.Empty() && d.Distinct > 0 {
		return d
	}
	return nil
}

// valueSel estimates a predicate's selectivity from value
// distributions when one side is a bare variable with a profiled
// attribute and the other side folds to a constant; ok is false
// otherwise (the caller then uses the uniform operator default).
func (c Config) valueSel(q *cq.Query, p *cq.Predicate) (float64, bool) {
	if c.NoValueStats || q == nil {
		return 0, false
	}
	// Probe the cheap variable side first so the common
	// var-vs-var/expr cases bail before any expression evaluation.
	var (
		x  cq.Var
		v  schema.Value
		op = p.Op
		ok bool
	)
	if x, ok = varExpr(p.L); ok {
		if v, ok = constExpr(p.R); !ok {
			return 0, false
		}
	} else if x, ok = varExpr(p.R); ok {
		// Mirrored orientation: const OP var.
		if v, ok = constExpr(p.L); !ok {
			return 0, false
		}
		op = mirror(op)
	} else {
		return 0, false
	}
	d := attrDistribution(q, x)
	if d.Empty() {
		return 0, false
	}
	return distCmpSelectivity(d, op, v)
}

// selIn resolves a predicate's selectivity in the context of a query:
// explicit annotation first, then the value distributions, then the
// uniform operator defaults.
func (c Config) selIn(q *cq.Query, p *cq.Predicate) float64 {
	if p.Selectivity > 0 {
		return p.Selectivity
	}
	if s, ok := c.valueSel(q, p); ok {
		return s
	}
	if c.DefaultSelectivity != nil {
		return c.DefaultSelectivity(p.Op)
	}
	return DefaultSelectivity(p.Op)
}

// PredSelectivityIn returns the combined selectivity of predicates in
// the context of a query, using per-value distributions for
// variable-versus-constant comparisons when profiled. With a nil
// query it equals PredSelectivity.
func (c Config) PredSelectivityIn(q *cq.Query, preds []*cq.Predicate) float64 {
	s := 1.0
	for _, p := range preds {
		s *= c.selIn(q, p)
	}
	return s
}

// valueERSPIFactor scales a service node's expected result size by
// the actual constants bound to its input positions: under uniformity
// every input value yields ξ tuples on average, but a profiled input
// distribution prices binding v as freq(v)·V — above 1 for common
// values, below 1 for rare ones. This is what makes two bindings of
// one template legitimately diverge in cost. st is the node's
// statistics snapshot.
func (c Config) valueERSPIFactor(n *plan.Node, st schema.Stats) float64 {
	if c.NoValueStats || n.Kind != plan.Service || n.Atom == nil || n.Atom.Sig == nil {
		return 1
	}
	f := 1.0
	for _, pos := range n.Pattern.Inputs() {
		t := n.Atom.Terms[pos]
		if t.IsVar() {
			continue
		}
		d := st.Distribution(pos)
		if d.Empty() || d.Distinct <= 0 {
			continue
		}
		if eq, ok := d.EqSelectivity(t.Const); ok {
			f *= eq * d.Distinct
		}
	}
	return f
}
