// Package card estimates tuple cardinalities and invocation counts
// for query plans (§3.4 and §5.2 of Braga et al., VLDB 2008).
//
// For every node n the estimator computes:
//
//	t_in(n)  — tuples arriving at n, each a priori requiring one call;
//	calls(n) — invocations actually required under the caching model;
//	t_out(n) — tuples produced by n.
//
// Three caching models are supported (§5.1): no cache (Eq. 1 — every
// call is repeated), the one-call cache (Eq. 2 — "blocks" of uniform
// tuples originating from proliferative services collapse into one
// call, bounded by the minimal t_out along paths from the producers),
// and the optimal cache (calls bounded by the number of distinct
// input combinations, capped by domain sizes).
//
// On top of the paper's uniform model the estimator consults
// per-attribute value distributions (schema.Stats.Dists) when they
// are profiled: equality and range predicates over bound constants,
// constants in atom input positions, and constrained output fields
// are then priced per value instead of per domain (see value.go),
// which makes the cost of a query depend on its actual bindings.
package card

import (
	"fmt"
	"log"
	"sync/atomic"

	"mdq/internal/cq"
	"mdq/internal/plan"
	"mdq/internal/schema"
)

// CacheMode selects the logical caching model of §5.1.
type CacheMode int

// Caching models.
const (
	// NoCache repeats every call (the assumption of [16], Eq. 1).
	NoCache CacheMode = iota
	// OneCall recalls the last call per service, collapsing
	// consecutive identical invocations (Eq. 2).
	OneCall
	// Optimal recalls every call, so the number of invocations per
	// service equals the number of distinct inputs presented to it.
	Optimal
)

// String implements fmt.Stringer.
func (m CacheMode) String() string {
	switch m {
	case NoCache:
		return "no-cache"
	case OneCall:
		return "one-call"
	case Optimal:
		return "optimal"
	default:
		return fmt.Sprintf("CacheMode(%d)", int(m))
	}
}

// ModeByName resolves a caching-model name for CLI and API use. An
// empty name means the paper's recommended one-call default.
func ModeByName(name string) (CacheMode, bool) {
	switch name {
	case "", "one-call", "onecall":
		return OneCall, true
	case "none", "no-cache":
		return NoCache, true
	case "optimal":
		return Optimal, true
	default:
		return 0, false
	}
}

// Config parameterizes the estimator. It is a pure value: Compile and
// Annotate write only into the plan they are passed (cardinality
// fields and the plan's private ancestor cache), never into the
// Config, the query or the signatures — so one Config may annotate
// distinct plans from many goroutines concurrently, which the
// parallel optimizer relies on. A custom DefaultSelectivity function
// must be pure for the same reason. Two goroutines must not annotate
// the same *plan.Plan.
type Config struct {
	Mode CacheMode
	// DefaultSelectivity supplies σp for predicates without an
	// explicit annotation; nil means DefaultSelectivity.
	DefaultSelectivity func(op cq.CmpOp) float64
	// DefaultEquiJoin is the selectivity assumed for a value
	// equi-join on a variable whose domain size is unknown; 0 means
	// UnknownDomainFallback.
	DefaultEquiJoin float64
	// NoValueStats disables the per-value distribution layer
	// (schema.Stats.Dists): every selectivity reverts to the uniform
	// model of §2.2, as if no histograms were profiled. The flag is
	// part of the optimizer's cache-key fingerprint.
	NoValueStats bool
}

// UnknownDomainFallback is the uniform selectivity charged for an
// equality on an attribute whose domain size is unknown and which has
// no value distribution — the conventional System-R 0.1. It is
// applied explicitly (and logged once per process, see
// logUnknownDomain) rather than silently degrading.
const UnknownDomainFallback = 0.1

// FallbackLogf receives the one-time diagnostic emitted when the
// estimator first resorts to UnknownDomainFallback because neither a
// domain size nor a value distribution was available. It defaults to
// log.Printf; tests replace it to pin the behavior.
var FallbackLogf func(format string, args ...any) = log.Printf

// unknownDomainLogged guards the once-per-process fallback log.
var unknownDomainLogged atomic.Bool

// resetUnknownDomainLog re-arms the one-time log (test hook).
func resetUnknownDomainLog() { unknownDomainLogged.Store(false) }

// uniformFallback returns the equality selectivity to assume when an
// attribute has neither a known domain size nor a value distribution,
// logging the degradation once so silent mis-estimation is visible in
// server logs.
func (c Config) uniformFallback(where string) float64 {
	if unknownDomainLogged.CompareAndSwap(false, true) {
		FallbackLogf("card: %s: attribute has no domain size and no value distribution; assuming uniform selectivity %g", where, c.equiJoinDefault())
	}
	return c.equiJoinDefault()
}

func (c Config) equiJoinDefault() float64 {
	if c.DefaultEquiJoin > 0 {
		return c.DefaultEquiJoin
	}
	return UnknownDomainFallback
}

// DefaultSelectivity is the built-in fallback: equality 0.1,
// inequality ranges 0.3, disequality 0.9 — the conventional System-R
// style magic constants, documented so callers can override them.
func DefaultSelectivity(op cq.CmpOp) float64 {
	switch op {
	case cq.Eq:
		return 0.1
	case cq.Ne:
		return 0.9
	default:
		return 0.3
	}
}

func (c Config) sel(p *cq.Predicate) float64 {
	if p.Selectivity > 0 {
		return p.Selectivity
	}
	if c.DefaultSelectivity != nil {
		return c.DefaultSelectivity(p.Op)
	}
	return DefaultSelectivity(p.Op)
}

// PredSelectivity returns the combined selectivity of a node's local
// predicates.
func (c Config) PredSelectivity(preds []*cq.Predicate) float64 {
	s := 1.0
	for _, p := range preds {
		s *= c.sel(p)
	}
	return s
}

// JoinSelectivity returns σp of a join node: the product of the
// selectivities of the predicates evaluated at the join. The
// lineage equi-join on shared upstream variables has selectivity 1
// by construction (branch tuples from the same upstream tuple agree
// on shared fields).
func (c Config) JoinSelectivity(n *plan.Node) float64 {
	return c.PredSelectivity(n.JoinPreds)
}

// Annotate fills TIn, Calls and TOut on every node of the plan, in
// topological order. It returns the estimated overall result size
// t_out of the plan (the Output node's t_out). It is Compile followed
// by one (*Compiled).Annotate; callers that price many fetch vectors
// of one plan compile once and annotate per vector.
func (c Config) Annotate(p *plan.Plan) float64 {
	return c.Compile(p).Annotate()
}

// boundOutputSelectivity charges the implicit selections performed
// when a service is accessed through a pattern whose output fields
// are already constrained: an output position holding a constant, or
// a variable that upstream nodes have already bound, filters the
// returned rows to the matching ones. The selectivity of each such
// equality is estimated from the attribute's value distribution when
// one is profiled (exactly for constants, 1/V̂ from the histogram's
// distinct count for upstream-bound variables), else as 1/V from the
// abstract domain's distinct count (uniformity, §2.2), else the
// explicit uniform fallback (logged once, see UnknownDomainFallback).
//
// This is what makes "call hotel with no inputs, then look for
// conferences in the hotel's city" correctly expensive: conf's
// erspi applies to a topic query, and the city equality must then be
// paid as a 1/V(City) filter. n is a service node, upstream the
// variables bound before it and st its statistics snapshot.
func (c Config) boundOutputSelectivity(n *plan.Node, upstream cq.VarSet, st schema.Stats) float64 {
	sel := 1.0
	factor := func(pos int, cv schema.Value, isConst bool) float64 {
		sig := n.Atom.Sig
		if sig != nil {
			if isConst && !c.NoValueStats {
				if d := st.Distribution(pos); !d.Empty() {
					if eq, ok := d.EqSelectivity(cv); ok {
						return eq
					}
				}
			}
			if d := sig.Attrs[pos].Domain.DistinctValues; d > 0 {
				return 1 / float64(d)
			}
			if !c.NoValueStats {
				if d := st.Distribution(pos); !d.Empty() && d.Distinct > 0 {
					return 1 / d.Distinct
				}
			}
		}
		return c.uniformFallback("bound-output equality on " + n.Atom.Service)
	}
	for _, pos := range n.Pattern.Outputs() {
		term := n.Atom.Terms[pos]
		if !term.IsVar() {
			sel *= factor(pos, term.Const, true)
			continue
		}
		if upstream.Has(term.Var) {
			sel *= factor(pos, schema.Null, false)
		}
	}
	return sel
}

// equiJoinSelectivity accounts for variables bound independently on
// both branches of a parallel join, given the variables available
// after each branch and after their fork node. Variables bound at or
// before the fork flow identically into both branches (the lineage
// equi-join, selectivity 1); a variable first bound on each branch
// separately is a genuine value join, estimated System-R style as
// 1/max(V(X)) from the abstract domain's distinct count (§2.2's
// uniformity assumptions), falling back to the histogram's distinct
// estimate when the domain size is unknown, and finally to the
// explicit uniform fallback (logged once). Variables are visited in
// sorted order, so the product rounds the same way on every run.
func (c Config) equiJoinSelectivity(q *cq.Query, lVars, rVars, forkVars cq.VarSet) float64 {
	sel := 1.0
	for _, x := range lVars.Sorted() {
		if !rVars.Has(x) || forkVars.Has(x) {
			continue
		}
		if d := queryVarDomain(q, x); d > 0 {
			sel /= d
		} else if dd := valueJoinDistribution(c, q, x); dd != nil {
			sel /= dd.Distinct
		} else {
			sel *= c.uniformFallback("value equi-join on " + string(x))
		}
	}
	return sel
}

// queryVarDomain returns the largest known distinct-value estimate
// among the domains where x occurs in the query, or 0.
func queryVarDomain(q *cq.Query, x cq.Var) float64 {
	best := 0.0
	for _, a := range q.Atoms {
		if a.Sig == nil {
			continue
		}
		for i, t := range a.Terms {
			if t.IsVar() && t.Var == x {
				if d := a.Sig.Attrs[i].Domain.DistinctValues; float64(d) > best {
					best = float64(d)
				}
			}
		}
	}
	return best
}

// forkNode returns the deepest common ancestor of l and r, or nil if
// their only common ancestor is the plan input.
func forkNode(p *plan.Plan, l, r *plan.Node) *plan.Node {
	al := p.Ancestors(l)
	ar := p.Ancestors(r)
	inLeft := func(id int) bool { return id == l.ID || al[id] }
	inRight := func(id int) bool { return id == r.ID || ar[id] }
	var best *plan.Node
	bestDepth := -1
	for _, n := range p.Nodes {
		if !inLeft(n.ID) || !inRight(n.ID) {
			continue
		}
		d := len(p.Ancestors(n))
		if d > bestDepth {
			bestDepth = d
			best = n
		}
	}
	return best
}

// varDomainSize returns the estimated distinct-value count of the
// abstract domain at the positions where x occurs as an input of n,
// or 0 if unknown.
func varDomainSize(n *plan.Node, x cq.Var) float64 {
	if n.Atom == nil || n.Atom.Sig == nil {
		return 0
	}
	for _, i := range n.Pattern.Inputs() {
		t := n.Atom.Terms[i]
		if t.IsVar() && t.Var == x {
			if d := n.Atom.Sig.Attrs[i].Domain.DistinctValues; d > 0 {
				return float64(d)
			}
		}
	}
	return 0
}
