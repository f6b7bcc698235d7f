package card

import (
	"math"

	"mdq/internal/cq"
	"mdq/internal/plan"
	"mdq/internal/schema"
)

// Compiled is one plan's cardinality annotation with everything that
// does not depend on the fetch factors resolved up front: the
// topological order, each join's fork node and selectivities, each
// service's predicate and bound-output selectivities, result-size
// factors and — under the one-call and optimal caches — the candidate
// block contributors of every input variable. Phase 3 prices many
// fetch vectors of one plan; it compiles the plan once and calls
// Annotate per vector, which is float arithmetic over the nodes with
// no allocations.
//
// Statistics are read once, by Compile: every Annotate of one
// Compiled prices against the same snapshot even if a service's
// profile is refreshed meanwhile. A Compiled belongs to its plan and
// must not be annotated from two goroutines at once.
type Compiled struct {
	mode  CacheMode
	steps []step
	out   *plan.Node
	// cands holds every step's contributor candidates, one span per
	// input variable; union lists, per step, all of its candidates in
	// ascending node ID.
	cands []candidate
	union []*plan.Node
	// chosen marks, by node ID, the block minimizers of the service
	// being annotated; Annotate clears it before moving on.
	chosen []bool
}

// step is one node's share of the annotation.
type step struct {
	n    *plan.Node
	l, r *plan.Node // predecessors (r: joins only)
	fork *plan.Node // joins: deepest common ancestor of l and r
	// predSel is σ of the node's predicates (Preds, or JoinPreds at
	// a join); sel is the join's value equi-join selectivity or the
	// service's bound-output selectivity.
	predSel, sel float64
	// Services: size is the chunk size when chunked, else ERSPI;
	// valueFactor is valueERSPIFactor (unchunked only).
	chunked           bool
	size, valueFactor float64
	// vars indexes the input variables' candidate spans in
	// Compiled.cands; ids is the step's span of Compiled.union.
	vars      []span
	ids       span
	domCap    float64
	hasDomCap bool
}

type span struct{ lo, hi int }

// candidate is a node on a path from a producer of an input variable
// to the service consuming it, with its depth (ancestor count).
type candidate struct {
	n     *plan.Node
	depth int
}

// Compile resolves the fetch-independent part of the annotation of p.
// Annotating the result is bit-identical to the per-node formulas of
// §3.4 and Eq. 2 evaluated from scratch.
func (c Config) Compile(p *plan.Plan) *Compiled {
	order := p.TopoNodes()
	cp := &Compiled{
		mode:   c.Mode,
		steps:  make([]step, len(order)),
		out:    p.OutputNode(),
		chosen: make([]bool, len(p.Nodes)),
	}
	blocks := c.Mode == OneCall || c.Mode == Optimal
	// Per-node variable sets: the inputs and outputs of each service
	// and the variables available after each node (its own plus its
	// ancestors'), built once in topological order.
	ins := make([]cq.VarSet, len(p.Nodes))
	outs := make([]cq.VarSet, len(p.Nodes))
	avail := make([]cq.VarSet, len(p.Nodes))
	for _, n := range order {
		vs := cq.VarSet{}
		for _, m := range n.In {
			vs.AddAll(avail[m.ID])
		}
		if n.Kind == plan.Service {
			ins[n.ID], outs[n.ID] = n.InputVars(), n.OutputVars()
			vs.AddAll(ins[n.ID])
			vs.AddAll(outs[n.ID])
		}
		avail[n.ID] = vs
	}
	for i, n := range order {
		s := &cp.steps[i]
		s.n = n
		switch n.Kind {
		case plan.Output:
			s.l = n.In[0]
		case plan.Join:
			s.l, s.r = n.In[0], n.In[1]
			s.fork = forkNode(p, s.l, s.r)
			forkVars := cq.VarSet{}
			if s.fork != nil {
				forkVars = avail[s.fork.ID]
			}
			s.predSel = c.PredSelectivityIn(p.Query, n.JoinPreds)
			s.sel = c.equiJoinSelectivity(p.Query, avail[s.l.ID], avail[s.r.ID], forkVars)
		case plan.Service:
			s.l = n.In[0]
			var st schema.Stats
			if n.Atom.Sig != nil {
				st = n.Atom.Sig.Statistics()
			}
			s.predSel = c.PredSelectivityIn(p.Query, n.Preds)
			s.sel = c.boundOutputSelectivity(n, avail[s.l.ID], st)
			s.chunked = n.Atom.Sig != nil && st.Chunked()
			if s.chunked {
				// The fetch schedule, not erspi, sizes chunked
				// results, so the per-value input factor does not
				// apply.
				s.size = float64(st.ChunkSize)
			} else {
				s.size, s.valueFactor = st.ERSPI, c.valueERSPIFactor(n, st)
			}
			if blocks {
				cp.compileBlocks(p, s, ins[n.ID], outs)
			}
		}
	}
	return cp
}

// compileBlocks records, for each input variable x of service s.n in
// sorted order, the candidates for N(n) of Eq. 2: the ancestors of n
// that produce x or descend from a producer of x, in ascending node
// ID. Variables without a producer (bound by constants) contribute
// nothing. It also precomputes the optimal cache's domain cap, the
// product of the variables' domain sizes.
func (cp *Compiled) compileBlocks(p *plan.Plan, s *step, inVars cq.VarSet, outs []cq.VarSet) {
	n := s.n
	anc := p.Ancestors(n)
	s.domCap = 1
	var producers []int
	for _, x := range inVars.Sorted() {
		producers = producers[:0]
		for id := range p.Nodes {
			if anc[id] && outs[id].Has(x) {
				producers = append(producers, id)
			}
		}
		if len(producers) == 0 {
			continue
		}
		lo := len(cp.cands)
		for id, m := range p.Nodes {
			if !anc[id] || m.Kind == plan.Input {
				continue
			}
			mAnc := p.Ancestors(m)
			for _, prod := range producers {
				if prod == id || mAnc[prod] {
					cp.cands = append(cp.cands, candidate{n: m, depth: len(mAnc)})
					cp.chosen[id] = true
					break
				}
			}
		}
		s.vars = append(s.vars, span{lo, len(cp.cands)})
		if d := varDomainSize(n, x); d > 0 {
			s.domCap *= d
			s.hasDomCap = true
		} else {
			s.hasDomCap = false
			s.domCap = math.Inf(1)
		}
	}
	s.ids.lo = len(cp.union)
	for id, marked := range cp.chosen {
		if marked {
			cp.union = append(cp.union, p.Nodes[id])
			cp.chosen[id] = false
		}
	}
	s.ids.hi = len(cp.union)
}

// Annotate fills TIn, Calls and TOut on every node of the compiled
// plan from its current fetch factors and returns the plan's t_out.
func (cp *Compiled) Annotate() float64 {
	for i := range cp.steps {
		s := &cp.steps[i]
		n := s.n
		switch n.Kind {
		case plan.Input:
			// The user always injects one single input tuple (§3.4).
			n.TIn, n.Calls, n.TOut = 1, 1, 1
		case plan.Output:
			n.TIn = s.l.TOut
			n.Calls = 0
			n.TOut = n.TIn
		case plan.Join:
			// Lineage-aware Cartesian product: the paper's
			// t_out_l · t_out_m (§3.4) assumes independent branches;
			// when they fork from a common ancestor the product is
			// taken per lineage group, t_out_l · t_out_r / t_out_fork.
			base := 1.0
			if s.fork != nil && s.fork.TOut > 0 {
				base = s.fork.TOut
			}
			n.TIn = s.l.TOut + s.r.TOut
			n.Calls = 0
			n.TOut = s.l.TOut * s.r.TOut / base * s.predSel * s.sel
		case plan.Service:
			n.TIn = s.l.TOut
			n.Calls = cp.calls(s)
			if s.chunked {
				// t_out = cs · F per input tuple (§3.4), filtered by
				// local predicates and bound-output selections.
				n.TOut = n.TIn * s.size * float64(n.Fetches) * s.predSel * s.sel
			} else {
				n.TOut = n.TIn * s.size * s.valueFactor * s.predSel * s.sel
			}
		}
	}
	return cp.out.TOut
}

// calls estimates the invocations of a service under the caching
// model. The one-call cache implements Eq. 2:
// t_in(n) = ∏_{m ∈ N(n)} ξ_m·t_in_m, where N(n) holds, for each input
// variable X of n, the candidate with minimal t_out among the nodes on
// a path from a producer of X to n (ties prefer the deeper node, then
// the lower ID). Because tuples from proliferative services flow in
// contiguous blocks with constant values for non-dependent fields,
// the number of distinct consecutive input combinations — and hence
// of calls under the one-call cache — is bounded by the product of
// those minima (§5.2), taken in ascending node ID. The optimal cache
// additionally caps the bound by the domain sizes of the variables.
func (cp *Compiled) calls(s *step) float64 {
	tin := s.n.TIn
	if cp.mode != OneCall && cp.mode != Optimal {
		return tin
	}
	for _, v := range s.vars {
		best := &cp.cands[v.lo]
		for j := v.lo + 1; j < v.hi; j++ {
			m := &cp.cands[j]
			if m.n.TOut < best.n.TOut || (m.n.TOut == best.n.TOut && m.depth > best.depth) {
				best = m
			}
		}
		cp.chosen[best.n.ID] = true
	}
	bound := 1.0
	for _, m := range cp.union[s.ids.lo:s.ids.hi] {
		if cp.chosen[m.ID] {
			bound *= m.TOut
			cp.chosen[m.ID] = false
		}
	}
	if cp.mode == Optimal && s.hasDomCap {
		bound = math.Min(bound, s.domCap)
	}
	return math.Min(tin, bound)
}
