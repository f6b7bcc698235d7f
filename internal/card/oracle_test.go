package card

import (
	"math"

	"mdq/internal/cq"
	"mdq/internal/plan"
	"mdq/internal/schema"
)

// This file keeps the per-call estimator that Compile replaced, as the
// oracle of the differential tests: every call re-derives the plan's
// structure (ancestor sets, available variables, fork nodes, block
// contributors) and re-reads the statistics. Its only departure from
// the original is a fixed iteration order wherever it used to range
// over a map and combine floats: variables are visited in sorted
// order, contributor candidates in ascending node ID (the first one
// wins a tie on t_out and depth), and block minimizers are multiplied
// in ascending node ID.

// OracleAnnotate annotates p with the per-call estimator.
func OracleAnnotate(c Config, p *plan.Plan) float64 {
	for _, n := range p.TopoNodes() {
		switch n.Kind {
		case plan.Input:
			n.TIn, n.Calls, n.TOut = 1, 1, 1
		case plan.Output:
			n.TIn = n.In[0].TOut
			n.Calls = 0
			n.TOut = n.TIn
		case plan.Join:
			l, r := n.In[0], n.In[1]
			n.TIn = l.TOut + r.TOut
			n.Calls = 0
			n.TOut = oracleJoinOut(p, l, r) * c.PredSelectivityIn(p.Query, n.JoinPreds) * oracleEquiJoin(c, p, l, r)
		case plan.Service:
			n.TIn = n.In[0].TOut
			n.Calls = oracleCalls(c, p, n)
			boundSel := oracleBoundOutput(c, p, n)
			predSel := c.PredSelectivityIn(p.Query, n.Preds)
			st := n.Atom.Sig.Statistics()
			if n.Chunked() {
				cs := float64(st.ChunkSize)
				n.TOut = n.TIn * cs * float64(n.Fetches) * predSel * boundSel
			} else {
				n.TOut = n.TIn * st.ERSPI * c.valueERSPIFactor(n, st) * predSel * boundSel
			}
		}
	}
	return p.OutputNode().TOut
}

func oracleJoinOut(p *plan.Plan, l, r *plan.Node) float64 {
	fork := forkNode(p, l, r)
	base := 1.0
	if fork != nil && fork.TOut > 0 {
		base = fork.TOut
	}
	return l.TOut * r.TOut / base
}

func oracleBoundOutput(c Config, p *plan.Plan, n *plan.Node) float64 {
	var st schema.Stats
	if n.Atom.Sig != nil {
		st = n.Atom.Sig.Statistics()
	}
	return c.boundOutputSelectivity(n, p.AvailableVars(n.In[0]), st)
}

func oracleEquiJoin(c Config, p *plan.Plan, l, r *plan.Node) float64 {
	forkVars := cq.VarSet{}
	if fork := forkNode(p, l, r); fork != nil {
		forkVars = p.AvailableVars(fork)
	}
	return c.equiJoinSelectivity(p.Query, p.AvailableVars(l), p.AvailableVars(r), forkVars)
}

func oracleCalls(c Config, p *plan.Plan, n *plan.Node) float64 {
	switch c.Mode {
	case OneCall:
		return math.Min(n.TIn, oracleBlockBound(p, n, false))
	case Optimal:
		return math.Min(n.TIn, oracleBlockBound(p, n, true))
	default:
		return n.TIn
	}
}

func oracleBlockBound(p *plan.Plan, n *plan.Node, capDomain bool) float64 {
	anc := p.Ancestors(n)
	minimizers := map[int]float64{}
	domCap := 1.0
	hasDomCap := false
	for _, x := range n.InputVars().Sorted() {
		m, ok := oracleMinContributor(p, anc, x)
		if !ok {
			continue
		}
		minimizers[m.ID] = m.TOut
		if capDomain {
			if d := varDomainSize(n, x); d > 0 {
				domCap *= d
				hasDomCap = true
			} else {
				hasDomCap = false
				domCap = math.Inf(1)
			}
		}
	}
	bound := 1.0
	for id := range p.Nodes {
		if v, ok := minimizers[id]; ok {
			bound *= v
		}
	}
	if capDomain && hasDomCap {
		bound = math.Min(bound, domCap)
	}
	return bound
}

func oracleMinContributor(p *plan.Plan, anc map[int]bool, x cq.Var) (*plan.Node, bool) {
	var producers []*plan.Node
	for id, m := range p.Nodes {
		if anc[id] && m.Kind == plan.Service && m.OutputVars().Has(x) {
			producers = append(producers, m)
		}
	}
	if len(producers) == 0 {
		return nil, false
	}
	var best *plan.Node
	bestDepth := -1
	for id, m := range p.Nodes {
		if !anc[id] || m.Kind == plan.Input {
			continue
		}
		onPath := false
		mAnc := p.Ancestors(m)
		for _, prod := range producers {
			if prod.ID == m.ID || mAnc[prod.ID] {
				onPath = true
				break
			}
		}
		if !onPath {
			continue
		}
		d := len(mAnc)
		if best == nil || m.TOut < best.TOut || (m.TOut == best.TOut && d > bestDepth) {
			best = m
			bestDepth = d
		}
	}
	return best, best != nil
}
