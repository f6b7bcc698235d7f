package plan

import (
	"fmt"
	"sort"
	"strings"

	"mdq/internal/abind"
	"mdq/internal/cq"
)

// MethodChooser selects the parallel join method for two branches,
// given the terminal nodes being combined. The paper fixes the
// method per pair of services at registration time (§3.3).
type MethodChooser func(left, right *Node) JoinMethod

// DefaultMethodChooser uses merge-scan when both branches end in
// chunked search services (no a priori selectivity distinction) and
// nested loop when one side is a bulk service or known selective
// (few tuples, fetched first).
func DefaultMethodChooser(left, right *Node) JoinMethod {
	leftSearch := left.Kind == Service && left.IsSearch()
	rightSearch := right.Kind == Service && right.IsSearch()
	if leftSearch && rightSearch {
		return MergeScan
	}
	if left.Kind == Join || right.Kind == Join {
		return MergeScan
	}
	return NestedLoop
}

// Options configures plan construction.
type Options struct {
	// ChooseMethod picks parallel join methods; nil means
	// DefaultMethodChooser.
	ChooseMethod MethodChooser
	// DefaultFetches is the initial fetching factor for chunked
	// services (phase 3 reassigns it); 0 means 1.
	DefaultFetches int
}

// Build assembles the plan DAG for a query under a given
// access-pattern assignment and topology (§3.3):
//
//   - one service node per atom, wired by the topology's cover
//     edges; a node with several incomparable predecessors receives
//     their combination through a parallel join (cascaded pairwise in
//     atom order, reusing join nodes across consumers);
//   - maximal branches are combined by parallel joins before the
//     Output node;
//   - every selection predicate is attached to the earliest node at
//     which all its variables are bound: a service node (folding into
//     its erspi, §3.4) or the join node where the carrying branches
//     first meet.
//
// Build validates that the topology is a partial order and that every
// atom's input fields are bound by constants or by outputs of its
// ancestors (callability, Definition 3.1).
func Build(q *cq.Query, asn abind.Assignment, topo *Topology, opts Options) (*Plan, error) {
	if len(asn) != len(q.Atoms) {
		return nil, fmt.Errorf("plan: assignment has %d patterns for %d atoms", len(asn), len(q.Atoms))
	}
	if topo.Size() != len(q.Atoms) {
		return nil, fmt.Errorf("plan: topology has %d atoms, query has %d", topo.Size(), len(q.Atoms))
	}
	if !topo.IsPartialOrder() {
		return nil, fmt.Errorf("plan: topology %s is not a strict partial order", topo)
	}
	if err := checkBindings(q, asn, topo); err != nil {
		return nil, err
	}
	chooser := opts.ChooseMethod
	if chooser == nil {
		chooser = DefaultMethodChooser
	}
	defFetch := opts.DefaultFetches
	if defFetch <= 0 {
		defFetch = 1
	}

	p := &Plan{
		Query:       q,
		Assignment:  asn,
		Topology:    topo.Clone(),
		ServiceNode: make([]*Node, len(q.Atoms)),
	}
	newNode := func(kind NodeKind) *Node {
		n := &Node{ID: len(p.Nodes), Kind: kind, Fetches: 1}
		p.Nodes = append(p.Nodes, n)
		return n
	}
	arc := func(from, to *Node) {
		from.Out = append(from.Out, to)
		to.In = append(to.In, from)
	}

	in := newNode(Input)

	// Join cache: combination of a set of branch-terminal node IDs
	// to the join node already built for them.
	joinCache := map[string]*Node{}
	combine := func(sources []*Node) *Node {
		sort.Slice(sources, func(i, j int) bool { return sources[i].ID < sources[j].ID })
		cur := sources[0]
		for _, next := range sources[1:] {
			key := fmt.Sprintf("%d+%d", cur.ID, next.ID)
			if j, ok := joinCache[key]; ok {
				cur = j
				continue
			}
			j := newNode(Join)
			j.Method = chooser(cur, next)
			arc(cur, j)
			arc(next, j)
			joinCache[key] = j
			cur = j
		}
		return cur
	}

	for _, ai := range topo.TopoOrder() {
		atom := q.Atoms[ai]
		n := newNode(Service)
		n.Atom = atom
		n.Pattern = asn[ai]
		if atom.Sig != nil && atom.Sig.Statistics().Chunked() {
			n.Fetches = defFetch
		}
		p.ServiceNode[ai] = n
		preds := topo.CoverPreds(ai)
		if len(preds) == 0 {
			arc(in, n)
			continue
		}
		sources := make([]*Node, len(preds))
		for i, pi := range preds {
			sources[i] = p.ServiceNode[pi]
		}
		arc(combine(sources), n)
	}

	// Combine the maximal branches into the output.
	var sinks []*Node
	for _, n := range p.Nodes {
		if n.Kind != Input && len(n.Out) == 0 {
			sinks = append(sinks, n)
		}
	}
	out := &Node{ID: -1, Kind: Output, Fetches: 1}
	if len(sinks) == 1 {
		p.Nodes = append(p.Nodes, out)
		out.ID = len(p.Nodes) - 1
		arc(sinks[0], out)
	} else {
		top := combine(sinks)
		p.Nodes = append(p.Nodes, out)
		out.ID = len(p.Nodes) - 1
		arc(top, out)
	}

	placePredicates(p)
	p.paths = p.walkPaths()
	return p, nil
}

// checkBindings verifies that under the topology each atom's input
// variables are produced by ancestor atoms (or are constants).
func checkBindings(q *cq.Query, asn abind.Assignment, topo *Topology) error {
	for j, atom := range q.Atoms {
		bound := cq.VarSet{}
		for i := range q.Atoms {
			if topo.Less(i, j) {
				bound.AddAll(abind.OutputVars(q.Atoms[i], asn[i]))
			}
		}
		if !abind.InputsBound(atom, asn[j], bound) {
			return fmt.Errorf("plan: atom %s is not callable after its topology predecessors (bound %s)",
				atom, bound)
		}
	}
	return nil
}

// placePredicates attaches each query predicate to the earliest node
// where all its variables are bound.
func placePredicates(p *Plan) {
	order := p.TopoNodes()
	avail := make(map[int]cq.VarSet, len(order))
	for _, n := range order {
		vs := cq.VarSet{}
		for _, m := range n.In {
			vs.AddAll(avail[m.ID])
		}
		if n.Kind == Service {
			vs.AddAll(n.InputVars())
			vs.AddAll(n.OutputVars())
		}
		avail[n.ID] = vs
	}
	for _, pred := range p.Query.Preds {
		vars := pred.Vars()
		for _, n := range order {
			if n.Kind == Input || n.Kind == Output {
				continue
			}
			if !avail[n.ID].ContainsAll(vars) {
				continue
			}
			// Earliest: no single predecessor already covers vars.
			early := true
			for _, m := range n.In {
				if avail[m.ID].ContainsAll(vars) {
					early = false
					break
				}
			}
			if !early {
				continue
			}
			if n.Kind == Join {
				n.JoinPreds = append(n.JoinPreds, pred)
			} else {
				n.Preds = append(n.Preds, pred)
			}
			break
		}
	}
}

// Validate checks structural invariants of a built plan: unique
// input/output, acyclicity, join nodes binary, service callability,
// and every query predicate attached exactly once.
func (p *Plan) Validate() error {
	if len(p.Nodes) < 2 {
		return fmt.Errorf("plan: too few nodes")
	}
	if p.InputNode().Kind != Input || p.OutputNode().Kind != Output {
		return fmt.Errorf("plan: first node must be Input, last must be Output")
	}
	if len(p.TopoNodes()) != len(p.Nodes) {
		return fmt.Errorf("plan: graph has a cycle")
	}
	for _, n := range p.Nodes {
		switch n.Kind {
		case Input:
			if len(n.In) != 0 {
				return fmt.Errorf("plan: input node has predecessors")
			}
		case Output:
			if len(n.Out) != 0 {
				return fmt.Errorf("plan: output node has successors")
			}
			if len(n.In) != 1 {
				return fmt.Errorf("plan: output node must have exactly one predecessor, has %d", len(n.In))
			}
		case Join:
			if len(n.In) != 2 {
				return fmt.Errorf("plan: join node %d must have exactly two inputs, has %d", n.ID, len(n.In))
			}
		case Service:
			if n.Atom == nil || len(n.Pattern) == 0 {
				return fmt.Errorf("plan: service node %d missing atom or pattern", n.ID)
			}
			if n.Fetches < 1 {
				return fmt.Errorf("plan: service node %s has fetch factor %d", n.Label(), n.Fetches)
			}
			bound := cq.VarSet{}
			for id := range p.Ancestors(n) {
				m := p.Nodes[id]
				if m.Kind == Service {
					bound.AddAll(m.OutputVars())
				}
			}
			if !abind.InputsBound(n.Atom, n.Pattern, bound) {
				return fmt.Errorf("plan: node %s not callable from ancestors", n.Label())
			}
		}
	}
	attached := 0
	for _, n := range p.Nodes {
		attached += len(n.Preds) + len(n.JoinPreds)
	}
	if attached != len(p.Query.Preds) {
		return fmt.Errorf("plan: %d of %d predicates attached", attached, len(p.Query.Preds))
	}
	return nil
}

// Describe returns a one-line summary such as
// "conf → weather → (flight ∥ hotel) ⋈MS".
func (p *Plan) Describe() string {
	var parts []string
	for _, n := range p.TopoNodes() {
		switch n.Kind {
		case Service:
			s := n.Atom.Service
			if n.Chunked() && n.Fetches > 0 {
				s += fmt.Sprintf("[F=%d]", n.Fetches)
			}
			parts = append(parts, s)
		case Join:
			parts = append(parts, "⋈"+n.Method.String())
		}
	}
	return strings.Join(parts, " → ")
}
