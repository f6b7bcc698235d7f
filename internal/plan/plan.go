package plan

import (
	"fmt"
	"sort"
	"strings"

	"mdq/internal/abind"
	"mdq/internal/cq"
	"mdq/internal/schema"
)

// NodeKind discriminates plan nodes.
type NodeKind int

// Node kinds. Every plan has exactly one Input node (the user
// query's input) and one Output node (the query result), per §3.3.
const (
	Input NodeKind = iota
	Output
	Service
	Join
)

// String implements fmt.Stringer.
func (k NodeKind) String() string {
	switch k {
	case Input:
		return "IN"
	case Output:
		return "OUT"
	case Service:
		return "service"
	case Join:
		return "join"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// JoinMethod is the strategy of a parallel join node (§3.3, [4]).
type JoinMethod int

// Parallel join methods.
const (
	// MergeScan traverses the Cartesian product of the two ranked
	// inputs diagonally, producing output consistent with both
	// partial orders; used when neither side is known to dominate.
	MergeScan JoinMethod = iota
	// NestedLoop first drains the selective side entirely, then
	// scans the other side as its tuples arrive.
	NestedLoop
)

// String implements fmt.Stringer.
func (m JoinMethod) String() string {
	switch m {
	case MergeScan:
		return "MS"
	case NestedLoop:
		return "NL"
	default:
		return fmt.Sprintf("JoinMethod(%d)", int(m))
	}
}

// Node is a vertex of the plan DAG.
type Node struct {
	ID   int
	Kind NodeKind

	// Service node fields.
	Atom    *cq.Atom
	Pattern schema.AccessPattern
	// Fetches is F_n, the fetching factor for chunked services
	// (number of chunk requests per input tuple). 1 for bulk
	// services and for chunked services before phase 3 assigns it.
	Fetches int
	// Preds are the selection predicates evaluated at this node;
	// they fold into the node's effective erspi (§3.4).
	Preds []*cq.Predicate

	// Join node fields.
	Method JoinMethod
	// JoinPreds are predicates spanning the two joined branches,
	// evaluated at the join; their selectivity is the join's σp.
	JoinPreds []*cq.Predicate

	// Graph structure.
	In  []*Node
	Out []*Node

	// Annotations filled by the cardinality estimator (§3.4): the
	// expected number of input tuples (each a priori requiring one
	// invocation), the estimated number of actual invocations after
	// the caching model, and the total output tuples.
	TIn, Calls, TOut float64
}

// Label returns a short display name.
func (n *Node) Label() string {
	switch n.Kind {
	case Input:
		return "IN"
	case Output:
		return "OUT"
	case Service:
		return n.Atom.Service
	case Join:
		return "⋈" + n.Method.String()
	default:
		return "?"
	}
}

// Chunked reports whether the node is a chunked service invocation.
func (n *Node) Chunked() bool {
	return n.Kind == Service && n.Atom.Sig != nil && n.Atom.Sig.Statistics().Chunked()
}

// IsSearch reports whether the node invokes a search service.
func (n *Node) IsSearch() bool {
	return n.Kind == Service && n.Atom.Sig != nil && n.Atom.Sig.Kind == schema.Search
}

// InputVars returns the variables in input position under the node's
// access pattern (service nodes only).
func (n *Node) InputVars() cq.VarSet {
	if n.Kind != Service {
		return cq.VarSet{}
	}
	return abind.InputVars(n.Atom, n.Pattern)
}

// OutputVars returns the variables in output position (service nodes
// only).
func (n *Node) OutputVars() cq.VarSet {
	if n.Kind != Service {
		return cq.VarSet{}
	}
	return abind.OutputVars(n.Atom, n.Pattern)
}

// Plan is a query plan: a DAG with one Input and one Output node,
// complying with the precedences induced by the access-pattern
// assignment (§3.3).
type Plan struct {
	Query      *cq.Query
	Assignment abind.Assignment
	Topology   *Topology
	Nodes      []*Node // Nodes[0] is Input; last is Output
	// ServiceNode maps atom index to its plan node.
	ServiceNode []*Node

	// anc caches per-node ancestor sets; the graph is immutable
	// after Build, only annotations and fetch factors change.
	anc []map[int]bool
	// paths holds the Input-to-Output paths, computed eagerly by
	// Build and Clone so that metrics read a shared plan without
	// writing to it.
	paths [][]*Node
}

// InputNode returns the unique start node.
func (p *Plan) InputNode() *Node { return p.Nodes[0] }

// OutputNode returns the unique end node.
func (p *Plan) OutputNode() *Node { return p.Nodes[len(p.Nodes)-1] }

// JoinNodes returns the parallel-join nodes in ID order.
func (p *Plan) JoinNodes() []*Node {
	var out []*Node
	for _, n := range p.Nodes {
		if n.Kind == Join {
			out = append(out, n)
		}
	}
	return out
}

// ChunkedNodes returns the chunked service nodes in ID order; these
// are the nodes whose fetching factors phase 3 assigns (§4.3).
func (p *Plan) ChunkedNodes() []*Node {
	var out []*Node
	for _, n := range p.Nodes {
		if n.Chunked() {
			out = append(out, n)
		}
	}
	return out
}

// Clone deep-copies the plan (graph structure, fetch factors and
// annotations); the query, atoms and predicates are shared.
func (p *Plan) Clone() *Plan {
	c := &Plan{
		Query:       p.Query,
		Assignment:  p.Assignment,
		Topology:    p.Topology.Clone(),
		Nodes:       make([]*Node, len(p.Nodes)),
		ServiceNode: make([]*Node, len(p.ServiceNode)),
	}
	for i, n := range p.Nodes {
		cp := *n
		cp.In = nil
		cp.Out = nil
		c.Nodes[i] = &cp
	}
	for i, n := range p.Nodes {
		for _, m := range n.In {
			c.Nodes[i].In = append(c.Nodes[i].In, c.Nodes[m.ID])
		}
		for _, m := range n.Out {
			c.Nodes[i].Out = append(c.Nodes[i].Out, c.Nodes[m.ID])
		}
	}
	for i, n := range p.ServiceNode {
		c.ServiceNode[i] = c.Nodes[n.ID]
	}
	if p.paths != nil {
		c.paths = make([][]*Node, len(p.paths))
		for i, path := range p.paths {
			cp := make([]*Node, len(path))
			for j, n := range path {
				cp[j] = c.Nodes[n.ID]
			}
			c.paths[i] = cp
		}
	}
	return c
}

// TopoNodes returns all nodes in a topological order (Input first,
// Output last), deterministic by node ID.
func (p *Plan) TopoNodes() []*Node {
	indeg := make([]int, len(p.Nodes))
	for _, n := range p.Nodes {
		for range n.In {
			indeg[n.ID]++
		}
	}
	var ready []int
	for _, n := range p.Nodes {
		if indeg[n.ID] == 0 {
			ready = append(ready, n.ID)
		}
	}
	var order []*Node
	for len(ready) > 0 {
		sort.Ints(ready)
		id := ready[0]
		ready = ready[1:]
		n := p.Nodes[id]
		order = append(order, n)
		for _, m := range n.Out {
			indeg[m.ID]--
			if indeg[m.ID] == 0 {
				ready = append(ready, m.ID)
			}
		}
	}
	return order
}

// Paths enumerates all simple node paths from Input to Output. The
// execution time metric maximizes over these (Eq. 4). Plans from
// Build and Clone return their precomputed paths, which callers must
// not mutate.
func (p *Plan) Paths() [][]*Node {
	if p.paths != nil {
		return p.paths
	}
	return p.walkPaths()
}

// walkPaths enumerates the paths by depth-first search.
func (p *Plan) walkPaths() [][]*Node {
	var (
		paths [][]*Node
		walk  func(n *Node, acc []*Node)
	)
	walk = func(n *Node, acc []*Node) {
		acc = append(acc, n)
		if n.Kind == Output {
			cp := make([]*Node, len(acc))
			copy(cp, acc)
			paths = append(paths, cp)
			return
		}
		for _, m := range n.Out {
			walk(m, acc)
		}
	}
	walk(p.InputNode(), nil)
	return paths
}

// Ancestors returns the set of node IDs with a directed path to n
// (excluding n itself). The result is cached and must not be
// mutated.
func (p *Plan) Ancestors(n *Node) map[int]bool {
	if p.anc == nil {
		p.anc = make([]map[int]bool, len(p.Nodes))
		for _, m := range p.TopoNodes() {
			seen := map[int]bool{}
			for _, a := range m.In {
				seen[a.ID] = true
				for id := range p.anc[a.ID] {
					seen[id] = true
				}
			}
			p.anc[m.ID] = seen
		}
	}
	return p.anc[n.ID]
}

// AvailableVars returns the variables bound in tuples flowing out of
// n: the input and output variables of n and of all its ancestors.
func (p *Plan) AvailableVars(n *Node) cq.VarSet {
	vs := cq.VarSet{}
	add := func(m *Node) {
		if m.Kind == Service {
			vs.AddAll(m.InputVars())
			vs.AddAll(m.OutputVars())
		}
	}
	add(n)
	for id := range p.Ancestors(n) {
		add(p.Nodes[id])
	}
	return vs
}

// Signature returns a canonical string identifying the plan's
// structure (assignment, topology, join methods, fetch factors);
// plans with equal signatures are operationally identical.
func (p *Plan) Signature() string {
	var b strings.Builder
	b.WriteString(p.Assignment.String())
	b.WriteByte('|')
	b.WriteString(p.Topology.Key())
	for _, n := range p.Nodes {
		if n.Kind == Join {
			fmt.Fprintf(&b, "|J%d:%s", n.ID, n.Method)
		}
		if n.Chunked() {
			fmt.Fprintf(&b, "|F%s=%d", n.Atom.Label(), n.Fetches)
		}
	}
	return b.String()
}
