// Package exec is the concurrent execution engine of §5: it runs
// query plans as dataflow computations over registered services,
// with one stage per plan node, logical caching at the three levels
// of §5.1, chunked fetching, rank-preserving parallel joins, and
// optional multithreaded dispatch of the calls within a stage (§6).
package exec

import (
	"fmt"
	"sort"

	"mdq/internal/cq"
	"mdq/internal/plan"
	"mdq/internal/schema"
)

// VarIndex maps query variables to tuple slots.
type VarIndex struct {
	pos  map[cq.Var]int
	vars []cq.Var
}

// NewVarIndex builds the slot layout for a plan's query (sorted for
// determinism).
func NewVarIndex(p *plan.Plan) *VarIndex {
	vars := p.Query.Vars().Sorted()
	idx := &VarIndex{pos: make(map[cq.Var]int, len(vars)), vars: vars}
	for i, v := range vars {
		idx.pos[v] = i
	}
	return idx
}

// Len returns the number of slots.
func (ix *VarIndex) Len() int { return len(ix.vars) }

// Pos returns the slot of a variable.
func (ix *VarIndex) Pos(v cq.Var) (int, bool) {
	i, ok := ix.pos[v]
	return i, ok
}

// Vars returns the variables in slot order.
func (ix *VarIndex) Vars() []cq.Var { return ix.vars }

// Tuple is a partial assignment of query variables, flowing through
// the plan. Unbound slots hold schema.Null.
type Tuple struct {
	vals []schema.Value
}

// NewTuple creates an all-null tuple for the layout.
func NewTuple(ix *VarIndex) Tuple {
	return Tuple{vals: make([]schema.Value, ix.Len())}
}

// Get returns the value bound to slot i.
func (t Tuple) Get(i int) schema.Value { return t.vals[i] }

// Clone copies the tuple.
func (t Tuple) Clone() Tuple {
	vals := make([]schema.Value, len(t.vals))
	copy(vals, t.vals)
	return Tuple{vals: vals}
}

// With returns a copy with slot i bound to v.
func (t Tuple) With(i int, v schema.Value) Tuple {
	c := t.Clone()
	c.vals[i] = v
	return c
}

// Values returns a copy of the tuple's slot values in VarIndex slot
// order — the payload the distributed-execution wire encoding ships
// between processes. Unbound slots are schema.Null.
func (t Tuple) Values() []schema.Value {
	vals := make([]schema.Value, len(t.vals))
	copy(vals, t.vals)
	return vals
}

// TupleOf builds a tuple over the given slot values (copied) — the
// inverse of Values for tuples received off the wire. The caller is
// responsible for the slice matching the plan's VarIndex layout.
func TupleOf(vals []schema.Value) Tuple {
	cp := make([]schema.Value, len(vals))
	copy(cp, vals)
	return Tuple{vals: cp}
}

// Width returns the number of slots.
func (t Tuple) Width() int { return len(t.vals) }

// Binding adapts the tuple to the predicate-evaluation interface.
func (t Tuple) Binding(ix *VarIndex) func(cq.Var) (schema.Value, bool) {
	return func(v cq.Var) (schema.Value, bool) {
		i, ok := ix.Pos(v)
		if !ok || t.vals[i].IsNull() {
			return schema.Null, false
		}
		return t.vals[i], true
	}
}

// Merge combines two tuples; bound slots must agree (the lineage /
// value equi-join condition of parallel joins). ok is false when the
// tuples conflict on some variable.
func (t Tuple) Merge(u Tuple) (Tuple, bool) {
	out := t.Clone()
	for i, v := range u.vals {
		if v.IsNull() {
			continue
		}
		if out.vals[i].IsNull() {
			out.vals[i] = v
		} else if !out.vals[i].Equal(v) {
			return Tuple{}, false
		}
	}
	return out, true
}

// Project extracts the named variables, for head projection.
func (t Tuple) Project(ix *VarIndex, vars []cq.Var) ([]schema.Value, error) {
	out := make([]schema.Value, len(vars))
	for k, v := range vars {
		i, ok := ix.Pos(v)
		if !ok {
			return nil, fmt.Errorf("exec: head variable %s not in plan layout", v)
		}
		out[k] = t.vals[i]
	}
	return out, nil
}

// String implements fmt.Stringer (debugging aid).
func (t Tuple) String() string {
	s := "("
	for i, v := range t.vals {
		if i > 0 {
			s += ", "
		}
		if v.IsNull() {
			s += "·"
		} else {
			s += v.String()
		}
	}
	return s + ")"
}

// sharedSlots returns the sorted slots of variables bound on both
// sides (used as the join condition).
func sharedSlots(ix *VarIndex, left, right cq.VarSet) []int {
	var slots []int
	for v := range left {
		if right.Has(v) {
			if i, ok := ix.Pos(v); ok {
				slots = append(slots, i)
			}
		}
	}
	sort.Ints(slots)
	return slots
}
