// Package cq models conjunctive queries over web services in the
// datalog-like notation of §3.1 of Braga et al. (VLDB 2008):
//
//	q(X) ← conj(X, Y)
//
// where the body is a comma-separated conjunction of service atoms
// and comparison predicates, e.g.
//
//	q(Conf, City) :- conf('DB', Conf, Start, End, City),
//	                 weather(City, Temp, Start),
//	                 Temp >= 28, Start >= '2007/03/14'.
//
// Atoms over different services make the query multi-domain.
package cq

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mdq/internal/schema"
)

// Var is a query variable (identifiers starting with an uppercase
// letter in the concrete syntax).
type Var string

// Term is either a variable or a constant (§3.1: "variables and
// constants are collectively called terms").
type Term struct {
	Var   Var          // non-empty when the term is a variable
	Const schema.Value // used when Var == ""
}

// V builds a variable term.
func V(name string) Term { return Term{Var: Var(name)} }

// C builds a constant term.
func C(v schema.Value) Term { return Term{Const: v} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

// String implements fmt.Stringer.
func (t Term) String() string {
	if t.IsVar() {
		return string(t.Var)
	}
	return t.Const.String()
}

// Equal reports syntactic equality of terms.
func (t Term) Equal(u Term) bool {
	if t.IsVar() != u.IsVar() {
		return false
	}
	if t.IsVar() {
		return t.Var == u.Var
	}
	return t.Const.Equal(u.Const)
}

// Atom is a service invocation pattern: a service name applied to
// terms. Index distinguishes multiple occurrences of the same
// service in one query body.
type Atom struct {
	Service string
	Terms   []Term
	// Index is the position of the atom in the query body; it names
	// the atom uniquely (a service may occur more than once).
	Index int
	// Sig is the resolved signature; set by Query.Resolve.
	Sig *schema.Signature
}

// Label returns a unique, human-readable identifier for the atom
// within its query, e.g. "conf" or "hotel#2" for a second occurrence.
func (a *Atom) Label() string {
	return fmt.Sprintf("%s@%d", a.Service, a.Index)
}

// Vars returns the set of variables occurring in the atom.
func (a *Atom) Vars() VarSet {
	vs := VarSet{}
	for _, t := range a.Terms {
		if t.IsVar() {
			vs.Add(t.Var)
		}
	}
	return vs
}

// VarsAt returns the variables occurring at the given argument
// positions (used to split input/output variables per access pattern).
func (a *Atom) VarsAt(positions []int) VarSet {
	vs := VarSet{}
	for _, i := range positions {
		if i < len(a.Terms) && a.Terms[i].IsVar() {
			vs.Add(a.Terms[i].Var)
		}
	}
	return vs
}

// String implements fmt.Stringer.
func (a *Atom) String() string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = t.String()
	}
	return a.Service + "(" + strings.Join(parts, ", ") + ")"
}

// CmpOp is a comparison operator in a selection predicate.
type CmpOp int

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// String implements fmt.Stringer.
func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// Negate returns the complementary operator.
func (op CmpOp) Negate() CmpOp {
	switch op {
	case Eq:
		return Ne
	case Ne:
		return Eq
	case Lt:
		return Ge
	case Le:
		return Gt
	case Gt:
		return Le
	default:
		return Lt
	}
}

// Eval applies the comparison to two values.
func (op CmpOp) Eval(l, r schema.Value) bool {
	switch op {
	case Eq:
		return l.Equal(r)
	case Ne:
		return !l.Equal(r)
	}
	c := l.Compare(r)
	switch op {
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Gt:
		return c > 0
	case Ge:
		return c >= 0
	default:
		return false
	}
}

// ExprKind discriminates expression nodes.
type ExprKind int

// Expression node kinds.
const (
	ETerm ExprKind = iota
	EAdd
	ESub
)

// Expr is an arithmetic expression over terms, supporting the
// additive forms used by the paper ('2007/3/14' + 180,
// FPrice + HPrice).
type Expr struct {
	Kind ExprKind
	Term Term  // for ETerm
	L, R *Expr // for EAdd, ESub
}

// TermExpr wraps a term as an expression.
func TermExpr(t Term) *Expr { return &Expr{Kind: ETerm, Term: t} }

// Add builds l + r.
func Add(l, r *Expr) *Expr { return &Expr{Kind: EAdd, L: l, R: r} }

// Sub builds l - r.
func Sub(l, r *Expr) *Expr { return &Expr{Kind: ESub, L: l, R: r} }

// Vars returns the variables mentioned by the expression.
func (e *Expr) Vars() VarSet {
	vs := VarSet{}
	e.addVars(vs)
	return vs
}

func (e *Expr) addVars(vs VarSet) {
	if e == nil {
		return
	}
	if e.Kind == ETerm {
		if e.Term.IsVar() {
			vs.Add(e.Term.Var)
		}
		return
	}
	e.L.addVars(vs)
	e.R.addVars(vs)
}

// Eval computes the expression under a binding of variables to
// values. It fails if a variable is unbound or the arithmetic is
// ill-typed.
func (e *Expr) Eval(binding func(Var) (schema.Value, bool)) (schema.Value, error) {
	switch e.Kind {
	case ETerm:
		if !e.Term.IsVar() {
			return e.Term.Const, nil
		}
		v, ok := binding(e.Term.Var)
		if !ok {
			return schema.Null, fmt.Errorf("cq: unbound variable %s", e.Term.Var)
		}
		return v, nil
	case EAdd, ESub:
		l, err := e.L.Eval(binding)
		if err != nil {
			return schema.Null, err
		}
		r, err := e.R.Eval(binding)
		if err != nil {
			return schema.Null, err
		}
		if e.Kind == EAdd {
			return l.Add(r)
		}
		return l.Sub(r)
	default:
		return schema.Null, fmt.Errorf("cq: bad expression kind %d", int(e.Kind))
	}
}

// String implements fmt.Stringer.
func (e *Expr) String() string {
	switch e.Kind {
	case ETerm:
		return e.Term.String()
	case EAdd:
		return e.L.String() + " + " + e.R.String()
	case ESub:
		return e.L.String() + " - " + e.R.String()
	default:
		return "?"
	}
}

// Predicate is a comparison between two expressions, optionally
// annotated with an estimated selectivity σ (§3.1: σp). A zero
// Selectivity means "use the estimator's default for this operator".
type Predicate struct {
	L, R        *Expr
	Op          CmpOp
	Selectivity float64
}

// Vars returns the variables mentioned by the predicate.
func (p *Predicate) Vars() VarSet {
	vs := p.L.Vars()
	for v := range p.R.Vars() {
		vs.Add(v)
	}
	return vs
}

// Eval applies the predicate under a binding.
func (p *Predicate) Eval(binding func(Var) (schema.Value, bool)) (bool, error) {
	l, err := p.L.Eval(binding)
	if err != nil {
		return false, err
	}
	r, err := p.R.Eval(binding)
	if err != nil {
		return false, err
	}
	return p.Op.Eval(l, r), nil
}

// String implements fmt.Stringer.
func (p *Predicate) String() string {
	s := p.L.String() + " " + p.Op.String() + " " + p.R.String()
	if p.Selectivity > 0 {
		s += " {" + strconv.FormatFloat(p.Selectivity, 'g', -1, 64) + "}"
	}
	return s
}

// Query is a conjunctive query: head variables, body atoms, and
// selection predicates (§3.1).
type Query struct {
	Name  string
	Head  []Var
	Atoms []*Atom
	Preds []*Predicate
}

// Vars returns all variables of the query body.
func (q *Query) Vars() VarSet {
	vs := VarSet{}
	for _, a := range q.Atoms {
		for v := range a.Vars() {
			vs.Add(v)
		}
	}
	for _, p := range q.Preds {
		for v := range p.Vars() {
			vs.Add(v)
		}
	}
	return vs
}

// Resolve binds every atom to its signature in the schema and
// validates arity and constant domains.
func (q *Query) Resolve(s *schema.Schema) error {
	for _, a := range q.Atoms {
		sig, ok := s.Lookup(a.Service)
		if !ok {
			return fmt.Errorf("cq: query %s: unknown service %s", q.Name, a.Service)
		}
		if len(a.Terms) != sig.Arity() {
			return fmt.Errorf("cq: query %s: atom %s has %d terms, service %s has arity %d",
				q.Name, a, len(a.Terms), a.Service, sig.Arity())
		}
		for i, t := range a.Terms {
			if !t.IsVar() && !sig.Attrs[i].Domain.Accepts(t.Const) {
				return fmt.Errorf("cq: query %s: constant %s is not in domain %s of %s argument %d",
					q.Name, t.Const, sig.Attrs[i].Domain, a.Service, i+1)
			}
		}
		a.Sig = sig
	}
	return nil
}

// Validate checks safety (§3.1: each variable appears in at least one
// body atom) and that atoms are indexed consistently.
func (q *Query) Validate() error {
	if len(q.Atoms) == 0 {
		return fmt.Errorf("cq: query %s has no atoms", q.Name)
	}
	atomVars := VarSet{}
	for i, a := range q.Atoms {
		if a.Index != i {
			return fmt.Errorf("cq: query %s: atom %d has index %d", q.Name, i, a.Index)
		}
		for v := range a.Vars() {
			atomVars.Add(v)
		}
	}
	for _, h := range q.Head {
		if !atomVars.Has(h) {
			return fmt.Errorf("cq: query %s is unsafe: head variable %s not in any body atom", q.Name, h)
		}
	}
	for _, p := range q.Preds {
		for v := range p.Vars() {
			if !atomVars.Has(v) {
				return fmt.Errorf("cq: query %s is unsafe: predicate variable %s not in any body atom", q.Name, v)
			}
		}
	}
	return nil
}

// String renders the query in the concrete datalog-like syntax
// accepted by Parse.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString(q.Name)
	b.WriteByte('(')
	for i, v := range q.Head {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(string(v))
	}
	b.WriteString(") :- ")
	first := true
	for _, a := range q.Atoms {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(a.String())
	}
	for _, p := range q.Preds {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(p.String())
	}
	b.WriteByte('.')
	return b.String()
}

// VarSet is a set of variables.
type VarSet map[Var]struct{}

// Add inserts a variable.
func (s VarSet) Add(v Var) { s[v] = struct{}{} }

// Has reports membership.
func (s VarSet) Has(v Var) bool { _, ok := s[v]; return ok }

// AddAll inserts every variable of t.
func (s VarSet) AddAll(t VarSet) {
	for v := range t {
		s.Add(v)
	}
}

// ContainsAll reports whether every variable of t is in s.
func (s VarSet) ContainsAll(t VarSet) bool {
	for v := range t {
		if !s.Has(v) {
			return false
		}
	}
	return true
}

// Intersects reports whether the sets share a variable.
func (s VarSet) Intersects(t VarSet) bool {
	small, big := s, t
	if len(big) < len(small) {
		small, big = big, small
	}
	for v := range small {
		if big.Has(v) {
			return true
		}
	}
	return false
}

// Sorted returns the variables in lexicographic order.
func (s VarSet) Sorted() []Var {
	out := make([]Var, 0, len(s))
	for v := range s {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String implements fmt.Stringer.
func (s VarSet) String() string {
	vars := s.Sorted()
	parts := make([]string, len(vars))
	for i, v := range vars {
		parts[i] = string(v)
	}
	return "{" + strings.Join(parts, ",") + "}"
}
