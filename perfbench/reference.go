package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"mdq/internal/cq"
	"mdq/internal/schema"
	"mdq/internal/service"
	"mdq/internal/simweb"
	"mdq/internal/tabsvc"
)

// world is the benchmark's own copy of a built-in world: the tables
// the reference answers are computed from, and the registry the
// in-process replay serves.
type world struct {
	reg    *service.Registry
	schema *schema.Schema
	tables map[string]*tabsvc.Table
}

// newWorld builds a fresh instance of the named world, exactly as the
// servers build theirs.
func newWorld(name string) (*world, error) {
	switch name {
	case "travel":
		w := simweb.NewTravelWorld(simweb.TravelOptions{})
		return &world{reg: w.Registry, schema: w.Schema, tables: map[string]*tabsvc.Table{
			"conf": w.Conf, "weather": w.Weather, "flight": w.Flight, "hotel": w.Hotel}}, nil
	case "zipf":
		w := simweb.NewZipfWorld(0, 0, 0)
		return &world{reg: w.Registry, schema: w.Schema, tables: map[string]*tabsvc.Table{
			"catalog": w.Catalog, "review": w.Review}}, nil
	}
	return nil, fmt.Errorf("unknown world %q", name)
}

// bindValue converts a request binding the way mdqserve does: dates
// in either layout become dates, anything else stays a string.
func bindValue(s string) schema.Value {
	for _, layout := range []string{"2006/01/02", "2006-01-02"} {
		if t, err := time.Parse(layout, s); err == nil {
			return schema.D(t.Year(), t.Month(), t.Day())
		}
	}
	return schema.S(s)
}

// bindRequest parses, binds and resolves a request's template.
func bindRequest(r Request, sch *schema.Schema) (*cq.Query, error) {
	tpl, err := cq.ParseTemplate(r.Template)
	if err != nil {
		return nil, err
	}
	values := make(map[string]schema.Value, len(r.Bindings))
	for k, v := range r.Bindings {
		values[k] = bindValue(v)
	}
	q, err := tpl.Bind(values)
	if err != nil {
		return nil, err
	}
	if err := q.Resolve(sch); err != nil {
		return nil, err
	}
	return q, nil
}

// render formats a value as the /query response does.
func render(v schema.Value) string {
	switch v.Kind {
	case schema.StringValue:
		return v.Str
	case schema.DateValue:
		return v.Time().Format("2006-01-02")
	default:
		return strings.TrimSuffix(strconv.FormatFloat(v.Num, 'f', 2, 64), ".00")
	}
}

// base is the join of a query body's atoms over the full tables,
// before predicates and projection: every binding of the body's
// variables that the world's data supports, whatever the access
// patterns or plan.
type base struct {
	vars   map[cq.Var]int
	tuples [][]schema.Value
	// byKey maps the rendered key-variable values to the tuple; the
	// key variables identify a tuple uniquely.
	byKey map[string]int
}

// evalBody joins the atoms left to right, each through a hash index
// on the positions already fixed by constants or earlier atoms.
func evalBody(q *cq.Query, tables map[string]*tabsvc.Table, keyVars []string) (*base, error) {
	b := &base{vars: map[cq.Var]int{}, byKey: map[string]int{}}
	type step struct {
		tab   *tabsvc.Table
		fixed []int // positions bound before this atom
		index map[string][]int
		// bind[i] is the tuple slot position i writes (-1: checked only).
		bind []int
	}
	var steps []*step
	for _, a := range q.Atoms {
		tab, ok := tables[a.Service]
		if !ok {
			return nil, fmt.Errorf("reference: no table for service %s", a.Service)
		}
		st := &step{tab: tab, index: map[string][]int{}, bind: make([]int, len(a.Terms))}
		for i, t := range a.Terms {
			st.bind[i] = -1
			if !t.IsVar() {
				st.fixed = append(st.fixed, i)
				continue
			}
			if _, seen := b.vars[t.Var]; seen {
				st.fixed = append(st.fixed, i)
				continue
			}
			b.vars[t.Var] = len(b.vars)
			st.bind[i] = b.vars[t.Var]
		}
		for r := 0; r < tab.Size(); r++ {
			row := tab.Row(r)
			k := keyOf(st.fixed, func(p int) schema.Value { return row[p] })
			st.index[k] = append(st.index[k], r)
		}
		steps = append(steps, st)
	}
	cur := make([]schema.Value, len(b.vars))
	var rec func(i int)
	rec = func(i int) {
		if i == len(steps) {
			b.tuples = append(b.tuples, append([]schema.Value(nil), cur...))
			return
		}
		st, a := steps[i], q.Atoms[i]
		probe := keyOf(st.fixed, func(p int) schema.Value {
			if t := a.Terms[p]; !t.IsVar() {
				return t.Const
			}
			return cur[b.vars[a.Terms[p].Var]]
		})
		for _, r := range st.index[probe] {
			row := st.tab.Row(r)
			for p, slot := range st.bind {
				if slot >= 0 {
					cur[slot] = row[p]
				}
			}
			rec(i + 1)
		}
	}
	rec(0)
	for i, t := range b.tuples {
		parts := make([]string, len(keyVars))
		for j, v := range keyVars {
			slot, ok := b.vars[cq.Var(v)]
			if !ok {
				return nil, fmt.Errorf("reference: key variable %s not in the body", v)
			}
			parts[j] = render(t[slot])
		}
		k := strings.Join(parts, "\x1f")
		if _, dup := b.byKey[k]; dup {
			return nil, fmt.Errorf("reference: key %v does not identify a tuple (%s repeats)", keyVars, k)
		}
		b.byKey[k] = i
	}
	return b, nil
}

func keyOf(pos []int, val func(int) schema.Value) string {
	var sb strings.Builder
	for _, p := range pos {
		sb.WriteString(val(p).Key())
		sb.WriteByte(0x1f)
	}
	return sb.String()
}

// answerSet is the reference answer set of one request: the body join
// restricted by the predicates and projected on the head. It is stored
// factorized — the shared body join plus the head and predicates — so
// that many requests over one body cost one join.
type answerSet struct {
	base   *base
	head   []int // tuple slot of each head column
	keyPos []int // head column of each key variable
	preds  []*cq.Predicate
	k      int
}

// reference holds the answer sets of a workload's distinct requests.
type reference struct {
	sets  []*answerSet
	warm  []*answerSet
	bases int
}

// buildReference computes every request's answer set from the tables.
func buildReference(wl *Workload, w *world) (*reference, error) {
	ref := &reference{}
	bases := map[string]*base{}
	build := func(r Request) (*answerSet, error) {
		q, err := bindRequest(r, w.schema)
		if err != nil {
			return nil, fmt.Errorf("reference: %s: %w", r.Template, err)
		}
		var body strings.Builder
		for _, a := range q.Atoms {
			body.WriteString(a.String())
		}
		b, ok := bases[body.String()]
		if !ok {
			if b, err = evalBody(q, w.tables, wl.KeyVars); err != nil {
				return nil, err
			}
			bases[body.String()] = b
		}
		s := &answerSet{base: b, preds: q.Preds, k: r.K}
		for _, h := range q.Head {
			s.head = append(s.head, b.vars[h])
		}
		for _, kv := range wl.KeyVars {
			pos := -1
			for i, h := range q.Head {
				if string(h) == kv {
					pos = i
				}
			}
			if pos < 0 {
				return nil, fmt.Errorf("reference: head of %s lacks key variable %s", r.Template, kv)
			}
			s.keyPos = append(s.keyPos, pos)
		}
		return s, nil
	}
	for _, r := range wl.Distinct {
		s, err := build(r)
		if err != nil {
			return nil, err
		}
		ref.sets = append(ref.sets, s)
	}
	for _, r := range wl.Warmup {
		s, err := build(r)
		if err != nil {
			return nil, err
		}
		ref.warm = append(ref.warm, s)
	}
	ref.bases = len(bases)
	return ref, nil
}

// check verifies a response: at most K rows, every row an answer of
// the query, and no answer twice.
func (s *answerSet) check(rows [][]string) error {
	if len(rows) > s.k {
		return fmt.Errorf("%d rows for k=%d", len(rows), s.k)
	}
	seen := make(map[string]bool, len(rows))
	parts := make([]string, len(s.keyPos))
	for _, row := range rows {
		if len(row) != len(s.head) {
			return fmt.Errorf("row %v has %d columns, head has %d", row, len(row), len(s.head))
		}
		for j, p := range s.keyPos {
			parts[j] = row[p]
		}
		key := strings.Join(parts, "\x1f")
		if seen[key] {
			return fmt.Errorf("row %v repeats", row)
		}
		seen[key] = true
		ti, ok := s.base.byKey[key]
		if !ok {
			return fmt.Errorf("row %v matches no tuple of the body", row)
		}
		t := s.base.tuples[ti]
		for j, slot := range s.head {
			if render(t[slot]) != row[j] {
				return fmt.Errorf("row %v: column %d should read %q", row, j, render(t[slot]))
			}
		}
		for _, p := range s.preds {
			ok, err := p.Eval(func(v cq.Var) (schema.Value, bool) {
				slot, found := s.base.vars[v]
				if !found {
					return schema.Value{}, false
				}
				return t[slot], true
			})
			if err != nil || !ok {
				return fmt.Errorf("row %v fails predicate %s", row, p)
			}
		}
	}
	return nil
}
