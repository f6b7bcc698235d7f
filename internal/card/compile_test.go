package card_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"mdq/internal/abind"
	. "mdq/internal/card"
	"mdq/internal/cq"
	"mdq/internal/opt"
	"mdq/internal/plan"
	"mdq/internal/schema"
	"mdq/internal/simweb"
)

// tiedPlan builds a plan in which one input variable has two
// contributor candidates with equal t_out and equal depth: a and b
// both run first and both produce X, b also produces Y, and c consumes
// X and Y after their join. Which of a and b bounds X decides whether
// the block bound of c is ξa·ξb or ξb alone. Domains are unknown, so
// the optimal cache applies no domain cap.
func tiedPlan(t *testing.T) *plan.Plan {
	t.Helper()
	dom := schema.Domain{Name: "D", Kind: schema.NumberValue}
	sig := func(name string, arity int, pattern string) *schema.Signature {
		attrs := make([]schema.Attribute, arity)
		for i := range attrs {
			attrs[i] = schema.Attribute{Name: fmt.Sprintf("A%d", i), Domain: dom}
		}
		return &schema.Signature{
			Name:     name,
			Attrs:    attrs,
			Patterns: []schema.AccessPattern{schema.MustPattern(pattern)},
			Kind:     schema.Exact,
			Stats:    schema.Stats{ERSPI: 2, ResponseTime: time.Second},
		}
	}
	sa, sb, sc := sig("a", 1, "o"), sig("b", 2, "oo"), sig("c", 3, "iio")
	q := &cq.Query{Name: "tie", Atoms: []*cq.Atom{
		{Service: "a", Terms: []cq.Term{cq.V("X")}, Index: 0, Sig: sa},
		{Service: "b", Terms: []cq.Term{cq.V("X"), cq.V("Y")}, Index: 1, Sig: sb},
		{Service: "c", Terms: []cq.Term{cq.V("X"), cq.V("Y"), cq.V("Z")}, Index: 2, Sig: sc},
	}}
	topo := plan.Layers([][]int{{0, 1}, {2}})
	asn := abind.Assignment{sa.Patterns[0], sb.Patterns[0], sc.Patterns[0]}
	p, err := plan.Build(q, asn, topo, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBlockBoundTieIsDeterministic: when two block contributors tie on
// t_out and depth, the one with the lower node ID bounds the variable,
// on every run — the estimate is a pure function of the plan.
func TestBlockBoundTieIsDeterministic(t *testing.T) {
	for _, mode := range []CacheMode{OneCall, Optimal} {
		p := tiedPlan(t)
		c := p.ServiceNode[2]
		// DefaultEquiJoin 1 keeps the value join on X from shrinking
		// t_in(c) below the bound.
		cfg := Config{Mode: mode, DefaultEquiJoin: 1}
		cfg.Annotate(p)
		// ξa·ξb = 4 (a wins the tie on X, b bounds Y); t_in(c) = 4.
		if c.Calls != 4 {
			t.Fatalf("%v: calls(c) = %g, want 4 (ties go to the lower node ID)", mode, c.Calls)
		}
		want := math.Float64bits(c.Calls)
		for i := 0; i < 200; i++ {
			cfg.Annotate(tiedPlan(t))
			cfg.Annotate(p)
			if got := math.Float64bits(c.Calls); got != want {
				t.Fatalf("%v: run %d: calls(c) bits %x, want %x", mode, i, got, want)
			}
		}
	}
}

// TestCompiledAnnotateAllocatesNothing: re-annotating a compiled plan
// is float arithmetic only.
func TestCompiledAnnotateAllocatesNothing(t *testing.T) {
	for _, mode := range []CacheMode{NoCache, OneCall, Optimal} {
		p := planFor(t, simweb.PlanOTopology(), 3, 4)
		cp := Config{Mode: mode}.Compile(p)
		if allocs := testing.AllocsPerRun(100, func() { cp.Annotate() }); allocs != 0 {
			t.Fatalf("%v: (*Compiled).Annotate allocates %g times per run", mode, allocs)
		}
	}
}

// diffQuery is one input of the differential test.
type diffQuery struct {
	name string
	q    *cq.Query
}

func resolved(t *testing.T, name, text string, sch *schema.Schema) diffQuery {
	t.Helper()
	q, err := cq.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Resolve(sch); err != nil {
		t.Fatal(err)
	}
	return diffQuery{name, q}
}

// randomQuery builds a random permissible query over 2–4 services in
// the style of the optimizer's randomized tests: service i produces Xi
// and may require X(i-1); some are chunked searches, some domains are
// unknown, and a predicate may filter the last variable.
func randomQuery(rng *rand.Rand) (*cq.Query, bool) {
	n := 2 + rng.Intn(3)
	q := &cq.Query{Name: "r"}
	for i := 0; i < n; i++ {
		distinct := 2 + rng.Intn(6)
		if rng.Intn(4) == 0 {
			distinct = 0
		}
		dom := schema.Domain{Name: "D", Kind: schema.NumberValue, DistinctValues: distinct}
		patterns := []schema.AccessPattern{}
		if i == 0 || rng.Intn(2) == 0 {
			patterns = append(patterns, schema.MustPattern("oo"))
		}
		patterns = append(patterns, schema.MustPattern("io"))
		chunk, kind := 0, schema.Exact
		if rng.Intn(3) == 0 {
			chunk, kind = 2+rng.Intn(4), schema.Search
		}
		sig := &schema.Signature{
			Name:     fmt.Sprintf("s%d", i),
			Attrs:    []schema.Attribute{{Name: "A", Domain: dom}, {Name: "B", Domain: dom}},
			Patterns: patterns,
			Kind:     kind,
			Stats: schema.Stats{
				ERSPI:        0.5 + rng.Float64()*4,
				ChunkSize:    chunk,
				ResponseTime: time.Duration(100+rng.Intn(2000)) * time.Millisecond,
			},
		}
		prev := i - 1
		if i == 0 {
			prev = i
		}
		q.Atoms = append(q.Atoms, &cq.Atom{
			Service: sig.Name,
			Terms:   []cq.Term{cq.V(fmt.Sprintf("X%d", prev)), cq.V(fmt.Sprintf("X%d", i))},
			Index:   i,
			Sig:     sig,
		})
	}
	if rng.Intn(2) == 0 {
		q.Preds = append(q.Preds, &cq.Predicate{
			L:  cq.TermExpr(cq.V(fmt.Sprintf("X%d", n-1))),
			R:  cq.TermExpr(cq.C(schema.N(float64(rng.Intn(4))))),
			Op: cq.Ge,
		})
	}
	perm, err := abind.Enumerate(q)
	return q, err == nil && len(perm) > 0
}

func diffQueries(t *testing.T) []diffQuery {
	var out []diffQuery
	rng := rand.New(rand.NewSource(2008))
	for len(out) < 12 {
		if q, ok := randomQuery(rng); ok {
			out = append(out, diffQuery{fmt.Sprintf("random%d", len(out)), q})
		}
	}
	travel := simweb.NewTravelWorld(simweb.TravelOptions{})
	out = append(out, resolved(t, "travel", simweb.RunningExampleText, travel.Schema))
	cold := "q(Conf, FPrice, Hotel) :- conf('DB', Conf, Start, End, City), flight('Milano', City, Start, End, OT, RT, FPrice), hotel(Hotel, City, 'luxury', Start, End, HPrice), FPrice + HPrice < 900 {0.2}."
	out = append(out, resolved(t, "travel-cold", cold, travel.Schema))
	// The same query over profiled value distributions, so that the
	// value-sensitive selectivities take part.
	profiled := simweb.NewTravelWorld(simweb.TravelOptions{})
	for _, tab := range []interface{ ProfileValues(int, int) int }{profiled.Conf, profiled.Weather, profiled.Flight, profiled.Hotel} {
		tab.ProfileValues(8, 8)
	}
	out = append(out, resolved(t, "travel-profiled", simweb.RunningExampleText, profiled.Schema))
	out = append(out, resolved(t, "travel-cold-profiled", cold, profiled.Schema))
	bio := simweb.NewBioWorld()
	bq, err := bio.BioQuery()
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, diffQuery{"bio", bq})
	zipf := simweb.NewZipfWorld(0, 0, 0)
	out = append(out, resolved(t, "zipf", simweb.ZipfExampleText, zipf.Schema))
	return out
}

// TestCompiledMatchesOracle is the estimator's differential test: on
// random queries and on the travel, bio and zipf worlds, for every
// plan of a sample of their assignments and topologies, under each
// caching model with value statistics on and off, one Compiled is
// re-annotated under a sequence of random fetch vectors and every
// node's t_in, calls and t_out must equal the per-call estimator's bit
// for bit.
func TestCompiledMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var configs []Config
	for _, mode := range []CacheMode{NoCache, OneCall, Optimal} {
		for _, noValues := range []bool{false, true} {
			configs = append(configs, Config{Mode: mode, NoValueStats: noValues})
		}
	}
	plans, vectors := 0, 0
	for _, dq := range diffQueries(t) {
		perm, err := abind.Enumerate(dq.q)
		if err != nil {
			t.Fatal(err)
		}
		for ai, asn := range perm {
			if ai >= 3 {
				break
			}
			topos := opt.EnumerateTopologies(dq.q, asn)
			rng.Shuffle(len(topos), func(i, j int) { topos[i], topos[j] = topos[j], topos[i] })
			if len(topos) > 8 {
				topos = topos[:8]
			}
			for _, topo := range topos {
				p, err := plan.Build(dq.q, asn, topo, plan.Options{})
				if err != nil || p.Validate() != nil {
					continue
				}
				plans++
				for _, cfg := range configs {
					ref := p.Clone()
					cp := cfg.Compile(p)
					chunked, refChunked := p.ChunkedNodes(), ref.ChunkedNodes()
					for v := 0; v < 6; v++ {
						for i := range chunked {
							f := 1 + rng.Intn(40)
							chunked[i].Fetches, refChunked[i].Fetches = f, f
						}
						got, want := cp.Annotate(), OracleAnnotate(cfg, ref)
						vectors++
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s %v %+v: t_out %g, oracle %g", dq.name, topo, cfg, got, want)
						}
						for i, n := range p.Nodes {
							r := ref.Nodes[i]
							if math.Float64bits(n.TIn) != math.Float64bits(r.TIn) ||
								math.Float64bits(n.Calls) != math.Float64bits(r.Calls) ||
								math.Float64bits(n.TOut) != math.Float64bits(r.TOut) {
								t.Fatalf("%s %v %+v node %s: (t_in, calls, t_out) = (%g, %g, %g), oracle (%g, %g, %g)",
									dq.name, topo, cfg, n.Label(), n.TIn, n.Calls, n.TOut, r.TIn, r.Calls, r.TOut)
							}
						}
					}
				}
			}
		}
	}
	if plans < 60 {
		t.Fatalf("only %d plans compared", plans)
	}
	t.Logf("%d plans, %d fetch vectors compared", plans, vectors)
}
