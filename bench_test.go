// Benchmarks regenerating the paper's tables and figures (one
// benchmark per experiment) plus micro-benchmarks of the substrates.
// Run with:
//
//	go test -bench=. -benchmem
package mdq_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mdq/internal/abind"
	"mdq/internal/card"
	"mdq/internal/cost"
	"mdq/internal/cq"
	"mdq/internal/exec"
	"mdq/internal/experiments"
	"mdq/internal/fetch"
	"mdq/internal/opt"
	"mdq/internal/plan"
	"mdq/internal/schema"
	"mdq/internal/service"
	"mdq/internal/sim"
	"mdq/internal/simweb"
	"mdq/internal/trace"
	"mdq/internal/wsms"
)

func travelWorld(b *testing.B) (*simweb.TravelWorld, *cq.Query) {
	b.Helper()
	w := simweb.NewTravelWorld(simweb.TravelOptions{})
	q, err := simweb.RunningExampleQuery(w.Schema)
	if err != nil {
		b.Fatal(err)
	}
	return w, q
}

// BenchmarkTable1Profiling regenerates Table 1: sampling profiles of
// the four travel services.
func BenchmarkTable1Profiling(b *testing.B) {
	w := simweb.NewTravelWorld(simweb.TravelOptions{DisableServerCache: true})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &service.Profiler{Samples: 50, Seed: int64(i + 1)}
		if _, err := p.Profile(ctx, w.Flight, 0, w.Flight.Sampler()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExample41AccessPatterns regenerates Example 4.1:
// enumeration and cogency analysis of the pattern space.
func BenchmarkExample41AccessPatterns(b *testing.B) {
	_, q := travelWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perm, err := abind.Enumerate(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(abind.MostCogent(perm)) != 2 {
			b.Fatal("frontier changed")
		}
	}
}

// BenchmarkExample51TopologyEnum regenerates the 19-plan count of
// Example 5.1.
func BenchmarkExample51TopologyEnum(b *testing.B) {
	_, q := travelWorld(b)
	asn := simweb.AssignmentAlpha1()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := opt.CountTopologies(q, asn); got != 19 {
			b.Fatalf("topologies = %d", got)
		}
	}
}

// BenchmarkFigure8FetchAssignment regenerates the phase-3 arithmetic
// of Figure 8 (K′ and the Eq. 6 factors) plus the exact assignment.
func BenchmarkFigure8FetchAssignment(b *testing.B) {
	w, q := travelWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := w.BuildPlan(q, simweb.PlanOTopology(), 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		fa := &fetch.Assigner{Estimator: card.Config{Mode: card.OneCall}, Metric: cost.ExecTime{}, K: 10}
		if fr := fa.Assign(p); !fr.Feasible {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkFetchAssign is phase 3 alone on a plan shaped like a
// travel-cold request: conf, then flight and hotel in parallel, with
// FPrice + HPrice < 900, K=20, the execution time metric and the
// one-call cache. Hotel is called with every field an output, so its
// city, category and dates filter the returned rows and k lies
// thousands of fetches away: the search prices about 9k fetch vectors,
// as the costlier leaves of a travel-cold search do.
func BenchmarkFetchAssign(b *testing.B) {
	w := simweb.NewTravelWorld(simweb.TravelOptions{})
	q, err := cq.Parse("q(Conf, FPrice, Hotel) :- conf('DB', Conf, Start, End, City), " +
		"flight('Milano', City, Start, End, OT, RT, FPrice), hotel(Hotel, City, 'luxury', Start, End, HPrice), " +
		"FPrice + HPrice < 900 {0.2}.")
	if err != nil {
		b.Fatal(err)
	}
	if err := q.Resolve(w.Schema); err != nil {
		b.Fatal(err)
	}
	asn := abind.Assignment{schema.MustPattern("ioooo"), schema.MustPattern("iiiiooo"), schema.MustPattern("oooooo")}
	p, err := plan.Build(q, asn, plan.Layers([][]int{{0}, {1, 2}}), plan.Options{ChooseMethod: w.Registry.MethodChooser()})
	if err != nil {
		b.Fatal(err)
	}
	fa := &fetch.Assigner{Estimator: card.Config{Mode: card.OneCall}, Metric: cost.ExecTime{}, K: 20}
	b.ResetTimer()
	explored := 0
	for i := 0; i < b.N; i++ {
		fr := fa.Assign(p)
		if !fr.Feasible {
			b.Fatal("infeasible")
		}
		explored = fr.Explored
	}
	b.ReportMetric(float64(explored), "vectors/op")
}

// BenchmarkBranchAndBound is the full three-phase optimization of
// the running example (the paper's core algorithm).
func BenchmarkBranchAndBound(b *testing.B) {
	w, q := travelWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := &opt.Optimizer{Metric: cost.ExecTime{}, Estimator: card.Config{Mode: card.OneCall},
			K: 10, ChooseMethod: w.Registry.MethodChooser()}
		if _, err := o.Optimize(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure11PlanO runs one Figure 11 cell (plan O, one-call
// cache) on the concurrent executor.
func BenchmarkFigure11PlanO(b *testing.B) {
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, q := travelWorld(b)
		p, err := w.BuildPlan(q, simweb.PlanOTopology(), 3, 4)
		if err != nil {
			b.Fatal(err)
		}
		r := &exec.Runner{Registry: w.Registry, Cache: card.OneCall}
		res, err := r.Run(ctx, p)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Calls["hotel"] != 16 {
			b.Fatal("call counts drifted")
		}
	}
}

// BenchmarkFigure11Simulation runs one Figure 11 cell on the
// virtual-time simulator (plan S, no cache — the 374 s anchor).
func BenchmarkFigure11Simulation(b *testing.B) {
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, q := travelWorld(b)
		p, err := w.BuildPlan(q, simweb.PlanSTopology(), 3, 4)
		if err != nil {
			b.Fatal(err)
		}
		s := &sim.Simulator{Registry: w.Registry, Cache: card.NoCache}
		res, err := s.Run(ctx, p)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Calls["hotel"] != 284 {
			b.Fatal("call counts drifted")
		}
	}
}

// BenchmarkMultithreadDispatch is the §6 multithreading experiment
// cell (plan S, parallel dispatch, jittered latencies).
func BenchmarkMultithreadDispatch(b *testing.B) {
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := simweb.NewTravelWorld(simweb.TravelOptions{JitterSigma: 0.75})
		q, err := simweb.RunningExampleQuery(w.Schema)
		if err != nil {
			b.Fatal(err)
		}
		p, err := w.BuildPlan(q, simweb.PlanSTopology(), 3, 4)
		if err != nil {
			b.Fatal(err)
		}
		s := &sim.Simulator{Registry: w.Registry, Cache: card.NoCache, ParallelCalls: true}
		if _, err := s.Run(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimeToFirstK measures how long a K-limited run of the
// bushy plan O takes under simulated service latencies (scaled
// clock), streaming versus the seed's materializing join runtime. The
// materializing join cannot emit anything until both branches drain
// completely; the streaming join reaches K while the proliferative
// branches are still producing — the whole point of pipelined joins —
// so its wall time per run sits well below the baseline's.
func BenchmarkTimeToFirstK(b *testing.B) {
	ctx := context.Background()
	for _, mode := range []struct {
		name        string
		materialize bool
	}{
		{"streaming", false},
		{"materializing", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var firstRow time.Duration
			for i := 0; i < b.N; i++ {
				w, q := travelWorld(b)
				p, err := w.BuildPlan(q, simweb.PlanOTopology(), 3, 4)
				if err != nil {
					b.Fatal(err)
				}
				r := &exec.Runner{Registry: w.Registry, Cache: card.OneCall, K: 3,
					Clock: exec.ScaledClock{Factor: 0.0005}, Materialize: mode.materialize}
				res, err := r.Run(ctx, p)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != 3 {
					b.Fatalf("rows = %d, want 3", len(res.Rows))
				}
				firstRow += res.FirstRow
			}
			b.ReportMetric(float64(firstRow.Milliseconds())/float64(b.N), "first-row-ms/op")
		})
	}
}

// BenchmarkBioinformatics regenerates the §6 generalization run.
func BenchmarkBioinformatics(b *testing.B) {
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Bioinformatics(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWSMSBaseline measures the [16] baseline optimizer.
func BenchmarkWSMSBaseline(b *testing.B) {
	_, q := travelWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := &wsms.Optimizer{}
		if _, err := o.Optimize(q); err != nil {
			b.Fatal(err)
		}
	}
}

// largeRandomQuery builds the large random topology used by the
// optimizer scaling benchmarks: a deterministic pseudo-random chain
// of services with mixed free/bound patterns and chunked members, so
// phase 1 yields dozens of permissible assignments for the worker
// pool to spread over.
func largeRandomQuery(tb testing.TB) *cq.Query {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	const n = 7
	q := &cq.Query{Name: "large"}
	for i := 0; i < n; i++ {
		attrs := []schema.Attribute{
			{Name: "A", Domain: schema.Domain{Name: "D", Kind: schema.NumberValue, DistinctValues: 4}},
			{Name: "B", Domain: schema.Domain{Name: "D", Kind: schema.NumberValue, DistinctValues: 4}},
		}
		patterns := []schema.AccessPattern{}
		if i == 0 || rng.Intn(2) == 0 {
			patterns = append(patterns, schema.MustPattern("oo"))
		}
		patterns = append(patterns, schema.MustPattern("io"))
		chunk := 0
		kind := schema.Exact
		if rng.Intn(3) == 0 {
			chunk = 2 + rng.Intn(4)
			kind = schema.Search
		}
		sig := &schema.Signature{
			Name:     fmt.Sprintf("s%d", i),
			Attrs:    attrs,
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
			prev = 0
		}
		q.Atoms = append(q.Atoms, &cq.Atom{
			Service: sig.Name,
			Terms:   []cq.Term{cq.V(fmt.Sprintf("X%d", prev)), cq.V(fmt.Sprintf("X%d", i))},
			Index:   i,
			Sig:     sig,
		})
	}
	perm, err := abind.Enumerate(q)
	if err != nil || len(perm) < 8 {
		tb.Fatalf("large random topology admits only %d assignments (err %v)", len(perm), err)
	}
	return q
}

// BenchmarkOptimize measures the three-phase search on the large
// random topology at increasing worker counts. On multi-core
// hardware parallel=4 should complete the same deterministic search
// at least twice as fast as parallel=1 (single-core machines cannot
// show wall-clock scaling; the differential tests in internal/opt
// guarantee the result is identical either way).
func BenchmarkOptimize(b *testing.B) {
	q := largeRandomQuery(b)
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := &opt.Optimizer{Metric: cost.ExecTime{}, Estimator: card.Config{Mode: card.OneCall},
					K: 10, Parallelism: par}
				if _, err := o.Optimize(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptimizePlanCache measures the cached fast path: after
// the first search every optimization is an LRU lookup plus a plan
// copy.
func BenchmarkOptimizePlanCache(b *testing.B) {
	q := largeRandomQuery(b)
	cache := opt.NewPlanCache(16)
	o := &opt.Optimizer{Metric: cost.ExecTime{}, Estimator: card.Config{Mode: card.OneCall},
		K: 10, Parallelism: opt.AutoParallelism, Cache: cache}
	if _, err := o.Optimize(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := o.Optimize(q)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Cached {
			b.Fatal("cache miss on repeated query")
		}
	}
}

// BenchmarkTraceOverhead measures what the tracing plane costs the
// execution pipeline: the same plan-O run untraced (the default — one
// nil context lookup per instrumentation point) and with an always-on
// trace recording every node, call and join span. The untraced
// variant is the regression guard: its cost must stay at the
// pre-tracing baseline.
func BenchmarkTraceOverhead(b *testing.B) {
	ctx := context.Background()
	for _, mode := range []struct {
		name   string
		traced bool
	}{
		{"off", false},
		{"on", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w, q := travelWorld(b)
				p, err := w.BuildPlan(q, simweb.PlanOTopology(), 3, 4)
				if err != nil {
					b.Fatal(err)
				}
				runCtx := ctx
				var root *trace.Span
				if mode.traced {
					tr := trace.New("")
					root = tr.Root("query")
					runCtx = trace.With(ctx, root)
				}
				r := &exec.Runner{Registry: w.Registry, Cache: card.OneCall}
				res, err := r.Run(runCtx, p)
				if err != nil {
					b.Fatal(err)
				}
				root.End()
				if res.Stats.Calls["hotel"] != 16 {
					b.Fatal("call counts drifted")
				}
			}
		})
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkParseRunningExample measures the datalog parser.
func BenchmarkParseRunningExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := cq.Parse(simweb.RunningExampleText); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimatorAnnotate measures one cardinality annotation of
// the Figure 8 plan.
func BenchmarkEstimatorAnnotate(b *testing.B) {
	w, q := travelWorld(b)
	p, err := w.BuildPlan(q, simweb.PlanOTopology(), 3, 4)
	if err != nil {
		b.Fatal(err)
	}
	cfg := card.Config{Mode: card.OneCall}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tout := cfg.Annotate(p); tout != 15 {
			b.Fatalf("tout = %g", tout)
		}
	}
}

// BenchmarkJoinMergeScan measures the rank-preserving merge-scan
// traversal on two 100-tuple branches.
func BenchmarkJoinMergeScan(b *testing.B) {
	benchmarkJoin(b, plan.MergeScan)
}

// BenchmarkJoinNestedLoop measures the nested-loop strategy on the
// same inputs.
func BenchmarkJoinNestedLoop(b *testing.B) {
	benchmarkJoin(b, plan.NestedLoop)
}

func benchmarkJoin(b *testing.B, method plan.JoinMethod) {
	w, q := travelWorld(b)
	p, err := w.BuildPlan(q, simweb.PlanOTopology(), 3, 4)
	if err != nil {
		b.Fatal(err)
	}
	ix := exec.NewVarIndex(p)
	citySlot, _ := ix.Pos("City")
	fSlot, _ := ix.Pos("FPrice")
	hSlot, _ := ix.Pos("HPrice")
	var left, right []exec.Tuple
	for i := 0; i < 100; i++ {
		l := exec.NewTuple(ix).With(citySlot, cityVal(i%7)).With(fSlot, numVal(100+i))
		r := exec.NewTuple(ix).With(citySlot, cityVal(i%7)).With(hSlot, numVal(200+i))
		left = append(left, l)
		right = append(right, r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := exec.JoinPairs(method, left, right, nil, ix)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("no join results")
		}
	}
}

func cityVal(i int) schema.Value { return schema.S("city" + string(rune('A'+i))) }
func numVal(n int) schema.Value  { return schema.N(float64(n)) }
