package exec

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mdq/internal/card"
	"mdq/internal/cq"
	"mdq/internal/plan"
	"mdq/internal/schema"
	"mdq/internal/serve"
	"mdq/internal/service"
	"mdq/internal/trace"
)

// nodeSpan opens the plan-node span for a stage when the context is
// traced: named "node:<label>", carrying the optimizer's estimated
// cardinalities from the plan annotations next to an Observed block
// the stage fills in as tuples flow — the estimate-vs-actual audit
// row for this node. It returns the (possibly re-wired) context and
// a nil span on the untraced fast path, where the whole call is one
// pointer check.
func nodeSpan(ctx context.Context, n *plan.Node) (context.Context, *trace.Span) {
	sp := trace.From(ctx)
	if sp == nil {
		return ctx, nil
	}
	nsp := sp.Child("node:" + n.Label())
	nsp.SetEst(n.TIn, n.Calls, n.TOut)
	nsp.AddObs(0, 0, 0, 0) // materialize Obs: the node executed
	return trace.With(ctx, nsp), nsp
}

// budgetAbort translates an execution error into the request budget's
// violation when one tripped: a run cancelled because the budget
// deadline expired surfaces as the budget error (clean JSON at the
// serving layer) instead of a bare context cancellation. Errors with
// no budget behind them pass through unchanged.
func budgetAbort(ctx context.Context, err error) error {
	if b := serve.FromContext(ctx); b != nil {
		if berr := b.Err(); berr != nil {
			return berr
		}
	}
	return err
}

// Runner executes query plans against registered services as a
// concurrent dataflow: one stage per plan node, channels along the
// arcs, logical caching in front of every service, and early
// termination once k answers are produced (§2.2: "we retrieve only
// the fraction of tuples of proliferative services that are
// sufficient to obtain the first k query answers").
type Runner struct {
	// Registry resolves service names to implementations.
	Registry *service.Registry
	// Cache selects the logical caching level (§5.1).
	Cache card.CacheMode
	// K stops execution after k result tuples; 0 drains the plan.
	K int
	// Clock accounts for simulated service time; nil ignores it
	// (counts only).
	Clock Clock
	// ParallelCalls dispatches a stage's invocations concurrently, in
	// waves of MaxParallel, instead of sequentially — the separate
	// multithreading test of §6. Waves degrade the one-call cache as
	// the paper observed, but deterministically (see processWave).
	ParallelCalls bool
	// MaxParallel bounds concurrent invocations per stage — the wave
	// size — in ParallelCalls mode (default 16).
	MaxParallel int
	// SharedCache, when set, is used instead of a fresh cache built
	// from Cache — the mechanism behind continued executions (§2.2):
	// run a plan, raise its fetch factors, and re-run with the same
	// cache so only the new fetches reach the services.
	SharedCache Cache
	// ResultCache, when set, layers a shared service-call result
	// store under the per-run cache (NewTieredCache): lookups fall
	// through to it, writes land in it, and hits cost neither a
	// budget charge nor a logical call. Point it at a
	// rescache.Store bound to the registry's epoch feed so a stats
	// bump can never serve stale rows. Unlike SharedCache it
	// composes with — rather than replaces — the run cache, so §5.1
	// cache-mode semantics within a run are preserved.
	ResultCache Cache
	// BufferSize is the per-arc channel capacity of the dataflow (0
	// means DefaultBufferSize). It is the streaming runtime's
	// memory/latency dial: each arc buffers at most BufferSize tuples,
	// so a larger value lets fast producers run further ahead of slow
	// consumers (fewer stalls, more buffered tuples), while a smaller
	// value bounds memory tighter and applies backpressure sooner.
	BufferSize int
	// Materialize restores the pre-streaming runtime: every join
	// drains both inputs, then traverses the buffered Cartesian plane
	// with JoinPairs, and K truncates the fully drained answer. Output
	// is identical to the streaming operators (the traversal order is
	// the same); timing, buffering and — under K — the calls differ.
	// It is the differential baseline the streaming runtime is tested
	// and benchmarked against.
	Materialize bool
	// JoinExcessPeak, when non-nil, is raised to the largest number of
	// tuples any streaming join buffered beyond its still-needed
	// frontier (see StreamJoin). Test instrumentation for the
	// bounded-memory contract; nil costs nothing.
	JoinExcessPeak *atomic.Int64
	// Feedback, when non-nil, closes the adaptive loop: after each
	// run the observed per-service call and fetch cardinalities are
	// offered back to the services' Observed wrappers (§5: profiles
	// are "periodically updated, also taking advantage of subsequent
	// invocations"), refreshing profiled statistics — and bumping
	// their registry epochs — when the policy's thresholds are met.
	// A refresh publishes everything the wrapper observed: the scalar
	// profile (erspi, response time, chunk size) and the per-attribute
	// value distributions accumulated from result rows, so cached
	// template plans revalidate against value-sensitive costs learned
	// from real traffic. Services not wrapped by service.Observe are
	// unaffected; wrap a whole registry with Registry.ObserveAll.
	Feedback *service.FeedbackPolicy
}

// Stats aggregates per-service call accounting for a run; Calls
// counts logical invocations that reached the service (after the
// logical cache), Fetches counts request–responses (a chunked call
// issues up to F).
type Stats struct {
	Calls   map[string]int64
	Fetches map[string]int64
}

// Result is the outcome of a plan execution.
type Result struct {
	// Head names the projected columns.
	Head []cq.Var
	// Rows holds the head projections in production order (the
	// global ranking order composed by the join strategies).
	Rows [][]schema.Value
	// Tuples holds the full variable bindings of each result.
	Tuples []Tuple
	// Stats is the per-service call accounting.
	Stats Stats
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// FirstRow is the wall-clock time from the start of the run to
	// the first result row (0 when the run produced none) — the
	// streaming runtime's time-to-first-answer signal, surfaced as
	// first_row_ms in the serving slowlog and as the
	// mdq_exec_first_row_seconds histogram.
	FirstRow time.Duration
}

// runCache builds the cache stack for one execution: the per-run
// logical cache (or the caller-supplied SharedCache of a continued
// execution), tiered over the shared ResultCache when one is wired.
func (r *Runner) runCache() Cache {
	cache := r.SharedCache
	if cache == nil {
		cache = NewCache(r.Cache)
	}
	if r.ResultCache != nil {
		cache = NewTieredCache(cache, r.ResultCache)
	}
	return cache
}

// bufferSize resolves the per-arc channel capacity.
func (r *Runner) bufferSize() int {
	if r.BufferSize > 0 {
		return r.BufferSize
	}
	return DefaultBufferSize
}

// Run executes the plan. The plan must be resolved and validated.
func (r *Runner) Run(ctx context.Context, p *plan.Plan) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	ex := &execution{
		runner: r,
		plan:   p,
		ix:     NewVarIndex(p),
		cache:  r.runCache(),
		calls:  map[string]*service.Counter{},
		start:  start,
	}
	for _, n := range p.Nodes {
		switch n.Kind {
		case plan.Service:
			if _, ok := ex.calls[n.Atom.Service]; !ok {
				ex.calls[n.Atom.Service] = &service.Counter{}
			}
		case plan.Join:
			ex.capsRight = ex.capsRight || n.Method == plan.NestedLoop
		}
	}
	rows, tuples, err := ex.run(ctx)
	if err != nil {
		return nil, budgetAbort(ctx, err)
	}
	res := &Result{
		Head:     p.Query.Head,
		Rows:     rows,
		Tuples:   tuples,
		Stats:    Stats{Calls: map[string]int64{}, Fetches: map[string]int64{}},
		Elapsed:  time.Since(start),
		FirstRow: ex.firstRow,
	}
	for name, c := range ex.calls {
		res.Stats.Calls[name] = c.Calls()
		res.Stats.Fetches[name] = c.Fetches()
	}
	r.feedback(ex)
	return res, nil
}

// feedback offers each touched service's observation window a
// refresh after the run, per the runner's feedback policy. The
// invocations themselves were already recorded by the Observed
// wrappers as traffic flowed through them; this is the periodic
// "absorb what execution has learned" step, taken service by service
// so only genuinely drifted profiles bump their epochs.
func (r *Runner) feedback(ex *execution) {
	if r.Feedback == nil || r.Registry == nil {
		return
	}
	for name := range ex.calls {
		svc, ok := r.Registry.Lookup(name)
		if !ok {
			continue
		}
		if ob, ok := svc.(*service.Observed); ok {
			ob.MaybeRefresh(*r.Feedback)
		}
	}
}

type execution struct {
	runner *Runner
	plan   *plan.Plan
	ix     *VarIndex
	cache  Cache
	calls  map[string]*service.Counter
	// start anchors firstRow; firstRow is written once, under the
	// output stage's mutex, when the first result row lands.
	start    time.Time
	firstRow time.Duration
	// capsRight caps nested loops' pending right side at BufferSize,
	// set when the plan has one (see run for the relays it needs).
	capsRight bool
}

type edge struct {
	ch chan Tuple
}

func (ex *execution) run(ctx context.Context) ([][]schema.Value, []Tuple, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// One channel per arc, indexed by (from, to). Under capsRight, the
	// arcs of multi-consumer nodes are relayed (see stream.go).
	type arcKey struct{ from, to int }
	arcs := map[arcKey]*edge{}
	relayed := map[arcKey]*edge{}
	for _, n := range ex.plan.Nodes {
		for _, m := range n.Out {
			k := arcKey{n.ID, m.ID}
			arcs[k] = &edge{ch: make(chan Tuple, ex.runner.bufferSize())}
			if ex.capsRight && len(n.Out) > 1 {
				relayed[k] = &edge{ch: make(chan Tuple, ex.runner.bufferSize())}
			}
		}
	}
	ins := func(n *plan.Node) []*edge {
		out := make([]*edge, len(n.In))
		for i, m := range n.In {
			out[i] = arcs[arcKey{m.ID, n.ID}]
		}
		return out
	}
	outs := func(n *plan.Node) []*edge {
		out := make([]*edge, len(n.Out))
		for i, m := range n.Out {
			k := arcKey{n.ID, m.ID}
			if e, ok := relayed[k]; ok {
				out[i] = e
			} else {
				out[i] = arcs[k]
			}
		}
		return out
	}

	errc := make(chan error, len(ex.plan.Nodes))
	var wg sync.WaitGroup
	for k, e := range relayed {
		from, to := e.ch, arcs[k].ch
		wg.Add(1)
		go func() {
			defer wg.Done()
			relay(ctx, from, to)
		}()
	}
	var (
		mu      sync.Mutex
		rows    [][]schema.Value
		tuples  []Tuple
		reached bool
	)

	for _, n := range ex.plan.Nodes {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			switch n.Kind {
			case plan.Input:
				err = ex.runInput(ctx, outs(n))
			case plan.Service:
				err = ex.runService(ctx, n, ins(n)[0], outs(n))
			case plan.Join:
				err = ex.runJoin(ctx, n, ins(n), outs(n))
			case plan.Output:
				err = func() error {
					for t := range ins(n)[0].ch {
						head, perr := t.Project(ex.ix, ex.plan.Query.Head)
						if perr != nil {
							return perr
						}
						mu.Lock()
						if !reached {
							rows = append(rows, head)
							tuples = append(tuples, t)
							if len(rows) == 1 {
								ex.firstRow = time.Since(ex.start)
							}
							if ex.runner.K > 0 && len(rows) >= ex.runner.K {
								reached = true
								if !ex.runner.Materialize {
									cancel()
								}
							}
						}
						mu.Unlock()
					}
					return nil
				}()
			}
			if err != nil && err != context.Canceled {
				select {
				case errc <- err:
				default:
				}
				cancel()
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		return nil, nil, err
	default:
	}
	// Distinguish our own k-limit cancellation from an external one:
	// an externally cancelled run must not pass as a complete result.
	if ctx.Err() != nil && !reached {
		return nil, nil, ctx.Err()
	}
	return rows, tuples, nil
}

// relay forwards one arc of a multi-consumer node through an
// unbounded queue, so the producer never waits on this consumer.
func relay(ctx context.Context, from <-chan Tuple, to chan<- Tuple) {
	defer close(to)
	var queue []Tuple
	for from != nil || len(queue) > 0 {
		var out chan<- Tuple
		var next Tuple
		if len(queue) > 0 {
			out, next = to, queue[0]
		}
		select {
		case t, ok := <-from:
			if !ok {
				from = nil
				break
			}
			queue = append(queue, t)
		case out <- next:
			queue = queue[1:]
		case <-ctx.Done():
			return
		}
	}
}

// emit sends a tuple to every outgoing arc, honoring cancellation.
func emit(ctx context.Context, outs []*edge, t Tuple) error {
	for _, e := range outs {
		select {
		case e.ch <- t:
		case <-ctx.Done():
			return context.Canceled
		}
	}
	return nil
}

func closeAll(outs []*edge) {
	for _, e := range outs {
		close(e.ch)
	}
}

func (ex *execution) runInput(ctx context.Context, outs []*edge) error {
	defer closeAll(outs)
	// The user injects one single input tuple (§3.4).
	return emit(ctx, outs, NewTuple(ex.ix))
}

func (ex *execution) runService(ctx context.Context, n *plan.Node, in *edge, outs []*edge) error {
	defer closeAll(outs)
	ctx, nsp := nodeSpan(ctx, n)
	defer nsp.End()
	iv, err := NewNodeInvoker(ex.runner.Registry, n, ex.ix, ex.cache, ex.calls[n.Atom.Service])
	if err != nil {
		return err
	}
	// The stage takes its input in waves: one tuple at a time, or —
	// with ParallelCalls — MaxParallel tuples whose calls go out on
	// parallel threads (see callWave).
	size := 1
	if ex.runner.ParallelCalls {
		if size = ex.runner.MaxParallel; size <= 0 {
			size = 16
		}
	}
	release := func(rts []Tuple) error {
		nsp.AddObs(1, int64(len(rts)), 0, 0)
		for _, rt := range rts {
			if err := emit(ctx, outs, rt); err != nil {
				return err
			}
		}
		return nil
	}
	wave := make([]Tuple, 0, size)
	for open := true; open; {
		wave = wave[:0]
		for len(wave) < size {
			t, ok := <-in.ch
			if !ok {
				open = false
				break
			}
			wave = append(wave, t)
		}
		// A cancelled run (k satisfied downstream, budget trip,
		// external abort) stops invoking services immediately
		// instead of working through the buffered backlog.
		if len(wave) == 0 || ctx.Err() != nil {
			return nil
		}
		if err := ex.callWave(ctx, iv, wave, release); err != nil {
			if err == context.Canceled {
				return nil // downstream satisfied, or the run was cancelled
			}
			return err
		}
	}
	return nil
}

// sleep accounts simulated service time against the runner's clock.
func (ex *execution) sleep(ctx context.Context, elapsed time.Duration) error {
	if ex.runner.Clock != nil && elapsed > 0 && ex.runner.Clock.Sleep(ctx, elapsed) != nil {
		return context.Canceled
	}
	return nil
}

// waveCache holds back one wave call's cache entry until the wave
// releases it.
type waveCache struct {
	Cache
	key   string
	entry *Entry
}

func (c *waveCache) Put(_, key string, e Entry) { c.key, c.entry = key, &e }

// callWave performs the logical invocations of one wave — cache
// lookup, up to F fetches on a miss (accounted against the clock),
// row binding and local predicate evaluation — and hands each input's
// result tuples to release. A wave of several tuples (the
// multithreading test of §6) issues its calls on parallel threads,
// but deterministically: every call sees the cache as it was before
// the wave (identical concurrent calls all miss), and results are
// released — and entries recorded — in virtual completion order
// (simulated service time, ties in arrival order). Results of
// different calls thus interleave downstream, degrading the one-call
// cache as the paper observed, yet every run makes the same calls and
// emits the same stream.
func (ex *execution) callWave(ctx context.Context, iv *NodeInvoker, wave []Tuple, release func([]Tuple) error) error {
	if len(wave) == 1 { // a sequential stage: one call, inline
		rows, _, elapsed, err := iv.Call(ctx, wave[0])
		if err == nil {
			err = ex.sleep(ctx, elapsed)
		}
		if err != nil {
			return err
		}
		rts, err := iv.Expand(wave[0], rows)
		if err != nil {
			return err
		}
		return release(rts)
	}
	type slot struct {
		cache   waveCache
		rows    [][]schema.Value
		elapsed time.Duration
		err     error
	}
	slots := make([]slot, len(wave))
	var wg sync.WaitGroup
	for i, t := range wave {
		s, siv := &slots[i], *iv
		s.cache.Cache = iv.Cache
		siv.Cache = &s.cache
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s.rows, _, s.elapsed, s.err = siv.Call(ctx, t); s.err == nil {
				s.err = ex.sleep(ctx, s.elapsed)
			}
		}()
	}
	wg.Wait()
	order := make([]int, len(slots))
	for i := range slots {
		if slots[i].err != nil {
			return slots[i].err
		}
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return slots[order[a]].elapsed < slots[order[b]].elapsed })
	for _, i := range order {
		if c := slots[i].cache; c.entry != nil {
			iv.Cache.Put(iv.Node.Atom.Service, c.key, *c.entry)
		}
		rts, err := iv.Expand(wave[i], slots[i].rows)
		if err != nil {
			return err
		}
		if err := release(rts); err != nil {
			return err
		}
	}
	return nil
}

// runJoin implements the parallel join strategies of §3.3 / [4] as a
// streaming operator: the Cartesian plane is traversed in the
// strategy's order (Figure 5) with pairs emitted as soon as the order
// permits — see StreamJoin for the per-method contract. Tuples pair
// successfully when their shared variables agree (lineage or value
// equi-join) and the join's predicates hold. With Runner.Materialize
// set, the pre-streaming drain-then-JoinPairs path runs instead (the
// differential baseline; output is identical either way).
func (ex *execution) runJoin(ctx context.Context, n *plan.Node, ins []*edge, outs []*edge) error {
	defer closeAll(outs)
	ctx, nsp := nodeSpan(ctx, n)
	defer nsp.End()
	if ex.runner.Materialize {
		return ex.runJoinMaterialized(ctx, n, ins, outs)
	}
	rightCap := 0
	if ex.capsRight {
		rightCap = ex.runner.bufferSize()
	}
	return streamJoinCapped(ctx, n.Method, ins[0].ch, ins[1].ch, n.JoinPreds, ex.ix, func(m Tuple) error {
		nsp.AddObs(0, 1, 0, 0)
		return emit(ctx, outs, m)
	}, ex.runner.JoinExcessPeak, rightCap)
}

// runJoinMaterialized is the seed-era join stage: drain both input
// streams, then traverse the buffered plane with JoinPairs. Kept as
// the baseline the streaming operators are differential-tested and
// benchmarked against (Runner.Materialize).
func (ex *execution) runJoinMaterialized(ctx context.Context, n *plan.Node, ins []*edge, outs []*edge) error {
	var left, right []Tuple
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for t := range ins[0].ch {
			left = append(left, t)
		}
	}()
	go func() {
		defer wg.Done()
		for t := range ins[1].ch {
			right = append(right, t)
		}
	}()
	wg.Wait()
	if ctx.Err() != nil {
		return nil
	}

	merged, err := JoinPairs(n.Method, left, right, n.JoinPreds, ex.ix)
	if err != nil {
		return err
	}
	trace.From(ctx).AddObs(0, int64(len(merged)), 0, 0)
	for _, m := range merged {
		if emit(ctx, outs, m) != nil {
			return nil
		}
	}
	return nil
}
