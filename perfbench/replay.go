package main

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mdq/internal/card"
	"mdq/internal/cost"
	"mdq/internal/dist"
	"mdq/internal/exec"
	"mdq/internal/opt"
	"mdq/internal/plan"
	"mdq/internal/rescache"
	"mdq/internal/schema"
	"mdq/internal/service"
	"mdq/internal/trace"
)

// The in-process replay sends a run's requests, in order and one at a
// time, through the same public functions mdqserve calls — cq, opt,
// exec, dist — wired with mdqserve's and mdqworker's default settings.
// Decorators count work where it happens: at each service, at the
// result cache, and at each dist transport with a byte-counting HTTP
// client. Benchmark-owned spans wrap the calls into each layer; the
// optimizer's, executor's and dist's own spans hang below them.

// counters are filled by the decorators.
type counters struct {
	svcCalls, svcRows, svcBusyNs, svcSimNs atomic.Int64
	cacheHits, cacheMisses                 atomic.Int64
	searches, syncs, streams, frames       atomic.Int64
	cancelled, wireBytes                   atomic.Int64

	mu        sync.Mutex
	query     int // index of the request in flight
	searchMs  []float64
	slowestMs map[int]float64
	streamMs  []float64
}

func newCounters() *counters { return &counters{slowestMs: map[int]float64{}} }

// countedService counts invocations, rows, busy time and the simulated
// response time τ at the service.
type countedService struct {
	inner service.Service
	c     *counters
}

func (s countedService) Signature() *schema.Signature { return s.inner.Signature() }

func (s countedService) Invoke(ctx context.Context, patternIdx int, req service.Request) (service.Response, error) {
	t := time.Now()
	resp, err := s.inner.Invoke(ctx, patternIdx, req)
	s.c.svcBusyNs.Add(int64(time.Since(t)))
	s.c.svcCalls.Add(1)
	s.c.svcRows.Add(int64(len(resp.Rows)))
	s.c.svcSimNs.Add(int64(resp.Elapsed))
	return resp, err
}

// countedCache counts shared result-cache hits and misses.
type countedCache struct {
	inner exec.Cache
	c     *counters
}

func (k countedCache) Get(svc, key string) (exec.Entry, bool) {
	e, ok := k.inner.Get(svc, key)
	if ok {
		k.c.cacheHits.Add(1)
	} else {
		k.c.cacheMisses.Add(1)
	}
	return e, ok
}

func (k countedCache) Put(svc, key string, e exec.Entry) { k.inner.Put(svc, key, e) }

// countedTransport times and counts the coordinator's worker RPCs.
type countedTransport struct {
	dist.Transport
	c *counters
}

func (t countedTransport) Search(ctx context.Context, req dist.SearchRequest) (*dist.SearchResult, error) {
	start := time.Now()
	r, err := t.Transport.Search(ctx, req)
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	t.c.searches.Add(1)
	t.c.mu.Lock()
	t.c.searchMs = append(t.c.searchMs, ms)
	if ms > t.c.slowestMs[t.c.query] {
		t.c.slowestMs[t.c.query] = ms
	}
	t.c.mu.Unlock()
	return r, err
}

func (t countedTransport) Sync(ctx context.Context, id string, bound float64) (float64, error) {
	t.c.syncs.Add(1)
	return t.Transport.Sync(ctx, id, bound)
}

func (t countedTransport) ExecuteFragment(ctx context.Context, req dist.ExecuteRequest, sink func([]dist.WireTuple) error) (*dist.ExecuteResult, error) {
	start := time.Now()
	r, err := t.Transport.ExecuteFragment(ctx, req, func(b []dist.WireTuple) error {
		t.c.frames.Add(1)
		return sink(b)
	})
	t.c.streams.Add(1)
	if errors.Is(err, context.Canceled) {
		t.c.cancelled.Add(1)
	}
	t.c.mu.Lock()
	t.c.streamMs = append(t.c.streamMs, float64(time.Since(start))/float64(time.Millisecond))
	t.c.mu.Unlock()
	return r, err
}

// countingRT counts request and response body bytes.
type countingRT struct {
	inner http.RoundTripper
	n     *atomic.Int64
}

func (rt countingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.ContentLength > 0 {
		rt.n.Add(req.ContentLength)
	}
	resp, err := rt.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = countingBody{resp.Body, rt.n}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// decorated registers every service of a fresh world behind a counter,
// then observes them as mdqserve does.
func decorated(worldName string, c *counters) (*service.Registry, error) {
	w, err := newWorld(worldName)
	if err != nil {
		return nil, err
	}
	reg := service.NewRegistry()
	for _, svc := range w.reg.Services() {
		if err := reg.Register(countedService{svc, c}); err != nil {
			return nil, err
		}
	}
	if worldName == "travel" {
		// The travel world's registration-time join choice (simweb).
		reg.SetJoinMethod("flight", "hotel", plan.MergeScan)
	}
	reg.ObserveAll()
	return reg, nil
}

// searchParallelism is the optimizer's search parallelism in every
// server process and in the replay. Two closed-loop clients on two CPUs
// already keep both CPUs busy with concurrent queries; the default of
// one search worker per CPU oversubscribes them, and its shared-bound
// pruning makes the work per search, and the states and fetch vectors
// it counts, depend on thread timing. Sequential search keeps those
// counts exact and the timings steady.
const searchParallelism = 1

// defaultFeedback is mdqserve's and mdqworker's default feedback
// policy.
var defaultFeedback = &service.FeedbackPolicy{MinCalls: 4, MinDrift: 0.1}

func newResultCache(reg *service.Registry, c *counters) exec.Cache {
	store := rescache.New(rescache.Config{MaxEntries: rescache.DefaultMaxEntries, MaxBytes: rescache.DefaultMaxBytes})
	store.Bind(reg)
	return countedCache{store, c}
}

// stack is one freshly wired in-process serving path.
type stack struct {
	c     *counters
	reg   *service.Registry
	sch   *schema.Schema
	cache *opt.PlanCache
	rc    exec.Cache
	// feedback is nil when the workload runs without it.
	feedback *service.FeedbackPolicy
	// Fleet only.
	workers []dist.Transport
	member  *dist.Membership
	hosts   []map[string]bool
	close   func()
}

func newStack(wl *Workload) (*stack, error) {
	c := newCounters()
	reg, err := decorated(wl.World, c)
	if err != nil {
		return nil, err
	}
	sch, err := reg.Schema()
	if err != nil {
		return nil, err
	}
	st := &stack{c: c, reg: reg, sch: sch, feedback: defaultFeedback, close: func() {}}
	if wl.NoFeedback {
		st.feedback = nil
	}
	if wl.Workers == 0 {
		st.cache = opt.NewPlanCacheWith(opt.Policy{Capacity: 128})
		reg.SubscribeEpochs(st.cache, st.cache.InvalidateService)
		st.rc = newResultCache(reg, c)
		return st, nil
	}
	// The fleet's workers run in this process, behind real loopback
	// HTTP, so that the decorators can count at their services.
	var servers []*http.Server
	var stops []func()
	st.close = func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
		for _, s := range servers {
			s.Close()
		}
	}
	client := &http.Client{Transport: countingRT{http.DefaultTransport.(*http.Transport).Clone(), &c.wireBytes}}
	for i := 0; i < wl.Workers; i++ {
		wreg, err := decorated(wl.World, c)
		if err != nil {
			st.close()
			return nil, err
		}
		wk := dist.NewWorker(wreg, opt.NewPlanCacheWith(opt.Policy{Capacity: 128}))
		wk.Parallelism = searchParallelism
		wk.BufferSize = exec.DefaultBufferSize
		wk.Feedback = st.feedback
		wk.ResultCache = newResultCache(wreg, c)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.close()
			return nil, err
		}
		srv := &http.Server{Handler: wk.Handler()}
		go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed on close
		servers = append(servers, srv)
		st.workers = append(st.workers, countedTransport{&dist.HTTPTransport{Base: "http://" + ln.Addr().String(), HTTP: client}, c})
	}
	st.member = dist.NewMembership(st.workers)
	stops = append(stops, st.member.HealthLoop(dist.DefaultHealthInterval))
	gossip := &dist.Coordinator{Registry: reg, Workers: st.workers, Membership: st.member}
	stops = append(stops, gossip.GossipLoop(func(error) {}))
	if st.hosts, err = gossip.DiscoverHosts(context.Background()); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// queryKnobs decodes a request's metric, cache mode and K as mdqserve
// does.
func queryKnobs(r Request) (cost.Metric, card.CacheMode, int, error) {
	name := r.Metric
	if name == "" {
		name = "etm"
	}
	m, ok := cost.ByName(name)
	if !ok {
		return nil, 0, 0, fmt.Errorf("unknown metric %q", name)
	}
	mode, ok := card.ModeByName(r.Cache)
	if !ok {
		return nil, 0, 0, fmt.Errorf("unknown cache mode %q", r.Cache)
	}
	k := r.K
	if k == 0 {
		k = 10
	}
	return m, mode, k, nil
}

// stepTimes is one replayed request's measurements.
type stepTimes struct {
	cq, opt, exec, total time.Duration
	firstRow             time.Duration
	search               bool
	stats                opt.Stats
	cost                 float64
	optAllocs, optBytes  uint64
	execBytes            uint64
	rows                 int
}

// one replays a single request. tr is nil for an untraced replay. It
// returns the answer check's verdict apart from errors of the layers.
func (st *stack) one(ctx context.Context, r Request, set *answerSet, tr *trace.Trace) (s stepTimes, wrong, err error) {
	var ms0, ms1, ms2 runtime.MemStats
	root := tr.Root("bench.request")
	t0 := time.Now()

	sp := root.Child("bench.cq")
	q, err := bindRequest(r, st.sch)
	sp.End()
	t1 := time.Now()
	s.cq = t1.Sub(t0)
	if err != nil {
		return s, nil, err
	}
	m, mode, k, err := queryKnobs(r)
	if err != nil {
		return s, nil, err
	}

	runtime.ReadMemStats(&ms0)
	osp := root.Child("bench.opt")
	t1 = time.Now()
	var res *opt.Result
	if st.workers == nil {
		o := &opt.Optimizer{
			Metric: m, Estimator: card.Config{Mode: mode}, K: k,
			ChooseMethod: st.reg.MethodChooser(), Parallelism: searchParallelism,
			Cache: st.cache, CacheSalt: st.reg.CacheSalt(), Epochs: st.reg,
			RevalidateRatio: opt.DefaultRevalidateRatio, Span: osp,
		}
		res, err = o.OptimizeTemplate(q)
	} else {
		res, err = st.coordinator(m, mode, k).OptimizeTemplate(trace.With(ctx, osp), q)
	}
	osp.End()
	t2 := time.Now()
	s.opt = t2.Sub(t1)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return s, nil, fmt.Errorf("optimizing: %w", err)
	}
	s.search = !res.Cached && !res.TemplateHit
	s.stats, s.cost = res.Stats, res.Cost
	s.optAllocs, s.optBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc

	esp := root.Child("bench.exec")
	t2 = time.Now()
	var out *exec.Result
	if st.workers == nil {
		runner := &exec.Runner{Registry: st.reg, Cache: mode, K: k, Feedback: st.feedback, BufferSize: exec.DefaultBufferSize, ResultCache: st.rc}
		out, err = runner.Run(trace.With(ctx, esp), res.Best)
	} else {
		out, err = st.coordinator(m, mode, k).ExecutePlan(trace.With(ctx, esp), res.Best)
	}
	esp.End()
	root.End()
	s.exec = time.Since(t2)
	s.total = time.Since(t0)
	runtime.ReadMemStats(&ms2)
	if err != nil {
		return s, nil, fmt.Errorf("executing: %w", err)
	}
	s.execBytes = ms2.TotalAlloc - ms1.TotalAlloc
	s.firstRow = out.FirstRow
	s.rows = len(out.Rows)
	rows := make([][]string, len(out.Rows))
	for i, row := range out.Rows {
		rows[i] = make([]string, len(row))
		for j, v := range row {
			rows[i][j] = render(v)
		}
	}
	return s, set.check(rows), nil
}

// coordinator assembles a per-request coordinator as mdqserve does.
func (st *stack) coordinator(m cost.Metric, mode card.CacheMode, k int) *dist.Coordinator {
	return &dist.Coordinator{
		Registry: st.reg, Workers: st.workers, Metric: m, Mode: mode, K: k,
		RevalidateRatio: opt.DefaultRevalidateRatio, Hosts: st.hosts,
		BufferSize: exec.DefaultBufferSize, Membership: st.member,
		Retry: dist.RetryPolicy{MaxRetries: dist.DefaultMaxRetries},
	}
}

// replayResult is one replay's measurements.
type replayResult struct {
	steps []stepTimes
	// selfNs sums span self time by layer (traced replays only).
	selfNs map[string]int64
	// phaseNs sums the optimizer's phase spans' self time.
	phaseNs  [3]int64
	c        *counters
	wrong    int
	errs     int
	firstErr string
}

// layerOf maps a span name to the layer whose code it times.
func layerOf(name string) string {
	switch {
	case name == "bench.cq":
		return "cq"
	case name == "bench.opt", strings.HasPrefix(name, "opt."), name == "worker.search":
		return "opt"
	case name == "bench.exec", strings.HasPrefix(name, "node:"), name == "worker.fragment":
		return "exec"
	case strings.HasPrefix(name, "call:"):
		return "service"
	case strings.HasPrefix(name, "dist."):
		return "dist"
	}
	return "request"
}

var phaseSpans = [3]string{"opt.phase1.patterns", "opt.phase2.topologies", "opt.phase3.fetch"}

// replay sends the warm-up requests, then the timed sequence from its
// start, through two fresh stacks, one traced and one not, until budget
// has elapsed. Each request goes to both stacks back to back, in
// alternating order, so that the two replays share the machine's
// conditions and differ only in tracing.
func replay(wl *Workload, ref *reference, budget time.Duration) (traced, untraced *replayResult, err error) {
	var stacks [2]*stack
	var res [2]*replayResult
	for k := range stacks {
		if stacks[k], err = newStack(wl); err != nil {
			if k == 1 {
				stacks[0].close()
			}
			return nil, nil, err
		}
		defer stacks[k].close()
		res[k] = &replayResult{selfNs: map[string]int64{}, c: stacks[k].c}
	}
	ctx := context.Background()
	for k, st := range stacks {
		for i, r := range wl.Warmup {
			_, wrong, err := st.one(ctx, r, ref.warm[i], nil)
			res[k].note(wrong, err)
		}
		// Counters start after the warm-up.
		resetCounters(st.c)
	}
	deadline := time.Now().Add(budget)
	for i := 0; i < len(wl.Seq) && time.Now().Before(deadline); i++ {
		j := wl.Seq[i]
		for n := 0; n < 2; n++ {
			k := (i + n) % 2
			st := stacks[k]
			st.c.mu.Lock()
			st.c.query = i
			st.c.mu.Unlock()
			var tr *trace.Trace
			if k == 0 {
				tr = trace.New(fmt.Sprintf("%016x", i+1))
			}
			s, wrong, err := st.one(ctx, wl.Distinct[j], ref.sets[j], tr)
			res[k].note(wrong, err)
			res[k].steps = append(res[k].steps, s)
			if tr != nil {
				res[k].addSpans(tr.Spans())
			}
		}
	}
	return res[0], res[1], nil
}

// note counts a replayed request's failure, if any.
func (r *replayResult) note(wrong, err error) {
	switch {
	case err != nil:
		r.errs++
		r.firstErr = cmp.Or(r.firstErr, err.Error())
	case wrong != nil:
		r.wrong++
		r.firstErr = cmp.Or(r.firstErr, wrong.Error())
	}
}

// addSpans adds one request's span self times to the layer totals.
func (r *replayResult) addSpans(spans []trace.Span) {
	self := selfTimes(spans)
	// Phase 3 runs at every leaf of the phase-2 walk and its span sums
	// that time, so it comes off phase 2's self time (exact for a
	// sequential search).
	phase2 := map[uint64]uint64{}
	for _, sp := range spans {
		if sp.Name == phaseSpans[1] {
			phase2[sp.Parent] = sp.ID
		}
	}
	for _, sp := range spans {
		if id, ok := phase2[sp.Parent]; ok && sp.Name == phaseSpans[2] {
			self[id] -= sp.Dur
		}
	}
	for _, sp := range spans {
		r.selfNs[layerOf(sp.Name)] += self[sp.ID]
		for p, name := range phaseSpans {
			if sp.Name == name {
				r.phaseNs[p] += self[sp.ID]
			}
		}
	}
}

// resetCounters zeroes the counters in place: the decorators hold the
// pointer.
func resetCounters(c *counters) {
	for _, v := range []*atomic.Int64{&c.svcCalls, &c.svcRows, &c.svcBusyNs, &c.svcSimNs,
		&c.cacheHits, &c.cacheMisses, &c.searches, &c.syncs, &c.streams, &c.frames,
		&c.cancelled, &c.wireBytes} {
		v.Store(0)
	}
	c.mu.Lock()
	c.searchMs, c.streamMs = nil, nil
	c.slowestMs = map[int]float64{}
	c.mu.Unlock()
}
