// Package sim is a deterministic discrete-event simulator of plan
// execution: it replays exactly the semantics of the exec package
// (logical caching, chunked fetching, join strategies) while
// advancing a virtual clock by the simulated service times reported
// by the services. It produces the makespan measurements of the
// paper's Figure 11 reproducibly, without sleeping.
//
// The model: every service node is a station. In sequential mode
// (the paper's base setting) a station serves one invocation at a
// time from a FIFO queue; in parallel-dispatch mode (§6's separate
// multithreading test) every queued invocation is served
// immediately by its own thread. Parallel branches of the plan
// overlap naturally. Join nodes take no service time; they fire
// when both input branches have completed, traversing the Cartesian
// plane in the strategy's order.
package sim

import (
	"container/heap"
	"context"
	"fmt"
	"time"

	"mdq/internal/card"
	"mdq/internal/exec"
	"mdq/internal/plan"
	"mdq/internal/schema"
	"mdq/internal/service"
)

// Simulator configures a virtual-time execution.
type Simulator struct {
	// Registry resolves services (their Invoke must be pure
	// computation reporting Elapsed, as tabsvc does).
	Registry *service.Registry
	// Cache is the logical caching level (§5.1).
	Cache card.CacheMode
	// K stops the simulation after k results reach the output; 0
	// drains the plan.
	K int
	// ParallelCalls serves every queued invocation of a station
	// concurrently (infinite servers) instead of one at a time.
	ParallelCalls bool
	// Pipelined lets a station start serving as soon as tuples
	// arrive. The paper's engine materializes each node before its
	// dependents start (plan S's measured 374 s is the exact serial
	// sum of its calls), so the faithful default is stage-synchronous
	// execution; pipelining is the ablation our engine adds.
	Pipelined bool
}

// Result reports a simulated execution.
type Result struct {
	// Rows are the head projections in production order.
	Rows [][]schema.Value
	// Makespan is the virtual time at which the run completed (the
	// k-th answer for k-limited runs, otherwise full drain).
	Makespan time.Duration
	// FirstAnswer is the virtual time at which the first result
	// reached the output — the quantity the time-to-screen metric
	// estimates (§2.3).
	FirstAnswer time.Duration
	// Stats carries per-service invocation and fetch counts.
	Stats exec.Stats
	// BusyTime sums all service time spent (the sequential-execution
	// total).
	BusyTime time.Duration
}

// event is a scheduled simulator action.
type event struct {
	at   time.Duration
	seq  int64
	node int
	act  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// station is the simulation state of one plan node.
type station struct {
	node *plan.Node
	iv   *exec.NodeInvoker

	queue  []exec.Tuple
	busy   int
	open   []int // per in-edge: number of open upstream producers
	closed bool
	// join buffers, indexed by in-edge.
	buf [2][]exec.Tuple
}

type simulation struct {
	sim   *Simulator
	plan  *plan.Plan
	ix    *exec.VarIndex
	cache exec.Cache

	now      time.Duration
	seq      int64
	events   eventQueue
	stations []*station
	calls    map[string]*service.Counter

	rows     [][]schema.Value
	first    time.Duration
	busy     time.Duration
	finished bool
	err      error
}

// Run simulates the plan and returns rows, call counts and the
// virtual makespan.
func (s *Simulator) Run(ctx context.Context, p *plan.Plan) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sm := &simulation{
		sim:   s,
		plan:  p,
		ix:    exec.NewVarIndex(p),
		cache: exec.NewCache(s.Cache),
		calls: map[string]*service.Counter{},
	}
	sm.stations = make([]*station, len(p.Nodes))
	for _, n := range p.Nodes {
		st := &station{node: n, open: make([]int, len(n.In))}
		for i, m := range n.In {
			_ = m
			st.open[i] = 1
		}
		if n.Kind == plan.Service {
			c, ok := sm.calls[n.Atom.Service]
			if !ok {
				c = &service.Counter{}
				sm.calls[n.Atom.Service] = c
			}
			iv, err := exec.NewNodeInvoker(s.Registry, n, sm.ix, sm.cache, c)
			if err != nil {
				return nil, err
			}
			st.iv = iv
		}
		sm.stations[n.ID] = st
	}

	// Kick off: the input node emits one tuple at time zero and
	// closes.
	sm.schedule(0, p.InputNode().ID, func() {
		sm.emit(ctx, p.InputNode(), exec.NewTuple(sm.ix))
		sm.closeNode(ctx, p.InputNode())
	})
	for len(sm.events) > 0 && !sm.finished && sm.err == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e := heap.Pop(&sm.events).(*event)
		sm.now = e.at
		e.act()
	}
	if sm.err != nil {
		return nil, sm.err
	}
	res := &Result{
		Rows:        sm.rows,
		Makespan:    sm.now,
		FirstAnswer: sm.first,
		BusyTime:    sm.busy,
		Stats:       exec.Stats{Calls: map[string]int64{}, Fetches: map[string]int64{}},
	}
	for name, c := range sm.calls {
		res.Stats.Calls[name] = c.Calls()
		res.Stats.Fetches[name] = c.Fetches()
	}
	return res, nil
}

func (sm *simulation) schedule(at time.Duration, node int, act func()) {
	sm.seq++
	heap.Push(&sm.events, &event{at: at, seq: sm.seq, node: node, act: act})
}

// emit delivers a tuple to every successor of n at the current time.
func (sm *simulation) emit(ctx context.Context, n *plan.Node, t exec.Tuple) {
	for _, m := range n.Out {
		edgeIdx := inEdgeIndex(m, n)
		sm.arrive(ctx, m, edgeIdx, t)
	}
}

func inEdgeIndex(to, from *plan.Node) int {
	for i, m := range to.In {
		if m.ID == from.ID {
			return i
		}
	}
	return 0
}

// arrive processes a tuple arriving at a node.
func (sm *simulation) arrive(ctx context.Context, n *plan.Node, edgeIdx int, t exec.Tuple) {
	st := sm.stations[n.ID]
	switch n.Kind {
	case plan.Output:
		head, err := t.Project(sm.ix, sm.plan.Query.Head)
		if err != nil {
			sm.err = err
			return
		}
		if len(sm.rows) == 0 {
			sm.first = sm.now
		}
		sm.rows = append(sm.rows, head)
		if sm.sim.K > 0 && len(sm.rows) >= sm.sim.K {
			sm.finished = true
		}
	case plan.Join:
		st.buf[edgeIdx] = append(st.buf[edgeIdx], t)
	case plan.Service:
		st.queue = append(st.queue, t)
		sm.pump(ctx, st)
	}
}

func (st *station) inputsClosed() bool {
	for _, o := range st.open {
		if o > 0 {
			return false
		}
	}
	return true
}

// pump starts service work if the station has capacity. In
// stage-synchronous mode (the default) a station only starts once
// every upstream producer has closed.
func (sm *simulation) pump(ctx context.Context, st *station) {
	if !sm.sim.Pipelined && !st.inputsClosed() {
		return
	}
	for len(st.queue) > 0 && (st.busy == 0 || sm.sim.ParallelCalls) {
		t := st.queue[0]
		st.queue = st.queue[1:]
		st.busy++
		rows, _, elapsed, err := st.iv.Call(ctx, t)
		if err != nil {
			sm.err = err
			return
		}
		sm.busy += elapsed
		tt := t
		sm.schedule(sm.now+elapsed, st.node.ID, func() {
			st.busy--
			results, err := st.iv.Expand(tt, rows)
			if err != nil {
				sm.err = err
				return
			}
			for _, rt := range results {
				sm.emit(ctx, st.node, rt)
			}
			sm.pump(ctx, st)
			sm.maybeClose(ctx, st)
		})
		if !sm.sim.ParallelCalls {
			return // sequential station: one in flight
		}
	}
}

// closeNode marks one upstream producer of each successor edge as
// done and propagates closure.
func (sm *simulation) closeNode(ctx context.Context, n *plan.Node) {
	st := sm.stations[n.ID]
	if st.closed {
		return
	}
	st.closed = true
	for _, m := range n.Out {
		edgeIdx := inEdgeIndex(m, n)
		ms := sm.stations[m.ID]
		ms.open[edgeIdx]--
		sm.maybeClose(ctx, ms)
	}
}

// maybeClose fires when a station has no open inputs and no pending
// work: joins flush their buffers, services propagate closure.
func (sm *simulation) maybeClose(ctx context.Context, st *station) {
	if st.closed || sm.finished {
		return
	}
	for _, o := range st.open {
		if o > 0 {
			return
		}
	}
	n := st.node
	switch n.Kind {
	case plan.Service:
		if len(st.queue) > 0 || st.busy > 0 {
			sm.pump(ctx, st) // stage-sync: inputs just closed, start serving
			return
		}
		sm.closeNode(ctx, n)
	case plan.Join:
		merged, err := exec.JoinPairs(n.Method, st.buf[0], st.buf[1], n.JoinPreds, sm.ix)
		if err != nil {
			sm.err = err
			return
		}
		for _, m := range merged {
			if sm.finished {
				break
			}
			sm.emit(ctx, n, m)
		}
		sm.closeNode(ctx, n)
	case plan.Output:
		// nothing to do
	case plan.Input:
		sm.closeNode(ctx, n)
	}
}

// Describe returns a short label for reports.
func (s *Simulator) Describe() string {
	mode := "sequential"
	if s.ParallelCalls {
		mode = "parallel-dispatch"
	}
	return fmt.Sprintf("sim(%s, %s)", s.Cache, mode)
}
