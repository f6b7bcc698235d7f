package exec

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mdq/internal/plan"
	"mdq/internal/service"
)

// RunFragment executes a linear fragment of a plan — a chain of
// service nodes identified by their atom indexes, in topological
// order — against this runner's registry, seeding the chain's head
// with externally supplied tuples instead of the plan's Input node.
// It is the worker half of distributed plan execution: the
// coordinator cuts the plan DAG at joins and at nodes with several
// consumers, ships each chain to a worker together with the tuples
// flowing into it, and joins the streamed-back outputs itself.
//
// The fragment runs through the ordinary stage machinery (one
// goroutine per node, channels along the arcs, logical caching,
// chunked fetching, local predicates), so a chain produces exactly
// the tuples — in exactly the order — the same nodes would produce
// inside a full Run. Two deliberate differences: the runner's K caps
// the fragment's output and ends it as a complete run (accounting and
// feedback included) — set it only when the tail feeds the plan's
// output, since a join needs its input whole — and ParallelCalls is
// ignored (parallel dispatch reorders results, which would break the
// byte-identical contract fragment execution is differential-tested
// under).
//
// When sink is non-nil every produced tuple is handed to it as soon
// as the chain's tail emits it — the streaming path — and
// Result.Tuples stays nil; a sink error cancels the fragment and is
// returned. With a nil sink the tuples are collected in
// Result.Tuples. Result.Head and Result.Rows are always nil: a
// fragment produces intermediate bindings, not projected answers.
// The runner's Feedback policy applies to the fragment's services
// afterwards, exactly as in Run — this is what makes an executing
// worker's profiles absorb the traffic that flowed near them.
func (r *Runner) RunFragment(ctx context.Context, p *plan.Plan, atoms []int, seeds []Tuple, sink func(Tuple) error) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	chain, err := fragmentChain(p, atoms)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ex := &execution{
		runner: r,
		plan:   p,
		ix:     NewVarIndex(p),
		cache:  r.runCache(),
		calls:  map[string]*service.Counter{},
	}
	for _, n := range chain {
		if _, ok := ex.calls[n.Atom.Service]; !ok {
			ex.calls[n.Atom.Service] = &service.Counter{}
		}
	}
	for _, t := range seeds {
		if t.Width() != ex.ix.Len() {
			return nil, fmt.Errorf("exec: fragment seed has %d slots, plan layout has %d", t.Width(), ex.ix.Len())
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// One edge in front of every chain node plus one behind the tail.
	edges := make([]*edge, len(chain)+1)
	for i := range edges {
		edges[i] = &edge{ch: make(chan Tuple, r.bufferSize())}
	}

	// Seed the head.
	go func() {
		defer close(edges[0].ch)
		for _, t := range seeds {
			if emit(ctx, edges[:1], t) != nil {
				return
			}
		}
	}()

	// The stages: parallel dispatch is deliberately disabled so the
	// tail's emission order matches a sequential in-plan run.
	seq := *r
	seq.ParallelCalls = false
	ex.runner = &seq

	errc := make(chan error, len(chain))
	var wg sync.WaitGroup
	for i, n := range chain {
		i, n := i, n
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ex.runService(ctx, n, edges[i], edges[i+1:i+2]); err != nil && err != context.Canceled {
				select {
				case errc <- err:
				default:
				}
				cancel()
			}
		}()
	}

	var (
		tuples  []Tuple
		sinkErr error
		n       int
		reached bool
	)
	for t := range edges[len(chain)].ch {
		if sink != nil {
			if err := sink(t); err != nil {
				sinkErr = err
				cancel()
				break
			}
		} else {
			tuples = append(tuples, t)
		}
		if n++; r.K > 0 && n >= r.K {
			reached = true
			cancel()
			break
		}
	}
	// Drain whatever the stages still emit after a sink abort or K so
	// they can shut down (emit also unblocks on the cancelled context).
	for range edges[len(chain)].ch {
	}
	wg.Wait()

	select {
	case err := <-errc:
		return nil, budgetAbort(ctx, err)
	default:
	}
	if sinkErr != nil {
		return nil, sinkErr
	}
	if ctx.Err() != nil && !reached {
		return nil, budgetAbort(ctx, ctx.Err())
	}
	res := &Result{
		Tuples:  tuples,
		Stats:   Stats{Calls: map[string]int64{}, Fetches: map[string]int64{}},
		Elapsed: time.Since(start),
	}
	for name, c := range ex.calls {
		res.Stats.Calls[name] = c.Calls()
		res.Stats.Fetches[name] = c.Fetches()
	}
	r.feedback(ex)
	return res, nil
}

// fragmentChain resolves atom indexes to plan nodes and verifies they
// form a linear chain: each node's only input arc comes from the
// previous node, and each non-tail node's only consumer is the next —
// the shape under which executing the nodes in isolation reproduces
// their in-plan tuple streams exactly.
func fragmentChain(p *plan.Plan, atoms []int) ([]*plan.Node, error) {
	if len(atoms) == 0 {
		return nil, fmt.Errorf("exec: empty fragment")
	}
	chain := make([]*plan.Node, len(atoms))
	for i, ai := range atoms {
		if ai < 0 || ai >= len(p.ServiceNode) {
			return nil, fmt.Errorf("exec: fragment atom %d out of range (plan has %d)", ai, len(p.ServiceNode))
		}
		chain[i] = p.ServiceNode[ai]
	}
	for i, n := range chain {
		if len(n.In) != 1 {
			return nil, fmt.Errorf("exec: fragment node %s has %d input arcs, want 1", n.Label(), len(n.In))
		}
		if i == 0 {
			continue
		}
		prev := chain[i-1]
		if n.In[0] != prev {
			return nil, fmt.Errorf("exec: fragment nodes %s → %s are not adjacent in the plan", prev.Label(), n.Label())
		}
		if len(prev.Out) != 1 {
			return nil, fmt.Errorf("exec: fragment node %s feeds %d consumers, cannot be chain-interior", prev.Label(), len(prev.Out))
		}
	}
	return chain, nil
}
