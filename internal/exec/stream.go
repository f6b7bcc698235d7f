package exec

// Streaming join operators: the pipelined half of §3.3 / [4]. The
// materializing JoinPairs (invoker.go) drains both branches and then
// walks the Cartesian plane; StreamJoin walks the *same* plane in the
// same order, but emits each pair at the earliest moment the
// traversal order permits — before the inputs are exhausted. That is
// the paper's point about the join strategies: nested loop and
// merge-scan visit the plane in an order chosen so results surface
// while proliferative services are still producing, which is what
// makes early termination at K (§2.2) cut service calls rather than
// just output size.
//
// Order contract (differential-tested against JoinPairs):
//
//   - nested loop is right-major — for each right tuple in rank
//     order, all left matches in left order. The left (selective)
//     side must therefore be complete before the first pair can be
//     emitted, but each right tuple is joined the moment it arrives
//     and never buffered beyond the in-flight frontier.
//   - merge-scan walks anti-diagonals i+j = 0, 1, 2, …; diagonal d is
//     emittable as soon as both sides either hold more than d tuples
//     or are closed, so the first pairs emit while both sides are
//     still streaming. Both buffers are retained in full — every
//     buffered tuple still pairs with unseen tuples of the other
//     side, so the whole buffer *is* the still-needed frontier.
//
// Both operators read their two inputs concurrently (a select over
// the channels), never stalling one side while waiting on the other.
// This keeps a shared upstream producer live: if the two join inputs
// descend from one node with several consumers, refusing to read one
// input while the other fills would deadlock the producer against the
// bounded arc buffers. The in-process Runner lifts this for the
// nested loop: it relays multi-consumer arcs through unbounded queues,
// so the loop can stop reading its right side at BufferSize pending
// tuples — the proliferative branch waits for the selective one, and
// early termination at K cuts its calls.

import (
	"context"
	"sync/atomic"

	"mdq/internal/cq"
	"mdq/internal/plan"
)

// DefaultBufferSize is the per-arc channel capacity of the streaming
// runtime when Runner.BufferSize (or dist.Coordinator.BufferSize) is
// unset. Larger buffers absorb producer/consumer rate mismatch at the
// price of proportionally more buffered tuples per arc; smaller
// buffers bound memory tighter but stall fast producers sooner.
const DefaultBufferSize = 128

// notePeak raises a peak gauge to n if n exceeds it. A nil gauge
// records nothing.
func notePeak(peak *atomic.Int64, n int) {
	if peak == nil {
		return
	}
	v := int64(n)
	for {
		cur := peak.Load()
		if v <= cur || peak.CompareAndSwap(cur, v) {
			return
		}
	}
}

// StreamJoin joins two tuple streams incrementally, emitting merged
// pairs in exactly the order JoinPairs would produce them from the
// fully buffered sides (see the package comment above for the order
// contract per method). Channels must be closed by their producers;
// emit is called once per surviving pair and may return an error to
// stop the join early (a downstream-satisfied signal — typically
// context.Canceled — propagates back unchanged). A cancelled ctx
// aborts the join with context.Canceled.
//
// peak, when non-nil, is raised to the largest number of tuples the
// operator ever buffered *beyond* its still-needed frontier: right
// tuples a nested loop queued while its left side was still open.
// Merge-scan never buffers beyond its frontier, so it leaves the
// gauge untouched. Tests pin this gauge to show coordinator memory is
// bounded by arc buffers, not by intermediate-result cardinality.
func StreamJoin(ctx context.Context, method plan.JoinMethod, left, right <-chan Tuple, preds []*cq.Predicate, ix *VarIndex, emit func(Tuple) error, peak *atomic.Int64) error {
	return streamJoinCapped(ctx, method, left, right, preds, ix, emit, peak, 0)
}

// streamJoinCapped is StreamJoin with the nested loop's pending right
// queue capped at rightCap tuples (0 = unbounded); safe only when no
// producer feeds both sides through bounded arcs.
func streamJoinCapped(ctx context.Context, method plan.JoinMethod, left, right <-chan Tuple, preds []*cq.Predicate, ix *VarIndex, emit func(Tuple) error, peak *atomic.Int64, rightCap int) error {
	j := &streamJoin{ctx: ctx, preds: preds, ix: ix, emit: emit, peak: peak, rightCap: rightCap}
	switch method {
	case plan.NestedLoop:
		return j.nestedLoop(left, right)
	default: // plan.MergeScan
		return j.mergeScan(left, right)
	}
}

type streamJoin struct {
	ctx      context.Context
	preds    []*cq.Predicate
	ix       *VarIndex
	emit     func(Tuple) error
	peak     *atomic.Int64
	rightCap int
}

// try merges one candidate pair and emits it when the shared
// variables agree and the join predicates hold.
func (j *streamJoin) try(l, r Tuple) error {
	m, ok := l.Merge(r)
	if !ok {
		return nil
	}
	pass, err := EvalPreds(j.preds, m, j.ix)
	if err != nil {
		return err
	}
	if !pass {
		return nil
	}
	return j.emit(m)
}

// nestedLoop buffers the left (selective) side as it arrives and
// joins each right tuple the moment the left side is complete —
// right-major order, with the right side never accumulated beyond
// whatever arrived while the left was still open (tracked in peak).
func (j *streamJoin) nestedLoop(lch, rch <-chan Tuple) error {
	var left, pending []Tuple
	// Phase 1: complete the left side. Right tuples arriving early are
	// queued unjoined (the order contract needs the full left first),
	// but still consumed so a shared upstream never blocks on us
	// (unless capped).
	for lch != nil {
		rin := rch
		if j.rightCap > 0 && len(pending) >= j.rightCap {
			rin = nil
		}
		select {
		case t, ok := <-lch:
			if !ok {
				lch = nil
				break
			}
			left = append(left, t)
		case t, ok := <-rin:
			if !ok {
				rch = nil
				break
			}
			pending = append(pending, t)
			notePeak(j.peak, len(pending))
		case <-j.ctx.Done():
			return context.Canceled
		}
	}
	// Phase 2: right-major scan, one right tuple at a time.
	scan := func(r Tuple) error {
		for _, l := range left {
			if err := j.try(l, r); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range pending {
		if err := scan(r); err != nil {
			return err
		}
	}
	pending = nil
	for rch != nil {
		select {
		case t, ok := <-rch:
			if !ok {
				rch = nil
				break
			}
			if err := scan(t); err != nil {
				return err
			}
		case <-j.ctx.Done():
			return context.Canceled
		}
	}
	return nil
}

// mergeScan buffers both sides as they arrive and emits anti-diagonal
// d = i+j as soon as each side either holds more than d tuples or is
// closed — the earliest moment the diagonal's membership is fully
// determined. The traversal (and so the output order) is identical to
// the materializing JoinPairs walk.
func (j *streamJoin) mergeScan(lch, rch <-chan Tuple) error {
	var left, right []Tuple
	d := 0
	for {
		// Emit every diagonal whose membership is already determined.
		// The i-range bounds below use the *current* lengths, which is
		// sound exactly under the readiness condition: a side that is
		// still open has more than d tuples, so its bound reduces to
		// the same value the final length would give.
		for (len(left) > d || lch == nil) && (len(right) > d || rch == nil) {
			if lch == nil && rch == nil && d >= len(left)+len(right)-1 {
				return nil
			}
			i0 := d - len(right) + 1
			if i0 < 0 {
				i0 = 0
			}
			for i := i0; i <= d && i < len(left); i++ {
				if err := j.try(left[i], right[d-i]); err != nil {
					return err
				}
			}
			d++
		}
		select {
		case t, ok := <-lch:
			if !ok {
				lch = nil
				break
			}
			left = append(left, t)
		case t, ok := <-rch:
			if !ok {
				rch = nil
				break
			}
			right = append(right, t)
		case <-j.ctx.Done():
			return context.Canceled
		}
	}
}
